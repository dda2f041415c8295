"""One call per decay curve: closed-form waits, geometric sums and the beat functional.

The closed-form wait is checked against `expm` of the same generator, the
geometric-sum readout against the beat synthesized from explicitly sampled
detector ticks, and whole decay curves against one full sampled
`propagate_members` trajectory per storage time.  A curve's echo with its
table of waits must have the bits of one call per storage time.  A
non-physical (storage time, member) state must be named in the error, and
so must a wait whose duration is not finite and > 0.
"""

from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import eitecho.dynamics as dynamics
from eitecho.dynamics import (PulseSpec, Trajectory, Wait, _check_physical,
                              _expm, _segment_params, geometric_sum,
                              member_generators, propagate_members, sequence_endpoints,
                              wait_rates, wait_states)
from eitecho.ensemble import MIXED_GROUND, EnsembleSpec, member_stack, stack_ensembles
from eitecho.errors import ConfigurationError, ValidationError
from eitecho.lambda_system import LambdaParams
from eitecho.readout import (_beat_amplitudes, _echo_amplitudes, assemble_decay_curve,
                             beat_amplitude, synthesize_beat)
from eitecho.sequences import EchoConfig, echo_layout, make_echo_sequence, make_readout_pulse

from conftest import _segment_map, random_density3
from test_propagators import W, lambda_params, unit
from test_sequences import layout_cases

TWO_PI = 2.0 * np.pi
PARAMS = LambdaParams(delta_opt=TWO_PI * 40e3, gamma_spin_deph=2e3, gamma_opt_deph=1e5,
                      gamma_opt_decay=1.0 / 164e-6)
GRID = EnsembleSpec(optical_fwhm=170e3, spin_fwhm=20e3, n_optical=3, n_spin=3,
                    zeeman_branches=((-8e3, 0.4), (8e3, 0.6)))


class TestClosedFormWait:
    @settings(max_examples=100, deadline=None)
    @given(lambda_params(), st.lists(st.floats(1e-9, 30e-6), min_size=1, max_size=3),
           st.lists(st.tuples(unit, unit, unit), min_size=1, max_size=3),
           st.sampled_from([1.0, -1.0]))
    @example(LambdaParams(gamma_opt_decay=0.0, gamma_opt_deph=W),
             [27e-6], [(0.0, 0.0, 0.0)], 1.0)
    @example(LambdaParams(gamma_opt_decay=W, branch0=0.0),
             [1e-6, 2e-6], [(1.0, -1.0, 0.5)], -1.0)
    @example(LambdaParams(gamma_opt_decay=W, branch0=1.0, gamma_spin_deph=0.1 * W),
             [1e-6], [(0.0, 0.0, 0.0)], 1.0)
    # a decay rate whose x = -rate * t is subnormal
    @example(LambdaParams(gamma_opt_decay=1.3980551375253427e-306, branch0=0.0),
             [2.415145003982803e-05], [(0.0, 0.0, 0.0)], 1.0)
    # the two subnormal-detuning regressions of the expm path
    @example(LambdaParams(gamma_opt_decay=0.1 * W, delta_spin=5e-324 * W),
             [27e-6], [(0.0, 0.0, 0.0)], 1.0)
    @example(LambdaParams(delta_opt=0.3 * W, gamma_opt_decay=0.1 * W),
             [9e-6], [(0.0, 0.0, 5e-324)], -1.0)
    def test_matches_expm(self, p, durations, offsets, sign):
        offsets = W * np.array(offsets)
        wait = Wait(duration=1e-6, zeeman_sign=sign)
        gen = member_generators(p, wait, offsets)
        # the wait of each unit state e_j is column j of its map
        maps = np.stack([wait_states(wait_rates(p, wait, offsets), durations,
                                     np.tile(e, (len(gen), 1)))
                         for e in np.eye(9)], axis=-1)
        assert np.isfinite(maps).all()
        for t, stack in zip(durations, maps):
            ref = _expm(t * gen)
            assert np.max(np.abs(stack - ref)) <= 1e-12 * max(np.max(np.abs(ref)), 1.0)

    @settings(max_examples=100, deadline=None)
    @given(lambda_params(), st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4),
           st.lists(st.tuples(unit, unit, unit), min_size=1, max_size=3),
           st.sampled_from([1.0, -1.0]), st.integers(0, 2**32 - 1))
    # a whole second of free evolution: rho_ee has long decayed into the ground
    @example(LambdaParams(gamma_opt_decay=W, branch0=0.3, delta_opt=W),
             [0.0, 1.0], [(1.0, -1.0, 1.0)], -1.0, 0)
    # a decay rate whose x = -rate * t is subnormal
    @example(LambdaParams(gamma_opt_decay=1.3980551375253427e-306, branch0=0.5),
             [2.415145003982803e-05], [(0.0, 0.0, 0.0)], 1.0, 1)
    def test_keeps_a_physical_state_physical(self, p, durations, offsets, sign, seed):
        rng = np.random.default_rng(seed)
        wait, offsets = Wait(duration=1e-6, zeeman_sign=sign), W * np.array(offsets)
        gen = member_generators(p, wait, offsets)
        v = np.array([random_density3(rng).reshape(9) for _ in gen])
        states = wait_states(wait_rates(p, wait, offsets), durations, v)
        # the trace moves by no more than the generator itself fails to keep
        # it: liouvillians sums rho_ee's decay with the optical dephasing, so
        # a slow decay beside a fast dephasing loses its last bits
        leak = np.abs(np.eye(3).reshape(9) @ gen).sum(axis=-1).max()
        drift = np.abs(np.trace(states.reshape(len(durations), -1, 3, 3), axis1=2, axis2=3) - 1.0)
        assert (drift.max(axis=1) <= 1e-12 + leak * np.array(durations)).all()
        states = states.reshape(-1, 3, 3)
        adjoint = states.conj().swapaxes(1, 2)
        assert np.abs(states - adjoint).max() <= 1e-12
        assert np.linalg.eigvalsh(0.5 * (states + adjoint)).min() >= -1e-12

    def test_generator_is_diagonal_but_for_decay(self):
        p = LambdaParams(rabi0=W, rabi1=W, gamma_opt_decay=W, gamma_opt_deph=W,
                         gamma_spin_deph=W, delta_opt=W)
        gen = member_generators(p, Wait(duration=1e-6), [[W, -W, W]])[0]
        off = gen - np.diag(np.diag(gen))
        assert np.flatnonzero(off).tolist() == [0 * 9 + 8, 4 * 9 + 8]


class TestGeometricSum:
    @pytest.mark.parametrize("n", [0, 1, 2, 5, 163])
    def test_matches_explicit_sum(self, n):
        rng = np.random.default_rng(n)
        step = 0.3 * (rng.normal(size=(2, 9, 9)) + 1j * rng.normal(size=(2, 9, 9)))
        total, power = geometric_sum(step, n)
        ref_total, ref_power = np.zeros_like(step), np.broadcast_to(np.eye(9), step.shape)
        for _ in range(n):
            ref_total = ref_total + ref_power
            ref_power = ref_power @ step
        assert np.allclose(total, ref_total, rtol=1e-12, atol=1e-12)
        assert np.allclose(power, ref_power, rtol=1e-12, atol=1e-12)


def sampled_beat(readout: PulseSpec, p: LambdaParams, offsets, weights, states,
                 beat_frequency: float) -> float:
    """Beat amplitude from explicitly sampled detector ticks, one member at a time."""
    tick = readout.clock_dt
    n_steps = int(np.floor(readout.duration / tick + 1e-9))
    rest = readout.duration - n_steps * tick
    rows = 0.0
    for (d_opt, d_spin, zeeman), weight, v in zip(offsets, weights, states):
        member = p.replace(delta_opt=p.delta_opt + d_opt, delta_spin=p.delta_spin + d_spin)
        seg_params = _segment_params(member, readout, zeeman)
        samples = [v]
        for _ in range(n_steps):
            samples.append(_segment_map(seg_params, tick) @ samples[-1])
        if rest > 1e-9 * tick:
            samples.append(_segment_map(seg_params, rest) @ samples[-1])
        rows = rows + weight * np.array(samples)
    times = tick * np.arange(n_steps + 1)
    if rest > 1e-9 * tick:
        times = np.append(times, readout.duration)
    traj = Trajectory(times=times, states=rows.reshape(-1, 3, 3),
                      segment_starts=[(0, readout)])
    return beat_amplitude(synthesize_beat(traj, beat_frequency))


class TestBeatFunctional:
    @pytest.mark.parametrize("t_readout,splitting", [
        (2e-6, 10.2e6),     # 163.2 ticks: an end sample after the last tick
        (2e-6, 1e7),        # exactly 160 ticks
        (0.5e-6, 10.2e6),
    ])
    @pytest.mark.parametrize("spec", [EnsembleSpec(), GRID], ids=["one-member", "3x3-grid"])
    def test_matches_sampled_ticks(self, t_readout, splitting, spec):
        cfg = EchoConfig(tau=20e-6, t_readout=t_readout, splitting=splitting)
        readout = replace(make_readout_pulse(cfg), zeeman_sign=-1.0)
        offsets, weights = member_stack(spec)
        rng = np.random.default_rng(len(offsets))
        states = np.array([random_density3(rng).reshape(9) for _ in offsets])
        stack = stack_ensembles(PARAMS, [spec], (readout,))
        got = _beat_amplitudes(readout, stack, states[None], splitting, np.array([cfg.tau]))
        expected = sampled_beat(readout, PARAMS, offsets, weights, states, splitting)
        assert got[0] == pytest.approx(expected, rel=1e-12)

    def test_short_window_is_refused(self):
        cfg = EchoConfig(tau=30e-6, splitting=1e6)
        with pytest.raises(ValidationError, match="below the minimum of 5"):
            _echo_amplitudes(cfg, np.array([cfg.tau]), echo_layout(cfg, [cfg.tau]), PARAMS,
                             [EnsembleSpec()], "beat")

    def test_too_few_samples_is_refused(self):
        # a 0.2 us readout at 10.2 MHz spans 16 ticks, but at 1.2 MHz only 1.9
        cfg = EchoConfig(tau=30e-6, t_readout=0.2e-6, splitting=1.2e6)
        with pytest.raises(ValidationError, match="too few samples"):
            _echo_amplitudes(cfg, np.array([cfg.tau]), echo_layout(cfg, [cfg.tau]), PARAMS,
                             [EnsembleSpec()], "beat")


def per_tau_reference(cfg, taus, p, spec, mode) -> np.ndarray:
    """One full sampled `propagate_members` trajectory per storage time.

    Proxy mode reads the final state, beat mode the beat synthesized from the
    sampled readout window.
    """
    offsets, weights = member_stack(spec)
    amps = []
    for tau in taus:
        seq = make_echo_sequence(replace(cfg, tau=tau), include_readout=mode == "beat")
        traj = propagate_members(MIXED_GROUND, p, seq, offsets, weights)
        if mode == "proxy":
            amps.append(abs(traj.states[-1][0, 1]))
        else:
            amps.append(beat_amplitude(synthesize_beat(traj, cfg.splitting)))
    return np.array(amps)


class TestWholeCurve:
    @pytest.mark.parametrize("mode", ["beat", "proxy"])
    @pytest.mark.parametrize("spec", [EnsembleSpec(), GRID], ids=["one-member", "3x3-grid"])
    def test_matches_per_tau_propagation(self, mode, spec):
        cfg = EchoConfig(tau=30e-6)
        taus = np.linspace(15e-6, 120e-6, 6)
        curve = assemble_decay_curve(cfg, taus, PARAMS, spec, mode=mode)
        expected = per_tau_reference(cfg, taus, PARAMS, spec, mode)
        assert np.max(np.abs(curve.amplitudes / expected - 1.0)) <= 1e-10
        assert _echo_amplitudes(cfg, taus[2:3], echo_layout(cfg, taus[2:3]), PARAMS, [spec],
                                mode)[0, 0] == pytest.approx(expected[2], rel=1e-10)

    def test_one_sequence_matches_sampled_endpoint(self):
        seq = make_echo_sequence(EchoConfig(tau=20e-6))
        offsets, weights = member_stack(GRID)
        end = sequence_endpoints(MIXED_GROUND, PARAMS, seq, offsets)[0]
        ref = propagate_members(MIXED_GROUND, PARAMS, seq, offsets, weights).states[-1]
        assert np.max(np.abs((weights @ end).reshape(3, 3) - ref)) <= 1e-12


class TestWaitTable:
    @settings(max_examples=30, deadline=None)
    @given(layout_cases(), lambda_params(),
           st.lists(st.tuples(unit, unit, unit), min_size=1, max_size=4),
           st.sampled_from([1, 5, 2 ** 11]))
    def test_table_has_the_bits_of_one_call_per_storage_time(self, case, p, offsets, batch):
        cfg, taus = case
        offsets = 0.1 * W * np.array(offsets)
        echo, _, waits = echo_layout(cfg, taus)
        # chunks of one storage time, of a few, and of all
        with mock.patch.object(dynamics, "BATCH_STATES", batch * len(offsets)):
            together = sequence_endpoints(MIXED_GROUND, p, echo, offsets, durations=waits)
        for tau, states in zip(taus.tolist(), together):
            seq = make_echo_sequence(replace(cfg, tau=tau), include_readout=False)
            alone = sequence_endpoints(MIXED_GROUND, p, seq, offsets)
            assert np.array_equal(alone.view(np.uint64), states[None].view(np.uint64))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 0.0, -1e-6])
    @pytest.mark.parametrize("column, name", [(0, r"segment 1 \(wait\)"),
                                              (1, r"segment 4 \(wait\)")])
    def test_a_duration_not_finite_and_positive_names_its_wait(self, bad, column, name):
        echo, _, waits = echo_layout(EchoConfig(tau=20e-6), [20e-6, 30e-6, 40e-6])
        waits[1, column] = bad
        with pytest.raises(ValidationError, match=f"{name} lasts {bad} s, not finite and > 0"):
            sequence_endpoints(MIXED_GROUND, PARAMS, echo, [[0.0, 0.0, 0.0]], durations=waits)


class TestNonPhysicalNamesTauAndMember:
    def test_check_names_storage_time_and_member(self):
        finals = np.tile(MIXED_GROUND.matrix, (2, 3, 1, 1))
        finals[1, 2] = np.diag([0.7, 0.4, -0.1])
        offsets = np.array([[0.0, 0.0, 0.0], [1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        with pytest.raises(ConfigurationError,
                           match=r"eigenvalue -0\.1 in member 2 at tau 3e-05 s .*\(4, 5, 6\)"):
            _check_physical(finals, offsets, [2e-5, 3e-5])

    @pytest.mark.parametrize("mode", ["beat", "proxy"])
    def test_curve_error_names_storage_time_and_member(self, monkeypatch, mode):
        # waits that inflate member 1's spin coherence at the last storage time
        def inflating(gen, durations, v):
            states = wait_states(gen, durations, v)
            states[-1, 1, [1, 3]] *= 5.0
            return states

        monkeypatch.setattr(dynamics, "wait_states", inflating)
        spec = EnsembleSpec(spin_fwhm=20e3, n_spin=3)
        taus = np.array([20e-6, 40e-6, 60e-6])
        with pytest.raises(ConfigurationError,
                           match=r"in member 1 at tau 6e-05 s with offsets"):
            assemble_decay_curve(EchoConfig(tau=30e-6), taus, PARAMS, spec, mode=mode)
