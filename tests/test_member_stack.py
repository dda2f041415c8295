"""The batched member propagator against per-member references.

The reference is the per-member algorithm written out in Python: every member
gets its own parameters and its own exact maps, sampled segments apply the
one-step map once per grid point, and the weighted sum is taken at the end.
The stacked propagator must agree with it, and with the full-grid beat
readout, to rounding; a non-physical member must be named in the error, and a
subnormal detuning must not turn a segment map into nan.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eitecho.dynamics import (PulseSpec, SequenceSpec, Wait, _check_physical, _segment_params,
                              propagate_members, run_sequence, sequence_endpoints,
                              shared_steps)
from eitecho.ensemble import (MIXED_GROUND, EnsembleSpec, ensemble_average,
                              ensemble_final_state, member_stack)
from eitecho.errors import ConfigurationError
from eitecho.lambda_system import DETUNING_OPT, DETUNING_SPIN, LambdaParams
from eitecho.readout import _echo_amplitudes, beat_amplitude, synthesize_beat
from eitecho.sequences import EchoConfig, echo_layout, make_echo_sequence

from conftest import _segment_map, liouvillian
from test_propagators import W, lambda_params, unit

TWO_PI = 2.0 * np.pi


def reference_average(seq: SequenceSpec, base: LambdaParams, spec: EnsembleSpec,
                      steps: list):
    """Per-member loop of `_segment_map(member params, dt) @ v`, then the weighted sum.

    A sampled segment steps by the least whole fraction of its clock (the
    readout's detector clock, else the duration) no coarser than its target
    in `steps`; if that leaves a remainder, the map of the remainder adds an
    end sample.
    """
    total = 0.0
    for (d_opt, d_spin, zeeman), weight in zip(*member_stack(spec)):
        p = base.replace(delta_opt=base.delta_opt + d_opt,
                         delta_spin=base.delta_spin + d_spin)
        v = MIXED_GROUND.matrix.reshape(9)
        times, rows, starts = [0.0], [v], []
        t0 = 0.0
        for k, seg in enumerate(seq.segments):
            pseg = _segment_params(p, seg, zeeman)
            starts.append((len(times) - 1, seg))
            clock = seg.clock_dt if isinstance(seg, PulseSpec) and seg.clock_dt else seg.duration
            dt = clock / max(1, int(np.ceil(clock / steps[k] - 1e-12)))
            n_steps = int(np.floor(seg.duration / dt + 1e-9))
            step = _segment_map(pseg, dt)
            for i in range(n_steps):
                v = step @ v
                times.append(t0 + dt * (i + 1))
                rows.append(v)
            rest = seg.duration - n_steps * dt
            if rest > 1e-9 * dt:
                v = _segment_map(pseg, rest) @ v
                times.append(t0 + seg.duration)
                rows.append(v)
            t0 += seg.duration
        total = total + weight * np.array(rows)
    return np.array(times), total.reshape(-1, 3, 3), starts


def averaged_states(avg) -> np.ndarray:
    """The (n, 3, 3) Hermitian states behind an averaged Trajectory."""
    n = avg.times.size
    states = np.zeros((n, 3, 3), dtype=complex)
    states[:, [0, 1, 2], [0, 1, 2]] = avg.populations
    for (i, j), coh in (((0, 1), avg.coherence01), ((0, 2), avg.coherence0e),
                        ((1, 2), avg.coherence1e)):
        states[:, i, j] = coh
        states[:, j, i] = coh.conj()
    return states


@st.composite
def ensembles(draw) -> EnsembleSpec:
    branches = ()
    if draw(st.booleans()):
        offset = draw(st.floats(1e3, 50e3))
        weight = draw(st.floats(0.1, 0.9))
        branches = ((-offset, weight), (offset, 1.0 - weight))
    return EnsembleSpec(optical_fwhm=draw(st.sampled_from([0.0, 50e3, 200e3])),
                        spin_fwhm=draw(st.sampled_from([0.0, 10e3, 50e3])),
                        n_optical=draw(st.sampled_from([1, 3])),
                        n_spin=draw(st.sampled_from([1, 3])),
                        zeeman_branches=branches)


rate = st.one_of(st.just(0.0), st.floats(1e2, 1e6))


@st.composite
def base_params(draw) -> LambdaParams:
    """Nonzero base detunings; every rate may be exactly zero."""
    return LambdaParams(delta_opt=TWO_PI * draw(st.floats(-100e3, 100e3)),
                        delta_spin=TWO_PI * draw(st.floats(-20e3, 20e3)),
                        gamma_opt_decay=draw(rate), gamma_opt_deph=draw(rate),
                        gamma_spin_deph=draw(rate), branch0=draw(st.floats(0.0, 1.0)))


class TestStackedPropagator:
    @settings(max_examples=15, deadline=None)
    @given(ensembles(), base_params(), st.floats(4e-6, 8e-6), st.booleans(),
           st.one_of(st.none(), st.floats(5e-9, 50e-9)))
    @example(EnsembleSpec(optical_fwhm=200e3, spin_fwhm=50e3, n_optical=3, n_spin=3,
                          zeeman_branches=((-20e3, 0.3), (20e3, 0.7))),
             LambdaParams(delta_opt=TWO_PI * 50e3, delta_spin=TWO_PI * 5e3),
             6e-6, True, None)
    def test_matches_per_member_reference(self, spec, base, tau, readout, dt_cap):
        cfg = EchoConfig(tau=tau, t_init=0.5e-6, t_rephase=0.5e-6, t_readout=0.5e-6)
        seq = make_echo_sequence(cfg, include_readout=readout)
        offsets, weights = member_stack(spec)
        steps = shared_steps(base, seq, offsets)
        if dt_cap is not None:
            steps = [min(s, dt_cap) for s in steps]

        times, states, starts = reference_average(seq, base, spec, steps)
        avg = propagate_members(MIXED_GROUND, base, seq, offsets, weights,
                                dt_targets=None if dt_cap is None else steps)
        assert np.array_equal(avg.times, times)
        assert avg.segment_starts == starts
        assert np.max(np.abs(averaged_states(avg) - states)) <= 1e-10

        end = ensemble_final_state(seq, base, spec)
        assert np.max(np.abs(end.matrix - states[-1])) <= 1e-10


class TestAffineGenerator:
    @settings(max_examples=100, deadline=None)
    @given(lambda_params(), unit, unit)
    @example(LambdaParams(rabi0=W, rabi1=0.3 * W, delta_opt=0.2 * W),
             -1.0, 1.0)
    def test_detuning_shift_is_diagonal(self, p, a, b):
        a, b = W * a, W * b
        shifted = liouvillian(p.replace(delta_opt=p.delta_opt + a,
                                        delta_spin=p.delta_spin + b))
        affine = liouvillian(p) + np.diag(a * DETUNING_OPT + b * DETUNING_SPIN)
        scale = max(np.max(np.abs(shifted)), 1.0)
        assert np.max(np.abs(affine - shifted)) <= 1e-12 * scale


class TestReadoutWindowBeat:
    @pytest.mark.parametrize("spec", [
        EnsembleSpec(),
        EnsembleSpec(optical_fwhm=170e3, spin_fwhm=20e3, n_optical=3, n_spin=3),
        EnsembleSpec(spin_fwhm=20e3, n_spin=3, zeeman_branches=((-8e3, 0.5), (8e3, 0.5))),
    ], ids=["one-member", "3x3-grid", "two-branches"])
    def test_matches_full_trajectory_beat(self, spec):
        cfg = EchoConfig(tau=12e-6)
        params = LambdaParams(gamma_spin_deph=2e3, gamma_opt_deph=1e5,
                              gamma_opt_decay=1.0 / 164e-6)
        full = ensemble_average(make_echo_sequence(cfg, include_readout=True), params, spec)
        expected = beat_amplitude(synthesize_beat(full, beat_frequency=cfg.splitting))
        taus = np.array([cfg.tau])
        got = _echo_amplitudes(cfg, taus, echo_layout(cfg, taus), params, [spec], "beat")[0, 0]
        assert got == pytest.approx(expected, rel=1e-9)


class TestDetectorClock:
    PARAMS = LambdaParams(delta_opt=TWO_PI * 40e3, gamma_spin_deph=2e3, gamma_opt_deph=1e5,
                          gamma_opt_decay=1.0 / 164e-6)

    @pytest.mark.parametrize("spec", [
        EnsembleSpec(),
        EnsembleSpec(optical_fwhm=170e3, spin_fwhm=20e3, n_optical=3, n_spin=3,
                     zeeman_branches=((-8e3, 0.4), (8e3, 0.6))),
    ], ids=["one-member", "3x3-grid-two-branches"])
    def test_readout_samples_are_step_map_powers(self, spec):
        # 0.5 us at 10.2 MHz is 40.8 ticks: 40 clock steps and one end sample
        cfg = EchoConfig(tau=12e-6, t_init=0.5e-6, t_rephase=0.5e-6, t_readout=0.5e-6)
        seq = make_echo_sequence(cfg)
        tick = 1.0 / (8.0 * cfg.splitting)
        rest = cfg.t_readout - 40 * tick
        traj = propagate_members(MIXED_GROUND, self.PARAMS, seq, *member_stack(spec))
        start = traj.segment_start_index("readout")
        expected = 0.0
        for (d_opt, d_spin, zeeman), weight in zip(*member_stack(spec)):
            p = self.PARAMS.replace(delta_opt=self.PARAMS.delta_opt + d_opt,
                                    delta_spin=self.PARAMS.delta_spin + d_spin)
            v = MIXED_GROUND.matrix.reshape(9)
            for seg in seq.segments[:-1]:
                v = _segment_map(_segment_params(p, seg, zeeman), seg.duration) @ v
            readout = _segment_params(p, seq.segments[-1], zeeman)
            rows = [v]
            for _ in range(40):
                rows.append(_segment_map(readout, tick) @ rows[-1])
            rows.append(_segment_map(readout, rest) @ rows[-1])
            expected = expected + weight * np.array(rows)
        t_rel = traj.times[start:] - traj.times[start]
        assert np.allclose(t_rel[:41], tick * np.arange(41), rtol=0.0, atol=1e-9 * tick)
        assert t_rel.size == 42
        got = averaged_states(traj)[start:]
        assert np.max(np.abs(got - expected.reshape(-1, 3, 3))) <= 1e-12

    def test_end_sample_at_segment_end(self, mixed_ground):
        cfg = EchoConfig(tau=12e-6, t_init=0.5e-6, t_rephase=0.5e-6, t_readout=0.5e-6)
        seq = make_echo_sequence(cfg)
        traj = propagate_members(mixed_ground, self.PARAMS, seq, [[0.0, 0.0, TWO_PI * 8e3]],
                                 [1.0])
        tick = 1.0 / (8.0 * cfg.splitting)
        assert traj.times[-1] == sum(s.duration for s in seq.segments)
        assert 0.0 < traj.times[-1] - traj.times[-2] < tick
        end = sequence_endpoints(mixed_ground, self.PARAMS, seq,
                                 [0.0, 0.0, TWO_PI * 8e3])[0, 0].reshape(3, 3)
        assert np.max(np.abs(traj.states[-1] - end)) <= 1e-12

    def test_whole_number_of_ticks_has_no_end_sample(self):
        # 2 us at 1 MHz splitting is exactly 16 ticks of 125 ns
        cfg = EchoConfig(tau=30e-6, splitting=1e6)
        seq = make_echo_sequence(cfg)
        traj = run_sequence(MIXED_GROUND, self.PARAMS, seq)
        window = traj.times[traj.segment_start_index("readout"):]
        assert window.size == 17
        assert np.allclose(np.diff(window), 125e-9, rtol=1e-9, atol=0.0)
        assert window[-1] == pytest.approx(sum(s.duration for s in seq.segments), rel=1e-15)

    @pytest.mark.parametrize("duration,dt", [(10e-6, 0.037e-6), (27e-6, 0.031e-6),
                                             (1e-6, 0.02e-6)])
    def test_unclocked_grid_is_duration_over_n(self, duration, dt):
        # the clock of a wait is its duration: n = ceil(D / dt), dt = D / n, no end sample
        seq = SequenceSpec(segments=(Wait(duration=duration),))
        traj = run_sequence(MIXED_GROUND, self.PARAMS, seq, dt_overrides=[dt])
        n = int(np.ceil(duration / dt - 1e-12))
        assert np.array_equal(traj.times, duration / n * np.arange(n + 1))


class TestPhysicalityCheck:
    OFFSETS = np.array([[0.0, 0.0, 0.0], [1.5e5, -2.0e4, 3.0e3], [-1.5e5, 2.0e4, -3.0e3]])

    def stack(self) -> np.ndarray:
        return np.repeat(MIXED_GROUND.matrix[None], 3, axis=0)

    def test_physical_stack_passes(self):
        _check_physical(self.stack(), self.OFFSETS)

    def test_negative_eigenvalue_names_member(self):
        finals = self.stack()
        finals[1] = np.diag([0.7, 0.4, -0.1])
        finals[2, 0, 1] = 0.3           # also bad, but not the first
        with pytest.raises(ConfigurationError,
                           match=r"eigenvalue -0\.1 in member 1 .*\(150000, -20000, 3000\)"):
            _check_physical(finals, self.OFFSETS)

    def test_lost_hermiticity_names_member(self):
        finals = self.stack()
        finals[2, 0, 1] = 1e-6
        with pytest.raises(ConfigurationError,
                           match=r"Hermiticity by 1e-06 in member 2 .*\(-150000, 20000, -3000\)"):
            _check_physical(finals, self.OFFSETS)

    def test_non_finite_member_fails(self):
        finals = self.stack()
        finals[0, 2, 2] = np.nan
        with pytest.raises(ConfigurationError, match="Hermiticity by nan in member 0"):
            _check_physical(finals, self.OFFSETS)


class TestSubnormalDetuning:
    # a subnormal detuning must leave every map finite: the first case guards
    # the Pade scaling and squaring of a segment map, the second the
    # closed-form waits of an echo endpoint, which must match zero offset

    def test_segment_map_stays_finite(self):
        p = LambdaParams(gamma_opt_decay=0.1 * W, delta_spin=5e-324 * W)
        assert np.isfinite(_segment_map(p, 27e-6)).all()

    def test_echo_endpoint_with_subnormal_zeeman_offset(self):
        cfg = EchoConfig(tau=20e-6, t_init=1e-6, t_rephase=1e-6, t_readout=1e-6)
        seq = make_echo_sequence(cfg, include_readout=False)
        p = LambdaParams(delta_opt=0.3 * W, gamma_opt_decay=0.1 * W)
        end, plain = sequence_endpoints(MIXED_GROUND, p, seq,
                                        [[0.0, 0.0, 5e-324 * TWO_PI * 50e3],
                                         [0.0, 0.0, 0.0]])[0]
        assert np.max(np.abs(end - plain)) <= 1e-12
