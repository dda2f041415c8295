"""Mirror-image ensemble members: half the stack propagated, the other half rebuilt.

Reflecting every member offset maps a member's state rho to W rho* W^dag, so
a stack that reverses onto its own mirror propagates its first half and adds
the mirror of each weight-summed state.  The folded results are checked
against the full stack (the fold switched off where it is decided, in
`eitecho.ensemble` alone) on random symmetric grids, the
folded average against its own mirror bitwise, and every input that breaks
the mirror against the full stack.  Also here: the bound on a sampled
trajectory's size, checked on its estimate, never by allocating it.
"""

import contextlib
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import eitecho.dynamics as dynamics
import eitecho.ensemble as ensemble
import eitecho.readout as readout
from eitecho.cli import main
from eitecho.dynamics import (MAX_SAMPLES, PulseSpec, SequenceSpec, Wait, propagate_members,
                              shared_steps)
from eitecho.ensemble import (MIXED_GROUND, EnsembleSpec, ensemble_average, ensemble_final_state,
                              member_stack, mirror_half, mirror_phases)
from eitecho.errors import ConfigurationError
from eitecho.lambda_system import LambdaParams
from eitecho.qstate import DensityMatrix3
from eitecho.readout import assemble_decay_curves
from eitecho.sequences import EchoConfig, make_echo_sequence

TWO_PI = 2.0 * np.pi
PARAMS = LambdaParams(gamma_spin_deph=2e3, gamma_opt_deph=1e5, gamma_opt_decay=1.0 / 164e-6)
SHORT = dict(t_init=0.5e-6, t_rephase=0.5e-6, t_readout=0.5e-6)
GRID = EnsembleSpec(optical_fwhm=170e3, spin_fwhm=20e3, n_optical=5, n_spin=3,
                    zeeman_branches=((-8e3, 0.5), (8e3, 0.5)))


@contextlib.contextmanager
def full_stacks():
    """Every caller propagates its whole stack: the fold switched off where
    it is decided, in `eitecho.ensemble` alone."""
    with mock.patch.object(ensemble, "mirror_half", lambda *a: None):
        yield


@contextlib.contextmanager
def member_counts():
    """The member count of every generator stack built meanwhile."""
    counts = []
    real = dynamics.member_generators

    def counted(p, segment, offsets, *args):
        counts.append(len(np.reshape(offsets, (-1, 3))))
        return real(p, segment, offsets, *args)

    with mock.patch.object(dynamics, "member_generators", counted), \
            mock.patch.object(readout, "member_generators", counted):
        yield counts


def relative_error(got, want) -> float:
    return float(np.max(np.abs(np.asarray(got) - np.asarray(want)))
                 / max(np.max(np.abs(want)), 1e-300))


@st.composite
def symmetric_branches(draw) -> tuple:
    """No branches, a +/- pair, or a pair around a zero branch, weights mirrored."""
    kind = draw(st.sampled_from(["none", "pair", "triple"]))
    offset = draw(st.floats(1e3, 50e3))
    if kind == "none":
        return ()
    if kind == "pair":
        return ((-offset, 0.5), (offset, 0.5))
    side = draw(st.floats(0.05, 0.45))
    return ((-offset, side), (0.0, 1.0 - 2.0 * side), (offset, side))


@st.composite
def symmetric_grids(draw) -> EnsembleSpec:
    return EnsembleSpec(optical_fwhm=draw(st.floats(10e3, 300e3)),
                        spin_fwhm=draw(st.floats(1e3, 50e3)),
                        n_optical=draw(st.sampled_from([1, 3, 5, 7])),
                        n_spin=draw(st.sampled_from([1, 3, 5])),
                        zeeman_branches=draw(symmetric_branches()))


rates = st.one_of(st.just(0.0), st.floats(1e2, 1e6))


@st.composite
def zero_detuning_params(draw) -> LambdaParams:
    return LambdaParams(gamma_opt_decay=draw(rates), gamma_opt_deph=draw(rates),
                        gamma_spin_deph=draw(rates), branch0=draw(st.floats(0.0, 1.0)))


class TestFoldedMatchesFull:
    @settings(max_examples=15, deadline=None)
    @given(spec=symmetric_grids(), params=zero_detuning_params(), phi=st.floats(-np.pi, np.pi),
           tau=st.floats(4e-6, 8e-6), with_readout=st.booleans(),
           mode=st.sampled_from(["beat", "proxy"]))
    @example(spec=GRID, params=PARAMS, phi=0.0, tau=6e-6, with_readout=True, mode="beat")
    @example(spec=GRID, params=PARAMS, phi=1.0, tau=6e-6, with_readout=False, mode="proxy")
    def test_to_1e_13(self, spec, params, phi, tau, with_readout, mode):
        cfg = EchoConfig(tau=tau, init_phase_offset=phi, **SHORT)
        seq = make_echo_sequence(cfg, include_readout=with_readout)
        taus = [tau, tau + 1e-6, tau + 3e-6]
        folded = (ensemble_average(seq, params, spec).states,
                  ensemble_final_state(seq, params, spec).matrix,
                  assemble_decay_curves(cfg, taus, params, [spec, GRID], mode))
        with full_stacks():
            full = (ensemble_average(seq, params, spec).states,
                    ensemble_final_state(seq, params, spec).matrix,
                    assemble_decay_curves(cfg, taus, params, [spec, GRID], mode))
        assert relative_error(folded[0], full[0]) <= 1e-13
        assert relative_error(folded[1], full[1]) <= 1e-13
        for got, want in zip(folded[2], full[2]):
            assert relative_error(got.amplitudes, want.amplitudes) <= 1e-13

    def test_one_switch_turns_the_fold_off_everywhere(self):
        # with the fold off in `eitecho.ensemble` only, no other module folds
        cfg = EchoConfig(tau=6e-6, **SHORT)
        seq = make_echo_sequence(cfg)
        with full_stacks(), member_counts() as counts:
            ensemble_average(seq, PARAMS, GRID)
            ensemble_final_state(seq, PARAMS, GRID)
            for mode in ("beat", "proxy"):
                assemble_decay_curves(cfg, [6e-6, 7e-6, 9e-6], PARAMS, [GRID], mode)
        assert counts and set(counts) == {30}

    def test_the_mirror_is_checked_once_per_parameter_set(self):
        checked = []
        real = ensemble.mirror_phases

        def counted(rho0, p, segments):
            checked.append(p)
            return real(rho0, p, segments)

        hot = PARAMS.replace(gamma_opt_deph=2e5)
        with mock.patch.object(ensemble, "mirror_phases", counted):
            assemble_decay_curves(EchoConfig(tau=6e-6, **SHORT), [6e-6, 7e-6, 9e-6],
                                  [PARAMS, hot, PARAMS, hot], [GRID, GRID, EnsembleSpec(), GRID],
                                  "proxy")
        assert checked == [PARAMS, hot]

    def test_the_fold_halves_the_members(self):
        # 5 x 3 x 2 = 30 members: 15 propagated; 15 x 1 = 15: 8, the centre at half weight
        seq = make_echo_sequence(EchoConfig(tau=6e-6, **SHORT))
        with member_counts() as counts:
            ensemble_average(seq, PARAMS, GRID)
        assert set(counts) == {15}
        stack = member_stack(EnsembleSpec(optical_fwhm=170e3, n_optical=15))
        offsets, weights = mirror_half(*stack)
        assert len(offsets) == 8 and np.array_equal(offsets[-1], [0.0, 0.0, 0.0])
        assert np.array_equal(weights, np.append(stack[1][:7], 0.5 * stack[1][7]))


class TestFoldedAverageIsItsOwnMirror:
    @settings(max_examples=10, deadline=None)
    @given(spec=symmetric_grids(), params=zero_detuning_params(), tau=st.floats(4e-6, 8e-6))
    def test_bitwise_at_zero_drive_phase(self, spec, params, tau):
        # W = diag(1, 1, -1) there: its entries, and so the fold, are exact
        seq = make_echo_sequence(EchoConfig(tau=tau, **SHORT))
        phases = mirror_phases(MIXED_GROUND, params, seq.segments)
        assert set(phases.tolist()) == {1.0, -1.0}
        for rho in (ensemble_average(seq, params, spec).states,
                    ensemble_final_state(seq, params, spec).matrix[None]):
            flat = rho.reshape(-1, 9)
            assert np.array_equal(phases * flat.conj(), flat)

    def test_symmetry_zero_columns_are_exactly_zero(self):
        traj = ensemble_average(make_echo_sequence(EchoConfig(tau=6e-6, **SHORT)), PARAMS, GRID)
        assert not traj.coherence01.imag.any()
        assert not traj.coherence0e.real.any() and not traj.coherence1e.real.any()


class TestFullStackWhereTheMirrorFails:
    SEQ = make_echo_sequence(EchoConfig(tau=6e-6, **SHORT))

    @pytest.mark.parametrize("params, spec", [
        (PARAMS.replace(delta_opt=TWO_PI * 1e3), GRID),
        (PARAMS.replace(delta_spin=-1e-300), GRID),
        (PARAMS, EnsembleSpec(zeeman_branches=((-8e3, 0.4), (8e3, 0.6)))),
        (PARAMS, EnsembleSpec(zeeman_branches=((-8e3, 0.5), (8.5e3, 0.5)))),
        (PARAMS, EnsembleSpec()),
    ], ids=["delta_opt", "subnormal-delta_spin", "asymmetric-weights", "asymmetric-offsets",
            "one-member"])
    def test_takes_the_full_stack(self, params, spec):
        m = len(member_stack(spec)[1])
        with member_counts() as counts:
            ensemble_average(self.SEQ, params, spec)
            ensemble_final_state(self.SEQ, params, spec)
            assemble_decay_curves(EchoConfig(tau=6e-6, **SHORT), [6e-6, 7e-6, 9e-6], params,
                                  [spec], "beat")
        assert set(counts) == {m}

    def test_pulses_of_two_phases_take_the_full_stack(self):
        # the readout pulse drives at phase 0: beside a phase-offset echo it
        # breaks the mirror in beat mode, which maps it, but not in proxy mode
        cfg = EchoConfig(tau=6e-6, init_phase_offset=0.3, **SHORT)
        m = len(member_stack(GRID)[1])
        for mode, members in (("beat", m), ("proxy", m // 2)):
            with member_counts() as counts:
                assemble_decay_curves(cfg, [6e-6, 7e-6, 9e-6], PARAMS, [GRID], mode)
            assert set(counts) == {members}
        assert mirror_phases(MIXED_GROUND, PARAMS, make_echo_sequence(cfg).segments) is None

    def test_a_start_state_that_does_not_mirror_takes_the_full_stack(self):
        rho0 = np.full((3, 3), 0.1, dtype=complex)
        np.fill_diagonal(rho0, [0.5, 0.3, 0.2])
        assert mirror_phases(DensityMatrix3(rho0), PARAMS, self.SEQ.segments) is None
        assert mirror_phases(MIXED_GROUND, PARAMS, self.SEQ.segments) is not None


class TestSampleBound:
    SEQ = SequenceSpec(segments=(PulseSpec(duration=1e-6, rabi0=1e6), Wait(duration=3e-6)))

    def count(self, dt_targets) -> int:
        return propagate_members(MIXED_GROUND, PARAMS, self.SEQ, [[0.0, 0.0, 0.0]], [1.0],
                                 dt_targets).times.size

    def test_bound_is_on_the_estimate(self, monkeypatch):
        n = self.count([1e-7, 1e-7])                       # 10 + 30 steps and the start
        assert n == 41
        monkeypatch.setattr(dynamics, "MAX_SAMPLES", n)
        assert self.count([1e-7, 1e-7]) == n
        monkeypatch.setattr(dynamics, "MAX_SAMPLES", n - 1)
        with pytest.raises(ConfigurationError,
                           match=rf"^segment 1 \(wait\): sampled 30 times, {n} samples in "
                                 rf"all, beyond the bound of {n - 1}$"):
            self.count([1e-7, 1e-7])

    def test_a_remainder_sample_counts(self, monkeypatch):
        # 1 us at 0.3 us: 3 steps and an end sample
        monkeypatch.setattr(dynamics, "MAX_SAMPLES", 1 + 4 + 10 - 1)
        with pytest.raises(ConfigurationError, match="segment 1 .wait.: sampled 10 times, 15 "):
            self.count([0.3e-6, 0.3e-6])

    def test_gigahertz_detuning_is_refused_without_allocating(self):
        # 37.7 million samples, ~5.4 GB of states, on the default grid
        cfg = EchoConfig(tau=60e-6)
        params = PARAMS.replace(delta_opt=TWO_PI * 1e9)
        seq = make_echo_sequence(cfg)
        steps = shared_steps(params, seq, np.zeros((1, 3)))
        assert sum(s.duration / dt for s, dt in zip(seq.segments, steps)) > 30 * MAX_SAMPLES
        start = time.monotonic()
        with pytest.raises(ConfigurationError, match=f"beyond the bound of {MAX_SAMPLES}"):
            ensemble_average(seq, params, EnsembleSpec())
        assert time.monotonic() - start < 1.0

    def test_endpoint_commands_accept_what_simulate_refuses(self, tmp_path, capsys):
        config = tmp_path / "config.yaml"
        config.write_text("sequence: {tau: 60us}\nphysics: {delta_opt: 1GHz}\n")
        assert main(["validate", "--config", str(config)]) == 0
        assert main(["simulate", "--config", str(config), "--out", str(tmp_path / "s")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: segment 4 (wait): sampled ")
        assert main(["temp-scan", "--config", str(config), "--out", str(tmp_path / "t")]) == 0
