"""Propagator correctness: pulse areas, dephasing decay, convergence, gauge."""

import numpy as np
import pytest

from eitecho.dynamics import (
    PulseSpec,
    SequenceSpec,
    Wait,
    default_step,
    propagate,
    propagate_members,
    run_sequence,
)
from eitecho.errors import ConfigurationError, ValidationError
from eitecho.lambda_system import LambdaParams
from eitecho.qstate import DensityMatrix3
from eitecho.sequences import EchoConfig, make_echo_sequence, make_init_pulse

from conftest import trace_distance_matrix

DARK3 = np.array([1.0, -1.0, 0.0], dtype=complex) / np.sqrt(2.0)


def dm(mat) -> DensityMatrix3:
    return DensityMatrix3(np.asarray(mat, dtype=complex))


class TestSpecs:
    def test_pulse_requires_positive_duration(self):
        with pytest.raises(ValidationError, match="duration"):
            PulseSpec(duration=0.0)

    def test_readout_must_be_last(self):
        ro = PulseSpec(duration=1e-6, label="readout")
        with pytest.raises(ValidationError, match="last"):
            SequenceSpec(segments=(ro, Wait(duration=1e-6)))

    @pytest.mark.parametrize("dt", [0.0, -1e-7, np.nan, np.inf])
    def test_bad_requested_step_names_segment(self, mixed_ground, dt):
        seq = SequenceSpec(segments=(PulseSpec(duration=2e-6, rabi0=1e6),
                                     Wait(duration=10e-6)))
        with pytest.raises(ConfigurationError,
                           match=rf"segment 1: requested dt {dt:g} s must be finite and > 0"):
            run_sequence(mixed_ground, LambdaParams(), seq, dt_overrides=[1e-7, dt])

    def test_dt_overrides_length_must_match(self, mixed_ground):
        with pytest.raises(ConfigurationError, match="1 entries for 2 segments"):
            run_sequence(mixed_ground, LambdaParams(),
                         SequenceSpec(segments=(Wait(duration=1e-6), Wait(duration=1e-6))),
                         dt_overrides=[1e-7])

    def test_dt_targets_length_must_match(self, mixed_ground):
        seq = make_echo_sequence(EchoConfig(tau=30e-6))
        with pytest.raises(ConfigurationError, match="1 entries for 6 segments"):
            propagate_members(mixed_ground, LambdaParams(), seq, [0.0, 0.0, 0.0], [1.0],
                              dt_targets=[1e-7])


class TestPulses:
    def test_single_color_pi_pulse_inverts(self):
        rabi = 2 * np.pi * 0.5e6
        duration = np.pi / rabi
        pulse = PulseSpec(duration=duration, rabi0=rabi)
        traj = propagate(dm(np.diag([1.0, 0.0, 0.0])), LambdaParams(), pulse)
        assert traj.final_state.matrix[2, 2].real == pytest.approx(1.0, abs=1e-6)

    def test_bichromatic_pi_on_mixed_state(self, mixed_ground):
        # resonant pulse with sqrt(2)*rabi*duration = pi: bright half excited,
        # dark half untouched
        duration = 2e-6
        rabi = np.pi / (np.sqrt(2.0) * duration)
        pulse = PulseSpec(duration=duration, rabi0=rabi, rabi1=rabi)
        traj = propagate(mixed_ground, LambdaParams(), pulse)
        target = 0.5 * np.outer(DARK3, DARK3.conj())
        target[2, 2] += 0.5
        assert trace_distance_matrix(traj.final_state.matrix, target) < 1e-4

    def test_wait_dephasing_closed_form(self):
        # |rho01| = 0.5 e^{-t/T2}: at t = T2 = 500 us the half-weight dark
        # coherence lands on 0.5 * e^-1 * 0.5
        t2 = 500e-6
        p = LambdaParams(gamma_spin_deph=1.0 / t2)
        rho0 = dm(0.5 * np.outer(DARK3, DARK3.conj()))
        traj = propagate(rho0, p, Wait(duration=t2))
        assert abs(traj.final_state.matrix[0, 1]) == pytest.approx(
            0.25 * np.exp(-1.0), rel=1e-6)

    def test_trace_conserved_along_trajectory(self, mixed_ground):
        p = LambdaParams(gamma_opt_decay=1e4, gamma_opt_deph=2e4, gamma_spin_deph=1e3)
        pulse = PulseSpec(duration=2e-6, rabi0=1e6, rabi1=1e6)
        traj = propagate(mixed_ground, p, pulse)
        traces = np.einsum("nii->n", traj.states).real
        assert np.max(np.abs(traces - traces[0])) < 1e-9

    def test_unitary_limit_preserves_eigenvalues(self, mixed_ground):
        pulse = PulseSpec(duration=2e-6, rabi0=1.3e6, rabi1=0.6e6, phase1=0.7)
        traj = propagate(mixed_ground, LambdaParams(delta_opt=3e5), pulse)
        e0 = np.sort(np.linalg.eigvalsh(traj.states[0]))
        e1 = np.sort(np.linalg.eigvalsh(traj.states[-1]))
        assert np.allclose(e0, e1, atol=1e-8)


class TestSequences:
    def test_empty_drive_keeps_populations(self, mixed_ground):
        seq = SequenceSpec(segments=(Wait(duration=10e-6),))
        traj = run_sequence(mixed_ground, LambdaParams(delta_spin=2 * np.pi * 5e3), seq)
        assert np.allclose(traj.final_state.populations, (0.5, 0.5, 0.0), atol=1e-9)

    def test_closed_echo_preserves_coherence(self, mixed_ground):
        # detuned member, no rates: coherence magnitude at readout start equals
        # the post-init value
        cfg = EchoConfig(tau=40e-6)
        seq = make_echo_sequence(cfg, include_readout=False)
        p = LambdaParams(delta_spin=2 * np.pi * 5e3)
        traj = run_sequence(mixed_ground, p, seq)
        i_init_end = traj.segment_start_index("rephase_pi")
        after_init = abs(traj.states[traj.segment_starts[1][0], 0, 1])
        at_echo = abs(traj.states[-1, 0, 1])
        assert at_echo == pytest.approx(after_init, abs=1e-4)

    def test_init_only_gives_half_dark(self, mixed_ground):
        cfg = EchoConfig(tau=40e-6)
        seq = SequenceSpec(segments=(make_init_pulse(cfg),))
        traj = run_sequence(mixed_ground, LambdaParams(), seq)
        ground = traj.final_state.matrix[:2, :2]
        assert trace_distance_matrix(ground, 0.25 * np.array([[1, -1], [-1, 1]])) < 1e-4

    def test_gauge_invariance_of_frame_offset(self, mixed_ground):
        cfg = EchoConfig(tau=30e-6)
        seq = make_echo_sequence(cfg)
        p = LambdaParams(delta_opt=2 * np.pi * 50e3, delta_spin=2 * np.pi * 3e3,
                         gamma_opt_decay=1e4)
        t_a = run_sequence(mixed_ground, p, seq)
        t_b = run_sequence(mixed_ground, p.replace(frame_offset=2 * np.pi * 80e3), seq)
        # identical grids are required for the comparison, so pin the steps
        assert t_a.times.shape == t_b.times.shape
        ground_a = t_a.states[:, :2, :2]
        ground_b = t_b.states[:, :2, :2]
        assert np.max(np.abs(np.abs(ground_a) - np.abs(ground_b))) < 1e-9

    def test_rk4_halving_convergence(self, mixed_ground):
        cfg = EchoConfig(tau=30e-6)
        seq = make_echo_sequence(cfg, include_readout=False)
        p = LambdaParams(delta_spin=2 * np.pi * 3e3, gamma_spin_deph=2e3)
        from eitecho.dynamics import default_step, _segment_params
        steps = [default_step(_segment_params(p, s, 0.0), s) for s in seq.segments]
        t_full = run_sequence(mixed_ground, p, seq, dt_overrides=steps)
        t_half = run_sequence(mixed_ground, p, seq,
                              dt_overrides=[s / 2 for s in steps])
        assert trace_distance_matrix(t_full.states[-1], t_half.states[-1]) < 1e-6


class TestSampling:
    def test_requested_step_caps_the_output_grid(self, mixed_ground):
        # a 10 us drive-free wait defaults to duration/50 steps; a finer
        # requested step must tighten the grid
        seq = SequenceSpec(segments=(Wait(duration=10e-6),))
        traj = run_sequence(mixed_ground, LambdaParams(), seq, dt_overrides=[0.05e-6])
        assert np.max(np.diff(traj.times)) <= 0.05e-6 + 1e-18
        coarse = run_sequence(mixed_ground, LambdaParams(), seq)
        assert traj.times.size > coarse.times.size

    @pytest.mark.parametrize("segment", [Wait(duration=10e-6),
                                         PulseSpec(duration=2e-6, rabi0=1e6, rabi1=2e6)],
                             ids=["wait", "pulse"])
    @pytest.mark.parametrize("rate", ["gamma_opt_decay", "gamma_opt_deph",
                                      "gamma_spin_deph"])
    def test_decay_rates_do_not_set_the_grid(self, segment, rate):
        # every sample is an exact map, so a fast decay leaves nothing to resolve
        p = LambdaParams(delta_opt=2e5, delta_spin=-3e4)
        if isinstance(segment, PulseSpec):
            p = p.replace(rabi0=segment.rabi0, rabi1=segment.rabi1)
        assert default_step(p.replace(**{rate: 1e10}), segment) == default_step(p, segment)

    def test_coarse_step_is_exact_at_its_samples(self):
        # dt = duration/2 is far coarser than the default grid of a 1 Mrad/s
        # pulse, yet every sample is an exact map
        p = LambdaParams(rabi0=1e6)
        pulse = PulseSpec(duration=2e-6, rabi0=1e6)
        rho = dm(np.diag([1.0, 0.0, 0.0]))
        coarse = propagate(rho, p, pulse, dt=1e-6)
        assert np.array_equal(coarse.times, [0.0, 1e-6, 2e-6])
        fine = propagate(rho, p, pulse)
        assert fine.times.size > 3
        assert np.max(np.abs(coarse.states[-1] - fine.states[-1])) <= 1e-12


class TestTrajectoryExports:
    def test_csv_headers_and_rows(self, mixed_ground):
        traj = propagate(mixed_ground, LambdaParams(),
                         PulseSpec(duration=1e-6, rabi0=1e6))
        text = traj.to_csv()
        lines = text.strip().splitlines()
        assert lines[0].startswith("time_s,pop0,pop1,pope")
        assert len(lines) == len(traj.times) + 1

    def test_bloch_path_of_dark_state(self):
        rho0 = dm(0.5 * np.outer(DARK3, DARK3.conj()))
        traj = propagate(rho0, LambdaParams(), Wait(duration=1e-6))
        path = traj.bloch_path()
        assert path[0] == pytest.approx([-0.5, 0.0, 0.0], abs=1e-12)
