"""Echo pulse builders: areas, phase conventions, layout, echo invariants, and a
decay curve's layout: one echo and its table of waits."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eitecho.dynamics import PulseSpec, SequenceSpec, Wait, run_sequence
from eitecho.errors import ConfigurationError
from eitecho.lambda_system import LambdaParams
from eitecho.qstate import DensityMatrix3
from eitecho.sequences import (
    EchoConfig,
    echo_layout,
    make_echo_sequence,
    make_init_pulse,
    make_readout_pulse,
    make_rephase_pulse,
)

from conftest import final_state, trace_distance_matrix

MIXED = np.diag([0.5, 0.5, 0.0]).astype(complex)


def run_pulses(pulses, params=None, rho0=None):
    rho = DensityMatrix3(MIXED if rho0 is None else rho0)
    seq = SequenceSpec(segments=tuple(pulses))
    return run_sequence(rho, params or LambdaParams(), seq)


class TestEchoConfig:
    def test_tau_must_exceed_pulses(self):
        with pytest.raises(ConfigurationError, match="tau"):
            EchoConfig(tau=5e-6)

    def test_areas_set_rabi_from_duration(self):
        cfg = EchoConfig(tau=40e-6, t_init=2e-6, t_rephase=4e-6)
        assert cfg.init_rabi == pytest.approx(np.pi / (np.sqrt(2.0) * 2e-6))
        assert cfg.rephase_rabi == pytest.approx(2.0 * np.pi / (np.sqrt(2.0) * 4e-6))

    def test_bare_calibration(self):
        cfg = EchoConfig(tau=40e-6, calibration="bare")
        assert cfg.init_rabi == pytest.approx(np.pi / 2e-6)


class TestInitPulse:
    def test_offset_zero_lands_on_minus_x(self):
        cfg = EchoConfig(tau=40e-6)
        traj = run_pulses([make_init_pulse(cfg)])
        assert traj.bloch_path()[-1] == pytest.approx((-0.5, 0.0, 0.0), abs=1e-4)

    def test_offset_quarter_turn_lands_on_minus_y(self):
        cfg = EchoConfig(tau=40e-6, init_phase_offset=np.pi / 2.0)
        traj = run_pulses([make_init_pulse(cfg)])
        assert traj.bloch_path()[-1] == pytest.approx((0.0, -0.5, 0.0), abs=1e-4)

    def test_offset_pi_mirrors_the_state(self):
        cfg = EchoConfig(tau=40e-6, init_phase_offset=np.pi)
        traj = run_pulses([make_init_pulse(cfg)])
        assert traj.bloch_path()[-1] == pytest.approx((0.5, 0.0, 0.0), abs=1e-4)

    def test_phase_covariance(self):
        # adding phi to the offset rotates the prepared vector by phi about z
        cfg0 = EchoConfig(tau=40e-6)
        v0 = run_pulses([make_init_pulse(cfg0)]).bloch_path()[-1]
        for phi in (0.3, 1.1, 2.5):
            cfg = EchoConfig(tau=40e-6, init_phase_offset=phi)
            v = run_pulses([make_init_pulse(cfg)]).bloch_path()[-1]
            rot = np.array([[np.cos(phi), -np.sin(phi), 0.0],
                            [np.sin(phi), np.cos(phi), 0.0],
                            [0.0, 0.0, 1.0]])
            assert np.allclose(v, rot @ v0, atol=1e-6)


class TestRephasePulse:
    def test_leaves_the_prepared_state_in_place(self):
        cfg = EchoConfig(tau=40e-6)
        traj = run_pulses([make_init_pulse(cfg), make_rephase_pulse(cfg)])
        assert traj.bloch_path()[-1] == pytest.approx((-0.5, 0.0, 0.0), abs=1e-4)

    def test_conjugates_accumulated_spin_phase(self):
        # prepare, dephase for t, rephase: the coherence phase is mirrored
        cfg = EchoConfig(tau=40e-6)
        delta = 2 * np.pi * 10e3
        p = LambdaParams(delta_spin=delta)
        t_wait = 8e-6
        traj = run_pulses(
            [make_init_pulse(cfg), Wait(duration=t_wait)], params=p)
        before = complex(final_state(traj).matrix[0, 1])
        traj2 = run_pulses(
            [make_init_pulse(cfg), Wait(duration=t_wait), make_rephase_pulse(cfg)],
            params=p)
        after = complex(final_state(traj2).matrix[0, 1])
        ref = complex(final_state(run_pulses([make_init_pulse(cfg)])).matrix[0, 1])
        phase_before = np.angle(before / ref)
        phase_after = np.angle(after / ref)
        assert phase_after == pytest.approx(-phase_before, abs=0.02)

    def test_dark_state_unchanged_up_to_global_phase(self):
        cfg = EchoConfig(tau=40e-6)
        dark = np.array([1.0, -1.0, 0.0], dtype=complex) / np.sqrt(2.0)
        rho_dark = np.outer(dark, dark.conj())
        traj = run_pulses([make_rephase_pulse(cfg)], rho0=rho_dark)
        # a density matrix absorbs the global phase entirely
        assert trace_distance_matrix(final_state(traj).matrix, rho_dark) < 1e-4

    def test_applied_twice_is_identity_on_ground(self):
        cfg = EchoConfig(tau=40e-6)
        start = final_state(run_pulses([make_init_pulse(cfg)])).matrix
        twice = final_state(run_pulses([make_init_pulse(cfg), make_rephase_pulse(cfg),
                                        make_rephase_pulse(cfg)])).matrix
        assert trace_distance_matrix(twice[:2, :2], start[:2, :2]) < 1e-4


class TestReadoutPulse:
    def test_single_color(self):
        cfg = EchoConfig(tau=40e-6)
        ro = make_readout_pulse(cfg)
        assert ro.rabi1 == 0.0 and ro.rabi0 > 0.0
        assert ro.label == "readout"

    def test_stored_coherence_creates_1e_coherence(self):
        cfg = EchoConfig(tau=40e-6)
        dark = np.array([1.0, -1.0, 0.0], dtype=complex) / np.sqrt(2.0)
        traj = run_pulses([make_readout_pulse(cfg)],
                          rho0=0.5 * np.outer(dark, dark.conj()))
        assert np.max(np.abs(traj.coherence1e)) > 1e-3

    def test_incoherent_mixture_gives_no_beat_coherence(self):
        cfg = EchoConfig(tau=40e-6)
        traj = run_pulses([make_readout_pulse(cfg)], rho0=MIXED)
        assert np.max(np.abs(traj.coherence1e)) < 1e-12

    def test_bright_state_beats_with_opposite_phase(self):
        cfg = EchoConfig(tau=40e-6)
        dark = np.array([1.0, -1.0, 0.0], dtype=complex) / np.sqrt(2.0)
        bright = np.array([1.0, 1.0, 0.0], dtype=complex) / np.sqrt(2.0)
        t_d = run_pulses([make_readout_pulse(cfg)],
                         rho0=0.5 * np.outer(dark, dark.conj()))
        t_b = run_pulses([make_readout_pulse(cfg)],
                         rho0=0.5 * np.outer(bright, bright.conj()))
        assert np.allclose(t_d.coherence1e, -t_b.coherence1e, atol=1e-12)


class TestEchoSequence:
    def test_layout_centers_rephasing_pulse(self):
        cfg = EchoConfig(tau=20e-6)
        seq = make_echo_sequence(cfg)
        starts = np.cumsum([0.0] + [s.duration for s in seq.segments[:-1]])
        labels = [getattr(s, "label", "wait") for s in seq.segments]
        # the two rephasing halves meet at tau/2
        i = labels.index("rephase_pi")
        assert starts[i] + seq.segments[i].duration == pytest.approx(10e-6)
        # readout starts at tau
        assert starts[labels.index("readout")] == pytest.approx(20e-6)

    def test_tau_too_small_is_config_error(self):
        # no room to center the rephasing pulse at tau/2
        with pytest.raises(ConfigurationError, match="tau"):
            EchoConfig(tau=5.9e-6)
        with pytest.raises(ConfigurationError, match="tau"):
            EchoConfig(tau=5e-6, t_readout=0.1e-6)

    @pytest.mark.parametrize("tau", [6e-6, 6.000000000000001e-6])
    def test_wait_too_short_to_sample_is_config_error(self, tau):
        # the first wait is one float spacing after the init pulse: it ends
        # after it starts, but its samples do not advance the clock
        with pytest.raises(ConfigurationError, match="no room for the wait before"):
            EchoConfig(tau=tau, t_readout=1e-6)

    def test_shortest_accepted_waits_are_sampled(self):
        # the first storage time the room rule accepts, found by bisection
        lo, hi = 6e-6, 6.1e-6
        for _ in range(100):
            mid = 0.5 * (lo + hi)
            try:
                EchoConfig(tau=mid, t_readout=1e-6)
                hi = mid
            except ConfigurationError:
                lo = mid
        cfg = EchoConfig(tau=hi, t_readout=1e-6)
        for rephase in (True, False):
            seq = make_echo_sequence(cfg, include_rephase=rephase)
            assert np.all(np.diff(run_pulses(seq.segments).times) > 0.0)

    def test_fid_control_has_no_rephase(self):
        seq = make_echo_sequence(EchoConfig(tau=20e-6), include_rephase=False)
        labels = [getattr(s, "label", "wait") for s in seq.segments]
        assert "rephase_pi" not in labels

    def test_zeeman_sign_flips_at_rephase_center(self):
        seq = make_echo_sequence(EchoConfig(tau=20e-6))
        signs = [s.zeeman_sign for s in seq.segments]
        labels = [getattr(s, "label", "wait") for s in seq.segments]
        flip = labels.index("rephase_pi") + 1
        assert all(s == 1.0 for s in signs[:flip])
        assert all(s == -1.0 for s in signs[flip:])

    def test_echo_amplitude_independent_of_init_phase(self):
        # the stored-coherence magnitude at readout start does not depend on
        # the preparation azimuth
        delta = 2 * np.pi * 8e3
        p = LambdaParams(delta_spin=delta)
        amps = []
        for offset in (0.0, np.pi / 2.0, 1.3):
            cfg = EchoConfig(tau=30e-6, init_phase_offset=offset)
            seq = make_echo_sequence(cfg, include_readout=False)
            traj = run_sequence(DensityMatrix3(MIXED), p, seq)
            amps.append(abs(final_state(traj).matrix[0, 1]))
        assert np.ptp(amps) < 1e-4


@st.composite
def echo_configs(draw) -> EchoConfig:
    """Pulses of 0.1-5 us, any phase, splitting and calibration, at a storage
    time that holds them."""
    durations = [draw(st.floats(0.1e-6, 5e-6)) for _ in range(3)]
    return EchoConfig(tau=4.0 * sum(durations), t_init=durations[0], t_rephase=durations[1],
                      t_readout=durations[2], splitting=draw(st.floats(1e6, 20e6)),
                      init_phase_offset=draw(st.floats(-np.pi, np.pi)),
                      calibration=draw(st.sampled_from(["bright", "bare"])))


def spans(scale: float, size: int):
    """Storage times of 2-100 times `scale`: from twice the summed pulses up,
    each holds them."""
    return st.lists(st.floats(2.0 * scale, 100.0 * scale), min_size=1, max_size=size)


@st.composite
def layout_cases(draw) -> tuple:
    """An echo and storage times in any order, or shaped like a compensation
    search's joined window: two increasing runs, the second starting lower."""
    cfg = draw(echo_configs())
    scale = cfg.t_init + cfg.t_rephase + cfg.t_readout
    if draw(st.booleans()):
        return cfg, np.array(draw(spans(scale, 12)))
    first, second = sorted(draw(spans(scale, 6))), sorted(draw(spans(scale, 6)))
    return cfg, np.array(first + second)


class TestEchoLayout:
    @settings(max_examples=60, deadline=None)
    @given(layout_cases())
    @example((EchoConfig(tau=60e-6), np.concatenate([np.linspace(8.6e-6, 12.9e-6, 6),
                                                     np.linspace(15e-6, 120e-6, 6)])))
    def test_wait_table_has_the_bits_of_each_echo(self, case):
        cfg, taus = case
        echo, readout, waits = echo_layout(cfg, taus)
        assert waits.shape == (len(taus), 2)
        for tau, row in zip(taus.tolist(), waits):
            full = make_echo_sequence(replace(cfg, tau=tau)).segments
            assert readout == full[-1]
            assert [s for s in echo.segments if isinstance(s, PulseSpec)] == \
                [s for s in full if isinstance(s, PulseSpec)][:-1]
            own = [s for s in full if isinstance(s, Wait)]
            assert [s.zeeman_sign for s in echo.segments if isinstance(s, Wait)] == \
                [s.zeeman_sign for s in own]
            assert np.array_equal(row.view(np.uint64),
                                  np.array([s.duration for s in own]).view(np.uint64))

    @settings(max_examples=80, deadline=None)
    @given(echo_configs(), st.lists(st.one_of(st.floats(0.5, 4.0), st.floats(1e11, 1e13)),
                                    min_size=1, max_size=8))
    @example(EchoConfig(tau=60e-6, t_readout=1e-6), [0.8, 1.0, 10.0])
    def test_room_is_checked_at_the_shortest_and_longest_storage_time(self, cfg, factors):
        # storage times around the summed pulses, where a wait has no room,
        # and ~1e12 of them, where a pulse has none
        taus = np.array(factors) * (cfg.t_init + cfg.t_rephase + cfg.t_readout)
        expected = None
        for tau in (taus.min(), taus.max()):
            try:
                replace(cfg, tau=float(tau))
            except ConfigurationError as exc:
                expected = expected or exc
        if expected is None:
            echo_layout(cfg, taus)
            for tau in taus.tolist():          # the rule then holds between them too
                replace(cfg, tau=tau)
            return
        with pytest.raises(ConfigurationError) as raised:
            echo_layout(cfg, taus)
        assert raised.value.problems == expected.problems
