"""Exact segment propagators: closed-form Liouvillian, endpoint oracle, map invariants.

The closed-form Liouvillian is checked against the master-equation
right-hand side applied column by column; endpoint states are checked
against a classic fixed-step RK4 integration of that right-hand side and
against the sampled trajectory; the segment maps themselves are checked for
the invariants of a Lindblad semigroup.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eitecho.dynamics import (PulseSpec, SequenceSpec, Wait, _segment_map, run_sequence,
                              sequence_endpoints)
from eitecho.ensemble import EnsembleSpec, ensemble_average, ensemble_final_state
from eitecho.lambda_system import LambdaParams, bright_dark_basis, lindblad_rhs, liouvillian
from eitecho.qstate import DensityMatrix3
from eitecho.sequences import EchoConfig, make_echo_sequence

from conftest import random_density3

W = 2.0 * np.pi * 1e6          # frequency scale of the drawn parameters, rad/s
TRACE_FUNCTIONAL = np.eye(3).reshape(9)

unit = st.floats(-1.0, 1.0)
magnitude = st.floats(0.0, 1.0)
rate = st.one_of(st.just(0.0), magnitude)
phase = st.floats(-np.pi, np.pi)
branching = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))


@st.composite
def lambda_params(draw) -> LambdaParams:
    """Parameters up to W in every frequency and rate; rates may be exactly zero."""
    return LambdaParams(
        rabi0=W * draw(magnitude), rabi1=W * draw(magnitude),
        phase0=draw(phase), phase1=draw(phase),
        delta_opt=W * draw(unit), delta_spin=W * draw(unit),
        gamma_opt_decay=W * draw(rate), gamma_opt_deph=W * draw(rate),
        gamma_spin_deph=W * draw(rate), branch0=draw(branching),
        frame_offset=W * draw(unit),
    )


@st.composite
def segments(draw) -> tuple:
    """One to three pulses or waits of up to 0.4 us, with either Zeeman sign."""
    out = []
    for _ in range(draw(st.integers(1, 3))):
        duration = draw(st.floats(0.05e-6, 0.4e-6))
        sign = draw(st.sampled_from([1.0, -1.0]))
        if draw(st.booleans()):
            out.append(Wait(duration=duration, zeeman_sign=sign))
        else:
            out.append(PulseSpec(duration=duration, rabi0=W * draw(magnitude),
                                 rabi1=W * draw(magnitude), phase0=draw(phase),
                                 phase1=draw(phase), zeeman_sign=sign))
    return tuple(out)


def column_by_column(p: LambdaParams) -> np.ndarray:
    sup = np.zeros((9, 9), dtype=complex)
    for j in range(9):
        unit_matrix = np.zeros((3, 3), dtype=complex)
        unit_matrix.flat[j] = 1.0
        sup[:, j] = lindblad_rhs(unit_matrix, p).reshape(9)
    return sup


def rk4(rho: np.ndarray, p: LambdaParams, duration: float) -> np.ndarray:
    """Classic fixed-step RK4 on the master equation.

    The right-hand side is linear, so it is applied as its column-by-column
    matrix; the step keeps h * ||L|| <= 2e-3, which bounds the global
    truncation error near T * w * (h * w)**4 / 120 ~ 1e-11 for any drawn case.
    """
    sup = column_by_column(p)
    n_steps = max(1, int(np.ceil(duration * np.linalg.norm(sup, 2) / 2e-3)))
    h = duration / n_steps
    v = rho.reshape(9)
    for _ in range(n_steps):
        k1 = sup @ v
        k2 = sup @ (v + 0.5 * h * k1)
        k3 = sup @ (v + 0.5 * h * k2)
        k4 = sup @ (v + h * k3)
        v = v + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return v.reshape(3, 3)


def oracle_segment_params(p: LambdaParams, seg, zeeman_offset: float) -> LambdaParams:
    drive = (seg.rabi0, seg.rabi1, seg.phase0, seg.phase1) \
        if isinstance(seg, PulseSpec) else (0.0, 0.0, 0.0, 0.0)
    return p.replace(rabi0=drive[0], rabi1=drive[1], phase0=drive[2], phase1=drive[3],
                     delta_spin=p.delta_spin + seg.zeeman_sign * zeeman_offset)


class TestClosedFormLiouvillian:
    @settings(max_examples=200, deadline=None)
    @given(lambda_params())
    @example(LambdaParams())
    @example(LambdaParams(rabi0=W, rabi1=0.5 * W, delta_opt=-W, frame_offset=0.7 * W))
    @example(LambdaParams(gamma_opt_decay=W, branch0=0.0, frame_offset=-W))
    @example(LambdaParams(gamma_opt_decay=W, branch0=1.0, gamma_spin_deph=0.1 * W))
    def test_matches_rhs_on_matrix_units(self, p):
        ref = column_by_column(p)
        scale = max(np.max(np.abs(ref)), 1.0)
        assert np.max(np.abs(liouvillian(p) - ref)) <= 1e-12 * scale


class TestEndpointDifferential:
    @settings(max_examples=12, deadline=None)
    @given(lambda_params(), segments(), unit, st.integers(0, 2**32 - 1))
    @example(LambdaParams(rabi0=W, rabi1=W, delta_opt=W, delta_spin=W, frame_offset=W),
             tuple(PulseSpec(duration=0.4e-6, rabi0=W, rabi1=W, phase0=0.0, phase1=1.0)
                   for _ in range(3)), 1.0, 1)
    def test_matches_fine_step_rk4(self, p, segs, offset, seed):
        rho0 = random_density3(np.random.default_rng(seed))
        zeeman_offset = 0.2 * W * offset
        end = sequence_endpoints(DensityMatrix3(rho0), p, [SequenceSpec(segments=segs)],
                                 [0.0, 0.0, zeeman_offset])[0, 0].reshape(3, 3)
        rho = rho0
        for seg in segs:
            rho = rk4(rho, oracle_segment_params(p, seg, zeeman_offset), seg.duration)
        assert np.max(np.abs(end - rho)) <= 1e-9

    @settings(max_examples=25, deadline=None)
    @given(st.floats(8e-6, 30e-6), magnitude, magnitude, magnitude, unit,
           st.booleans())
    @example(20e-6, 0.0, 0.0, 0.0, 1.0, True)
    def test_matches_sampled_trajectory_on_echoes(self, tau, deph, decay, spin, offset,
                                                  readout):
        cfg = EchoConfig(tau=tau, t_init=1e-6, t_rephase=1e-6, t_readout=1e-6)
        seq = make_echo_sequence(cfg, include_readout=readout)
        p = LambdaParams(delta_opt=0.3 * W, gamma_opt_deph=0.2 * W * deph,
                         gamma_opt_decay=0.1 * W * decay, gamma_spin_deph=1e4 * spin)
        rho0 = DensityMatrix3(np.diag([0.5, 0.5, 0.0]).astype(complex))
        zeeman_offset = 2.0 * np.pi * 50e3 * offset
        end = sequence_endpoints(rho0, p, [seq], [0.0, 0.0, zeeman_offset])[0, 0].reshape(3, 3)
        traj = run_sequence(rho0, p, seq, zeeman_offset=zeeman_offset)
        assert np.max(np.abs(end - traj.states[-1])) <= 1e-10

    def test_ensemble_final_state_matches_averaged_trajectory(self):
        spec = EnsembleSpec(spin_fwhm=30e3, n_spin=5, optical_fwhm=100e3, n_optical=3,
                            zeeman_branches=((-5e3, 0.5), (5e3, 0.5)))
        seq = make_echo_sequence(EchoConfig(tau=20e-6), include_readout=False)
        p = LambdaParams(gamma_spin_deph=1e3, gamma_opt_deph=1e5)
        final = ensemble_final_state(seq, p, spec)
        avg = ensemble_average(seq, p, spec)
        assert np.max(np.abs(final.matrix - avg.final_state.matrix)) <= 1e-10
        threaded = ensemble_final_state(seq, p, spec)
        assert np.array_equal(final.matrix, threaded.matrix)


durations = st.floats(1e-9, 2e-6)


class TestSegmentMapProperties:
    @settings(max_examples=60, deadline=None)
    @given(lambda_params(), durations)
    def test_trace_preserved(self, p, h):
        m = _segment_map(p, h)
        assert np.max(np.abs(TRACE_FUNCTIONAL @ m - TRACE_FUNCTIONAL)) <= 1e-12

    @settings(max_examples=60, deadline=None)
    @given(lambda_params(), durations, st.integers(0, 2**32 - 1))
    def test_hermiticity_preserved(self, p, h, seed):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        out = (_segment_map(p, h) @ (a + a.conj().T).reshape(9)).reshape(3, 3)
        assert np.max(np.abs(out - out.conj().T)) <= 1e-12 * max(np.max(np.abs(out)), 1.0)

    @settings(max_examples=60, deadline=None)
    @given(lambda_params(), durations)
    def test_completely_positive(self, p, h):
        # Choi matrix sum_ij |i><j| (x) M(|i><j|) of a CP map is positive
        m = _segment_map(p, h)
        choi = m.reshape(3, 3, 3, 3).transpose(2, 0, 3, 1).reshape(9, 9)
        assert np.linalg.eigvalsh(0.5 * (choi + choi.conj().T)).min() >= -1e-12

    @settings(max_examples=60, deadline=None)
    @given(lambda_params(), durations, durations)
    def test_composition_law(self, p, a, b):
        lhs = _segment_map(p, a) @ _segment_map(p, b)
        rhs = _segment_map(p, a + b)
        assert np.max(np.abs(lhs - rhs)) <= 1e-11

    @settings(max_examples=60, deadline=None)
    @given(magnitude, phase, unit, unit, st.floats(1e-9, 1e-5))
    def test_dark_state_is_fixed_point(self, rabi, ph, delta_opt, frame_offset, h):
        p = LambdaParams(rabi0=W * rabi, rabi1=W * rabi, phase0=ph, phase1=ph,
                         delta_opt=W * delta_opt, frame_offset=W * frame_offset)
        dark = bright_dark_basis(p).dark3()
        rho = np.outer(dark, dark.conj())
        out = (_segment_map(p, h) @ rho.reshape(9)).reshape(3, 3)
        assert np.max(np.abs(out - rho)) <= 1e-12
