"""The numpy Pade `expm` and the stdlib Student-t quantile against scipy.

scipy is the oracle here and is imported by this file only: the package
itself runs without it.  The call-count pins keep a decay curve at one
`expm` call for its pulses and one for its readout, and an input that no
scaling can tame must fail fast, naming its segment.  Each matrix takes its
own Pade degree, so a map has the bits it gets alone in any stack.
"""

import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm
from scipy.special import stdtrit

import eitecho.dynamics as dynamics
import eitecho.readout as readout
from eitecho.dynamics import (MAX_SQUARINGS, PADE_THETAS, PulseSpec, SequenceSpec, Wait,
                              _expm, member_generators, propagate_members, sequence_endpoints)
from eitecho.ensemble import MIXED_GROUND, EnsembleSpec
from eitecho.errors import ConfigurationError
from eitecho.lambda_system import LambdaParams
from eitecho.readout import assemble_decay_curve, student_t_quantile
from eitecho.sequences import EchoConfig, make_echo_sequence

from test_propagators import TRACE_FUNCTIONAL, W, lambda_params, magnitude, phase, unit

# vec(rho) -> vec(rho^T): a map M keeps Hermitian states Hermitian iff SWAP conj(M) SWAP = M
SWAP = np.eye(9)[[3 * (j % 3) + j // 3 for j in range(9)]]


def norm1(x: np.ndarray) -> np.ndarray:
    return np.abs(x).sum(axis=-2).max(axis=-1)


def rescaled(gen: np.ndarray, log_norms) -> np.ndarray:
    """Each matrix of `gen` scaled to the 1-norm 10**log_norms (to zero if its norm is tiny)."""
    n = norm1(gen)
    scale = np.where(n > 1e-200, 10.0 ** np.asarray(log_norms) / np.maximum(n, 1e-200), 0.0)
    return scale[:, None, None] * gen


def assert_matches_scipy(stack: np.ndarray, oracle_input=None) -> np.ndarray:
    ours = _expm(stack)
    ref = expm(stack if oracle_input is None else oracle_input)
    scale = np.maximum(1.0, np.max(np.abs(ref), axis=(-2, -1)))
    assert np.all(np.max(np.abs(ours - ref), axis=(-2, -1)) <= 1e-13 * scale)
    return ours


@st.composite
def generator_stacks(draw, max_members: int = 4) -> np.ndarray:
    """Generators (M, 9, 9) of one pulse or wait for 1-4 members."""
    p = draw(lambda_params())
    if draw(st.booleans()):
        seg = Wait(duration=1e-6, zeeman_sign=draw(st.sampled_from([1.0, -1.0])))
    else:
        seg = PulseSpec(duration=1e-6, rabi0=W * draw(magnitude), rabi1=W * draw(magnitude),
                        phase0=draw(phase), phase1=draw(phase))
    offsets = draw(st.lists(st.tuples(unit, unit, unit), min_size=1, max_size=max_members))
    return member_generators(p, seg, W * np.array(offsets))


# Two scaling-and-squaring codes differ by up to about u * ||A||_1, the
# condition of exp (both take exp of a diagonal exactly): at a 1-norm
# of 1e3 that reaches the 1e-13 bound for a few random stacks in a thousand,
# so the drawn examples are fixed from run to run.
oracle_settings = settings(max_examples=100, deadline=None, derandomize=True)


class TestAgainstScipy:
    @oracle_settings
    @given(generator_stacks(), st.floats(-8.0, 3.0))
    @example(np.array([member_generators(
        LambdaParams(rabi0=W, rabi1=W, delta_opt=W, gamma_opt_decay=W, gamma_opt_deph=W),
        PulseSpec(duration=1e-6, rabi0=W, rabi1=W), [[W, -W, W]])[0]]), 3.0)
    def test_liouvillian_stacks_up_to_deep_squaring(self, gen, log_norm):
        # one duration for the stack, up to a largest 1-norm of 1e3 (8 squarings)
        top = norm1(gen).max()
        maps = assert_matches_scipy(gen * (10.0 ** log_norm / top if top > 1e-200 else 0.0))
        assert np.max(np.abs(TRACE_FUNCTIONAL @ maps - TRACE_FUNCTIONAL)) <= 1e-12
        mirrored = SWAP @ maps.conj() @ SWAP
        assert np.max(np.abs(maps - mirrored)) <= 1e-12 * max(1.0, np.max(np.abs(maps)))

    @oracle_settings
    @given(generator_stacks(), st.lists(st.floats(-12.0, 3.0), min_size=4, max_size=4))
    @example(np.array([member_generators(LambdaParams(gamma_opt_decay=W, rabi0=W),
                                         PulseSpec(duration=1e-6, rabi0=W), [[0, 0, 0]])[0]] * 2),
             [-12.0, 3.0, 0.0, 0.0])
    # a drive-free, decay-free wait: diagonal, so exp of the diagonal is exact
    @example(np.array([member_generators(LambdaParams(), Wait(duration=1e-6),
                                         [[0, W, 0]])[0]] * 3),
             [0.0, 0.0, 3.0, 0.0])
    def test_stacks_mixing_tiny_and_large_norms(self, gen, log_norms):
        # each matrix at its own 1-norm, which sets its degree and its depth
        assert_matches_scipy(rescaled(gen, log_norms[:len(gen)]))

    @pytest.mark.parametrize("partner_norm", [None, 1e-3, 1.0, 1e3])
    def test_zero_matrix(self, partner_norm):
        # alone or beside a matrix of a higher degree, in one stack (degree 3 each way)
        stack = np.zeros((1, 9, 9), dtype=complex)
        if partner_norm is not None:
            gen = member_generators(LambdaParams(gamma_opt_decay=W, rabi0=W),
                                    PulseSpec(duration=1e-6, rabi0=W), [[0, 0, 0]])
            stack = np.concatenate([stack, rescaled(gen, np.log10(partner_norm))])
        maps = assert_matches_scipy(stack)
        assert np.max(np.abs(maps[0] - np.eye(9))) <= 1e-15

    @settings(max_examples=60, deadline=None)
    @given(generator_stacks(max_members=2), st.floats(-8.0, 1.0),
           st.lists(st.integers(-50, 50), min_size=81, max_size=81))
    @example(np.array([member_generators(LambdaParams(gamma_opt_decay=0.1 * W,
                                                      delta_spin=5e-324 * W),
                                         Wait(duration=1e-6), [[0, 0, 0]])[0]]),
             np.log10(27e-6 * 0.1 * W), [0] * 81)
    def test_subnormal_entries(self, gen, log_norm, tiny):
        stack = rescaled(gen, log_norm) + 5e-324 * np.array(tiny).reshape(9, 9)
        # scipy's squaring of triangular input divides by differences of the
        # diagonal and overflows when one is subnormal (scipy issue 11839), so
        # the oracle sees the stack with subnormal parts flushed to zero, which
        # moves the map by less than 1e-300
        flushed = stack.copy()
        parts = flushed.view(float)
        parts[np.abs(parts) < np.finfo(float).tiny] = 0.0
        assert np.isfinite(assert_matches_scipy(stack, flushed)).all()


class TestStackIndependence:
    @settings(max_examples=100, deadline=None)
    @given(generator_stacks(), st.lists(st.floats(-12.0, 3.0), min_size=4, max_size=4))
    # one pulse at a norm of each of the degrees 3, 5, 9 and 13 (7 squarings)
    @example(np.array([member_generators(LambdaParams(gamma_opt_decay=W, rabi0=W),
                                         PulseSpec(duration=1e-6, rabi0=W), [[0, 0, 0]])[0]] * 4),
             [-3.0, -1.0, 0.15, 2.5])
    def test_each_map_has_the_bits_it_gets_alone(self, gen, log_norms):
        stack = rescaled(gen, log_norms[:len(gen)])
        maps = _expm(stack)
        for i in range(len(stack)):
            assert np.array_equal(maps[i], _expm(stack[i:i + 1])[0])


class TestPade13:
    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 12), log_scale=st.floats(-3.0, 1.0))
    def test_in_place_sums_keep_the_bits_of_the_expression(self, seed, n, log_scale):
        # Higham's expression, as `_expm` evaluated it with a temporary per term
        rng = np.random.default_rng(seed)
        x = (rng.standard_normal((n, 9, 9)) + 1j * rng.standard_normal((n, 9, 9))) \
            * 10.0 ** log_scale
        b, eye = dynamics.PADE_COEFFICIENTS[13], np.eye(9, dtype=complex)
        x2 = x @ x
        x4 = x2 @ x2
        x6 = x4 @ x2
        u = x @ (x6 @ (b[13] * x6 + b[11] * x4 + b[9] * x2)
                 + b[7] * x6 + b[5] * x4 + b[3] * x2 + b[1] * eye)
        v = x6 @ (b[12] * x6 + b[10] * x4 + b[8] * x2) + b[6] * x6 + b[4] * x4 + b[2] * x2 \
            + b[0] * eye
        got_u, got_v = dynamics._pade13(x, b, eye)
        assert np.array_equal(got_u, u)
        assert np.array_equal(got_v, v)


class TestStudentQuantile:
    def test_matches_scipy_for_dof_1_to_1000(self):
        dof = np.arange(1, 1001)
        ours = np.array([student_t_quantile(int(n), 0.975) for n in dof])
        ref = stdtrit(dof, 0.975)
        assert np.max(np.abs(ours - ref) / ref) <= 1e-12

    @pytest.mark.parametrize("p", [0.6, 0.9, 0.995])
    def test_other_probabilities(self, p):
        for dof in (1, 2, 3, 10, 41):
            assert student_t_quantile(dof, p) == pytest.approx(float(stdtrit(dof, p)), rel=1e-12)


@pytest.fixture
def expm_calls(monkeypatch) -> list:
    """Shapes of the stacks passed to `_expm`, one entry per call, from
    `dynamics` and from `readout`, which maps its readout pulse."""
    calls = []

    def counted(a, names=None):
        calls.append(np.shape(a))
        return _expm(a, names)

    for module in (dynamics, readout):
        monkeypatch.setattr(module, "_expm", counted)
    return calls


PARAMS = LambdaParams(delta_opt=2 * np.pi * 40e3, gamma_spin_deph=2e3, gamma_opt_deph=1e5,
                      gamma_opt_decay=1.0 / 164e-6)


class TestCallCounts:
    @pytest.mark.parametrize("n_taus, spec", [
        (3, EnsembleSpec()),
        (11, EnsembleSpec(optical_fwhm=170e3, spin_fwhm=20e3, n_optical=3, n_spin=3,
                          zeeman_branches=((-8e3, 0.4), (8e3, 0.6)))),
    ])
    def test_beat_curve_makes_at_most_two_calls(self, expm_calls, n_taus, spec):
        cfg = EchoConfig(tau=20e-6, t_init=1e-6, t_rephase=1e-6, t_readout=1e-6)
        assemble_decay_curve(cfg, np.linspace(20e-6, 60e-6, n_taus), PARAMS, spec)
        assert len(expm_calls) <= 2

    @pytest.mark.parametrize("n_pulses", [0, 1, 3, 6])
    def test_sequence_endpoints_makes_at_most_one_call(self, expm_calls, n_pulses):
        pulse = PulseSpec(duration=1e-6, rabi0=W, rabi1=0.5 * W, phase1=0.3)
        segs = (Wait(duration=2e-6),) + (pulse, Wait(duration=1e-6)) * n_pulses
        waits = [s.duration for s in segs if isinstance(s, Wait)]
        durations = [waits[:-1] + [t] for t in (1e-6, 3e-6)]
        sequence_endpoints(MIXED_GROUND, PARAMS, SequenceSpec(segments=segs),
                           [[0, 0, 0], [W, 0, 0]], durations=durations)
        assert len(expm_calls) <= 1


class TestUnscalableInput:
    SEQ = make_echo_sequence(EchoConfig(tau=20e-6, t_init=1e-6, t_rephase=1e-6,
                                        t_readout=1e-6), include_readout=False)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_sequence_endpoints_names_segment_and_member(self, bad):
        offsets = np.zeros((3, 3))
        offsets[1, 0] = bad
        start = time.monotonic()
        # 0 * inf in the generator's diagonal shift is itself nan
        with np.errstate(invalid="ignore"), pytest.raises(
                ConfigurationError,
                match=r"segment 0 \(init_pi_half\), member 1: has a non-finite entry"):
            sequence_endpoints(MIXED_GROUND, PARAMS, self.SEQ, offsets)
        assert time.monotonic() - start < 1.0

    def test_propagate_members_names_segment(self):
        start = time.monotonic()
        with pytest.raises(ConfigurationError,
                           match=r"segment 0 \(init_pi_half\), member 0: has a non-finite"):
            propagate_members(MIXED_GROUND, PARAMS, self.SEQ, [[np.nan, 0, 0]], [1.0],
                              [1e-7] * len(self.SEQ.segments))
        assert time.monotonic() - start < 1.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry_raises_before_squaring(self, bad):
        stack = np.zeros((2, 9, 9), dtype=complex)
        stack[1, 4, 2] = bad
        with pytest.raises(ConfigurationError, match=r"generator \(1,\): has a non-finite"):
            _expm(stack)

    def test_squaring_depth_is_bounded(self):
        norm = PADE_THETAS[13] * 2.0 ** (MAX_SQUARINGS + 1)
        with pytest.raises(ConfigurationError, match=f"beyond {MAX_SQUARINGS} squarings"):
            _expm(-norm * np.eye(9))
        assert np.isfinite(_expm(-PADE_THETAS[13] * 2.0 ** MAX_SQUARINGS * np.eye(9))).all()
