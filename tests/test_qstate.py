"""State containers, the Bloch vector, and the sub-normalized fidelity convention."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eitecho.dynamics import Trajectory
from eitecho.errors import ValidationError
from eitecho.qstate import DensityMatrix3, GroundQubitState, fidelity

from conftest import KET_BRIGHT, KET_DARK, random_qubit_state, trace_distance_matrix


def ket_dm(ket) -> GroundQubitState:
    v = np.asarray(ket, dtype=complex)
    return GroundQubitState(np.outer(v, v.conj()))


def bloch_vector(state: GroundQubitState) -> np.ndarray:
    """Bloch vector of a ground block, as Trajectory.bloch_path reads it."""
    states = np.zeros((1, 3, 3), dtype=complex)
    states[0, :2, :2] = state.matrix
    return Trajectory(times=np.array([0.0]), states=states).bloch_path()[-1]


class TestValidation:
    def test_rejects_non_hermitian(self):
        with pytest.raises(ValidationError, match="Hermitian"):
            GroundQubitState(np.array([[0.5, 0.1], [0.3, 0.5]], dtype=complex))

    def test_rejects_trace_above_one(self):
        with pytest.raises(ValidationError, match="trace"):
            DensityMatrix3(np.diag([0.6, 0.6, 0.1]).astype(complex))

    def test_rejects_negative_eigenvalue(self):
        m = np.array([[0.5, 0.6], [0.6, 0.5]], dtype=complex)
        with pytest.raises(ValidationError, match="eigenvalue"):
            GroundQubitState(m)

    def test_accepts_subnormalized_block(self):
        s = GroundQubitState(0.5 * np.outer(KET_DARK, KET_DARK.conj()))
        assert s.trace == pytest.approx(0.5)

    def test_matrices_are_frozen(self):
        s = ket_dm([1.0, 0.0])
        with pytest.raises(ValueError):
            s.matrix[0, 0] = 2.0


class TestBlochVector:
    def test_basis_state(self):
        assert bloch_vector(ket_dm([1.0, 0.0])) == pytest.approx((0.0, 0.0, 1.0))

    def test_half_weight_dark_state(self):
        s = GroundQubitState(0.5 * np.outer(KET_DARK, KET_DARK.conj()))
        assert bloch_vector(s) == pytest.approx((-0.5, 0.0, 0.0), abs=1e-12)

    def test_fully_mixed(self):
        s = GroundQubitState(0.5 * np.eye(2, dtype=complex))
        assert bloch_vector(s) == pytest.approx((0.0, 0.0, 0.0), abs=1e-15)

    def test_length_bounded_by_trace(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            t = rng.uniform(0.05, 1.0)
            s = GroundQubitState(random_qubit_state(rng, trace=t))
            assert np.linalg.norm(bloch_vector(s)) <= t + 1e-9


class TestFidelity:
    def test_pure_match(self):
        assert fidelity(ket_dm(KET_DARK), KET_DARK) == pytest.approx(1.0)

    def test_half_weight_dark_gives_75_percent(self):
        s = GroundQubitState(0.5 * np.outer(KET_DARK, KET_DARK.conj()))
        assert fidelity(s, KET_DARK) == pytest.approx(0.75, abs=1e-12)

    def test_half_weight_bright_gives_25_percent(self):
        s = GroundQubitState(0.5 * np.outer(KET_BRIGHT, KET_BRIGHT.conj()))
        assert fidelity(s, KET_DARK) == pytest.approx(0.25, abs=1e-12)

    def test_unnormalized_target_rejected(self):
        with pytest.raises(ValidationError, match="normalized"):
            fidelity(ket_dm([1.0, 0.0]), [1.0, 1.0])

    def test_zero_trace_rejected(self):
        s = GroundQubitState(np.zeros((2, 2), dtype=complex))
        with pytest.raises(ValidationError, match="zero trace"):
            fidelity(s, KET_DARK)

    def test_unity_only_for_the_target_itself(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            m = random_qubit_state(rng)
            f = fidelity(GroundQubitState(m), KET_DARK)
            target = np.outer(KET_DARK, KET_DARK.conj())
            if f > 1.0 - 1e-12:
                assert np.allclose(m, target, atol=1e-6)
            assert 0.0 <= f <= 1.0 + 1e-12


class TestTraceDistance:
    """The trace distance the other tests measure with (conftest)."""

    def test_identical_states(self):
        s = ket_dm([1.0, 0.0])
        assert trace_distance_matrix(s.matrix, s.matrix) == 0.0

    def test_orthogonal_pure_states(self):
        d = trace_distance_matrix(ket_dm([1, 0]).matrix, ket_dm([0, 1]).matrix)
        assert d == pytest.approx(1.0)

    def test_zero_versus_dark(self):
        # closed form: eigenvalues of the difference are +-1/sqrt(2)
        d = trace_distance_matrix(ket_dm([1, 0]).matrix, ket_dm(KET_DARK).matrix)
        assert d == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 31 - 1),
       st.floats(min_value=0.05, max_value=1.0))
def test_construction_preserves_hermiticity_and_positivity(seed, trace):
    rng = np.random.default_rng(seed)
    s = GroundQubitState(random_qubit_state(rng, trace=trace))
    m = s.matrix
    assert np.allclose(m, m.conj().T, atol=1e-12)
    assert np.linalg.eigvalsh(m).min() >= -1e-9
    assert np.linalg.norm(bloch_vector(s)) <= s.trace + 1e-9

