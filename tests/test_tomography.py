"""Noisy projection measurements and linear-inversion reconstruction."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eitecho.errors import InconsistentDataError, ValidationError
from eitecho.qstate import GroundQubitState, fidelity
from eitecho.tomography import (
    projection_measurements,
    reconstruct,
    state_fidelity,
    tomography_of,
)

from conftest import KET_DARK, random_qubit_state, trace_distance_matrix


def ground(mat) -> GroundQubitState:
    return GroundQubitState(np.asarray(mat, dtype=complex))


class TestMeasurePopulations:
    """The noisy population reads behind every projection."""

    def test_noise_statistics(self):
        # z is the difference of two independent noisy population reads
        rng = np.random.default_rng(42)
        rho = ground(np.diag([0.5, 0.3]))
        reads = np.array([projection_measurements(rho, 0.01, rng)[2]
                          for _ in range(1000)])
        assert reads.std() == pytest.approx(np.sqrt(2.0) * 0.01, rel=0.15)
        assert reads.mean() == pytest.approx(0.2, abs=0.002)

    def test_noise_requires_rng(self):
        rho = ground(np.diag([1.0, 0.0]))
        with pytest.raises(ValidationError, match="rng"):
            projection_measurements(rho, 0.01)


class TestProjections:
    def test_basis_state(self):
        assert projection_measurements(ground([[1, 0], [0, 0]])) == pytest.approx(
            (0.0, 0.0, 1.0), abs=1e-12)

    def test_half_dark_state(self):
        m = 0.5 * np.outer(KET_DARK, KET_DARK.conj())
        assert projection_measurements(ground(m)) == pytest.approx(
            (-0.5, 0.0, 0.0), abs=1e-12)

    def test_half_dark_rotated_90(self):
        # preparation with a 90 degree offset lands on -y
        v = np.array([1.0, -1.0j]) / np.sqrt(2.0)
        m = 0.5 * np.outer(v, v.conj())
        assert projection_measurements(ground(m)) == pytest.approx(
            (0.0, -0.5, 0.0), abs=1e-12)


class TestReconstruct:
    def test_center_of_sphere(self):
        rec = reconstruct(0.0, 0.0, 0.0)
        assert np.allclose(rec.matrix, 0.5 * np.eye(2))

    def test_maximum_attainable_coherence_case(self):
        # a half-length arrow reconstructs to the 75% fidelity ceiling
        rec = reconstruct(-0.5, 0.0, 0.0)
        assert fidelity(rec, KET_DARK) == pytest.approx(0.75, abs=1e-12)

    def test_clamps_small_negativity(self):
        rec = reconstruct(0.72, 0.0, 0.72)   # length ~1.018, inside the margin
        eigs = np.linalg.eigvalsh(rec.matrix)
        assert eigs.min() >= -1e-15
        assert np.trace(rec.matrix).real == pytest.approx(1.0)

    def test_rejects_inconsistent_data(self):
        with pytest.raises(InconsistentDataError):
            reconstruct(1.2, 0.0, 0.0)

    def test_linearity_inside_the_sphere(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            a = rng.uniform(-0.4, 0.4, size=3)
            b = rng.uniform(-0.4, 0.4, size=3)
            lhs = reconstruct(*(0.5 * a + 0.5 * b)).matrix
            rhs = 0.5 * reconstruct(*a).matrix + 0.5 * reconstruct(*b).matrix
            assert np.allclose(lhs, rhs, atol=1e-14)


class TestRoundTrip:
    def test_thousand_random_states(self):
        rng = np.random.default_rng(2024)
        worst = 0.0
        for _ in range(1000):
            m = random_qubit_state(rng)
            rec = reconstruct(*projection_measurements(ground(m)))
            worst = max(worst, trace_distance_matrix(rec.matrix, m))
        assert worst < 1e-10

    @settings(max_examples=80, deadline=None)
    @given(st.integers(min_value=0, max_value=2 ** 31 - 1))
    def test_round_trip_property(self, seed):
        rng = np.random.default_rng(seed)
        m = random_qubit_state(rng)
        rec = reconstruct(*projection_measurements(ground(m)))
        assert trace_distance_matrix(rec.matrix, m) < 1e-10


class TestResultObject:
    def test_tomography_of_reports_fidelity(self):
        m = 0.5 * np.outer(KET_DARK, KET_DARK.conj())
        res = tomography_of(ground(m), KET_DARK)
        assert res.fidelity_vs_target == pytest.approx(0.75, abs=1e-12)
        assert res.projections == pytest.approx((-0.5, 0.0, 0.0), abs=1e-12)

    def test_state_fidelity_agrees_with_pure_overlap(self):
        a = ground(np.outer(KET_DARK, KET_DARK.conj()))
        b = reconstruct(-0.5, 0.0, 0.0)
        overlap = float(np.real(KET_DARK.conj() @ b.matrix @ KET_DARK))
        assert state_fidelity(a, b) == pytest.approx(overlap, abs=1e-12)
