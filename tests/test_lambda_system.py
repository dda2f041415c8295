"""Hamiltonian conventions, bright/dark couplings, and the master-equation RHS."""

import numpy as np
import pytest

from eitecho.errors import ValidationError
from eitecho.lambda_system import LambdaParams

from conftest import hamiltonian, lindblad_rhs, liouvillian, random_density3

DARK3 = np.array([1.0, -1.0, 0.0], dtype=complex) / np.sqrt(2.0)
BRIGHT3 = np.array([1.0, 1.0, 0.0], dtype=complex) / np.sqrt(2.0)


def coupling_strengths(p: LambdaParams) -> tuple[complex, complex]:
    """<e|H|B> and <e|H|D> of the balanced bright and dark kets."""
    h = hamiltonian(p)
    return complex(h[2] @ BRIGHT3), complex(h[2] @ DARK3)


class TestParams:
    def test_rejects_negative_rate(self):
        with pytest.raises(ValidationError, match="gamma_spin_deph"):
            LambdaParams(gamma_spin_deph=-1.0)

    def test_rejects_bad_branching(self):
        with pytest.raises(ValidationError, match="branch0"):
            LambdaParams(branch0=1.5)

    def test_every_problem_is_reported(self):
        with pytest.raises(ValidationError) as exc:
            LambdaParams(rabi0=-1.0, gamma_opt_deph=-1.0, branch0=1.5, delta_opt=np.nan)
        assert [p.split()[0] for p in exc.value.problems] == [
            "LambdaParams.rabi0", "LambdaParams.gamma_opt_deph", "LambdaParams.branch0",
            "LambdaParams.delta_opt"]


class TestHamiltonian:
    def test_couplings_and_phases(self):
        p = LambdaParams(rabi0=2.0, rabi1=3.0, phase0=0.3, phase1=-0.7,
                         delta_opt=5.0, delta_spin=1.0)
        h = hamiltonian(p)
        assert np.allclose(h, h.conj().T)
        assert h[2, 0] == pytest.approx(1.0 * np.exp(0.3j))
        assert h[2, 1] == pytest.approx(1.5 * np.exp(-0.7j))
        assert h[2, 2] == pytest.approx(5.0)
        assert h[0, 0] - h[1, 1] == pytest.approx(1.0)

    def test_equal_drive_bright_enhanced_dark_decoupled(self):
        p = LambdaParams(rabi0=1.0, rabi1=1.0)
        b, d = coupling_strengths(p)
        assert b == pytest.approx(np.sqrt(2.0) / 2.0)
        assert d == pytest.approx(0.0, abs=1e-15)

    def test_single_color_splits_evenly(self):
        p = LambdaParams(rabi0=1.0, rabi1=0.0)
        b, d = coupling_strengths(p)
        assert b == pytest.approx(1.0 / (2.0 * np.sqrt(2.0)))
        assert d == pytest.approx(1.0 / (2.0 * np.sqrt(2.0)))

    def test_90_degree_relative_phase(self):
        p = LambdaParams(rabi0=1.0, rabi1=1.0, phase1=np.pi / 2.0)
        b, d = coupling_strengths(p)
        assert abs(b) == pytest.approx(0.5)
        assert abs(d) == pytest.approx(0.5)

    def test_pi_relative_phase_swaps_roles(self):
        # with one color sign-flipped the balanced dark state couples maximally
        p = LambdaParams(rabi0=1.0, rabi1=1.0, phase1=np.pi)
        b, d = coupling_strengths(p)
        assert abs(b) == pytest.approx(0.0, abs=1e-15)
        assert abs(d) == pytest.approx(np.sqrt(2.0) / 2.0)


class TestBrightDarkBasis:
    """The drive-adapted dark ket, which the Hamiltonian leaves uncoupled."""

    def test_dark_column_is_decoupled(self):
        # (rabi1 e^{i phase1}, -rabi0 e^{i phase0}, 0) / norm for any drive
        rng = np.random.default_rng(6)
        for _ in range(50):
            p = LambdaParams(rabi0=rng.uniform(0.1, 2), rabi1=rng.uniform(0.1, 2),
                             phase0=rng.uniform(-np.pi, np.pi),
                             phase1=rng.uniform(-np.pi, np.pi))
            dark = np.array([p.rabi1 * np.exp(1j * p.phase1),
                             -p.rabi0 * np.exp(1j * p.phase0), 0.0])
            dark /= np.linalg.norm(dark)
            assert abs(hamiltonian(p)[2] @ dark) < 1e-12


class TestLindbladRhs:
    def test_dark_state_is_stationary(self):
        p = LambdaParams(rabi0=1.0, rabi1=1.0)
        rho_dark = np.outer(DARK3, DARK3.conj())
        assert np.max(np.abs(lindblad_rhs(rho_dark, p))) < 1e-12

    def test_excited_decay_rate_equations(self):
        p = LambdaParams(gamma_opt_decay=2.0, branch0=0.5)
        rho_e = np.zeros((3, 3), dtype=complex)
        rho_e[2, 2] = 1.0
        d = lindblad_rhs(rho_e, p)
        assert d[2, 2].real == pytest.approx(-2.0)
        assert d[0, 0].real == pytest.approx(1.0)
        assert d[1, 1].real == pytest.approx(1.0)

    def test_spin_dephasing_decay_rate(self):
        # ground coherence decays at exactly gamma: |rho01(t)| = 0.5 e^{-gamma t}
        gamma = 3.0
        p = LambdaParams(gamma_spin_deph=gamma)
        rho_dark = np.outer(DARK3, DARK3.conj())
        d = lindblad_rhs(rho_dark, p)
        assert d[0, 1] == pytest.approx(-gamma * rho_dark[0, 1])

    def test_optical_dephasing_calibration(self):
        gamma = 1.7
        p = LambdaParams(gamma_opt_deph=gamma)
        rho = np.zeros((3, 3), dtype=complex)
        rho[0, 2] = rho[2, 0] = 0.3
        rho[0, 0] = rho[2, 2] = 0.5
        d = lindblad_rhs(rho, p)
        assert d[0, 2] == pytest.approx(-gamma * rho[0, 2])

    def test_traceless_and_hermitian_on_random_states(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            p = LambdaParams(
                rabi0=rng.uniform(0, 2), rabi1=rng.uniform(0, 2),
                phase0=rng.uniform(-np.pi, np.pi), phase1=rng.uniform(-np.pi, np.pi),
                delta_opt=rng.uniform(-3, 3), delta_spin=rng.uniform(-1, 1),
                gamma_opt_decay=rng.uniform(0, 1), gamma_opt_deph=rng.uniform(0, 1),
                gamma_spin_deph=rng.uniform(0, 1), branch0=rng.uniform(0, 1))
            d = lindblad_rhs(random_density3(rng, trace=rng.uniform(0.2, 1.0)), p)
            assert abs(np.trace(d)) < 1e-12
            assert np.allclose(d, d.conj().T, atol=1e-12)

    def test_liouvillian_matches_rhs(self):
        rng = np.random.default_rng(9)
        p = LambdaParams(rabi0=1.1, rabi1=0.7, phase1=0.4, delta_opt=2.0,
                         delta_spin=0.3, gamma_opt_decay=0.5, gamma_opt_deph=0.2,
                         gamma_spin_deph=0.1)
        sup = liouvillian(p)
        rho = random_density3(rng)
        assert np.allclose((sup @ rho.reshape(9)).reshape(3, 3),
                           lindblad_rhs(rho, p), atol=1e-14)
