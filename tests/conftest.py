import os

# the same one-thread BLAS default as eitecho/__init__.py, set here because
# this module imports numpy before eitecho
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np
import pytest

import eitecho.dynamics as dynamics
from eitecho.dynamics import SequenceSpec, Trajectory, _expm, run_sequence
from eitecho.lambda_system import JUMPS, LambdaParams, _jump_rates, liouvillians
from eitecho.qstate import DensityMatrix3

# Equal-weight ground superpositions that couple maximally / not at all to an
# equal-phase bichromatic drive.
KET_BRIGHT = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)
KET_DARK = np.array([1.0, -1.0], dtype=complex) / np.sqrt(2.0)


@pytest.fixture
def mixed_ground() -> DensityMatrix3:
    """Fully mixed ground manifold, empty excited state."""
    return DensityMatrix3(np.diag([0.5, 0.5, 0.0]).astype(complex))


def hamiltonian(p: LambdaParams) -> np.ndarray:
    """Rotating-frame Hamiltonian (units hbar = 1, entries in rad/s)."""
    h = np.zeros((3, 3), dtype=complex)
    h[0, 0] = 0.5 * p.delta_spin
    h[1, 1] = -0.5 * p.delta_spin
    h[2, 2] = p.delta_opt
    h[2, 0] = 0.5 * p.rabi0 * np.exp(1j * p.phase0)
    h[2, 1] = 0.5 * p.rabi1 * np.exp(1j * p.phase1)
    h[0, 2] = np.conj(h[2, 0])
    h[1, 2] = np.conj(h[2, 1])
    return h


def jump_operators(p: LambdaParams) -> list[tuple[float, np.ndarray]]:
    """The (rate, C) of each jump operator present under `p`."""
    return [(gamma, c) for gamma, c in zip(_jump_rates(p), JUMPS) if gamma is not None]


def lindblad_rhs(rho: np.ndarray, p: LambdaParams) -> np.ndarray:
    """Right-hand side d(rho)/dt of the master equation, in 1/s: the
    independent oracle of the Liouvillians.

    Traceless and Hermiticity-preserving by construction; the balanced dark
    state is an exact fixed point for a resonant equal-amplitude drive with
    all rates zero.
    """
    h = hamiltonian(p)
    drho = -1j * (h @ rho - rho @ h)
    for gamma, c in jump_operators(p):
        cd = c.conj().T
        cdc = cd @ c
        drho += gamma * (c @ rho @ cd - 0.5 * (cdc @ rho + rho @ cdc))
    return drho


def liouvillian(p: LambdaParams) -> np.ndarray:
    """The 9x9 Liouvillian of one parameter set."""
    return liouvillians([p])[0]


def generator(p: LambdaParams, drive) -> np.ndarray:
    """The cached base generator of one (parameters, drive) key."""
    return dynamics._base_generator.many([(p, drive)])[0]


@pytest.fixture
def builds(monkeypatch) -> list:
    """The number of parameter sets of each Liouvillian build the generator
    cache makes during the test, which starts from an empty cache."""
    calls = []

    def counting(ps):
        calls.append(len(ps))
        return liouvillians(ps)

    monkeypatch.setattr(dynamics, "liouvillians", counting)
    monkeypatch.setattr(dynamics._base_generator, "store", {})
    return calls


def propagate(rho0: DensityMatrix3, p: LambdaParams, segment) -> Trajectory:
    """Propagate one state through one pulse or wait segment on the default
    grid, which resolves the drive strength and detunings."""
    return run_sequence(rho0, p, SequenceSpec(segments=(segment,)))


def _segment_map(p: LambdaParams, h: float) -> np.ndarray:
    """Exact 9x9 propagator over time h of the constant generator of `p`."""
    return _expm(h * liouvillian(p))


def final_state(traj: Trajectory) -> DensityMatrix3:
    """The last state of a trajectory."""
    return DensityMatrix3(traj.states[-1])


def random_density3(rng: np.random.Generator, trace: float = 1.0) -> np.ndarray:
    """Random positive 3x3 matrix with the requested trace (Ginibre construction)."""
    g = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    m = g @ g.conj().T
    return trace * m / np.trace(m).real


def random_qubit_state(rng: np.random.Generator, trace: float = 1.0) -> np.ndarray:
    g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    m = g @ g.conj().T
    return trace * m / np.trace(m).real


def trace_distance_matrix(a: np.ndarray, b: np.ndarray) -> float:
    """Half the trace norm of the difference, for matrices of any (equal) size."""
    return 0.5 * float(np.sum(np.linalg.svd(a - b, compute_uv=False)))
