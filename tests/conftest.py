import os

# the same one-thread BLAS default as eitecho/__init__.py, set here because
# this module imports numpy before eitecho
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np
import pytest

from eitecho.dynamics import SequenceSpec, Trajectory, _expm, run_sequence
from eitecho.lambda_system import LambdaParams, liouvillian
from eitecho.qstate import DensityMatrix3


@pytest.fixture
def mixed_ground() -> DensityMatrix3:
    """Fully mixed ground manifold, empty excited state."""
    return DensityMatrix3(np.diag([0.5, 0.5, 0.0]).astype(complex))


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
