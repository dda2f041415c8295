"""Ground-qubit state tomography: noisy axis projections and linear-inversion
reconstruction.

The laboratory reads populations frequency-selectively against auxiliary
excited levels; here that whole readout chain is abstracted to ideal
populations plus optional additive Gaussian noise from an explicitly passed
generator.  The x and y projections come from populations taken after ideal
pre-rotations of the ground block (pi/2 about y and x), the z projection from
the populations directly; each projection is a population difference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InconsistentDataError, ValidationError
from .qstate import PAULI_X, PAULI_Y, PAULI_Z, GroundQubitState, fidelity

# |(x,y,z)| may exceed 1 by at most this much before the data are declared
# inconsistent rather than clamped.
INCONSISTENCY_MARGIN = 0.05

# Ideal pre-rotations mapping the x / y Bloch components onto z.
_ROT_FOR_X = np.array([[np.cos(np.pi / 4), np.sin(np.pi / 4)],
                       [-np.sin(np.pi / 4), np.cos(np.pi / 4)]], dtype=complex)
_ROT_FOR_Y = np.array([[np.cos(np.pi / 4), -1j * np.sin(np.pi / 4)],
                       [-1j * np.sin(np.pi / 4), np.cos(np.pi / 4)]], dtype=complex)


@dataclass(frozen=True)
class TomographyResult:
    projections: tuple[float, float, float]
    reconstructed: GroundQubitState
    fidelity_vs_target: float


def _ground_populations(rho_ground: GroundQubitState, noise_rms: float,
                        rng: np.random.Generator | None) -> np.ndarray:
    p = np.real(np.diag(rho_ground.matrix))
    if noise_rms > 0.0:
        if rng is None:
            raise ValidationError("projection_measurements: noisy reads need an explicit rng")
        p = p + rng.normal(0.0, noise_rms, size=2)
    return p


def projection_measurements(rho_ground: GroundQubitState, noise_rms: float = 0.0,
                            rng: np.random.Generator | None = None):
    """Bloch projections (x, y, z) from three population measurements.

    z is the direct population difference; x and y repeat the read after the
    ideal pre-rotations.  Sub-normalized blocks simply yield shorter
    projection vectors.
    """
    if noise_rms < 0.0:
        raise ValidationError("projection_measurements: noise_rms must be >= 0")
    m = rho_ground.matrix
    outcomes = []
    for rot in (_ROT_FOR_X, _ROT_FOR_Y, None):
        block = m if rot is None else rot @ m @ rot.conj().T
        p = _ground_populations(GroundQubitState(block), noise_rms, rng)
        outcomes.append(float(p[0] - p[1]))
    return outcomes[0], outcomes[1], outcomes[2]


def reconstruct(x: float, y: float, z: float) -> GroundQubitState:
    """Linear inversion (I + xX + yY + zZ)/2 with PSD clamping of noise.

    Small negative eigenvalues from read noise are truncated to zero and the
    trace renormalized; projection vectors longer than 1 by more than the
    inconsistency margin raise instead.
    """
    r = math.sqrt(x * x + y * y + z * z)
    if r > 1.0 + INCONSISTENCY_MARGIN:
        raise InconsistentDataError(
            f"projection vector length {r:.4f} exceeds 1 + {INCONSISTENCY_MARGIN}")
    m = 0.5 * (np.eye(2, dtype=complex) + x * PAULI_X + y * PAULI_Y + z * PAULI_Z)
    eigs, vecs = np.linalg.eigh(m)
    if eigs.min() < 0.0:
        clipped = np.clip(eigs, 0.0, None)
        clipped *= 1.0 / clipped.sum()
        m = (vecs * clipped) @ vecs.conj().T
    return GroundQubitState(m)


def tomography_of(rho_ground: GroundQubitState, target,
                  noise_rms: float = 0.0,
                  rng: np.random.Generator | None = None) -> TomographyResult:
    """Full projection-measure-and-reconstruct pass against a pure target ket."""
    x, y, z = projection_measurements(rho_ground, noise_rms, rng)
    rec = reconstruct(x, y, z)
    return TomographyResult(projections=(x, y, z), reconstructed=rec,
                            fidelity_vs_target=fidelity(rec, target))


def state_fidelity(a: GroundQubitState, b: GroundQubitState) -> float:
    """Uhlmann fidelity between two (trace-one) qubit states.

    Used to score a reconstruction against the best state the sequence can
    possibly prepare, where 1.0 means "as good as the ideal run".
    """
    if abs(a.trace - 1.0) > 1e-6 or abs(b.trace - 1.0) > 1e-6:
        raise ValidationError("state_fidelity expects trace-one states")
    # closed form for qubits: F = tr(ab) + 2 sqrt(det a det b)
    prod = float(np.real(np.trace(a.matrix @ b.matrix)))
    det_a = float(np.real(np.linalg.det(a.matrix)))
    det_b = float(np.real(np.linalg.det(b.matrix)))
    val = prod + 2.0 * math.sqrt(max(det_a, 0.0) * max(det_b, 0.0))
    return float(min(max(val, 0.0), 1.0))
