"""Quantum-state containers and metrics for the three-level system and its ground qubit.

The three-level basis order is fixed as (|0>, |1>, |e>): two nuclear ground
states and one optical excited state.  Ground-qubit objects live on the
(|0>, |1>) manifold and may be sub-normalized, because an EIT pulse parks part
of the population in |e> and the remaining ground block is then only "half a
density matrix".  All metrics below are defined to make sense for such blocks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-9
EIGENVALUE_TOL = 1e-9

# Pauli operators on the ground qubit, basis order (|0>, |1>).
PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


@dataclass(frozen=True)
class _StateMatrix:
    """Read-only Hermitian, positive semidefinite DIM x DIM matrix of trace in [0, 1]."""

    matrix: np.ndarray
    DIM = 0

    def __post_init__(self):
        what, dim = type(self).__name__, self.DIM
        m = np.asarray(self.matrix, dtype=complex)
        if m.shape != (dim, dim):
            raise ValidationError(f"{what}: expected a {dim}x{dim} matrix, got shape {m.shape}")
        if not np.allclose(m, m.conj().T, rtol=0.0, atol=HERMITICITY_TOL):
            raise ValidationError(f"{what}: matrix is not Hermitian to within {HERMITICITY_TOL}")
        tr = np.trace(m)
        if abs(tr.imag) > HERMITICITY_TOL:
            raise ValidationError(f"{what}: trace has imaginary part {tr.imag}")
        if tr.real < -TRACE_TOL or tr.real > 1.0 + TRACE_TOL:
            raise ValidationError(f"{what}: trace {tr.real} outside [0, 1]")
        eigs = np.linalg.eigvalsh(0.5 * (m + m.conj().T))
        if eigs.min() < -EIGENVALUE_TOL:
            raise ValidationError(f"{what}: negative eigenvalue {eigs.min()}")
        m = m.copy()
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def trace(self) -> float:
        return float(np.trace(self.matrix).real)


@dataclass(frozen=True)
class DensityMatrix3(_StateMatrix):
    """State (possibly a sub-normalized block) of one three-level ensemble member."""

    DIM = 3


@dataclass(frozen=True)
class GroundQubitState(_StateMatrix):
    """State of the nuclear ground qubit; trace may be below one."""

    DIM = 2


def fidelity(state: GroundQubitState, target) -> float:
    """Fidelity of a (possibly sub-normalized) ground block against a pure target.

    Population missing from the block (1 - trace) is counted as fully mixed
    ground population, contributing (1 - trace)/2.  This matches how the echo
    experiment scores its states: losing half the population to the excited
    state caps the fidelity at 75% for a perfectly prepared dark superposition.
    """
    t = np.asarray(target, dtype=complex).reshape(2)
    norm = np.linalg.norm(t)
    if abs(norm - 1.0) > 1e-9:
        raise ValidationError(f"fidelity: target ket is not normalized (|t| = {norm})")
    tr = state.trace
    if tr <= 1e-15:
        raise ValidationError("fidelity: state has zero trace, fidelity undefined")
    overlap = float(np.real(t.conj() @ state.matrix @ t))
    return overlap + 0.5 * (1.0 - tr)

