"""Inhomogeneous averaging over optical and spin detunings.

The ensemble is a deterministic tensor grid: Gaussian midpoint-rule nodes over
+/- 3 sigma on each detuning axis, optionally multiplied by discrete Zeeman
branches.  All members are propagated together as one stack, and the average
is a Trajectory of the states weight-summed in the fixed grid order, so
results are bitwise reproducible.

Zeeman branch offsets are kept separate from the static spin detunings: a
static member detuning is refocused by the echo, while a branch offset flips
sign at the rephasing pulse (sublevel exchange through |e>) and therefore
beats instead of refocusing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import (SequenceSpec, Trajectory, _check_physical, propagate_members,
                       sequence_endpoints)
from .errors import ValidationError
from .lambda_system import LambdaParams
from .qstate import DensityMatrix3

TWO_PI = 2.0 * math.pi
FWHM_TO_SIGMA = 1.0 / (2.0 * math.sqrt(2.0 * math.log(2.0)))
GRID_HALF_WIDTH_SIGMAS = 3.0
# Every member starts from the incoherent ground-state mixture.
MIXED_GROUND = DensityMatrix3(np.diag([0.5, 0.5, 0.0]).astype(complex))


@dataclass(frozen=True)
class EnsembleSpec:
    """Gaussian inhomogeneous widths (FWHM, Hz), grid sizes and Zeeman branches.

    Grid sizes must be odd so the resonant member is always represented.
    Branches are (offset_hz, weight) pairs added to the spin detuning.
    """

    optical_fwhm: float = 0.0
    spin_fwhm: float = 0.0
    n_optical: int = 1
    n_spin: int = 1
    zeeman_branches: tuple = ()

    def __post_init__(self):
        if self.optical_fwhm < 0.0 or self.spin_fwhm < 0.0:
            raise ValidationError("EnsembleSpec FWHMs must be >= 0")
        for name in ("n_optical", "n_spin"):
            n = getattr(self, name)
            if n < 1 or n % 2 == 0:
                raise ValidationError(f"EnsembleSpec.{name} must be odd and >= 1, got {n}")
        branches = tuple((float(o), float(w)) for o, w in self.zeeman_branches)
        if branches:
            weights = [w for _, w in branches]
            if any(w < 0.0 for w in weights):
                raise ValidationError("EnsembleSpec branch weights must be >= 0")
            if abs(sum(weights) - 1.0) > 1e-9:
                raise ValidationError(
                    f"EnsembleSpec branch weights must sum to 1, got {sum(weights)}")
        object.__setattr__(self, "zeeman_branches", branches)


def _axis_nodes(fwhm_hz: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Midpoint-rule nodes (rad/s) and normalized weights over +/- 3 sigma."""
    if n == 1 or fwhm_hz == 0.0:
        return np.array([0.0]), np.array([1.0])
    sigma = TWO_PI * fwhm_hz * FWHM_TO_SIGMA
    half = GRID_HALF_WIDTH_SIGMAS * sigma
    edges = np.linspace(-half, half, n + 1)
    centers = 0.5 * (edges[:-1] + edges[1:])
    w = np.exp(-0.5 * (centers / sigma) ** 2)
    w /= w.sum()
    return centers, w


def member_stack(spec: EnsembleSpec) -> tuple[np.ndarray, np.ndarray]:
    """Offsets (M, 3) in rad/s and weights (M,) of the grid members.

    Row m is (delta_opt, delta_spin, zeeman_offset): the optical offset, the
    static (refocusable) spin offset and the branch offset whose sign flips at
    rephasing.  Rows run over (optical, spin, branch) row-major, and each
    weight is the product of the axis weights, so the weights sum to one.
    """
    d_opt, w_opt = _axis_nodes(spec.optical_fwhm, spec.n_optical)
    d_spin, w_spin = _axis_nodes(spec.spin_fwhm, spec.n_spin)
    branches = spec.zeeman_branches or ((0.0, 1.0),)
    members = [((do, ds, TWO_PI * off_hz), wo * ws * wb)
               for do, wo in zip(d_opt, w_opt)
               for ds, ws in zip(d_spin, w_spin)
               for off_hz, wb in branches]
    offsets, weights = zip(*members)
    return np.array(offsets), np.array(weights)


def ensemble_average(seq: SequenceSpec, base: LambdaParams, spec: EnsembleSpec) -> Trajectory:
    """Trajectory of the weight-summed states of every grid member.

    Every member starts from the mixed ground state, and all members share
    one time grid.  The members are propagated as one stack and reduced in
    fixed grid order.
    """
    offsets, weights = member_stack(spec)
    return propagate_members(MIXED_GROUND, base, seq, offsets, weights)


def ensemble_final_state(seq: SequenceSpec, base: LambdaParams,
                         spec: EnsembleSpec) -> DensityMatrix3:
    """Weighted average of every member's final state, without trajectories.

    Every member starts from the mixed ground state and applies one map per
    segment (:func:`eitecho.dynamics.sequence_endpoints` with one sequence);
    the reduction runs in fixed grid order.
    """
    offsets, weights = member_stack(spec)
    finals = sequence_endpoints(MIXED_GROUND, base, [seq], offsets)[0]
    _check_physical(finals, offsets)
    return DensityMatrix3((weights @ finals).reshape(3, 3))
