"""Inhomogeneous averaging over optical and spin detunings.

The ensemble is a deterministic tensor grid: Gaussian midpoint-rule nodes over
+/- 3 sigma on each detuning axis, mirrored exactly about a resonant node at
exactly 0, optionally multiplied by discrete Zeeman branches.  All members are
propagated together as one stack, and the average is a Trajectory of the
states weight-summed in the fixed grid order, so results are bitwise
reproducible.

Zeeman branch offsets are kept separate from the static spin detunings: a
static member detuning is refocused by the echo, while a branch offset flips
sign at the rephasing pulse (sublevel exchange through |e>) and therefore
beats instead of refocusing.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .dynamics import (SequenceSpec, Trajectory, _check_physical, mirror_half, mirror_phases,
                       propagate_members, sequence_endpoints)
from .errors import ValidationError
from .lambda_system import LambdaParams
from .qstate import DensityMatrix3

TWO_PI = 2.0 * math.pi
FWHM_TO_SIGMA = 1.0 / (2.0 * math.sqrt(2.0 * math.log(2.0)))
GRID_HALF_WIDTH_SIGMAS = 3.0
# A storage time this many 1/sigma short of a grid's revival already sees it.
REVIVAL_MARGIN_SIGMAS = 5.0
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
        problems = []
        for name, n in (("optical_fwhm", self.n_optical), ("spin_fwhm", self.n_spin)):
            fwhm = getattr(self, name)
            if fwhm < 0.0:
                problems.append(f"EnsembleSpec.{name} must be >= 0")
            elif n > 1 and not math.isfinite(2.0 * _grid_widths(fwhm)[1]):
                problems.append(f"EnsembleSpec.{name} ({fwhm:g} Hz) spans a grid of "
                                f"+/- {GRID_HALF_WIDTH_SIGMAS:g} sigma beyond the float range")
        for name in ("n_optical", "n_spin"):
            n = getattr(self, name)
            if n < 1 or n % 2 == 0:
                problems.append(f"EnsembleSpec.{name} must be odd and >= 1, got {n}")
        branches = tuple((float(o), float(w)) for o, w in self.zeeman_branches)
        weights = [w for _, w in branches]
        if any(w < 0.0 for w in weights):
            problems.append("EnsembleSpec.zeeman_branches weights must be >= 0")
        if branches and abs(sum(weights) - 1.0) > 1e-9:
            problems.append(f"EnsembleSpec.zeeman_branches weights must sum to 1, "
                            f"got {sum(weights)}")
        if problems:
            raise ValidationError(problems)
        object.__setattr__(self, "zeeman_branches", branches)


def _grid_widths(fwhm_hz: float) -> tuple[float, float]:
    """Standard deviation and half-width (GRID_HALF_WIDTH_SIGMAS sigmas) of an axis, rad/s."""
    sigma = TWO_PI * fwhm_hz * FWHM_TO_SIGMA
    return sigma, GRID_HALF_WIDTH_SIGMAS * sigma


def alias_free_size(fwhm_hz: float, tau: float) -> int:
    """Least odd grid size of an axis whose revival lies more than
    REVIVAL_MARGIN_SIGMAS / sigma beyond storage time `tau`.

    A midpoint rule of spacing d (rad/s) is exact for signals of period
    2 * pi / d, so a coherence that survives the pulses comes back at every
    multiple of it (Poisson summation; Trefethen & Weideman, SIAM Rev. 56, 385
    (2014)), where a continuous Gaussian line would not bring it back.  With
    d = 2 * half / n that revival is pi * n / half.
    """
    sigma, half = _grid_widths(fwhm_hz)
    x = min((tau + REVIVAL_MARGIN_SIGMAS / sigma) * half / math.pi, sys.float_info.max)
    n = math.floor(x) + 1
    return n + 1 - n % 2


def _axis_nodes(fwhm_hz: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Midpoint-rule nodes (rad/s) and normalized weights over +/- 3 sigma: node k
    of odd n sits (k - (n - 1)/2) spacings from an exact 0, so the grid mirrors exactly."""
    if n == 1 or fwhm_hz == 0.0:
        return np.array([0.0]), np.array([1.0])
    sigma, half = _grid_widths(fwhm_hz)
    centers = (np.arange(n) - (n - 1) // 2) * (2 * half / n)
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
    fixed grid order; a grid that mirrors propagates half of them
    (:func:`eitecho.dynamics.propagate_members`).
    """
    offsets, weights = member_stack(spec)
    return propagate_members(MIXED_GROUND, base, seq, offsets, weights)


def ensemble_final_state(seq: SequenceSpec, base: LambdaParams,
                         spec: EnsembleSpec) -> DensityMatrix3:
    """Weighted average of every member's final state, without trajectories.

    Every member starts from the mixed ground state and applies one map per
    segment (:func:`eitecho.dynamics.sequence_endpoints` with one sequence);
    the reduction runs in fixed grid order.  A grid that mirrors
    (:func:`eitecho.dynamics.mirror_half`) maps its first half only, and its
    weighted sum S gives the average S + phases * conj(S).
    """
    offsets, weights = member_stack(spec)
    phases = mirror_phases(MIXED_GROUND, base, seq.segments)
    half = None if phases is None else mirror_half(offsets, weights)
    if half is not None:
        offsets, weights = half
    finals = sequence_endpoints(MIXED_GROUND, base, [seq], offsets)[0]
    _check_physical(finals, offsets)
    mean = weights @ finals
    if half is not None:
        mean = mean + phases * mean.conj()
    return DensityMatrix3(mean.reshape(3, 3))
