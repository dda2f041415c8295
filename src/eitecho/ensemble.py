"""Inhomogeneous averaging over optical and spin detunings.

The ensemble is a deterministic tensor grid: Gaussian midpoint-rule nodes over
+/- 3 sigma on each detuning axis, mirrored exactly about a resonant node at
exactly 0, optionally multiplied by discrete Zeeman branches.  All members are
propagated together as one stack, and the average is a Trajectory of the
states weight-summed in the fixed grid order, so results are bitwise
reproducible.  Every pass stacks its members here (:func:`stack_ensembles`,
the one place that decides the mirror fold) and reduces its end states here
(:func:`group_states`); the propagators take the members they are given.

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

from .dynamics import (PulseSpec, SequenceSpec, Trajectory, _base_generator, _check_physical,
                       _drive, propagate_members, sequence_endpoints, storage_chunks)
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


def mirror_phases(rho0: DensityMatrix3, p: LambdaParams, segments) -> np.ndarray | None:
    """Phases (9,) of the member mirror on flattened states, or None where it fails.

    Reflecting a member's offsets, (a, b, z) -> (-a, -b, -z), maps its state
    rho to W rho* W^dag with W = diag(e^{-2i phi0}, e^{-2i phi1}, -1), an
    antiunitary symmetry of the master equation (Buca & Prosen, New J. Phys.
    14, 073007 (2012); Albert & Jiang, Phys. Rev. A 89, 022118 (2014)):
    conjugation flips every detuning and the sign and phase of each drive
    coupling, W undoes the drive part, and the real jump operators stay.
    On a flattened state that is x -> phases * conj(x), phases[3i + j] =
    w_i conj(w_j), exactly 1 on the diagonal.  It holds when the base
    detunings are 0, every pulse of `segments` has one (phase0, phase1),
    and `rho0` is its own mirror, bitwise.
    """
    drives = {(s.phase0, s.phase1) for s in segments if isinstance(s, PulseSpec)}
    if p.delta_opt != 0.0 or p.delta_spin != 0.0 or len(drives) > 1:
        return None
    phase0, phase1 = drives.pop() if drives else (0.0, 0.0)
    w = np.array([np.exp(-2j * phase0), np.exp(-2j * phase1), -1.0])
    phases = np.outer(w, w.conj())
    np.fill_diagonal(phases, 1.0)
    phases = phases.reshape(9)
    v0 = np.asarray(rho0.matrix, dtype=complex).reshape(9)
    return phases if np.array_equal(phases * v0.conj(), v0) else None


def mirror_half(offsets: np.ndarray, weights: np.ndarray) -> tuple | None:
    """The members to propagate of a stack that reverses onto its mirror bitwise
    (offsets[::-1] == -offsets, weights[::-1] == weights), None for any other
    stack or a single member: the first ceil(M/2) rows, the self-mirror centre
    of an odd M at half its weight.  With :func:`mirror_phases`, each
    weight-summed state S of the half gives the full stack's as
    S + phases * conj(S)."""
    if not (weights.size > 1 and np.array_equal(offsets[::-1], -offsets)
            and np.array_equal(weights[::-1], weights)):
        return None
    m = weights.size
    weights = weights[:(m + 1) // 2].copy()
    if m % 2:
        weights[-1] *= 0.5
    return offsets[:weights.size], weights


@dataclass(frozen=True)
class MemberStack:
    """The members of G ensembles stacked for one pass (:func:`stack_ensembles`):
    ensemble g holds the rows from ``starts[g]`` up to the next, ``params`` is
    each row's parameter set as (sets, which), and ``folded[g]`` marks the half
    of a mirrored grid (:func:`mirror_half`), its mirror's entries ``phases``."""

    params: tuple
    offsets: np.ndarray
    weights: np.ndarray
    starts: np.ndarray
    folded: np.ndarray
    phases: np.ndarray | None
    labels: list | None

    def member_name(self, m: int) -> str:
        """How errors name row m: its index within its ensemble, and that one's label."""
        g = int(np.searchsorted(self.starts, m, side="right")) - 1
        return f"member {m - self.starts[g]}" + (f" of {self.labels[g]}" if self.labels else "")


def stack_ensembles(params, specs: list, segments, labels=None) -> MemberStack:
    """The members of G ensembles in spec order, spec g under params[g] (or
    `params` for all), for a pass through `segments` from the mixed ground state.

    The fold is decided here, once per parameter set: where its mirror holds
    (:func:`mirror_phases`), a grid that mirrors (:func:`mirror_half`) stacks
    half its members.  The call's generators are built at once.  `labels`
    name the ensembles in errors ("group g" unless given; none for one spec).
    """
    params = [params] * len(specs) if isinstance(params, LambdaParams) else list(params)
    if len(params) != len(specs):
        raise ValidationError(f"{len(params)} parameter sets for {len(specs)} ensembles")
    # dicts group sets and specs: np.unique imports numpy.ma, slower than a cold curve pass
    index = {}
    spec_sets = [index.setdefault(p, len(index)) for p in params]
    sets = tuple(index)
    _base_generator.many([(p, drive) for drive in dict.fromkeys(map(_drive, segments))
                          for p in sets])
    set_phases = [mirror_phases(MIXED_GROUND, p, segments) for p in sets]
    grids = {spec: member_stack(spec) for spec in dict.fromkeys(specs)}
    halves = [None if set_phases[s] is None else mirror_half(*grids[spec])
              for s, spec in zip(spec_sets, specs)]
    stacks = [grids[spec] if half is None else half for spec, half in zip(specs, halves)]
    counts = [len(w) for _, w in stacks]
    labels = labels or ([f"group {g}" for g in range(len(specs))] if len(specs) > 1 else None)
    return MemberStack(
        params=(sets, np.repeat(spec_sets, counts)),
        offsets=np.concatenate([o for o, _ in stacks]),
        weights=np.concatenate([w for _, w in stacks]),
        starts=np.cumsum([0] + counts[:-1]),
        folded=np.array([half is not None for half in halves]),
        # the phases read the pulses only, so they are equal wherever they hold
        phases=next((ph for ph in set_phases if ph is not None), None),
        labels=labels)


def _group_sums(x: np.ndarray, weights: np.ndarray, starts) -> np.ndarray:
    """Weighted sums (..., G, K) of x (..., M, K) over each group's members, group
    g those from starts[g] up to the next start (at least one): each sum runs over
    its group only, in an order set by its count, so its bits do not depend on
    the groups beside it."""
    return np.add.reduceat(x * weights[:, None], starts, axis=-2)


def group_states(stack: MemberStack, chunks, entries, taus=None) -> np.ndarray:
    """Entries `entries` (T, G, E) of the flat end states of the ensembles of
    `stack` from the (rows, member states) chunks of
    :func:`eitecho.dynamics.sequence_endpoints`, each checked as it arrives
    (errors name the storage time of `taus`, if given) and weight-summed per
    ensemble; then, if folded, S + phases[entries] * conj(S)."""
    sums = []
    for rows, states in chunks:
        _check_physical(states, stack.offsets, None if taus is None else taus[rows],
                        stack.member_name)
        sums.append(_group_sums(states[..., entries], stack.weights, stack.starts))
    sums = np.concatenate(sums)
    if stack.folded.any():
        sums[:, stack.folded] += stack.phases[entries] * sums[:, stack.folded].conj()
    return sums


def ensemble_average(seq: SequenceSpec, base: LambdaParams, spec: EnsembleSpec) -> Trajectory:
    """Trajectory of the weight-summed states of every grid member, all from the
    mixed ground state on one time grid: the stack (:func:`stack_ensembles`)
    propagated together (:func:`eitecho.dynamics.propagate_members`) and, if
    folded, each sample S made S + phases * conj(S) in place, a chunk of
    samples at a time."""
    stack = stack_ensembles(base, [spec], seq.segments)
    traj = propagate_members(MIXED_GROUND, base, seq, stack.offsets, stack.weights)
    if stack.folded[0]:
        flat = traj.states.reshape(-1, 9)
        for rows in storage_chunks(len(flat), 1):
            flat[rows] += stack.phases * flat[rows].conj()
    return traj


def ensemble_final_state(seq: SequenceSpec, base: LambdaParams,
                         spec: EnsembleSpec) -> DensityMatrix3:
    """Weighted average of every member's final state, without trajectories: one
    ensemble's :func:`group_states` of :func:`eitecho.dynamics.sequence_endpoints`."""
    stack = stack_ensembles(base, [spec], seq.segments)
    chunks = sequence_endpoints(MIXED_GROUND, stack.params, seq, stack.offsets,
                                stack.member_name)
    return DensityMatrix3(group_states(stack, chunks, slice(None))[0, 0].reshape(3, 3))
