"""Time propagation of a stack of ensemble members through pulses and waits.

Within one segment the drive is constant (rectangular pulses), so the master
equation is a constant linear map on the flattened density matrix and the
segment is solved exactly by its propagator expm(h * L), computed by scaling
and squaring.  Members differ only in their detunings, which enter L as a
diagonal shift, so one Liouvillian per segment serves the whole stack.
A wait's generator is diagonal apart from the two |e>-decay entries, so its
map is written in closed form and needs no expm.  End states of a batch of
sequences that differ only in their wait durations (a decay curve's storage
times) are computed together: each segment's generator is built once, each
pulse map once, and the waits are applied over (sequence x member).
Sampled segments raise the map of one grid step, a whole fraction of the
segment's clock (the readout's detector clock, else the duration), to
successive powers, one block of samples per batched product.  Every sample
is exact whatever the step, so a step only places samples, and fixed grids
keep runs deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import expm

from .errors import ConfigurationError, ValidationError
from .lambda_system import DETUNING_OPT, DETUNING_SPIN, LambdaParams, liouvillian
from .qstate import DensityMatrix3
from .units import csv_text

# Default sampling grid: fine enough that the sampled coherences resolve
# every drive and detuning oscillation.  Every sample is an exact map, so a
# decay rate leaves nothing to resolve and does not set the grid.
DEFAULT_STEPS_FRACTION = 1.0 / 50.0
DEFAULT_PHASE_PER_STEP = 0.01

# Samples per batched product: a sampled segment builds the powers
# S^1 ... S^SAMPLE_BLOCK of its step map S once and applies them to the stack.
SAMPLE_BLOCK = 64

PULSE_LABELS = ("init_pi_half", "rephase_pi", "readout", "custom")


@dataclass(frozen=True)
class PulseSpec:
    """Rectangular bichromatic pulse: constant amplitudes and phases for `duration`.

    Either color may be absent (rabi = 0) for single-color pulses.
    ``clock_dt``, if set, is the clock of the detector reading the pulse.
    ``zeeman_sign`` scales an externally supplied Zeeman spin-detuning offset
    for this segment; echo sequences flip it at the center of the rephasing
    pulse because that pulse routes population through |e> and exchanges the
    Zeeman branches, which is what lets the field-induced beat survive the
    echo.
    """

    duration: float
    rabi0: float = 0.0
    rabi1: float = 0.0
    phase0: float = 0.0
    phase1: float = 0.0
    label: str = "custom"
    zeeman_sign: float = 1.0
    clock_dt: float | None = None

    def __post_init__(self):
        if not (self.duration > 0.0 and np.isfinite(self.duration)):
            raise ValidationError(f"PulseSpec.duration must be > 0, got {self.duration}")
        if self.clock_dt is not None and not 0.0 < self.clock_dt < np.inf:
            raise ValidationError(
                f"PulseSpec.clock_dt must be finite and > 0, got {self.clock_dt}")
        if self.rabi0 < 0.0 or self.rabi1 < 0.0:
            raise ValidationError("PulseSpec rabi values must be >= 0")
        if self.label not in PULSE_LABELS:
            raise ValidationError(f"PulseSpec.label must be one of {PULSE_LABELS}")


@dataclass(frozen=True)
class Wait:
    """Free evolution: zero drive for `duration`."""

    duration: float
    zeeman_sign: float = 1.0

    def __post_init__(self):
        if not (self.duration > 0.0 and np.isfinite(self.duration)):
            raise ValidationError(f"Wait.duration must be > 0, got {self.duration}")


Segment = PulseSpec | Wait


@dataclass(frozen=True)
class SequenceSpec:
    """Ordered pulse/wait segments."""

    segments: tuple

    def __post_init__(self):
        segs = tuple(self.segments)
        if not segs:
            raise ValidationError("SequenceSpec needs at least one segment")
        for s in segs:
            if not isinstance(s, (PulseSpec, Wait)):
                raise ValidationError(f"SequenceSpec segment of unsupported type {type(s)}")
        readouts = [i for i, s in enumerate(segs) if isinstance(s, PulseSpec) and s.label == "readout"]
        if readouts and readouts[-1] != len(segs) - 1:
            raise ValidationError("readout segment must be last in the sequence")
        object.__setattr__(self, "segments", segs)

    @property
    def total_duration(self) -> float:
        return float(sum(s.duration for s in self.segments))


@dataclass
class Trajectory:
    """Times, states and derived observables along one propagation."""

    times: np.ndarray
    states: np.ndarray                       # shape (n, 3, 3)
    segment_starts: list = field(default_factory=list)  # (index, segment) pairs

    def __post_init__(self):
        if np.any(np.diff(self.times) <= 0.0):
            raise ValidationError("Trajectory times must be strictly increasing")

    @property
    def final_state(self) -> DensityMatrix3:
        return DensityMatrix3(self.states[-1])

    @property
    def populations(self) -> np.ndarray:
        """Real array (n, 3) of level populations."""
        return np.real(np.einsum("nii->ni", self.states))

    @property
    def coherence01(self) -> np.ndarray:
        return self.states[:, 0, 1]

    @property
    def coherence0e(self) -> np.ndarray:
        return self.states[:, 0, 2]

    @property
    def coherence1e(self) -> np.ndarray:
        return self.states[:, 1, 2]

    def bloch_path(self) -> np.ndarray:
        """(n, 3) array of ground-block Pauli expectations for Bloch-sphere plots."""
        g = self.states[:, :2, :2]
        x = 2.0 * np.real(g[:, 0, 1])
        y = -2.0 * np.imag(g[:, 0, 1])
        z = np.real(g[:, 0, 0] - g[:, 1, 1])
        return np.column_stack([x, y, z])

    def segment_start_index(self, label: str) -> int:
        """Time index at which the first segment with the given label begins."""
        for idx, seg in self.segment_starts:
            if isinstance(seg, PulseSpec) and seg.label == label:
                return idx
        raise ValidationError(f"trajectory has no segment labeled {label!r}")

    def to_csv(self) -> str:
        """Trajectory as CSV: time, populations and Re/Im coherences."""
        c01, c0e, c1e = self.coherence01, self.coherence0e, self.coherence1e
        table = np.column_stack([self.times, self.populations, c01.real, c01.imag,
                                 c0e.real, c0e.imag, c1e.real, c1e.imag])
        return csv_text("time_s,pop0,pop1,pope,re_coh01,im_coh01,re_coh0e,im_coh0e,"
                        "re_coh1e,im_coh1e", table.tolist())

    def bloch_path_csv(self) -> str:
        table = np.column_stack([self.times, self.bloch_path()])
        return csv_text("time_s,x,y,z", table.tolist())


def _segment_params(p: LambdaParams, segment: Segment, zeeman_offset: float) -> LambdaParams:
    """Drive fields of the segment override those of the base parameters."""
    delta_spin = p.delta_spin + segment.zeeman_sign * zeeman_offset
    if isinstance(segment, Wait):
        return p.replace(rabi0=0.0, rabi1=0.0, phase0=0.0, phase1=0.0,
                         delta_spin=delta_spin)
    return p.replace(rabi0=segment.rabi0, rabi1=segment.rabi1,
                     phase0=segment.phase0, phase1=segment.phase1,
                     delta_spin=delta_spin)


def default_step(p: LambdaParams, segment: Segment) -> float:
    """Step chooser used when the caller does not pin dt: a pulse's clock if set."""
    if isinstance(segment, PulseSpec) and segment.clock_dt:
        return segment.clock_dt
    dt = segment.duration * DEFAULT_STEPS_FRACTION
    # frame_offset is excluded: a uniform diagonal shift cancels exactly in
    # the commutator and never moves the state
    f = max(p.rabi0, p.rabi1, abs(p.delta_opt), abs(p.delta_spin))
    if f > 0.0:
        dt = min(dt, DEFAULT_PHASE_PER_STEP / f)
    return dt


def shared_steps(p: LambdaParams, seq: SequenceSpec, offsets: np.ndarray) -> list:
    """Default step of every segment, for frequencies bounding every member."""
    envelope = p.replace(
        delta_opt=float(np.max(np.abs(p.delta_opt + offsets[:, 0]))),
        delta_spin=float(np.max(abs(p.delta_spin) + np.abs(offsets[:, 1])
                                + np.abs(offsets[:, 2]))))
    return [default_step(_segment_params(envelope, seg, 0.0), seg) for seg in seq.segments]


def _expm(a: np.ndarray) -> np.ndarray:
    """expm of a generator or a stack of them, with subnormal parts flushed to zero.

    For triangular input, scipy's squaring step divides by differences of the
    diagonal entries, which overflows to nan when a difference is subnormal
    (scipy issue 11839); flushing moves the map by less than 1e-300.
    """
    a = np.array(a, dtype=complex)
    parts = a.view(float)
    parts[np.abs(parts) < np.finfo(float).tiny] = 0.0
    return expm(a)


def _segment_map(p: LambdaParams, h: float) -> np.ndarray:
    """Exact 9x9 propagator over time h of the constant generator of `p`."""
    return _expm(h * liouvillian(p))


def member_generators(p: LambdaParams, segment: Segment, offsets: np.ndarray) -> np.ndarray:
    """Generators (M, 9, 9) of one segment for the member rows of `offsets`.

    One Liouvillian serves every member: a member's detunings and its Zeeman
    offset, with the segment's ``zeeman_sign``, only shift the diagonal.
    """
    offsets = np.asarray(offsets, dtype=float).reshape(-1, 3)
    shift = (np.multiply.outer(offsets[:, 0], DETUNING_OPT)
             + np.multiply.outer(offsets[:, 1], DETUNING_SPIN)
             + segment.zeeman_sign * np.multiply.outer(offsets[:, 2], DETUNING_SPIN))
    gen = np.repeat(liouvillian(_segment_params(p, segment, 0.0))[None], len(offsets), axis=0)
    gen.reshape(len(offsets), 81)[:, ::10] += shift
    return gen


def wait_maps(gen: np.ndarray, durations) -> np.ndarray:
    """Maps (T, M, 9, 9) of drive-free generators (M, 9, 9) over T durations, in closed form.

    Without drive the generator is diagonal apart from the decay of rho_ee
    (flat index 8) into rho_00 and rho_11 (indices 0 and 4), so the map is
    exp(t d) on the diagonal d, and its entry [i, 8] is
    L[i, 8] (e^{d_8 t} - e^{d_i t}) / (d_8 - d_i) = L[i, 8] t e^{d_i t} expm1(x) / x
    with x = (d_8 - d_i) t, read as L[i, 8] t e^{d_i t} where x = 0.  The
    population entries d_0, d_4, d_8 are real, and x is kept real: complex
    division by a subnormal x overflows, real division does not.
    """
    t = np.asarray(durations, dtype=float)[:, None]                   # (T, 1)
    diag = np.einsum("mii->mi", gen)                                  # (M, 9)
    maps = np.zeros((t.size,) + gen.shape, dtype=complex)
    idx = np.arange(9)
    maps[..., idx, idx] = np.exp(t[..., None] * diag)
    rates = diag.real
    for i in (0, 4):
        x = t * (rates[:, 8] - rates[:, i])                           # (T, M)
        ratio = np.ones_like(x)
        nonzero = x != 0.0
        ratio[nonzero] = np.expm1(x[nonzero]) / x[nonzero]
        maps[..., i, 8] = gen[:, i, 8] * t * np.exp(t * rates[:, i]) * ratio
    return maps


def geometric_sum(step: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(step^0 + ... + step^(n-1), step^n) of a stack of square maps, by binary doubling.

    From the leading bit of n down, (sum, power) for m steps becomes the pair
    for 2m (sum + power @ sum, power @ power) and, where the bit is set, for
    2m + 1 (sum + power, power @ step).
    """
    total = np.zeros_like(step)
    power = np.broadcast_to(np.eye(step.shape[-1], dtype=step.dtype), step.shape).copy()
    for bit in bin(n)[2:]:
        total = total + power @ total
        power = power @ power
        if bit == "1":
            total = total + power
            power = power @ step
    return total, power


def sequence_endpoints(rho0: DensityMatrix3, p: LambdaParams, seqs: list,
                       offsets: np.ndarray) -> np.ndarray:
    """End states (T, M, 9) of every member row of `offsets` after each of T sequences.

    The sequences share one layout: segment k of each is the same pulse, or
    a wait with the same Zeeman sign whose duration may differ (the storage
    times of a decay curve).  Segment k's generator is built once for the
    member stack (:func:`member_generators`); a pulse applies one exact map
    to every (sequence, member) state, a wait its closed-form map
    (:func:`wait_maps`).  The states are returned unchecked: callers apply
    their remaining maps and then :func:`_check_physical`.
    """
    layout = seqs[0].segments
    if any(len(s.segments) != len(layout) for s in seqs):
        raise ValidationError("sequence_endpoints: sequences differ in length")
    offsets = np.asarray(offsets, dtype=float).reshape(-1, 3)
    v = np.tile(np.asarray(rho0.matrix, dtype=complex).reshape(9), (len(seqs), len(offsets), 1))
    for k, seg in enumerate(layout):
        column = [s.segments[k] for s in seqs]
        gen = member_generators(p, seg, offsets)
        if all(isinstance(s, Wait) and s.zeeman_sign == seg.zeeman_sign for s in column):
            maps = wait_maps(gen, [s.duration for s in column])
        elif all(s == seg for s in column):
            maps = _expm(seg.duration * gen)
        else:
            raise ValidationError(
                f"sequence_endpoints: segment {k} differs in more than a wait's duration")
        v = (maps @ v[..., None])[..., 0]
    return v


def _step_powers(step: np.ndarray, count: int) -> np.ndarray:
    """Powers step^1 ... step^count of an (M, 9, 9) stack, built by doubling.

    Laid out as (M, 9, count, 9) with [m, l, j, i] = (step_m^(j+1))[i, l], so
    that one vector-matrix product with the flattened (M, 9) member states
    gives the weight-summed samples of a whole block.
    """
    powers = np.empty((step.shape[0], 9, count, 9), dtype=complex)
    powers[:, :, 0] = step.transpose(0, 2, 1)
    done = 1
    while done < count:
        k = min(done, count - done)
        # (step^(j+1) step^done)^T = (step^done)^T (step^(j+1))^T
        block = powers[:, :, done - 1] @ powers[:, :, :k].reshape(-1, 9, 9 * k)
        powers[:, :, done:done + k] = block.reshape(-1, 9, k, 9)
        done += k
    return powers


def _check_physical(finals: np.ndarray, offsets: np.ndarray, taus=None) -> None:
    """Guard against drift: every member's final (3, 3) state must be physical.

    `finals` holds one state, (3, 3) or flattened, per member (M, ...), or
    per storage time and member (T, M, ...) for the T storage times `taus`.
    On failure the error names the first failing member, its storage time,
    its offsets and the offending value.
    """
    finals = finals.reshape(-1, 3, 3)
    adjoint = finals.conj().swapaxes(1, 2)
    herm_err = np.max(np.abs(finals - adjoint), axis=(1, 2))
    herm = herm_err <= 1e-9           # False for a non-finite member too
    min_eig = np.zeros(len(finals))
    min_eig[herm] = np.linalg.eigvalsh(0.5 * (finals + adjoint)[herm]).min(axis=1)
    bad = ~herm | (min_eig < -1e-9)
    if not bad.any():
        return
    i = int(np.argmax(bad))
    what = (f"produced eigenvalue {min_eig[i]:g}" if herm[i]
            else f"lost Hermiticity by {herm_err[i]:g}")
    t, m = divmod(i, len(offsets))
    when = "" if taus is None else f" at tau {taus[t]:g} s"
    a, b, z = offsets[m]
    raise ConfigurationError(
        [f"propagation {what} in member {m}{when} with offsets (delta_opt, delta_spin, "
         f"zeeman_offset) = ({a:g}, {b:g}, {z:g}) rad/s"])


def propagate_members(rho0: DensityMatrix3, p: LambdaParams, seq: SequenceSpec,
                      offsets: np.ndarray, weights: np.ndarray,
                      dt_targets: list | None = None) -> Trajectory:
    """Weight-summed trajectory from t = 0 of a stack of members that all start in `rho0`.

    Member m is `p` with offsets[m, 0] added to the optical detuning and
    offsets[m, 1] to the spin detuning; its Zeeman offset offsets[m, 2] is
    added to the spin detuning with each segment's ``zeeman_sign``.  Segment
    k is sampled every clock/n, for the least n whose step is no coarser
    than dt_targets[k] (default: :func:`shared_steps`), which must be finite
    and > 0; if the duration is not a whole number of steps, one more exact
    map adds a sample at the segment's end.  Each block of samples is summed
    over the weighted member states by one product in fixed member order;
    only the weighted sum is stored.
    """
    offsets = np.asarray(offsets, dtype=float).reshape(-1, 3)
    weights = np.asarray(weights, dtype=float)
    n_members = weights.size
    if dt_targets is None:
        dt_targets = shared_steps(p, seq, offsets)
    elif len(dt_targets) != len(seq.segments):
        raise ConfigurationError([f"one step per segment: got {len(dt_targets)} entries "
                                  f"for {len(seq.segments)} segments"])
    v = np.tile(np.asarray(rho0.matrix, dtype=complex).reshape(9), (n_members, 1))
    times, states, segment_starts = [np.array([0.0])], [(weights @ v)[None]], []
    n_samples = 1
    t0 = 0.0

    for k, seg in enumerate(seq.segments):
        gen = member_generators(p, seg, offsets)
        segment_starts.append((n_samples - 1, seg))
        dt_target = dt_targets[k]
        if not 0.0 < dt_target < np.inf:
            raise ConfigurationError([f"segment {k}: requested dt {dt_target:g} s "
                                      f"must be finite and > 0"])
        clock = seg.clock_dt if isinstance(seg, PulseSpec) and seg.clock_dt else seg.duration
        dt = clock / max(1, int(np.ceil(clock / dt_target - 1e-12)))
        n_steps = int(np.floor(seg.duration / dt + 1e-9))
        if n_steps:
            powers = _step_powers(_expm(dt * gen), min(SAMPLE_BLOCK, n_steps))
        for done in range(0, n_steps, SAMPLE_BLOCK):
            b = min(SAMPLE_BLOCK, n_steps - done)
            weighted = (weights[:, None] * v).reshape(9 * n_members)
            states.append((weighted @ powers[:, :, :b].reshape(9 * n_members, 9 * b))
                          .reshape(b, 9))
            v = (v[:, None, :] @ powers[:, :, b - 1])[:, 0]
        times.append(t0 + dt * np.arange(1, n_steps + 1))
        n_samples += n_steps
        rest = seg.duration - n_steps * dt
        if rest > 1e-9 * dt:
            v = (_expm(rest * gen) @ v[:, :, None])[:, :, 0]
            states.append((weights @ v)[None])
            times.append(np.array([t0 + seg.duration]))
            n_samples += 1
        t0 += seg.duration

    _check_physical(v, offsets)
    return Trajectory(times=np.concatenate(times),
                      states=np.concatenate(states).reshape(-1, 3, 3),
                      segment_starts=segment_starts)


def propagate(rho0: DensityMatrix3, p: LambdaParams, pulse: Segment,
              dt: float | None = None) -> Trajectory:
    """Propagate one state through one pulse or wait segment.

    `dt` places the output samples on the least whole fraction of the
    segment's clock (its duration unless a detector clock is set) no coarser
    than `dt`.  Each sample is an exact map, so a coarse `dt` is exact at its
    sample times.  With dt omitted the default grid resolves the
    drive strength and detunings.
    """
    return run_sequence(rho0, p, SequenceSpec(segments=(pulse,)),
                        dt_overrides=None if dt is None else [dt])


def run_sequence(rho0: DensityMatrix3, p: LambdaParams, seq: SequenceSpec,
                 zeeman_offset: float = 0.0,
                 dt_overrides: list | None = None) -> Trajectory:
    """Propagate through all segments, state continuous across boundaries.

    ``zeeman_offset`` (rad/s) is added to the spin detuning with each
    segment's ``zeeman_sign``; sequences that never set signs other than +1
    see a plain constant offset.  ``dt_overrides``, one step per segment,
    replaces the default sampling grid; it only places samples, each of which
    is exact.
    """
    return propagate_members(rho0, p, seq, [0.0, 0.0, zeeman_offset], [1.0], dt_overrides)

