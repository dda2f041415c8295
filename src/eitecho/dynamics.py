"""Time propagation of a single ensemble member through pulses and waits.

Within one segment the drive is constant (rectangular pulses), so the master
equation is a constant linear map on the flattened density matrix and the
segment is solved exactly by its propagator expm(h * L), computed by scaling
and squaring.  Paths that need only the final state apply one map per segment
(h = duration); sampled trajectories apply the map for one grid step
repeatedly, so the step grid only sets how densely the output is sampled.  A
requested grid must still meet the hard step-size precondition, and fixed
grids keep runs deterministic.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import expm

from .errors import ConfigurationError, ValidationError
from .lambda_system import LambdaParams, liouvillian
from .qstate import DensityMatrix3
from .units import float_repr

# Hard preconditions on a requested sampling step (never silently coarsened).
MAX_STEPS_FRACTION = 1.0 / 20.0   # dt <= duration / 20
MAX_PHASE_PER_STEP = 0.05         # dt * max(rabi, |detuning|, rate) <= 0.05

# Default sampling grid, well inside the precondition: fine enough that the
# sampled coherences resolve every drive, detuning and decay time scale.
DEFAULT_STEPS_FRACTION = 1.0 / 50.0
DEFAULT_PHASE_PER_STEP = 0.01

PULSE_LABELS = ("init_pi_half", "rephase_pi", "readout", "custom")


@dataclass(frozen=True)
class PulseSpec:
    """Rectangular bichromatic pulse: constant amplitudes and phases for `duration`.

    Either color may be absent (rabi = 0) for single-color pulses.
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
    max_dt: float | None = None

    def __post_init__(self):
        if not (self.duration > 0.0 and np.isfinite(self.duration)):
            raise ValidationError(f"PulseSpec.duration must be > 0, got {self.duration}")
        if self.rabi0 < 0.0 or self.rabi1 < 0.0:
            raise ValidationError("PulseSpec rabi values must be >= 0")
        if self.label not in PULSE_LABELS:
            raise ValidationError(f"PulseSpec.label must be one of {PULSE_LABELS}")


@dataclass(frozen=True)
class Wait:
    """Free evolution: zero drive for `duration`."""

    duration: float
    zeeman_sign: float = 1.0
    max_dt: float | None = None

    def __post_init__(self):
        if not (self.duration > 0.0 and np.isfinite(self.duration)):
            raise ValidationError(f"Wait.duration must be > 0, got {self.duration}")


Segment = PulseSpec | Wait


@dataclass(frozen=True)
class SequenceSpec:
    """Ordered pulse/wait segments plus an output sampling cap."""

    segments: tuple
    sample_dt: float | None = None

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
        if self.sample_dt is not None and not self.sample_dt > 0.0:
            raise ValidationError("SequenceSpec.sample_dt must be > 0")
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

    def populations(self) -> np.ndarray:
        """Real array (n, 3) of level populations."""
        return np.real(np.einsum("nii->ni", self.states))

    def coherence01(self) -> np.ndarray:
        return self.states[:, 0, 1]

    def coherence0e(self) -> np.ndarray:
        return self.states[:, 0, 2]

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
        buf = io.StringIO()
        buf.write("time_s,pop0,pop1,pope,re_coh01,im_coh01,re_coh0e,im_coh0e,re_coh1e,im_coh1e\n")
        pops = self.populations()
        c01, c0e, c1e = self.coherence01(), self.coherence0e(), self.coherence1e()
        for i, t in enumerate(self.times):
            cells = [t, pops[i, 0], pops[i, 1], pops[i, 2],
                     c01[i].real, c01[i].imag, c0e[i].real, c0e[i].imag,
                     c1e[i].real, c1e[i].imag]
            buf.write(",".join(float_repr(v) for v in cells) + "\n")
        return buf.getvalue()

    def bloch_path_csv(self) -> str:
        buf = io.StringIO()
        buf.write("time_s,x,y,z\n")
        for t, (x, y, z) in zip(self.times, self.bloch_path()):
            buf.write(",".join(float_repr(v) for v in (t, x, y, z)) + "\n")
        return buf.getvalue()


def _segment_params(p: LambdaParams, segment: Segment, zeeman_offset: float) -> LambdaParams:
    """Drive fields of the segment override those of the base parameters."""
    delta_spin = p.delta_spin + segment.zeeman_sign * zeeman_offset
    if isinstance(segment, Wait):
        return p.replace(rabi0=0.0, rabi1=0.0, phase0=0.0, phase1=0.0,
                         delta_spin=delta_spin)
    return p.replace(rabi0=segment.rabi0, rabi1=segment.rabi1,
                     phase0=segment.phase0, phase1=segment.phase1,
                     delta_spin=delta_spin)


def _max_frequency(p: LambdaParams) -> float:
    # frame_offset is excluded: a uniform diagonal shift cancels exactly in
    # the commutator and never moves the state
    return max(p.rabi0, p.rabi1, abs(p.delta_opt), abs(p.delta_spin),
               p.gamma_opt_decay, p.gamma_opt_deph, p.gamma_spin_deph)


def max_step(p: LambdaParams, duration: float) -> float:
    """Largest step satisfying the integrator precondition for these parameters."""
    dt = duration * MAX_STEPS_FRACTION
    f = _max_frequency(p)
    if f > 0.0:
        dt = min(dt, MAX_PHASE_PER_STEP / f)
    return dt


def default_step(p: LambdaParams, segment: Segment) -> float:
    """Step chooser used when the caller does not pin dt explicitly."""
    dt = segment.duration * DEFAULT_STEPS_FRACTION
    f = _max_frequency(p)
    if f > 0.0:
        dt = min(dt, DEFAULT_PHASE_PER_STEP / f)
    if segment.max_dt is not None:
        dt = min(dt, segment.max_dt)
    return dt


def _segment_map(p: LambdaParams, h: float) -> np.ndarray:
    """Exact 9x9 propagator over time h of the constant generator of `p`."""
    return expm(h * liouvillian(p))


def _integrate_segment(rho_flat: np.ndarray, p: LambdaParams, duration: float,
                       dt_target: float) -> tuple[np.ndarray, float]:
    """Sample one segment on a uniform grid; returns (states after each step, step size).

    The step map is the exact propagator over one grid step, computed once;
    each step is a single matrix-vector product, so the grid sets only where
    the state is sampled, not how accurately it is propagated.
    """
    n_steps = max(1, int(np.ceil(duration / dt_target - 1e-12)))
    dt = duration / n_steps
    step = _segment_map(p, dt)
    out = np.empty((n_steps, 9), dtype=complex)
    v = rho_flat
    for i in range(n_steps):
        v = step @ v
        out[i] = v
    return out, dt


def _check_physical(final: np.ndarray) -> None:
    """Guard against drift: the final state must still be a physical state."""
    herm_err = np.max(np.abs(final - final.conj().T))
    if herm_err > 1e-9:
        raise ConfigurationError([f"propagation lost Hermiticity by {herm_err:g}"])
    eigs = np.linalg.eigvalsh(0.5 * (final + final.conj().T))
    if eigs.min() < -1e-9:
        raise ConfigurationError([f"propagation produced eigenvalue {eigs.min():g}"])


def propagate(rho0: DensityMatrix3, p: LambdaParams, pulse: Segment,
              dt: float | None = None) -> Trajectory:
    """Propagate one state through one pulse or wait segment.

    `dt` is a hard request: if it violates the step-size precondition the call
    fails rather than coarse-stepping.  With dt omitted a conservative default
    is chosen from the drive strength, detunings and rates.
    """
    return run_sequence(rho0, p, SequenceSpec(segments=(pulse,)),
                        dt_overrides=None if dt is None else [dt])


def run_sequence(rho0: DensityMatrix3, p: LambdaParams, seq: SequenceSpec,
                 zeeman_offset: float = 0.0,
                 dt_overrides: list | None = None) -> Trajectory:
    """Propagate through all segments, state continuous across boundaries.

    ``zeeman_offset`` (rad/s) is added to the spin detuning with each
    segment's ``zeeman_sign``; sequences that never set signs other than +1
    see a plain constant offset.
    """
    if dt_overrides is not None and len(dt_overrides) != len(seq.segments):
        raise ConfigurationError(
            [f"dt_overrides has {len(dt_overrides)} entries for {len(seq.segments)} segments"])

    times = [0.0]
    states = [np.asarray(rho0.matrix, dtype=complex)]
    segment_starts = []
    t0 = 0.0
    v = states[0].reshape(9).copy()

    for k, seg in enumerate(seq.segments):
        pseg = _segment_params(p, seg, zeeman_offset)
        limit = max_step(pseg, seg.duration)
        if dt_overrides is not None:
            dt_target = dt_overrides[k]
            if dt_target > limit * (1.0 + 1e-12):
                raise ConfigurationError(
                    [f"segment {k}: requested dt {dt_target:g} s exceeds the precondition "
                     f"limit {limit:g} s (duration/20 and {MAX_PHASE_PER_STEP}/max-frequency)"])
        else:
            dt_target = default_step(pseg, seg)
        if seq.sample_dt is not None:
            dt_target = min(dt_target, seq.sample_dt)

        segment_starts.append((len(times) - 1, seg))
        seg_states, dt = _integrate_segment(v, pseg, seg.duration, dt_target)
        n = seg_states.shape[0]
        times.extend(t0 + dt * np.arange(1, n + 1))
        states.extend(seg_states.reshape(n, 3, 3))
        v = seg_states[-1].copy()
        t0 += seg.duration

    arr = np.array(states)
    _check_physical(arr[-1])
    return Trajectory(times=np.array(times), states=arr, segment_starts=segment_starts)


def sequence_endpoint(rho0: DensityMatrix3, p: LambdaParams, seq: SequenceSpec,
                      zeeman_offset: float = 0.0) -> np.ndarray:
    """Final 3x3 state of :func:`run_sequence` without sampling the trajectory.

    Applies one exact map per segment, so the cost does not depend on the
    durations or rates, and no intermediate state is stored.
    """
    v = np.asarray(rho0.matrix, dtype=complex).reshape(9)
    for seg in seq.segments:
        v = _segment_map(_segment_params(p, seg, zeeman_offset), seg.duration) @ v
    final = v.reshape(3, 3)
    _check_physical(final)
    return final


def bandwidth(pulse: PulseSpec) -> float:
    """Spectral bandwidth of a rectangular pulse, 1/(pi * duration), in Hz."""
    return 1.0 / (np.pi * pulse.duration)
