"""Time propagation of a stack of ensemble members through pulses and waits.

Within one segment the drive is constant (rectangular pulses), so the master
equation is a constant linear map on the flattened density matrix and the
segment is solved exactly by its propagator expm(h * L).  :func:`_expm` is
scaling and squaring with diagonal Pade approximants (Higham, SIAM J. Matrix
Anal. Appl. 26, 1179 (2005)) in numpy, batched over a stack of generators.
Members of one parameter set differ only in their detunings, which enter L
as a diagonal shift, so one Liouvillian serves them all; it depends only on
the parameters and the segment's drive, so it is built once per (parameters,
drive) and cached, the missing ones of a call all at once.  A wait's
generator is diagonal apart from the two |e>-decay entries, so on every
path a wait acts on the states elementwise from that diagonal and those two
entries (:func:`wait_rates`, :func:`wait_states`), no expm and no 9x9
generator.
The end states of a sequence whose waits take each row of a table of
durations (a decay curve's storage times) are computed together: each
segment's generator is built once, the maps of all pulses come from one
expm call over (pulse x member), each map at the Pade degree of its own
norm, and each chunk of (row x member) states is propagated, then handed out.
Sampled segments are sampled on a whole fraction of the segment's clock (the
readout's detector clock, else the duration).  A Lindblad generator keeps
states Hermitian, so a sampled state is set by its upper triangle: entries
3, 6, 7 are written as the conjugates of 1, 2, 5 and the populations as real.
A pulse is sampled baby-step/giant-step: the member states at the start of
every block of SAMPLE_BLOCK samples come from one batched mat-vec with the
block's power of the step map each, and one product of the weighted block
starts with the step powers gives every sample of a chunk of blocks.  A
pulse whose generators and grid equal the previous pulse's reuses its maps.
A wait is sampled in closed form: each coherence only decays and rotates, its
samples e^{d j dt} v split as e^{d B k dt} e^{d r dt} into one batched
product over all blocks, per member for rho_01, rho_0e and rho_1e only; the
populations decay at rates that no member offset shifts, so they are sampled
once from the weighted sum, plus the decay of rho_ee into the ground
populations.  Every sample is exact whatever the step, so a step only places
samples, and fixed grids keep runs deterministic; the samples are written
into one buffer sized from the grids.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, ValidationError
from .lambda_system import DETUNING_OPT, DETUNING_SPIN, LambdaParams, liouvillians
from .qstate import DensityMatrix3
from .units import csv_text

# Flat entries rho_00, rho_11 that the decay of rho_ee (flat index 8) feeds, a
# slice, so that indexing with it takes views.
DECAY_FED = slice(0, 5, 4)
# Flat entries of the populations, of the coherences rho_01, rho_0e, rho_1e
# and of their conjugates rho_10, rho_e0, rho_e1.
POPULATIONS, COHERENCES, CONJUGATES = [0, 4, 8], [1, 2, 5], [3, 6, 7]

# Default sampling grid: fine enough that the sampled coherences resolve
# every drive and detuning oscillation.  Every sample is an exact map, so a
# decay rate leaves nothing to resolve and does not set the grid.
DEFAULT_STEPS_FRACTION = 1.0 / 50.0
DEFAULT_PHASE_PER_STEP = 0.01

# Samples per block of a sampled pulse: it builds the powers S^1 ... S^B of
# its step map S once, advances the member states from block start to block
# start by S^B, and samples every block of a chunk by one product with the
# powers.  Pulses are short (a few hundred samples), so small blocks waste
# least; waits are sampled in closed form and use no powers.
SAMPLE_BLOCK = 8

PULSE_LABELS = ("init_pi_half", "rephase_pi", "readout", "custom")

# Degrees m of the [m/m] Pade approximant of exp and the largest 1-norm
# theta_m at which each meets double precision (Higham 2005, Table 2.3).
PADE_THETAS = {3: 1.495585217958292e-2, 5: 2.539398330063230e-1,
               7: 9.504178996162932e-1, 9: 2.097847961257068e0, 13: 5.371920351148152e0}
# The degrees and the thetas as arrays, to pick every matrix's degree at once.
PADE_DEGREES, PADE_BOUNDS = np.array(list(PADE_THETAS)), np.array(list(PADE_THETAS.values()))
# Numerator coefficients b_0 ... b_m of each approximant, scaled to b_m = 1.
PADE_COEFFICIENTS = {m: [math.factorial(2 * m - j) // (math.factorial(j) * math.factorial(m - j))
                         for j in range(m + 1)] for m in PADE_THETAS}
# Squarings allowed for one map: a 1-norm up to theta_13 * 2^64 ~ 1e20, a
# rate-duration product no physical segment comes near.
MAX_SQUARINGS = 64
# Samples a sampled trajectory may hold: 2^20 weight-summed states of 144 B,
# ~150 MB, hundreds of times a default echo's.
MAX_SAMPLES = 2 ** 20
# (storage time x member) states of one chunk of an endpoint pass, unless one
# storage time has more members: its reader reduces each chunk before the next
# is formed, so the states (144 B each), the pulse products and the readout's
# temporaries stay at ~0.3 MB per array, however many storage times a pass has.
BATCH_STATES = 2 ** 11


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
                        "re_coh1e,im_coh1e", table)

    def bloch_path_csv(self) -> str:
        table = np.column_stack([self.times, self.bloch_path()])
        return csv_text("time_s,x,y,z", table)


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


def _check_squarings(a: np.ndarray, name=None) -> np.ndarray:
    """1-norms (flattened) of a generator stack (..., n, n) that :func:`_expm`
    can map.  The first matrix with a non-finite entry, or with a 1-norm
    needing more than MAX_SQUARINGS squarings, raises a ConfigurationError
    naming it by `name(*index)` of its stack index, else as "generator (index)"."""
    x = a.reshape(-1, *a.shape[-2:])
    with np.errstate(over="ignore"):
        norms = np.abs(x).sum(axis=-2).max(axis=-1)
    scalable = norms <= PADE_THETAS[13] * 2.0 ** MAX_SQUARINGS      # False for nan too
    if not scalable.all():
        i = int(np.argmin(scalable))
        where = tuple(int(j) for j in np.unravel_index(i, a.shape[:-2]))
        what = (f"has 1-norm {norms[i]:g}, beyond {MAX_SQUARINGS} squarings"
                if np.isfinite(x[i]).all() else "has a non-finite entry")
        raise ConfigurationError([f"{name(*where) if name else f'generator {where}'}: {what}"])
    return norms


def _expm(a: np.ndarray, name=None) -> np.ndarray:
    """expm of a generator (n, n) or of every matrix of a stack (..., n, n).

    Scaling and squaring with the [m/m] Pade approximant of exp (Higham
    2005), each matrix by its own 1-norm: m is the least of 3, 5, 7, 9 whose
    theta_m bounds it, else 13, where the matrix is scaled by 2^-s,
    s = ceil(log2(norm / theta_13)), and squared s times; only the matrices
    still needing a squaring are squared.  The matrices of one degree are
    mapped together (a slice when one degree covers the stack), so a map has
    the bits it gets alone, in any stack.  The squaring divides by nothing,
    so subnormal entries need no special care.  A diagonal matrix maps to the
    exp of its diagonal, exactly, as scipy maps triangular input (Al-Mohy &
    Higham 2009).  The stack passes :func:`_check_squarings` first, which
    `name` serves.
    """
    a = np.asarray(a, dtype=complex)
    norms = _check_squarings(a, name)
    x = a.reshape(-1, *a.shape[-2:])
    idx = np.arange(x.shape[-1])
    d = x[:, idx, idx]
    diag = np.flatnonzero(~x[:, idx[:, None] != idx].any(axis=1))
    # the least m whose theta_m bounds each norm, else 13
    degrees = PADE_DEGREES[np.searchsorted(PADE_BOUNDS[:-1], norms)]
    present = sorted(set(degrees.tolist()))
    eye = np.eye(x.shape[-1], dtype=complex)
    r = np.empty_like(x)
    for m in present:
        rows = slice(None) if len(present) == 1 else np.flatnonzero(degrees == m)
        xm, b = x[rows], PADE_COEFFICIENTS[m]
        depth = np.zeros(len(xm))
        if m == 13:
            depth = np.ceil(np.log2(np.maximum(norms[rows] / PADE_THETAS[13], 1.0)))
            u, v = _pade13(xm * np.exp2(-depth)[:, None, None], b, eye)
        else:
            powers = [eye, xm @ xm]                # x^0, x^2, ..., x^(m-1)
            while len(powers) <= m // 2:
                powers.append(powers[-1] @ powers[1])
            u = xm @ sum(b[2 * k + 1] * pk for k, pk in enumerate(powers))
            v = sum(b[2 * k] * pk for k, pk in enumerate(powers))
        rm = np.linalg.solve(v - u, v + u)
        for done in range(int(depth.max(initial=0.0))):
            todo = depth > done
            if todo.all():
                rm = rm @ rm
            else:
                rm[todo] = rm[todo] @ rm[todo]
        if len(present) == 1:
            r = rm
        else:
            r[rows] = rm
    r[diag] = 0.0
    r[diag[:, None], idx, idx] = np.exp(d[diag])
    return r.reshape(a.shape)


def _pade13(x: np.ndarray, b: list, eye: np.ndarray) -> tuple:
    """Odd and even parts (u, v) of the [13/13] Pade numerator of exp at a
    stack x, summed in place in the order of Higham's expression
    u = x (x6 (b13 x6 + b11 x4 + b9 x2) + b7 x6 + ... + b1 I), so with its
    bits; x and its powers are freed on return, before the solve."""
    x2 = x @ x
    x4 = x2 @ x2
    x6 = x4 @ x2
    w = b[12] * x6
    w += b[10] * x4
    w += b[8] * x2
    v = x6 @ w
    for k, xk in ((6, x6), (4, x4), (2, x2), (0, eye)):
        v += b[k] * xk
    w = b[13] * x6
    w += b[11] * x4
    w += b[9] * x2
    w = x6 @ w
    for k, xk in ((7, x6), (5, x4), (3, x2), (1, eye)):
        w += b[k] * xk
    return x @ w, v


# how errors name member m of a stack, unless the caller names its members
_member = "member {}".format


class _GeneratorCache:
    """Read-only Liouvillians by (parameters, drive), the drive (rabi0, rabi1,
    phase0, phase1) or None for a wait, the oldest dropped beyond `maxsize`.

    ``cache.many(keys)`` returns the generators of the keys, whose misses
    are built at once (:func:`liouvillians`).
    Neither a segment's duration, nor its Zeeman sign, nor any member offset
    enters a generator, so segments sharing a drive share one.
    """

    def __init__(self, maxsize: int):
        self.maxsize, self.store = maxsize, {}

    def many(self, keys: list) -> list:
        try:
            return [self.store[key] for key in keys]
        except KeyError:
            pass
        new = [key for key in dict.fromkeys(keys) if key not in self.store]
        built = liouvillians([_segment_params(p, Wait(duration=1.0) if drive is None
                                              else PulseSpec(1.0, *drive), 0.0)
                              for p, drive in new])
        built.setflags(write=False)
        self.store.update(zip(new, built))
        found = [self.store[key] for key in keys]
        while len(self.store) > self.maxsize:
            del self.store[next(iter(self.store))]
        return found


# an echo has 4 distinct drives: room for the generators of 64 parameter sets, ~330 kB
_base_generator = _GeneratorCache(maxsize=256)


def _drive(segment: Segment) -> tuple | None:
    """The drive (rabi0, rabi1, phase0, phase1) of a pulse, None for a wait."""
    if isinstance(segment, Wait):
        return None
    return segment.rabi0, segment.rabi1, segment.phase0, segment.phase1


def _param_sets(p, n_members: int) -> tuple:
    """The parameter sets of a member stack as (sets, which): the distinct
    LambdaParams and the index (M,) of each member's.  `p` is one LambdaParams
    for every member, or already such a pair."""
    return ((p,), np.zeros(n_members, dtype=int)) if isinstance(p, LambdaParams) else p


def _diagonal_shift(segment: Segment, offsets: np.ndarray) -> np.ndarray:
    """What the member rows of `offsets` (M, 3) add to the diagonal of a segment's generator."""
    return (np.multiply.outer(offsets[:, 0], DETUNING_OPT)
            + np.multiply.outer(offsets[:, 1], DETUNING_SPIN)
            + segment.zeeman_sign * np.multiply.outer(offsets[:, 2], DETUNING_SPIN))


def _check_finite(rows: np.ndarray, name) -> None:
    """A ConfigurationError naming, by `name(m)`, the first member row of
    `rows` (M, ...) with a non-finite entry."""
    if not np.isfinite(rows.view(float)).all():
        m = int(np.argmin(np.isfinite(rows).reshape(len(rows), -1).all(axis=1)))
        raise ConfigurationError([f"{name(m)}: has a non-finite entry"])


def member_generators(p, segment: Segment, offsets: np.ndarray, name=_member) -> np.ndarray:
    """Generators (M, 9, 9) of one segment for the member rows of `offsets`.

    One Liouvillian per parameter set serves its members (`p`, see
    :func:`_param_sets`), those not cached built at once: a member's
    detunings and its Zeeman offset, with the segment's ``zeeman_sign``,
    only shift the diagonal.  A non-finite entry raises a
    ConfigurationError naming the first such member by `name(m)`.
    """
    offsets = np.asarray(offsets, dtype=float).reshape(-1, 3)
    sets, which = _param_sets(p, len(offsets))
    gen = np.array(_base_generator.many([(q, _drive(segment)) for q in sets]))[which]
    gen.reshape(len(offsets), 81)[:, ::10] += _diagonal_shift(segment, offsets)
    _check_finite(gen, name)
    return gen


def wait_rates(p, segment: Wait, offsets: np.ndarray, name=_member) -> tuple:
    """A wait's generators for the member rows of `offsets` as (diagonal (M, 9),
    feed (M, 2)): without drive a generator is diagonal apart from the decay
    of rho_ee (flat index 8) into rho_00 and rho_11, its entries [i, 8], i in
    DECAY_FED.  The diagonal is summed as :func:`member_generators` sums it,
    so it has the same bits, and no (M, 9, 9) stack is formed.  A non-finite
    entry raises a ConfigurationError naming the first such member by `name(m)`.
    """
    offsets = np.asarray(offsets, dtype=float).reshape(-1, 3)
    sets, which = _param_sets(p, len(offsets))
    base = np.array(_base_generator.many([(q, None) for q in sets]))
    diagonal = base.reshape(len(sets), 81)[:, ::10][which] + _diagonal_shift(segment, offsets)
    feed = base[:, DECAY_FED, 8][which]
    _check_finite(np.concatenate([diagonal, feed], axis=1), name)
    return diagonal, feed


def wait_states(wait: tuple, durations, v: np.ndarray) -> np.ndarray:
    """States (T, M, 9) after a wait's generators, the pair of :func:`wait_rates`,
    act on the member states v, (M, 9) or (T, M, 9), for each of T durations,
    in closed form: entry i of a state picks up exp(t d_i), d the diagonal,
    plus :func:`_decay_feed` times v_8.
    """
    t = np.asarray(durations, dtype=float)[:, None]                   # (T, 1)
    states = v * np.exp(t[..., None] * wait[0])
    states[..., DECAY_FED] += _decay_feed(wait, t) * v[..., 8:]
    return states


def _decay_feed(wait: tuple, t: np.ndarray) -> np.ndarray:
    """Entries [i, 8], i in DECAY_FED, (T, M, 2) of the maps exp(t gen) over
    times t (T, 1) of a wait's generators, the pair of :func:`wait_rates`.

    L[i, 8] (e^{d_8 t} - e^{d_i t}) / (d_8 - d_i) = L[i, 8] t e^{d_i t} expm1(x) / x
    with x = (d_8 - d_i) t, read as L[i, 8] t e^{d_i t} where x = 0.  The
    population entries d_0, d_4, d_8 are real, and x is kept real: complex
    division by a subnormal x overflows, real division does not.
    """
    diagonal, feed = wait
    rates = diagonal.real[:, ::4]                                     # (M, 3): 0, 4, 8
    t = t[..., None]                                                  # (T, 1, 1)
    x = t * (rates[:, 2:] - rates[:, :2])                             # (T, M, 2)
    ratio = np.divide(np.expm1(x), x, out=np.ones_like(x), where=x != 0.0)
    return feed * t * np.exp(t * rates[:, :2]) * ratio


def geometric_sum(step: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(step^0 + ... + step^(n-1), step^n) of a stack of square maps, by binary doubling.

    The leading bit gives the pair for 1, (identity, step); from the next bit
    down, (sum, power) for m steps becomes the pair for 2m (sum + power @ sum,
    power @ power) and, where the bit is set, for 2m + 1 (sum + power,
    power @ step).
    """
    eye = np.broadcast_to(np.eye(step.shape[-1], dtype=step.dtype), step.shape)
    if n == 0:
        return np.zeros_like(step), eye.copy()
    total, power = eye.copy(), step.copy()
    for bit in bin(n)[3:]:
        total = total + power @ total
        power = power @ power
        if bit == "1":
            total = total + power
            power = power @ step
    return total, power


def _segment_name(k: int, seg: Segment) -> str:
    """How errors name segment k of a sequence."""
    return f"segment {k} ({seg.label if isinstance(seg, PulseSpec) else 'wait'})"


def _map_namer(names: list, member_name=_member):
    """`name` argument of :func:`_expm` for a (map, member) stack: names[i], member m."""
    return lambda i, m: f"{names[i]}, {member_name(m)}"


def storage_chunks(n_taus: int, n_members: int) -> list:
    """Slices, in order, of T storage times of M members, each of at most
    BATCH_STATES (storage time x member) states and at least one storage time."""
    step = max(1, BATCH_STATES // max(n_members, 1))
    return [slice(t, min(t + step, n_taus)) for t in range(0, n_taus, step)]


def sequence_endpoints(rho0: DensityMatrix3, p, seq: SequenceSpec, offsets: np.ndarray,
                       member_name=_member, durations=None):
    """End states of every member row of `offsets` after `seq`, its W waits
    lasting row t of `durations` (T, W) in run t, by default their own
    durations (T = 1): a decay curve's storage times
    (:func:`eitecho.sequences.echo_layout`), yielded as (rows, states
    (t, M, 9)) for each :func:`storage_chunks` chunk of runs as it is formed.
    `p` gives the members' parameters, one LambdaParams or one per member
    (see :func:`_param_sets`).  The pulse maps are one :func:`_expm` call over
    (pulse x member) of the members' generators (:func:`member_generators`).
    A wait acts on the states elementwise from its diagonal and decay feed
    (:func:`wait_rates`, :func:`wait_states`).  The call itself builds and
    checks the maps and durations, naming a non-finite generator, or a wait
    duration not finite and > 0, in segment order.  The states are unchecked:
    readers apply their remaining maps and then :func:`_check_physical`.
    `member_name` names a member row in errors.
    """
    layout = seq.segments
    durations = np.asarray([[s.duration for s in layout if isinstance(s, Wait)]]
                           if durations is None else durations, dtype=float)
    offsets = np.asarray(offsets, dtype=float).reshape(-1, 3)
    pulses = [k for k, seg in enumerate(layout) if isinstance(seg, PulseSpec)]
    generators = np.empty((len(pulses), len(offsets), 9, 9), dtype=complex)
    waits = {}
    for k, seg in enumerate(layout):
        if isinstance(seg, Wait):
            column = durations[:, len(waits)]
            bad = column[~((column > 0.0) & (column < np.inf))]               # nan too
            if bad.size:
                raise ValidationError(f"sequence_endpoints: {_segment_name(k, seg)} lasts "
                                      f"{bad[0]} s, not finite and > 0")
            waits[k] = (wait_rates(p, seg, offsets,
                                   lambda m: f"{_segment_name(k, seg)}, {member_name(m)}"),
                        column)
        else:
            generators[pulses.index(k)] = seg.duration * member_generators(
                p, seg, offsets, lambda m: f"{_segment_name(k, seg)}, {member_name(m)}")
    maps = _expm(generators, _map_namer([_segment_name(k, layout[k]) for k in pulses],
                                        member_name))
    v0 = np.asarray(rho0.matrix, dtype=complex).reshape(9)

    def chunks():
        for rows in storage_chunks(len(durations), len(offsets)):
            v = np.tile(v0, (rows.stop - rows.start, len(offsets), 1))
            for k in range(len(layout)):
                if k in waits:
                    wait, column = waits[k]
                    v = wait_states(wait, column[rows], v)
                else:
                    v = (maps[pulses.index(k)] @ v[..., None])[..., 0]
            yield rows, v
    return chunks()


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


def _wait_samples(wait: tuple, weights: np.ndarray, v: np.ndarray, dt: float,
                  out: np.ndarray) -> np.ndarray:
    """Weight-summed samples of a wait at dt ... n dt, written to the rows `out`
    (n, 9), and the member states (M, 9) at n dt.

    `wait` is the pair of :func:`wait_rates`.  Entry i of member m picks up
    e^{d_mi t}, d_mi its diagonal generator entry, plus, for i in DECAY_FED,
    the feed of rho_ee.  The coherences (COHERENCES) are sampled per member:
    with B = ceil(sqrt(n)) and j = B k + r, sum_m w_m v_mi e^{d_mi j dt} of
    every block k comes from one batched product of the block factors
    w_m v_mi e^{d_mi B k dt} (3, K, M) with the in-block factors
    e^{d_mi r dt} (3, M, B), so the temporaries grow as sqrt(n) M.  The
    populations and the feed involve population entries only, which no
    member offset shifts (DETUNING_OPT and DETUNING_SPIN vanish there), so
    member 0's rates apply to the weighted populations.  The conjugate
    entries (CONJUGATES) are left as they are: :func:`propagate_members`
    writes every sample's lower triangle.
    """
    n = len(out)
    d = wait[0].T[COHERENCES]                                         # (3, M)
    block = math.isqrt(n - 1) + 1
    starts = block * dt * np.arange(-(-n // block))                   # (K,)
    outer = np.exp(d[:, None, :] * starts[:, None]) * (weights * v[:, COHERENCES].T)[:, None, :]
    inner = np.exp(d[:, :, None] * (dt * np.arange(1, block + 1)))
    out[:, COHERENCES] = (outer @ inner).reshape(3, -1)[:, :n].T
    times = dt * np.arange(1, n + 1)[:, None]
    rates = wait[0][0, POPULATIONS].real
    out[:, POPULATIONS] = np.exp(times * rates) * (weights @ v[:, POPULATIONS])
    first = tuple(x[:1] for x in wait)
    out[:, DECAY_FED] += _decay_feed(first, times)[:, 0] * (weights @ v[:, 8])
    return wait_states(wait, times[-1], v)[0]


def _pulse_samples(powers: np.ndarray, weights: np.ndarray, v: np.ndarray,
                   out: np.ndarray) -> np.ndarray:
    """Weight-summed samples of a pulse at steps 1 ... n, written to the rows
    `out` (n, 9), and the member states (M, 9) after.

    `powers` are the step powers S^1 ... S^B of :func:`_step_powers`, and
    sample B k + r of the pulse is S^r applied to the state at the start of
    block k.  Each block start comes from the one before by one batched
    mat-vec with S^B (S^b for a last block of b < B samples), in the order
    the states would be advanced block by block.  At most BATCH_STATES // M
    block starts are held at once, and the weighted starts of such a chunk
    meet the powers in one (blocks, 9 M) @ (9 M, 9 B) product, so memory is set
    by the chunk, not by the samples.
    """
    n, m, block = len(out), len(v), powers.shape[2]
    n_blocks = -(-n // block)
    chunk = min(n_blocks, max(1, BATCH_STATES // m))
    products = powers.reshape(9 * m, 9 * block)
    starts = np.empty((chunk, m, 9), dtype=complex)
    for first in range(0, n_blocks, chunk):
        count = min(chunk, n_blocks - first)
        for k in range(count):
            starts[k] = v
            b = min(block, n - (first + k) * block)
            v = (v[:, None, :] @ powers[:, :, b - 1])[:, 0]
        weighted = (weights[:, None] * starts[:count]).reshape(count, 9 * m)
        rows = out[first * block:(first + count) * block]
        rows[:] = (weighted @ products).reshape(-1, 9)[:len(rows)]
    return v


def whole_steps(duration: float, dt: float) -> tuple[int, list]:
    """The whole steps n of `dt` in `duration`, and the step lengths: [dt], and
    the remainder after n steps when it exceeds 1e-9 dt."""
    n = int(np.floor(duration / dt + 1e-9))
    rest = duration - n * dt
    return n, [dt, rest] if rest > 1e-9 * dt else [dt]


def _check_physical(finals: np.ndarray, offsets: np.ndarray, taus=None,
                    member_name=_member) -> None:
    """Guard against drift: every member's final (3, 3) state must be physical.

    `finals` holds one state, (3, 3) or flattened, per member (M, ...), or
    per storage time and member (T, M, ...) for the T storage times `taus`.
    On failure the error names the first failing member by `member_name`,
    its storage time, its offsets and the offending value.
    """
    finals = finals.reshape(-1, 3, 3)
    adjoint = finals.conj().swapaxes(1, 2)
    herm_err = np.max(np.abs(finals - adjoint), axis=(1, 2))
    herm = herm_err <= 1e-9           # False for a non-finite member too
    if herm.all():
        min_eig = np.linalg.eigvalsh(0.5 * (finals + adjoint)).min(axis=1)
    else:
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
        [f"propagation {what} in {member_name(m)}{when} with offsets "
         f"(delta_opt, delta_spin, zeeman_offset) = ({a:g}, {b:g}, {z:g}) rad/s"])


def _sample_grids(seq: SequenceSpec, names: list, dt_targets: list) -> list:
    """(dt, whole steps, step lengths) of every segment for one requested step
    each (see :func:`propagate_members`), from the clocks alone: a step that
    is not finite and > 0, or more than MAX_SAMPLES samples in all, raises a
    ConfigurationError."""
    if len(dt_targets) != len(seq.segments):
        raise ConfigurationError([f"one step per segment: got {len(dt_targets)} entries "
                                  f"for {len(seq.segments)} segments"])
    grids = []
    for k, (seg, dt_target) in enumerate(zip(seq.segments, dt_targets)):
        if not 0.0 < dt_target < np.inf:
            raise ConfigurationError([f"segment {k}: requested dt {dt_target:g} s "
                                      f"must be finite and > 0"])
        clock = seg.clock_dt if isinstance(seg, PulseSpec) and seg.clock_dt else seg.duration
        dt = clock / max(1, int(np.ceil(clock / dt_target - 1e-12)))
        grids.append((dt, *whole_steps(seg.duration, dt)))
    counts = [n_steps + len(steps) - 1 for _, n_steps, steps in grids]
    if 1 + sum(counts) > MAX_SAMPLES:
        k = int(np.argmax(counts))
        raise ConfigurationError([f"{names[k]}: sampled {counts[k]} times, {1 + sum(counts)} "
                                  f"samples in all, beyond the bound of {MAX_SAMPLES}"])
    return grids


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
    map adds a sample at the segment's end.  More than MAX_SAMPLES samples
    in all raise a ConfigurationError naming the segment with the most,
    before any state is stored, and, for explicit steps, before any
    generator is built.  A pulse is sampled from its block starts
    (:func:`_pulse_samples`) with the SAMPLE_BLOCK powers of its step map,
    which it takes over from the previous pulse when the generators and the
    grid are bitwise the same (the two rephasing halves without a Zeeman
    offset); a wait is sampled in closed form (:func:`_wait_samples`,
    :func:`wait_states`) from its diagonal (:func:`wait_rates`), with no
    expm.  Only the weighted sum is stored, every segment writing its samples
    into one (n, 9) buffer sized from the grids, whose lower triangle is then
    written as the conjugate of the upper and its populations as real, a
    chunk of rows at a time.  A non-finite generator raises a
    ConfigurationError naming its segment and member.
    """
    offsets = np.asarray(offsets, dtype=float).reshape(-1, 3)
    weights = np.asarray(weights, dtype=float)
    n_members = weights.size
    names = [_segment_name(k, seg) for k, seg in enumerate(seq.segments)]

    def generators() -> list:
        return [(wait_rates if isinstance(seg, Wait) else member_generators)(
                    p, seg, offsets, lambda m: f"{name}, {_member(m)}")
                for name, seg in zip(names, seq.segments)]

    if dt_targets is None:
        # every generator is checked, and a failure named, before the grid reads the offsets
        gens = generators()
        grids = _sample_grids(seq, names, shared_steps(p, seq, offsets))
    else:
        grids = _sample_grids(seq, names, dt_targets)
        gens = generators()
    v = np.tile(np.asarray(rho0.matrix, dtype=complex).reshape(9), (n_members, 1))
    n_samples = 1 + sum(n_steps + len(steps) - 1 for _, n_steps, steps in grids)
    flat, times = np.empty((n_samples, 9), dtype=complex), np.empty(n_samples)
    flat[0], times[0] = weights @ v, 0.0
    row, t0, segment_starts = 1, 0.0, []
    last_pulse = None          # (generators, grid, maps, powers) of the previous pulse

    for seg, name, gen, grid in zip(seq.segments, names, gens, grids):
        dt, n_steps, steps = grid
        segment_starts.append((row - 1, seg))
        samples = flat[row:row + n_steps]
        if isinstance(seg, Wait):
            v = _wait_samples(gen, weights, v, dt, samples)
        else:
            if (last_pulse is None or last_pulse[1] != grid
                    or not np.array_equal(last_pulse[0], gen)):
                maps = _expm(np.array([h * gen for h in steps]),
                             _map_namer([name] * len(steps)))
                powers = _step_powers(maps[0], min(SAMPLE_BLOCK, n_steps)) if n_steps else None
                last_pulse = gen, grid, maps, powers
            else:
                _, _, maps, powers = last_pulse
            if n_steps:
                v = _pulse_samples(powers, weights, v, samples)
        times[row:row + n_steps] = t0 + dt * np.arange(1, n_steps + 1)
        row += n_steps
        if len(steps) == 2:        # a pulse on a detector clock; a wait's clock is its duration
            v = (maps[-1] @ v[:, :, None])[:, :, 0]
            flat[row], times[row] = weights @ v, t0 + seg.duration
            row += 1
        t0 += seg.duration

    _check_physical(v, offsets)
    for rows in storage_chunks(n_samples, 1):          # the Hermitian fill, a chunk at a time
        chunk = flat[rows]
        chunk[:, CONJUGATES] = chunk[:, COHERENCES].conj()
        chunk[:, POPULATIONS] = chunk[:, POPULATIONS].real
    return Trajectory(times=times, states=flat.reshape(-1, 3, 3), segment_starts=segment_starts)


def run_sequence(rho0: DensityMatrix3, p: LambdaParams, seq: SequenceSpec,
                 dt_overrides: list | None = None) -> Trajectory:
    """Propagate through all segments, state continuous across boundaries.

    ``dt_overrides``, one step per segment, replaces the default sampling
    grid; it only places samples, each of which is exact.
    """
    return propagate_members(rho0, p, seq, [0.0, 0.0, 0.0], [1.0], dt_overrides)
