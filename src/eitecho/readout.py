"""Raman beat synthesis, Fourier amplitude extraction, decay-curve assembly and
three-parameter exponential fitting with confidence intervals.

The rotating-frame simulation carries no hyperfine carrier, so the detected
beat is reconstructed by re-modulating the |1> -> |e> optical coherence at the
ground splitting; the heterodyne against the transmitted readout pulse then
shows up as a tone at that splitting whose amplitude tracks the stored spin
coherence.  Beat amplitudes are extracted by projecting the trace onto the
known beat frequency (single-bin Fourier sum); all amplitudes are relative
detector units.

A decay curve is one echo and the table of its two waits at each storage
time (:func:`eitecho.sequences.echo_layout`), built once per call, and its
readout needs only that projection, which is linear in each member's state
at readout start: with S the one-tick readout map, the single-bin sum is a
pair of geometric sums of S, built once per curve, applied to the
pre-readout states of every storage time at once.  Curves that differ only
in their ensemble (the field sweep's fields, a compensation scan's trial
vectors: a Zeeman splitting enters only as a member offset) are one pass
over the members of all of them, stacked by :mod:`eitecho.ensemble`, each
curve the weighted sum of its own contiguous group of members.  A search
over Zeeman offsets (the compensation search) builds the maps of its whole
box once, as Chebyshev tables in the offset (:func:`zeeman_table`), and
each of its curves takes every member's pulse and readout maps from them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .dynamics import (PulseSpec, Trajectory, _check_physical, _expm,
                       _map_namer, geometric_sum, member_generators, sequence_endpoints,
                       storage_chunks, whole_steps)
from .ensemble import (MIXED_GROUND, EnsembleSpec, MemberStack, _group_sums, group_states,
                       stack_ensembles)
from .errors import ConfigurationError, FitFailureError, ValidationError
from .lambda_system import LambdaParams
from .sequences import SAMPLES_PER_PERIOD, EchoConfig, echo_layout
from .units import csv_text

DETECTOR_SCALE = 1.0
MIN_SAMPLES_PER_PERIOD = 4.0
MIN_PERIODS = 5.0

# Rates k = 1/T2 on which the decay fit brackets its minimum, in units of one
# per storage-time span: 8 per decade from a T2 of 10^3 spans (over the curve,
# a straight line) to 10^-3 spans (a step after the first storage time).  A
# best rate at either end has no minimum inside and fails as a runaway.
FIT_RATE_GRID = np.logspace(-3.0, 3.0, 49)
# The refinement stops once a step moves the rate by less than this, relatively.
FIT_RELATIVE_STEP_TOL = 1e-10
# Fewest storage times the three-parameter decay fit accepts: two residual degrees of freedom.
FIT_MIN_POINTS = 5
# What a Chebyshev table of maps may lose to truncation, relative to a map's
# 1-norm (:func:`chebyshev_count`): about the rounding of the maps themselves.
CHEBYSHEV_TARGET = 1e-15


@dataclass(frozen=True)
class BeatTrace:
    """Uniformly sampled heterodyne signal at the hyperfine beat frequency."""

    times: np.ndarray
    signal: np.ndarray
    beat_frequency: float

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        s = np.asarray(self.signal, dtype=float)
        if t.ndim != 1 or t.shape != s.shape or t.size < 2:
            raise ValidationError("BeatTrace needs matching 1-d times and signal")
        dt = np.diff(t)
        if np.max(np.abs(dt - dt[0])) > 1e-6 * dt[0]:
            raise ValidationError("BeatTrace sampling must be uniform")
        if 1.0 / dt[0] < MIN_SAMPLES_PER_PERIOD * self.beat_frequency:
            raise ValidationError(
                f"BeatTrace sample rate {1.0 / dt[0]:.3g} Hz below "
                f"{MIN_SAMPLES_PER_PERIOD}x the beat frequency")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "signal", s)

    def to_csv(self) -> str:
        return csv_text("time_s,signal", np.column_stack([self.times, self.signal]))


@dataclass(frozen=True)
class DecayCurve:
    """Echo amplitude versus storage time."""

    taus: np.ndarray
    amplitudes: np.ndarray

    def __post_init__(self):
        taus = np.asarray(self.taus, dtype=float)
        amps = np.asarray(self.amplitudes, dtype=float)
        if taus.ndim != 1 or taus.shape != amps.shape:
            raise ValidationError("DecayCurve needs matching 1-d taus and amplitudes")
        if np.any(np.diff(taus) <= 0.0):
            raise ValidationError("DecayCurve taus must be strictly increasing")
        if np.any(amps < 0.0):
            raise ValidationError("DecayCurve amplitudes must be >= 0")
        object.__setattr__(self, "taus", taus)
        object.__setattr__(self, "amplitudes", amps)


@dataclass(frozen=True)
class FitResult:
    """Parameters of A*exp(-tau/T2) + C with covariance and 95% intervals."""

    amplitude: float
    t2: float
    offset: float
    covariance: np.ndarray
    ci95: tuple[float, float, float]
    residual_rms: float
    iterations: int

    def __post_init__(self):
        if not self.t2 > 0.0:
            raise ValidationError(f"FitResult.t2 must be > 0, got {self.t2}")
        if any(c < 0.0 for c in self.ci95):
            raise ValidationError("FitResult.ci95 half-widths must be >= 0")


def synthesize_beat(traj: Trajectory, beat_frequency: float) -> BeatTrace:
    """Heterodyne beat from the |1> -> |e> coherence over the readout window.

    The signal is Re[coh1e(t) * exp(i * 2 pi f t)] times a fixed detector scale,
    with t measured from the start of the readout pulse.  The trace takes the
    trajectory's own samples at the detector ticks (SAMPLES_PER_PERIOD per
    beat period), without interpolation, so the readout window must be
    sampled on a whole fraction of the detector clock, as the readout pulse's
    clock arranges; otherwise a ValidationError names both steps.
    """
    start = traj.segment_start_index("readout")
    t_rel = traj.times[start:] - traj.times[start]
    _check_window_samples(t_rel.size)
    tick = 1.0 / (SAMPLES_PER_PERIOD * beat_frequency)
    grid = tick * np.arange(int(np.floor(t_rel[-1] / tick + 1e-9)) + 1)
    ticks = max(1, round(tick / t_rel[1])) * np.arange(grid.size)
    if ticks[-1] >= t_rel.size or np.max(np.abs(t_rel[ticks] - grid)) > 1e-6 * tick:
        raise ValidationError(
            f"synthesize_beat: readout window sampled every {t_rel[1]:g} s, not on a "
            f"whole fraction of the detector clock {tick:g} s")
    coh = traj.coherence1e[start:][ticks]
    signal = DETECTOR_SCALE * np.real(coh * np.exp(2j * np.pi * beat_frequency * grid))
    return BeatTrace(times=grid, signal=signal, beat_frequency=beat_frequency)


def beat_amplitude(trace: BeatTrace) -> float:
    """Magnitude of the single-bin Fourier projection at the beat frequency.

    Normalized by 2/N so a pure cosine of amplitude A over an integer number
    of periods returns A exactly.
    """
    _check_window_periods((trace.times[-1] - trace.times[0]) * trace.beat_frequency)
    phases = np.exp(-2j * np.pi * trace.beat_frequency * trace.times)
    return float(2.0 / trace.times.size * abs(np.sum(trace.signal * phases)))


def _check_window_samples(n_samples: int) -> None:
    if n_samples < 4:
        raise ValidationError("synthesize_beat: readout window has too few samples")


def _check_window_periods(periods: float) -> None:
    if periods < MIN_PERIODS:
        raise ValidationError(f"beat_amplitude: window of {periods:.2f} periods "
                              f"is below the minimum of {MIN_PERIODS}")


def window_periods(readout: PulseSpec, beat_frequency: float) -> float:
    """Beat periods in the whole detector ticks of the readout pulse's window."""
    n_steps, _ = whole_steps(readout.duration, readout.clock_dt)
    return n_steps * readout.clock_dt * beat_frequency


def _readout_maps(readout: PulseSpec, maps: np.ndarray, beat_frequency: float,
                  conjugate_twist: bool) -> tuple[np.ndarray, np.ndarray]:
    """The readout's rows e5^T (F_a, F_b[, F_c]) (2-3, M, 9) and its full map
    (M, 9, 9) from its tick map and, if the window is not a whole number of
    ticks, rest map, `maps` (1-2, M, 9, 9) (see :func:`_beat_amplitudes`);
    F_c, of the conjugate twist, only with `conjugate_twist`."""
    n_steps, steps = whole_steps(readout.duration, readout.clock_dt)
    twist = np.exp(2j * (2.0 * np.pi * beat_frequency) * readout.clock_dt)     # e^{2i w dt}
    steps_maps = [maps[0], twist * maps[0]] + ([np.conj(twist) * maps[0]] if conjugate_twist
                                                else [])
    sums, powers = geometric_sum(np.stack(steps_maps), n_steps)
    full = maps[-1] @ powers[0] if len(steps) == 2 else powers[0]
    return (sums + powers)[:, :, 5, :], full


def _beat_amplitudes(readout: PulseSpec, stack: MemberStack, states: np.ndarray,
                     beat_frequency: float, taus: np.ndarray, maps=None) -> np.ndarray:
    """Beat amplitudes (T, G) of the ensembles of `stack` from their member
    states before the readout (T, M, 9) (:func:`eitecho.ensemble.stack_ensembles`).

    The readout is sampled on the detector clock: with S the one-tick map and
    n ticks, tick k reads the |1>-|e> coherence c_k = e5^T S^k v, so the
    single-bin sum of synthesize_beat and beat_amplitude is
    (2/n) |1/2 e5^T F_a v + 1/2 conj(e5^T F_b v)|, weight-summed over the
    members of each ensemble (:func:`eitecho.ensemble._group_sums`), with
    F_a = sum_k S^k and F_b = sum_k (e^{2i w dt} S)^k, k = 0 ... n-1.
    A mirror member reads phases[5] * conj(c_k), so its sums are phases[5]
    times the conj of e5^T F_a v and of e5^T F_c v, F_c that of the conjugate
    twist: a folded ensemble's sums a and b gain those of its half.  The rows
    and the full readout map are `maps` if given (a table's, :class:`ZeemanTable`),
    else built once (:func:`_readout_maps`); each state is checked after the
    full readout map, and read, one :func:`eitecho.dynamics.storage_chunks`
    chunk at a time.
    """
    n_steps, steps = whole_steps(readout.duration, readout.clock_dt)
    _check_window_samples(n_steps + len(steps))
    _check_window_periods(window_periods(readout, beat_frequency))
    fold = stack.folded.any()
    folded = slice(None) if stack.folded.all() else stack.folded
    if maps is None:
        gen = member_generators(stack.params, readout, stack.offsets,
                                lambda m: f"readout, {stack.member_name(m)}")
        maps = _readout_maps(readout, _expm(np.array([h * gen for h in steps]),
                                            _map_namer(["readout tick", "readout rest"],
                                                       stack.member_name)),
                             beat_frequency, fold)
    rows, full = maps
    amplitudes = np.empty((len(taus), len(stack.starts)))
    for chunk in storage_chunks(len(taus), len(stack.offsets)):
        _check_physical(full @ states[chunk, ..., None], stack.offsets, taus[chunk],
                        stack.member_name)
        products = np.einsum("smi,tmi->tms", rows[:2 + fold], states[chunk])
        a, b, *c = _group_sums(products, stack.weights, stack.starts).transpose(2, 0, 1)
        if fold:
            b[:, folded] += stack.phases[5] * c[0][:, folded].conj()
            a[:, folded] += stack.phases[5] * a[:, folded].conj()
        amplitudes[chunk] = np.abs(0.5 * a + 0.5 * np.conj(b))
    return DETECTOR_SCALE * 2.0 / (n_steps + 1) * amplitudes


def chebyshev_count(phase: float, cap: int) -> int | None:
    """Least node count n <= `cap` at which a Chebyshev interpolant resolves a
    map e^{B + x C}, x in [-1, 1], to CHEBYSHEV_TARGET of its 1-norm, None
    if none does.

    `phase` bounds ||C|| in the trace norm, in which e^{sB} is a contraction
    (a channel): then the j-th Taylor coefficient of the map in x is at most
    phase^j / j!, its k-th Chebyshev coefficient at most that of e^{phase x},
    2 I_k(phase) <= 2 (phase/2)^k / k! e^{phase^2 / (4 k + 4)}, and the
    interpolant's error at most twice the tail sum from k = n (Trefethen,
    *Approximation Theory and Approximation Practice*, SIAM 2013, ch. 8),
    itself at most 1 / (1 - phase / (2 n + 2)) times its first term.  A
    factor 3 takes the trace norm to the flattened map's 1-norm, which is at
    least 1.  A sum of s such maps has s times the bound and s times the norm.
    """
    half = 0.5 * phase
    for n in range(1, cap + 1):
        if half < n + 1:
            log_error = (math.log(12.0) + phase * phase / (4 * n + 4) + n * math.log(half or 1e-300)
                         - math.lgamma(n + 1) - math.log1p(-half / (n + 1)))
            if log_error <= math.log(CHEBYSHEV_TARGET):
                return n
    return None


def chebyshev_nodes(n: int) -> np.ndarray:
    """The n Chebyshev points of the first kind, cos(pi (j + 1/2) / n), j = 0 ... n-1,
    mirrored exactly: x_{n-1-j} = -x_j, and 0 in the middle of an odd n."""
    x = np.cos(math.pi / n * (np.arange(n) + 0.5))
    half = n // 2
    x[n - half:] = -x[:half][::-1]
    if n % 2:
        x[half] = 0.0
    return x


def chebyshev_coefficients(values: np.ndarray) -> np.ndarray:
    """Coefficients c_k (..., n, K) of the interpolant sum_k c_k T_k(x) of the
    values (..., n, K) at :func:`chebyshev_nodes`: the discrete cosine
    transform c_k = (2 / n) sum_j f(x_j) cos(k pi (j + 1/2) / n), c_0 halved,
    as one matrix product."""
    n = values.shape[-2]
    transform = 2.0 / n * np.cos(math.pi / n * np.outer(np.arange(n), np.arange(n) + 0.5))
    transform[0] *= 0.5
    return transform @ values


def chebyshev_basis(x: np.ndarray, n: int) -> np.ndarray:
    """T_0(x) ... T_{n-1}(x) (M, n) at the points x (M,), clipped to [-1, 1],
    as cos(k arccos x)."""
    return np.cos(np.arccos(np.clip(x, -1.0, 1.0))[:, None] * np.arange(n))


@dataclass(frozen=True)
class ZeemanTable:
    """Chebyshev interpolants, in a member's Zeeman offset z over [-reach, reach],
    of every map a decay curve applies to it: the echo's pulse maps (each with
    its ``zeeman_sign``) and, in beat mode, the readout's rows and full map
    (:func:`_readout_maps`), for one parameter set and each base member
    (delta_opt, delta_spin) of a grid (:func:`zeeman_table`).

    ``segments`` are the tabulated pulses, the readout last in beat mode, and
    ``splitting`` the beat frequency of the readout's rows.
    ``coefficients`` (B, n, K) holds base b's n coefficients of the K values:
    the P pulse maps (81 each), then the 3 rows (9 each) and the full map.
    """

    params: LambdaParams
    mode: str
    segments: tuple
    splitting: float
    reach: float
    bases: dict                  # (delta_opt, delta_spin) -> row of `coefficients`
    coefficients: np.ndarray

    def maps(self, stack: MemberStack, segments: tuple, splitting: float,
             mode: str) -> tuple | None:
        """The pulse maps (P, M, 9, 9) of the members of `stack` and, in beat
        mode, the readout's rows (3, M, 9) and full map (M, 9, 9), or None
        where the table does not cover the stack: other parameters, mode,
        pulses among the `segments` the stack goes through, or `splitting`, a
        base member it has not tabulated, or a Zeeman offset beyond `reach`
        by more than the rounding of the box's edge.  Member m's values are
        its basis T_k(z_m / reach) times its base's coefficients, one (1, n)
        @ (n, K) product of a batch, so they have the bits they get alone."""
        if (stack.params[0] != (self.params,) or mode != self.mode or splitting != self.splitting
                or tuple(s for s in segments if isinstance(s, PulseSpec)) != self.segments
                or (np.abs(stack.offsets[:, 2]) > self.reach + 4.0 * math.ulp(self.reach)).any()):
            return None
        try:
            index = np.array([self.bases[base]
                              for base in map(tuple, stack.offsets[:, :2].tolist())])
        except KeyError:
            return None
        basis = chebyshev_basis(stack.offsets[:, 2] / self.reach, self.coefficients.shape[1])
        values = np.empty((len(index), self.coefficients.shape[2]), dtype=complex)
        for b in dict.fromkeys(index.tolist()):
            rows = np.flatnonzero(index == b)
            values[rows] = (basis[rows, None, :] @ self.coefficients[b])[:, 0]
        count = len(self.segments) - (mode == "beat")
        p = 81 * count
        pulses = np.ascontiguousarray(values[:, :p].reshape(-1, count, 9, 9).swapaxes(0, 1))
        if mode == "proxy":
            return pulses, None
        rows = np.ascontiguousarray(values[:, p:p + 27].reshape(-1, 3, 9).swapaxes(0, 1))
        return pulses, (rows, values[:, p + 27:].reshape(-1, 9, 9))


def zeeman_table(cfg: EchoConfig, layout: tuple, params: LambdaParams, spec: EnsembleSpec,
                 mode: str, reach: float, cap: int) -> ZeemanTable | None:
    """The :class:`ZeemanTable` of the echo and readout of `layout` (:func:`echo_layout`)
    over Zeeman offsets within +/- `reach` (rad/s), for every member
    (delta_opt, delta_spin) that a curve of `spec` under `params` stacks
    whatever its Zeeman branches, or None where a table would take more
    than `cap` nodes.

    A map's Zeeman offset turns it by at most `reach` times its duration, the
    readout's by `reach` times its window, and :func:`chebyshev_count`
    sets the node count n from the largest such phase.  The maps at the n
    nodes of every base member come from one :func:`eitecho.dynamics._expm`
    call, the nodes mirrored so that the rephasing halves share their maps,
    and the readout's from one :func:`eitecho.dynamics.geometric_sum`,
    and their coefficients from one matrix product
    (:func:`chebyshev_coefficients`).  A node map that
    cannot be built leaves the table None: the curves' own maps then name
    the member that fails.
    """
    echo, readout, _ = layout
    segments = echo.segments + ((readout,) if mode == "beat" else ())
    pulses = [s for s in echo.segments if isinstance(s, PulseSpec)]
    tabulated = pulses + ([readout] if mode == "beat" else [])
    n = chebyshev_count(reach * max(s.duration for s in tabulated), cap)
    if n is None:
        return None
    stack = stack_ensembles(params, [replace(spec, zeeman_branches=())], segments)
    bases = stack.offsets[:, :2]
    offsets = np.column_stack([np.repeat(bases, n, axis=0),
                               np.tile(reach * chebyshev_nodes(n), len(bases))])
    _, steps = whole_steps(readout.duration, readout.clock_dt)
    scaled = [(s.duration, s) for s in pulses] + (
        [(h, readout) for h in steps] if mode == "beat" else [])
    # a map that differs from an earlier one in its Zeeman sign alone (the second
    # rephasing half) is that one's at the mirrored node: it is built once
    built, sources = {}, []            # the maps to build; (built map, mirrored) of each
    for h, s in scaled:
        twin = (h, replace(s, zeeman_sign=-s.zeeman_sign))
        sources.append((built[twin], True) if twin in built else
                       (built.setdefault((h, s), len(built)), False))
    try:
        maps = _expm(np.array([h * member_generators(params, s, offsets) for h, s in built]))
    except ConfigurationError:
        return None
    maps = [maps[i].reshape(len(bases), n, 9, 9)[:, ::-1].reshape(-1, 9, 9) if mirrored
            else maps[i] for i, mirrored in sources]
    values = [m.reshape(len(offsets), 81) for m in maps[:len(pulses)]]
    if mode == "beat":
        rows, full = _readout_maps(readout, maps[len(pulses):], cfg.splitting, True)
        values += [rows.swapaxes(0, 1).reshape(len(offsets), 27), full.reshape(len(offsets), 81)]
    table = np.concatenate(values, axis=1).reshape(len(bases), n, -1)
    return ZeemanTable(params=params, mode=mode, segments=tuple(tabulated),
                       splitting=cfg.splitting, reach=reach,
                       bases={key: b for b, key in enumerate(map(tuple, bases.tolist()))},
                       coefficients=chebyshev_coefficients(table))


def _echo_amplitudes(cfg: EchoConfig, taus: np.ndarray, layout: tuple, params, specs: list,
                     mode: str, labels=None, table: ZeemanTable | None = None) -> np.ndarray:
    """Echo amplitudes (T, G) at the storage times `taus` of `layout` (:func:`echo_layout`)
    of G ensembles, spec g under params[g] (or `params` for all), stacked and labelled by
    :func:`eitecho.ensemble.stack_ensembles`, their maps from `table` where it covers the
    stack (:meth:`ZeemanTable.maps`)."""
    if mode not in ("beat", "proxy"):
        raise ValidationError(f"unknown readout mode {mode!r}")
    echo, readout, waits = layout
    # the readout pulse is mapped, and so has to mirror, in beat mode only
    segments = echo.segments + ((readout,) if mode == "beat" else ())
    stack = stack_ensembles(params, specs, segments, labels)
    pulses, readout_maps = (None, None) if table is None else (
        table.maps(stack, segments, cfg.splitting, mode) or (None, None))
    states = sequence_endpoints(MIXED_GROUND, stack.params, echo, stack.offsets,
                                stack.member_name, pulses, waits)
    if mode == "beat":
        return _beat_amplitudes(readout, stack, states, cfg.splitting, taus, readout_maps)
    return np.abs(group_states(stack, states, taus)[..., 1])


def assemble_decay_curves(cfg: EchoConfig, taus, params, specs,
                          mode: str = "beat", labels=None) -> list[DecayCurve]:
    """Echo amplitude versus storage time for each ensemble spec, all in one pass.

    `params` is one LambdaParams for every spec, or a sequence of one per
    spec (a temperature scan's optical dephasing rates).  The specs share
    one echo and its table of waits (:func:`eitecho.sequences.echo_layout`),
    so all their members are one stack
    (:func:`eitecho.ensemble.stack_ensembles`) through one endpoint pass over
    every storage time (:func:`eitecho.dynamics.sequence_endpoints`), and each
    curve keeps the bits of a call of its own.  `labels`, one per spec, name
    the spec of a failing member in errors.
    """
    taus, specs = np.asarray(list(taus), dtype=float), list(specs)
    if taus.size < 3:
        raise ValidationError("assemble_decay_curves needs at least 3 storage times")
    if not specs:
        return []
    amplitudes = _echo_amplitudes(cfg, taus, echo_layout(cfg, taus), params, specs, mode, labels)
    return [DecayCurve(taus=taus, amplitudes=column)
            for column in np.ascontiguousarray(amplitudes.T)]


def assemble_decay_curve(cfg: EchoConfig, taus, params: LambdaParams,
                         spec: EnsembleSpec, mode: str = "beat") -> DecayCurve:
    """Echo amplitude versus storage time of one ensemble (see :func:`assemble_decay_curves`)."""
    return assemble_decay_curves(cfg, taus, params, [spec], mode)[0]


def student_t_quantile(dof: int, p: float) -> float:
    """Quantile t of Student's t distribution with integer `dof` >= 1 at p in (1/2, 1).

    With theta = arctan(t / sqrt(dof)), P(|T| <= t) is a finite series in
    sin(theta) and cos(theta) (Abramowitz & Stegun 26.7.3 and 26.7.4), and its
    derivative in theta is k cos(theta)^(dof - 1).  The series is increasing
    and concave in theta, so Newton's method from theta = 0 climbs to the
    root without overshooting; it stops when a step no longer raises theta.
    """
    target = 2.0 * p - 1.0
    k = 2.0 * math.exp(math.lgamma((dof + 1) / 2) - math.lgamma(dof / 2)) / math.sqrt(math.pi)
    odd = dof % 2
    theta = 0.0
    for _ in range(200):
        sin, cos = math.sin(theta), math.cos(theta)
        term = cos if odd else 1.0
        total = 0.0 if dof == 1 else term
        for j in range(1, dof // 2):
            term *= cos * cos * (2 * j - 1 + odd) / (2 * j + odd)
            total += term
        prob = 2.0 / math.pi * (theta + sin * total) if odd else sin * total
        step = (target - prob) / (k * cos ** (dof - 1))
        if not theta + step > theta:
            break
        theta += step
    return math.sqrt(dof) * math.tan(theta)


def _model(theta: np.ndarray, taus: np.ndarray) -> np.ndarray:
    """A e^{-tau/T2} + C of the rows (A, T2, C) of `theta` (..., 3) at their `taus` (..., n)."""
    a, t2, c = theta.T[..., None]
    return a * np.exp(-taus / t2) + c


def _jacobian(theta: np.ndarray, taus: np.ndarray) -> np.ndarray:
    """Jacobians (..., n, 3) of :func:`_model` in (A, T2, C)."""
    a, t2, _ = theta.T[..., None]
    e = np.exp(-taus / t2)
    j = np.empty(taus.shape + (3,))
    j[..., 0] = e
    j[..., 1] = a * e * taus / (t2 * t2)
    j[..., 2] = 1.0
    return j


def _rate_profile(rates: np.ndarray, s: np.ndarray, yc: np.ndarray) -> tuple:
    """Reduced cost R, its slope dR/dx and the amplitude b (C, R) of C curves at
    the scaled rates x of `rates`, (R,) for every curve or (C, R), one row each.

    `s` (C, n) are the storage times less the first over their span, `yc`
    (C, n) the amplitudes less their mean.  For a fixed x the best b and
    offset of b e^{-x s} + c are linear least squares: with u the centred
    e^{-x s}, b = u.yc / u.u and the residual is r = yc - b u, so R = r.r.
    Since b and c are optimal at every x, dR/dx = 2 b r.f with f the centred
    s e^{-x s} = -de/dx.  Both sums are of residuals, with no cancellation
    of large terms; centring f as well drops the rounding of sum(r) = 0.
    Every row is reduced on its own, in the order of a curve fitted alone.
    """
    s = s[:, None, :]
    u = np.expm1(-(rates[..., None] * s))               # e - 1: exact for x s << 1
    f = s * (u + 1.0)
    # the means as np.mean takes them, without its overhead
    u -= u.sum(axis=-1, keepdims=True) / s.shape[-1]
    f -= f.sum(axis=-1, keepdims=True) / s.shape[-1]
    b = (u @ yc[:, :, None])[..., 0] / (u * u).sum(axis=-1)
    r = yc[:, None, :] - b[..., None] * u
    return (r * r).sum(axis=-1), 2.0 * b * (r * f).sum(axis=-1), b


def _refine_rate(a: float, b: float, slope_a: float, slope_b: float):
    """Root of dR/dx in [a, b], where it rises from <= 0 to >= 0, as a generator:
    it yields each rate whose slope it needs, is sent the slope there, and
    returns the rate and the number of slope evaluations.

    Secant steps through the last two rates, bisection when a step leaves
    the bracket or the bracket has not halved over the last two steps.  Stops
    when a step moves the rate by less than FIT_RELATIVE_STEP_TOL relative.
    """
    if slope_a == 0.0 or slope_b == 0.0:
        return (a if slope_a == 0.0 else b), 0
    (x0, g0), (x1, g1) = (a, slope_a), (b, slope_b)
    widths = [b - a]
    iterations = 0
    while True:
        iterations += 1
        x = 0.5 * (a + b)
        if g1 != g0 and not (len(widths) > 2 and widths[-1] > 0.5 * widths[-3]):
            secant = x1 - g1 * (x1 - x0) / (g1 - g0)
            if a < secant < b:
                x = secant
        g = yield x
        if g == 0.0 or not abs(x - x1) > FIT_RELATIVE_STEP_TOL * x:
            return x, iterations
        if g < 0.0:
            a = x
        else:
            b = x
        widths.append(b - a)
        (x0, g0), (x1, g1) = (x1, g1), (x, g)


def lockstep(searches: list, f) -> list:
    """Results of generator searches run in lockstep, each one yielding its trial
    points and sent the value there: each round sends the pending points of
    the unfinished searches to one call ``f(indices, points)``, which returns
    one value per point, so each search visits the points it would visit alone.
    """
    pending, found = {}, [None] * len(searches)
    for i, search in enumerate(searches):
        try:
            pending[i] = next(search)
        except StopIteration as stop:
            found[i] = stop.value
    while pending:
        ids = list(pending)
        for i, value in zip(ids, f(ids, np.array([pending[i] for i in ids]))):
            try:
                pending[i] = searches[i].send(float(value))
            except StopIteration as stop:
                found[i] = stop.value
                del pending[i]
    return found


def fit_decay(curves):
    """Least-squares fit of A*exp(-tau/T2) + C as a search over the rate alone.

    `curves` is one DecayCurve, whose FitResult is returned or whose
    FitFailureError is raised, or a sequence of them (a stack) with one
    number of storage times, whose fits run together: the result has one
    entry per curve, its FitResult or the FitFailureError that fitting it
    alone raises, with the same bits.

    A and C enter linearly, so for each rate they follow in closed form and
    the fit minimizes the reduced cost R over one parameter (variable
    projection: Golub & Pereyra, SIAM J. Numer. Anal. 10, 413 (1973)).  R is
    evaluated on the fixed rate grid FIT_RATE_GRID, for all curves at once;
    a best grid rate at either end fails at once, the fit running away to a
    straight line or a step, with the reason, the best rate (1/s) and R at
    both ends as diagnostics.  Otherwise the zero of dR/dk beside the best
    grid rate is refined to a relative step of 1e-10, the curves' searches
    in lockstep (:func:`_refine_rate`, whose count of slope evaluations is
    ``iterations``).  The covariance is (J^T J)^-1 of the full
    three-parameter Jacobian, scaled by the residual variance; 95% intervals
    use the 0.975 quantile of Student's t with n - 3 degrees of freedom,
    solved from the distribution's finite series (:func:`student_t_quantile`).
    """
    if isinstance(curves, DecayCurve):
        (fit,) = fit_decay([curves])
        if isinstance(fit, FitFailureError):
            raise fit
        return fit
    curves = list(curves)
    fits = [_checked(curve) for curve in curves]
    live = [i for i, fit in enumerate(fits) if fit is None]
    if len({curves[i].taus.size for i in live}) > 1:
        raise ValidationError("fit_decay: the curves of a stack need one number of storage times")
    if live:
        stack = _fit_stack(np.array([curves[i].taus for i in live]),
                           np.array([curves[i].amplitudes for i in live]))
        for i, fit in zip(live, stack):
            fits[i] = fit
    return fits


def _checked(curve: DecayCurve) -> FitFailureError | None:
    """Why `curve` cannot be fitted at all, if it cannot."""
    if curve.taus.size < FIT_MIN_POINTS:
        return FitFailureError(
            f"fit_decay needs at least {FIT_MIN_POINTS} points, got {curve.taus.size}")
    if not np.all(np.isfinite(curve.amplitudes)):
        return FitFailureError("fit_decay: non-finite amplitudes")
    if np.ptp(curve.amplitudes) == 0.0:
        return FitFailureError("fit_decay: degenerate curve with zero variance")
    return None


def _fit_stack(taus: np.ndarray, y: np.ndarray) -> list:
    """:func:`fit_decay` of the curves y (C, n) at their storage times `taus` (C, n)."""
    # the rate in units of one per span, the time from the first storage time
    span = taus[:, -1] - taus[:, 0]
    s = (taus - taus[:, :1]) / span[:, None]
    yc = y - y.mean(axis=-1, keepdims=True)
    fits, searches = _grid_brackets(span, s, yc)
    if searches:
        rows = np.array(list(searches))
        taus, y, span, s, yc = taus[rows], y[rows], span[rows], s[rows], yc[rows]
        found = lockstep(list(searches.values()),
                         lambda ids, x: _rate_profile(x[:, None], s[ids], yc[ids])[1][:, 0])
        for row, fit in zip(rows, _refined_fits(taus, y, span, s, yc, found)):
            fits[row] = fit
    return fits


def _grid_brackets(span: np.ndarray, s: np.ndarray, yc: np.ndarray) -> tuple:
    """The grid stage of :func:`_fit_stack`: a list with the failure of each
    curve that runs away or has no bracket, else None, and a dict of the
    others' :func:`_refine_rate` searches by row."""
    costs, slopes, _ = _rate_profile(FIT_RATE_GRID, s, yc)
    rows = np.arange(len(s))
    best = np.argmin(costs, axis=-1)
    # rates fast enough to leave e^{-x s} = 0 beyond the first point tie
    best[costs[:, -1] == costs[rows, best]] = FIT_RATE_GRID.size - 1
    lo = np.where(slopes[rows, best] < 0.0, best, best - 1)
    fits, searches = [None] * len(s), {}
    for k in rows.tolist():
        ends = {"best_rate_per_s": float(FIT_RATE_GRID[best[k]] / span[k]),
                "cost_slow_end": float(costs[k, 0]), "cost_fast_end": float(costs[k, -1])}
        if best[k] == 0:
            fits[k] = FitFailureError(
                "fit_decay: no finite T2 within 10^3 storage-time spans: "
                "the best fit is a straight line", diagnostics={"reason": "straight line", **ends})
        elif best[k] == FIT_RATE_GRID.size - 1:
            fits[k] = FitFailureError(
                "fit_decay: no T2 above 10^-3 storage-time spans: the best fit is "
                "a step after the first storage time", diagnostics={"reason": "step", **ends})
        elif not slopes[k, lo[k]] <= 0.0 <= slopes[k, lo[k] + 1]:
            fits[k] = FitFailureError("fit_decay: the slope of the reduced cost does not change "
                                      "sign beside its best grid rate",
                                      diagnostics={"reason": "no bracket", **ends})
        else:
            searches[k] = _refine_rate(
                float(FIT_RATE_GRID[lo[k]]), float(FIT_RATE_GRID[lo[k] + 1]),
                float(slopes[k, lo[k]]), float(slopes[k, lo[k] + 1]))
    return fits, searches


def _refined_fits(taus, y, span, s, yc, found: list) -> list:
    """The last stage of :func:`_fit_stack`: the FitResult, or the failure, of
    each curve whose search `found` (rate, iterations)."""
    x = np.array([rate for rate, _ in found])
    b = _rate_profile(x[:, None], s, yc)[2][:, 0]
    with np.errstate(over="ignore"):
        # A is the amplitude at tau = 0, which a late first storage time overflows
        theta = np.stack([b * np.exp(x * taus[:, 0] / span), span / x,
                          y.mean(axis=-1) - b * np.exp(-x[:, None] * s).mean(axis=-1)], axis=-1)
    finite = np.isfinite(theta).all(axis=-1)
    fits = [None if ok else FitFailureError("fit_decay converged to unphysical parameters",
                                            diagnostics={"theta": row.tolist()})
            for row, ok in zip(theta, finite)]
    physical = np.flatnonzero(finite)
    theta, taus, y = theta[physical], taus[physical], y[physical]
    resid = y - _model(theta, taus)
    j = _jacobian(theta, taus)
    jtj = j.swapaxes(-1, -2) @ j
    try:
        inverses = list(np.linalg.inv(jtj))
    except np.linalg.LinAlgError:          # one is singular: invert one at a time
        inverses = [_inverse(m) for m in jtj]
    n = taus.shape[-1]
    tval = student_t_quantile(n - 3, 0.975)
    for k, row, inverse, cost in zip(physical, theta, inverses, np.vecdot(resid, resid).tolist()):
        if inverse is None:
            fits[k] = FitFailureError("fit_decay: singular Jacobian at the optimum",
                                      diagnostics={"theta": row.tolist()})
            continue
        cov = cost / (n - 3) * inverse
        fits[k] = FitResult(
            amplitude=float(row[0]),
            t2=float(row[1]),
            offset=float(row[2]),
            covariance=cov,
            # + 0.0: a variance of -0.0 gives a CI of 0.0, not -0.0
            ci95=tuple(float(tval * math.sqrt(max(cov[d, d], 0.0) + 0.0)) for d in range(3)),
            residual_rms=math.sqrt(cost / n),
            iterations=found[k][1],
        )
    return fits


def _inverse(m: np.ndarray) -> np.ndarray | None:
    """The inverse of a matrix, None where it is singular."""
    try:
        return np.linalg.inv(m)
    except np.linalg.LinAlgError:
        return None
