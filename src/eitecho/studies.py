"""The three headline studies as reproducible drivers, plus their scaling models.

* Field study: a net magnetic field splits the ground hyperfine levels by
  g * |B|; the state is distributed over the two Zeeman branches, which the
  echo swaps rather than refocuses, so the decay envelope beats as
  |cos(pi * splitting * tau)| with its first minimum at 1/(2 * splitting).
* Temperature study: optical dephasing scales as (T/T_ref)^7 (two-phonon
  broadening); the echo amplitude holds a plateau until the optical coherence
  time crosses the init pulse duration, the fitted spin T2 stays put.
* Scaling study: across systems, a pi pulse takes T_pi ~ sqrt(T2_opt) at fixed
  laser intensity; the end-of-sequence spin fidelity stays on a plateau for
  slow optical dephasing and degrades gracefully down to ~100 ps.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace

import numpy as np

from .dynamics import SequenceSpec
from .ensemble import EnsembleSpec, ensemble_final_state
from .errors import FitFailureError, ValidationError
from .lambda_system import LambdaParams
from .qstate import GroundQubitState, fidelity
from .readout import (DecayCurve, FitResult, assemble_decay_curve, assemble_decay_curves,
                      fit_decay)
from .sequences import EchoConfig, dark_target, make_echo_sequence
from .units import csv_text

TWO_PI = 2.0 * math.pi

# Strongest ground-state g-factor: 12 kHz per 100 uT.
DEFAULT_G_FACTOR_HZ_PER_T = 12e3 / 100e-6

TEMPERATURE_EXPONENT = 7


@dataclass(frozen=True)
class FieldModel:
    """Scalar field-to-splitting model along the dominant g-axis."""

    g_factor: float = DEFAULT_G_FACTOR_HZ_PER_T   # Hz per Tesla
    field_vector: tuple[float, float, float] = (0.0, 0.0, 0.0)       # Tesla
    compensation_vector: tuple[float, float, float] = (0.0, 0.0, 0.0)

    def __post_init__(self):
        if not self.g_factor > 0.0:
            raise ValidationError("FieldModel.g_factor must be > 0")

    def net_field(self) -> np.ndarray:
        return np.asarray(self.field_vector, dtype=float) + \
            np.asarray(self.compensation_vector, dtype=float)


@dataclass(frozen=True)
class TemperatureModel:
    """Optical coherence time versus temperature: T2_opt ~ T^-7."""

    t2_opt_ref: float
    temperature_ref: float
    exponent: int = TEMPERATURE_EXPONENT

    def __post_init__(self):
        if not self.t2_opt_ref > 0.0 or not self.temperature_ref > 0.0:
            raise ValidationError("TemperatureModel reference values must be > 0")

    def t2_opt(self, temperature: float) -> float:
        return self.t2_opt_ref * (self.temperature_ref / temperature) ** self.exponent

    def gamma_opt_deph(self, temperature: float) -> float:
        return 1.0 / self.t2_opt(temperature)


@dataclass(frozen=True)
class ScalingModel:
    """Constant-intensity anchor tying pulse duration to optical coherence time.

    The pi-pulse duration scales as sqrt(T2_opt) around the reference pair:
    T2 ~ 1/mu^2 and T_pi ~ 1/mu at fixed field amplitude.  The intensity
    budget (100 mW into a ~70 um spot by default) is what fixes the reference
    pair experimentally; it is carried for the run manifest.
    """

    t_pi_ref: float = 100e-9
    t2_opt_ref: float = 100e-6
    intensity_budget: float = 0.1 / (math.pi * (35e-6) ** 2)   # W / m^2

    def __post_init__(self):
        if not (self.t_pi_ref > 0.0 and self.t2_opt_ref > 0.0 and self.intensity_budget > 0.0):
            raise ValidationError("ScalingModel fields must be > 0")

    def pulse_duration(self, t2_opt: float) -> float:
        return self.t_pi_ref * math.sqrt(t2_opt / self.t2_opt_ref)


def splitting_from_field(m: FieldModel) -> float:
    """Ground hyperfine Zeeman splitting (Hz) from the net field magnitude."""
    return m.g_factor * float(np.linalg.norm(m.net_field()))


def branches_for_splitting(splitting_hz: float) -> tuple:
    """Two equally weighted spin-detuning branches at +/- half the splitting."""
    if splitting_hz == 0.0:
        return ()
    return ((-0.5 * splitting_hz, 0.5), (+0.5 * splitting_hz, 0.5))


def first_minimum(taus: np.ndarray, amplitudes: np.ndarray) -> float | None:
    """Storage time of the first interior amplitude minimum, parabola-refined."""
    for i in range(1, taus.size - 1):
        if amplitudes[i] <= amplitudes[i - 1] and amplitudes[i] < amplitudes[i + 1]:
            t0, t1, t2 = taus[i - 1:i + 2]
            y0, y1, y2 = amplitudes[i - 1:i + 2]
            denom = (t0 - t1) * (t0 - t2) * (t1 - t2)
            a = (t2 * (y1 - y0) + t1 * (y0 - y2) + t0 * (y2 - y1)) / denom
            b = (t2 * t2 * (y0 - y1) + t1 * t1 * (y2 - y0) + t0 * t0 * (y1 - y2)) / denom
            if a > 0.0:
                t_min = -b / (2.0 * a)
                if t0 <= t_min <= t2:
                    return float(t_min)
            return float(t1)
    return None


@dataclass(frozen=True)
class FieldSweepPoint:
    field: float
    splitting: float
    curve: DecayCurve
    fit: FitResult | None
    beat_minimum: float | None


def field_sweep(fields, cfg: EchoConfig, params: LambdaParams,
                spec: EnsembleSpec, taus, model: FieldModel | None = None,
                mode: str = "proxy") -> list[FieldSweepPoint]:
    """Echo decay curve, fit, and beat-minimum time for each vertical field value.

    The curves of all fields are one batched call: a field enters only
    through the Zeeman branches of its ensemble.
    """
    model = model or FieldModel()
    fields = [float(b) for b in fields]
    splittings = [model.g_factor * abs(b) for b in fields]
    specs = [replace(spec, zeeman_branches=branches_for_splitting(s)) for s in splittings]
    curves = assemble_decay_curves(cfg, taus, params, specs, mode=mode,
                                   labels=[f"field {b:g} T" for b in fields])
    points = []
    for b, splitting, curve in zip(fields, splittings, curves):
        try:
            fit = fit_decay(curve)
        except FitFailureError:
            fit = None
        points.append(FieldSweepPoint(
            field=b, splitting=splitting, curve=curve, fit=fit,
            beat_minimum=first_minimum(curve.taus, curve.amplitudes)))
    return points


@dataclass(frozen=True)
class TemperaturePoint:
    temperature: float
    t2_opt: float
    fitted_t2: float | None
    t2_ci95: float | None
    amplitude: float         # relative to the first scan point


def temperature_scan(temperatures, tm: TemperatureModel, cfg: EchoConfig,
                     params: LambdaParams, spec: EnsembleSpec, taus,
                     mode: str = "proxy") -> list[TemperaturePoint]:
    """Echo pipeline per temperature with the optical dephasing rate rescaled.

    Amplitudes are the echo amplitude at the shortest requested storage time,
    normalized to the first (coldest) scan point.  The amplitude metric is the
    stored-coherence proxy by default: the phenomenon under test is the loss
    of dark-state initialization once optical dephasing outruns the init
    pulse, not the detection chain.
    """
    temperatures = [float(t) for t in temperatures]
    if any(t <= 0.0 for t in temperatures):
        raise ValidationError("temperature_scan: temperatures must be > 0")
    taus = np.asarray(list(taus), dtype=float)
    results = []
    reference = None
    for t in temperatures:
        member = params.replace(gamma_opt_deph=tm.gamma_opt_deph(t))
        curve = assemble_decay_curve(cfg, taus, member, spec, mode=mode)
        try:
            fit = fit_decay(curve)
            fitted_t2, ci = fit.t2, fit.ci95[1]
        except FitFailureError:
            fitted_t2, ci = None, None
        amp = curve.amplitudes[0]
        if reference is None:
            reference = amp if amp > 0.0 else 1.0
        results.append(TemperaturePoint(
            temperature=t, t2_opt=tm.t2_opt(t), fitted_t2=fitted_t2,
            t2_ci95=ci, amplitude=float(amp / reference)))
    return results


@dataclass(frozen=True)
class ScalingPoint:
    t2_opt: float
    t_pi: float
    end_fidelity: float
    coherence: float          # |<coh01>| of the pre-readout ground state


def scaling_echo(cfg: EchoConfig, t_pi: float, tau_in_pulses: float) -> EchoConfig:
    """`cfg` at one scaling point: constant intensity means one Rabi amplitude
    per system, so the 2*pi rephasing pulse runs twice as long as the pi-area
    init pulse, and the storage time is tau_in_pulses init-pulse durations."""
    return replace(cfg, tau=tau_in_pulses * t_pi, t_init=t_pi, t_rephase=2.0 * t_pi,
                   t_readout=t_pi)


def scaling_point(cfg: EchoConfig, sm: ScalingModel, params: LambdaParams, t2_opt: float,
                  tau_in_pulses: float) -> tuple[float, LambdaParams, SequenceSpec]:
    """Pi-pulse duration, parameters and pre-readout echo of the scaling point
    at optical coherence time `t2_opt`."""
    t_pi = sm.pulse_duration(t2_opt)
    seq = make_echo_sequence(scaling_echo(cfg, t_pi, tau_in_pulses), include_readout=False)
    return t_pi, params.replace(gamma_opt_deph=1.0 / t2_opt), seq


def scaling_study(t2_opt_values, sm: ScalingModel, cfg: EchoConfig,
                  params: LambdaParams, spec: EnsembleSpec,
                  tau_in_pulses: float = 8.0) -> list[ScalingPoint]:
    """End-of-sequence spin fidelity versus the optical coherence time.

    For each optical T2 the pulse durations follow the constant-intensity
    square-root law and the storage time is scaled with them (tau_in_pulses
    init-pulse durations), so every point runs the same sequence shape.  The
    fidelity compares the pre-readout ground block against the ideal dark
    target, with missing population counted as mixed.
    """
    dark = dark_target(cfg)
    points = []
    for t2_opt in t2_opt_values:
        t2_opt = float(t2_opt)
        if t2_opt <= 0.0:
            raise ValidationError("scaling_study: optical T2 values must be > 0")
        t_pi, member, seq = scaling_point(cfg, sm, params, t2_opt, tau_in_pulses)
        final = ensemble_final_state(seq, member, spec)
        ground = GroundQubitState(final.matrix[:2, :2])
        points.append(ScalingPoint(
            t2_opt=t2_opt,
            t_pi=t_pi,
            end_fidelity=fidelity(ground, dark),
            coherence=abs(complex(final.matrix[0, 1])),
        ))
    return points


@dataclass
class CompensationResult:
    compensation: tuple[float, float, float]
    objective: float
    evaluations: int
    improved: bool
    warning: str | None
    history: list


# Golden-section steps whose trial points one batched call computes ahead.  Depth
# 2 halves the refinement's calls but computes one point in three that the
# search then does not use, so it pays only while a curve costs less than a
# call's fixed overhead (about 0.5 ms).  Per two steps, one call of 3 curves
# against two of 1 took 0.75x the time at 2 stacked members per curve (one grid
# point, two Zeeman branches), about 1x at 6 and 1.3-1.7x from 18 on, so larger
# ensembles search one step per call.  The gate is a matter of speed only: a
# curve's bits do not depend on the curves batched with it.
LOOKAHEAD = 2
LOOKAHEAD_MAX_MEMBERS = 2
INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def _golden_step(a: float, b: float, c: float, d: float, left: bool) -> tuple:
    """One golden-section step: the new bracket (a, b, c, d) and the point it asks for.

    `left` is the comparison f(c) <= f(d): the minimum lies in [a, d].
    """
    if left:
        b, d = d, c
        c = b - INVPHI * (b - a)
        return a, b, c, d, c
    a, c = c, d
    d = a + INVPHI * (b - a)
    return a, b, c, d, d


def _ahead(a: float, b: float, c: float, d: float, left: bool, depth: int,
           tol: float) -> list[float]:
    """Every point the next `depth` steps can ask for, given the next comparison."""
    if depth == 0 or not (b - a) > tol:
        return []
    a, b, c, d, x = _golden_step(a, b, c, d, left)
    return [x] + _ahead(a, b, c, d, True, depth - 1, tol) + \
        _ahead(a, b, c, d, False, depth - 1, tol)


def _golden_min(f, lo: float, hi: float, tol: float, prefetch,
                depth: int) -> tuple[float, float]:
    """Golden-section minimum of a unimodal scalar function on [lo, hi].

    The next trial point follows from the last comparison, and each later one
    from one more comparison, so the `depth` steps ahead can ask for at most
    2**depth - 1 points.  `prefetch` receives them in one list before `f` is
    asked for the first; a batched objective computes them in one call and
    `f` then reads its memo.  The points and comparisons, hence the result
    and the calls of `f`, are those of the sequential search, which depth 1
    is: one point per batch.
    """
    a, b = lo, hi
    c = b - INVPHI * (b - a)
    d = a + INVPHI * (b - a)
    for batch in ([c, d],) if depth > 1 else ([c], [d]):
        prefetch(batch)
    fc, fd = f(c), f(d)
    step = 0
    while (b - a) > tol:
        left = fc <= fd
        if step % depth == 0:
            prefetch(_ahead(a, b, c, d, left, depth, tol))
        a, b, c, d, x = _golden_step(a, b, c, d, left)
        if left:
            fc, fd = f(x), fc
        else:
            fc, fd = fd, f(x)
        step += 1
    return (c, fc) if fc <= fd else (d, fd)


def compensation_bracket_taus(m: FieldModel, cfg: EchoConfig,
                              search_range: float) -> np.ndarray:
    """Storage times of the compensation search's bracketing stage.

    They are short enough that the largest splitting reachable inside the
    search box keeps every point within the first beat lobe; there the summed
    amplitude is strictly monotone in the net field magnitude, |B + c|^2 is
    separable per axis, and each axis scan is exactly V-shaped around the
    true compensation value.
    """
    tau_floor = 2.0 * cfg.t_init + cfg.t_rephase + cfg.t_readout + 1e-7
    reach = float(np.linalg.norm(m.net_field())) + 2.0 * search_range
    tau_lobe = 1.4 / (math.pi * m.g_factor * reach) - cfg.t_init
    tau_hi = max(tau_floor * 1.5, tau_lobe)
    return np.linspace(max(tau_floor, 0.5 * tau_hi), tau_hi, 6)


def compensation_search(m: FieldModel, cfg: EchoConfig, params: LambdaParams,
                        spec: EnsembleSpec, taus,
                        search_range: float = 100e-6, tol: float = 1e-6,
                        mode: str = "proxy") -> CompensationResult:
    """Coordinate descent on the three compensation components.

    The search minimizes the beat modulation of the simulated decay curve
    (the summed echo amplitudes, which any residual splitting can only
    reduce); maximizing the raw fitted T2 is the same optimum but ill-posed
    on short curves, where the fit trades a slight cosine droop against the
    amplitude/offset degeneracy.  Each axis is bracketed with a coarse scan
    and refined by golden section to below the requested tolerance; two
    passes over the axes in a fixed order keep the search deterministic.
    The reported objective is the fitted T2 at the found compensation.
    A coarse scan is one batched decay-curve call over its grid points (a
    compensation vector enters only through the Zeeman branches of the
    ensemble).  The golden-section refinement makes one batched call per
    LOOKAHEAD steps on ensembles of at most LOOKAHEAD_MAX_MEMBERS stacked
    members per curve, and one per step on larger ones, over every point
    those steps can ask for (see :func:`_golden_min`); either way it visits
    the points of the sequential search.
    Curves are kept by the exact bytes of (compensation, storage times) and
    computed once, which also serves each axis's coarse scan revisiting the
    current point; ``evaluations`` counts the objective calls of the
    sequential search, not the curves computed ahead.
    """
    # a zero tolerance would never end the golden section
    if not (search_range > 0.0 and tol > 0.0):
        raise ValidationError("compensation_search: search_range and tol must be > 0")
    taus = np.asarray(list(taus), dtype=float)
    # a curve stacks one member per grid point and Zeeman branch
    members = spec.n_optical * spec.n_spin * 2
    depth = LOOKAHEAD if members <= LOOKAHEAD_MAX_MEMBERS else 1

    evaluations = 0
    curves: dict = {}

    def curves_for(comps: list, window: np.ndarray) -> list[DecayCurve]:
        keys = [(comp.tobytes(), window.tobytes()) for comp in comps]
        todo = {key: comp for key, comp in zip(keys, comps) if key not in curves}
        if todo:
            specs = [replace(spec, zeeman_branches=branches_for_splitting(splitting_from_field(
                replace(m, compensation_vector=tuple(comp))))) for comp in todo.values()]
            labels = [f"compensation ({', '.join(f'{c:g}' for c in comp)}) T"
                      for comp in todo.values()]
            curves.update(zip(todo, assemble_decay_curves(cfg, window, params, specs,
                                                          mode=mode, labels=labels)))
        return [curves[key] for key in keys]

    def modulation(comps: list, window: np.ndarray) -> list[float]:
        nonlocal evaluations
        evaluations += len(comps)
        return [-float(np.sum(curve.amplitudes)) for curve in curves_for(comps, window)]

    bracket_taus = compensation_bracket_taus(m, cfg, search_range)
    comp = np.asarray(m.compensation_vector, dtype=float).copy()
    start = modulation([comp], bracket_taus)[0]
    history = [(tuple(comp), -start)]

    def descend(window: np.ndarray, half_range: float, passes: int) -> None:
        for _ in range(passes):
            for axis in range(3):
                center = comp[axis]

                def trial(c: float) -> np.ndarray:
                    moved = comp.copy()
                    moved[axis] = c
                    return moved

                grid = np.linspace(center - half_range, center + half_range, 13)
                values = modulation([trial(c) for c in grid], window)
                k = int(np.argmin(values))
                lo = grid[max(k - 1, 0)]
                hi = grid[min(k + 1, grid.size - 1)]
                c_best, f_best = _golden_min(
                    lambda c: modulation([trial(c)], window)[0], lo, hi, tol=0.25 * tol,
                    prefetch=lambda cs: curves_for([trial(c) for c in cs], window),
                    depth=depth)
                if values[k] < f_best:
                    # the coarse point sat exactly on the optimum
                    c_best, f_best = grid[k], values[k]
                comp[axis] = c_best
                history.append((tuple(comp), -f_best))

    descend(bracket_taus, search_range, passes=2)
    # polish each axis on the caller's (longer) storage times; the residual
    # field is now small enough that these also stay within the first lobe
    descend(taus, max(5.0 * tol, 3e-6), passes=1)

    end = modulation([comp], bracket_taus)[0]
    warning = None
    if not end < start and float(np.linalg.norm(m.net_field())) > tol:
        warning = "search could not improve on the starting compensation"
    try:
        fitted_t2 = fit_decay(curves_for([comp], taus)[0]).t2
    except FitFailureError:
        fitted_t2 = float("nan")
        warning = warning or "decay fit failed at the found compensation"
    return CompensationResult(
        compensation=tuple(float(c) for c in comp),
        objective=fitted_t2,
        evaluations=evaluations,
        improved=end < start,
        warning=warning,
        history=history,
    )


def field_sweep_csv(points: list[FieldSweepPoint]) -> str:
    return csv_text("field_t,tau_s,amplitude",
                    ((p.field, t, a) for p in points
                     for t, a in zip(p.curve.taus, p.curve.amplitudes)))


def field_fits_csv(points: list[FieldSweepPoint]) -> str:
    rows = []
    for p in points:
        fit = (p.fit.amplitude, p.fit.t2, p.fit.offset, p.fit.ci95[1]) if p.fit else [None] * 4
        rows.append((p.field, p.splitting, *fit, p.beat_minimum))
    return csv_text(
        "field_t,splitting_hz,fit_amplitude,fit_t2_s,fit_offset,t2_ci95_s,beat_minimum_s", rows)


def temperature_scan_csv(points: list[TemperaturePoint]) -> str:
    return csv_text("temperature_k,t2_opt_s,fitted_t2_s,t2_ci95_s,relative_amplitude",
                    ((p.temperature, p.t2_opt, p.fitted_t2, p.t2_ci95, p.amplitude)
                     for p in points))


def scaling_csv(points: list[ScalingPoint]) -> str:
    return csv_text("t2_opt_s,t_pi_s,end_fidelity,coherence",
                    ((p.t2_opt, p.t_pi, p.end_fidelity, p.coherence) for p in points))


def compensation_json(result: CompensationResult) -> str:
    return json.dumps({
        "compensation_t": list(result.compensation),
        "objective_t2_s": result.objective,
        "evaluations": result.evaluations,
        "improved": result.improved,
        "warning": result.warning,
        "history": [{"compensation_t": list(c), "summed_amplitude": a}
                    for c, a in result.history],
    }, sort_keys=True)
