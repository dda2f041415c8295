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
from .readout import (DecayCurve, FitResult, _echo_amplitudes, assemble_decay_curves, fit_decay,
                      lockstep, zeeman_table)
from .sequences import EchoConfig, dark_target, echo_layout, make_echo_sequence
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

    def __post_init__(self):
        if not self.t2_opt_ref > 0.0 or not self.temperature_ref > 0.0:
            raise ValidationError("TemperatureModel reference values must be > 0")

    def t2_opt(self, temperature: float) -> float:
        return self.t2_opt_ref * (self.temperature_ref / temperature) ** TEMPERATURE_EXPONENT

    def gamma_opt_deph(self, temperature: float) -> float:
        return 1.0 / self.t2_opt(temperature)


@dataclass(frozen=True)
class ScalingModel:
    """Constant-intensity anchor tying pulse duration to optical coherence time.

    The pi-pulse duration scales as sqrt(T2_opt) around the reference pair:
    T2 ~ 1/mu^2 and T_pi ~ 1/mu at fixed field amplitude.  The intensity
    budget (100 mW into a ~70 um spot) is what fixes the reference pair
    experimentally.
    """

    t_pi_ref: float = 100e-9
    t2_opt_ref: float = 100e-6

    def __post_init__(self):
        if not (self.t_pi_ref > 0.0 and self.t2_opt_ref > 0.0):
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

    The curves of all fields are one batched call, a field entering only
    through the Zeeman branches of its ensemble, and their fits one
    :func:`eitecho.readout.fit_decay` call; a failed fit leaves ``fit`` None.
    """
    model = model or FieldModel()
    fields = [float(b) for b in fields]
    splittings = [model.g_factor * abs(b) for b in fields]
    specs = [replace(spec, zeeman_branches=branches_for_splitting(s)) for s in splittings]
    curves = assemble_decay_curves(cfg, taus, params, specs, mode=mode,
                                   labels=[f"field {b:g} T" for b in fields])
    return [FieldSweepPoint(field=b, splitting=splitting, curve=curve,
                            fit=None if isinstance(fit, FitFailureError) else fit,
                            beat_minimum=first_minimum(curve.taus, curve.amplitudes))
            for b, splitting, curve, fit in zip(fields, splittings, curves, fit_decay(curves))]


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
    """Echo decay curve and fit per temperature with the optical dephasing rate rescaled.

    The curves of all temperatures are one batched call, each with its own
    parameters (:func:`eitecho.readout.assemble_decay_curves`), and their fits
    one :func:`eitecho.readout.fit_decay` call.  Amplitudes are the echo
    amplitude at the shortest requested storage time, normalized to the
    first scan point as listed.  The amplitude metric is the stored-coherence
    proxy by default: the phenomenon under test is the loss of dark-state
    initialization once optical dephasing outruns the init pulse, not the
    detection chain.
    """
    temperatures = [float(t) for t in temperatures]
    if any(t <= 0.0 for t in temperatures):
        raise ValidationError("temperature_scan: temperatures must be > 0")
    members = [params.replace(gamma_opt_deph=tm.gamma_opt_deph(t)) for t in temperatures]
    curves = assemble_decay_curves(cfg, taus, members, [spec] * len(temperatures), mode=mode,
                                   labels=[f"temperature {t:g} K" for t in temperatures])
    results = []
    reference = None
    for t, curve, fit in zip(temperatures, curves, fit_decay(curves)):
        fitted_t2, ci = (None, None) if isinstance(fit, FitFailureError) else (fit.t2, fit.ci95[1])
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
    for k, t2_opt in enumerate(t2_opt_values):
        t2_opt = float(t2_opt)
        if t2_opt <= 0.0:
            raise ValidationError("scaling_study: optical T2 values must be > 0")
        t_pi, member, seq = scaling_point(cfg, sm, params, t2_opt, tau_in_pulses)
        try:
            final = ensemble_final_state(seq, member, spec)
            ground = GroundQubitState(final.matrix[:2, :2])
        except ValidationError as exc:
            raise ValidationError(f"scaling point {k} (t2_opt {t2_opt:g} s): {exc}") from exc
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


INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def golden_steps(search_range: float, tol: float) -> int:
    """Golden-section steps that shrink a bracket 2 * search_range wide to tol / 4:
    ceil(log(2 * search_range / (tol / 4)) / log(1 / INVPHI)), taken as a sum of
    logarithms so that no product or quotient under- or overflows."""
    return max(0, math.ceil((math.log(8.0) + math.log(search_range) - math.log(tol))
                            / math.log(1.0 / INVPHI)))


def brent_min(lo: float, hi: float, xatol: float, maxfun: int):
    """Brent's bounded minimizer on [lo, hi] as a generator: it yields each trial
    point, is sent the value there, and returns the best (x, f).

    Golden-section steps with safeguarded parabolic steps (R. P. Brent,
    *Algorithms for Minimization without Derivatives* (1973), ch. 5), step for
    step the search of scipy's ``fminbound(f, lo, hi, xtol=xatol, maxfun=maxfun)``:
    it ends once the best point lies within 2 * (sqrt_eps * |x| + xatol / 3)
    of both ends of the bracket, or after `maxfun` values.
    """
    sqrt_eps, golden = math.sqrt(2.2e-16), 0.5 * (3.0 - math.sqrt(5.0))
    a, b = lo, hi
    x = w = v = a + golden * (b - a)      # best, second best, previous second best
    fx = yield x
    fw = fv = fx
    step = last = 0.0                     # the last two step lengths
    num = 1
    while True:
        xm, tol1 = 0.5 * (a + b), sqrt_eps * abs(x) + xatol / 3.0
        tol2 = 2.0 * tol1
        if not abs(x - xm) > tol2 - 0.5 * (b - a):
            return x, fx
        parabolic = False
        if abs(last) > tol1:
            r, q = (x - w) * (fx - fv), (x - v) * (fx - fw)
            p, q = (x - v) * q - (x - w) * r, 2.0 * (q - r)
            p, q = (-p if q > 0.0 else p), abs(q)
            r, last = last, step
            # the vertex of the parabola through (v, w, x), if it lies inside the
            # bracket and moves less than half the step before last
            parabolic = abs(p) < abs(0.5 * q * r) and q * (a - x) < p < q * (b - x)
            if parabolic:
                step = p / q
                if (x + step) - a < tol2 or b - (x + step) < tol2:
                    step = tol1 if xm - x >= 0.0 else -tol1
        if not parabolic:
            last = a - x if x >= xm else b - x
            step = golden * last
        u = x + (1.0 if step >= 0.0 else -1.0) * max(abs(step), tol1)
        fu = yield u
        num += 1
        if fu <= fx:
            a, b = (x, b) if u >= x else (a, x)
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            a, b = (u, b) if u < x else (a, u)
            if fu <= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu
        if num >= maxfun:
            return x, fx


def lockstep_brent(f, lo, hi, xatol: float, maxfun: int) -> tuple:
    """Best points and values of one :func:`brent_min` per component of [lo, hi].

    Each round sends the pending trial points of the unfinished components to
    one call ``f(components, points)``, which returns one value per point, so
    component i visits the points of the sequential search of f_i alone.
    """
    found = lockstep([brent_min(float(a), float(b), xatol, maxfun) for a, b in zip(lo, hi)], f)
    return tuple(np.array(column) for column in zip(*found))


def compensation_bracket_taus(m: FieldModel, cfg: EchoConfig,
                              search_range: float) -> np.ndarray:
    """Storage times on which the compensation search compares its trial points.

    They are short enough that the largest splitting reachable inside the
    search box keeps every point within the first beat lobe; there the summed
    amplitude is strictly monotone in the net field magnitude, |B + c|^2 is
    separable per axis, and each axis scan is exactly V-shaped around the
    true compensation value.  They are all inf where g_factor * reach is too
    small for its inverse to be a float.
    """
    tau_floor = 2.0 * cfg.t_init + cfg.t_rephase + cfg.t_readout + 1e-7
    reach = float(np.linalg.norm(m.net_field())) + 2.0 * search_range
    with np.errstate(divide="ignore", over="ignore"):
        tau_lobe = float(np.float64(1.4) / (math.pi * m.g_factor * reach)) - cfg.t_init
    tau_hi = max(tau_floor * 1.5, tau_lobe)
    if tau_hi == math.inf:
        return np.full(6, math.inf)
    return np.linspace(max(tau_floor, 0.5 * tau_hi), tau_hi, 6)


def compensation_search(m: FieldModel, cfg: EchoConfig, params: LambdaParams,
                        spec: EnsembleSpec, taus,
                        search_range: float = 100e-6, tol: float = 1e-6,
                        mode: str = "proxy") -> CompensationResult:
    """Three bounded Brent line searches, one per compensation axis, in lockstep.

    The search minimizes the beat modulation of the simulated decay curve
    (the summed echo amplitudes, which any residual splitting can only
    reduce); maximizing the raw fitted T2 is the same optimum but ill-posed
    on short curves, where the fit trades a slight cosine droop against the
    amplitude/offset degeneracy.  The splitting depends only on |B + c|, and
    |B + c|^2 = sum_i (B_i + c_i)^2 separates per axis, so axis i's optimum
    -B_i does not depend on the other components.  On the storage times of
    :func:`compensation_bracket_taus` the summed amplitude is strictly
    monotone in |B + c| over the search box, so one :func:`brent_min` per axis
    over c_i +/- search_range, the others held at the start vector, finds it,
    with ``xatol`` tol / 4 and tol raised to the four float spacings where a
    bracket stops shrinking.  An axis ends at its own convergence or after
    2 + :func:`golden_steps` values, the count a golden section needs for the
    same bracket.  Each round is one batched decay-curve call of the trial
    points of the unfinished axes (a compensation vector enters only through
    the Zeeman branches of the ensemble); the start vector, whose value no
    first trial point needs, joins the first round, and the found vector's
    two storage-time windows are one call.  An axis keeps its start unless
    its best trial scores above the start.

    Before the first round it builds each window's echo and table of waits
    (:func:`eitecho.sequences.echo_layout`), the joined call's the two tables
    stacked, and one :func:`eitecho.readout.zeeman_table` of every curve's
    maps from the bracket's echo over the box's Zeeman offsets,
    pi g |(|B_i + c_i| + search_range)_i|, so a round evaluates polynomials
    and builds no map; where the table would need more nodes than the search
    can evaluate curves, 1 + 3 (2 + golden_steps) + 2, each curve maps its
    members exactly.

    ``evaluations`` counts the curves computed: the start, one per trial
    point, and the found vector twice, on the bracketing storage times
    (``improved``, ``warning``) and on `taus` (the fitted T2, ``objective``).
    ``history`` lists (compensation, summed amplitude) of the start, of each
    axis's best trial (the start, if the axis kept it) and of the found vector.
    """
    if not (search_range > 0.0 and tol > 0.0):
        raise ValidationError("compensation_search: search_range and tol must be > 0")
    taus = np.asarray(list(taus), dtype=float)
    bracket_taus = compensation_bracket_taus(m, cfg, search_range)
    comp = np.asarray(m.compensation_vector, dtype=float)
    raised = max(tol, 4.0 * math.ulp(np.abs(comp).max() + search_range))
    maxfun = 2 + golden_steps(search_range, raised)
    reach = math.pi * m.g_factor * float(np.linalg.norm(np.abs(m.net_field()) + search_range))
    bracket = echo_layout(cfg, bracket_taus)
    joined = bracket[:2] + (np.concatenate([bracket[2], echo_layout(cfg, taus)[2]]),)
    table = zeeman_table(cfg, bracket, params, spec, mode, reach, 1 + 3 * maxfun + 2)
    evaluations = 0

    def curves(comps, layout: tuple, windows: list) -> list:
        """Amplitudes of the curve of each of `comps` on each window of `layout`, one call."""
        nonlocal evaluations
        evaluations += len(comps) * len(windows)
        specs = [replace(spec, zeeman_branches=branches_for_splitting(splitting_from_field(
            replace(m, compensation_vector=tuple(comp))))) for comp in comps]
        labels = [f"compensation ({', '.join(f'{c:g}' for c in comp)}) T" for comp in comps]
        amplitudes = _echo_amplitudes(cfg, np.concatenate(windows), layout, params, specs,
                                      mode, labels, table)
        bounds = np.cumsum([0] + [len(w) for w in windows])
        return [[np.ascontiguousarray(amplitudes[lo:hi, g]) for lo, hi in zip(bounds, bounds[1:])]
                for g in range(len(comps))]

    def modulation(comps) -> np.ndarray:
        return np.array([-float(np.sum(amps)) for amps, in curves(comps, bracket, [bracket_taus])])

    def trials(axes, x) -> np.ndarray:     # row k: the start vector, axis axes[k] at x[k]
        rows = np.repeat(comp[None], len(axes), axis=0)
        rows[np.arange(len(axes)), axes] = x
        return rows

    start = None

    def rounds(axes, x) -> np.ndarray:     # the first round evaluates the start too
        nonlocal start
        if start is not None:
            return modulation(trials(axes, x))
        values = modulation(np.vstack([comp, trials(axes, x)]))
        start = values[0]
        return values[1:]

    best, f_best = lockstep_brent(rounds, comp - search_range, comp + search_range,
                                  raised / 4.0, maxfun)
    keep = ~(f_best < start)
    best, f_best = np.where(keep, comp, best), np.where(keep, start, f_best)
    bracket_window, fit_window = curves([best], joined, [bracket_taus, taus])[0]
    end = -float(np.sum(bracket_window))
    warning = None
    if not end < start and float(np.linalg.norm(m.net_field())) > tol:
        warning = "search could not improve on the starting compensation"
    try:
        fitted_t2 = fit_decay(DecayCurve(taus=taus, amplitudes=fit_window)).t2
    except FitFailureError:
        fitted_t2 = float("nan")
        warning = warning or "decay fit failed at the found compensation"
    found = tuple(best.tolist())
    return CompensationResult(
        compensation=found,
        objective=fitted_t2,
        evaluations=evaluations,
        improved=bool(end < start),
        warning=warning,
        history=[(tuple(comp.tolist()), -float(start)),
                 *zip(map(tuple, trials([0, 1, 2], best).tolist()), (-f_best).tolist()),
                 (found, -float(end))],
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
