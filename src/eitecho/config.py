"""Structured run configuration: one table of keys, validation, and defaults.

Configs are YAML trees whose dimensioned leaves carry explicit unit suffixes
("tau: 60us", "optical_fwhm: 170kHz", "ambient_field: [20uT, -10uT, 45uT]").
Each key is one row of KEYS.  Validation reports every problem at once, with
the dotted path of the offending key; unknown keys are errors.  Detunings,
Rabi amplitudes and widths are written as ordinary frequencies (Hz) and
converted to angular units where the physics needs them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

import numpy as np
import yaml

from .ensemble import EnsembleSpec, alias_free_size
from .errors import ConfigurationError, ValidationError
from .lambda_system import LambdaParams
from .readout import FIT_MIN_POINTS, MIN_PERIODS, window_periods
from .sequences import EchoConfig, make_readout_pulse
from .studies import (CURVES_PER_CALL, FieldModel, ScalingModel, TemperatureModel,
                      compensation_bracket_taus, scaling_echo)
from .units import parse_quantity, parse_ratio

TWO_PI = 2.0 * math.pi
# Physical ranges of the keys that enter a pulse map's 1-norm.  Pulses last
# at most 1 s; rates, detunings, widths and Zeeman splittings stay within
# 1e15 Hz, so each term of a map's norm stays below ~1e16, and the default
# readout drive, the init pulse's over the readout pulse, below
# 1000 pi / 1e-15: every map of a run keeps a 1-norm below ~3.2e18, under
# the theta_13 * 2^64 ~ 9.9e19 that dynamics._expm can scale.
LIFETIME = ">= 1e-15s"
DURATION = ">= 1e-15s, <= 1s"
FREQUENCY = ">= 0, <= 1e15Hz"
DETUNING = ">= -1e15Hz, <= 1e15Hz"
FIELD = ">= -1kT, <= 1kT"
# the upper ends of FREQUENCY and DURATION, for the values derived from keys
MAX_RATE, MAX_DURATION = 1e15, 1.0
# values of a study axis: 1024 fields take ~0.4 s and ~90 MB of one member's sweep
MAX_AXIS = 1024
# The traced peak of a pass per stacked member, in 9x9 complex maps of 1296 B,
# and the bound on it.  tracemalloc peaks of the default config's passes on
# 5 x 3, 9 x 5 and 21 x 11 grids: the field sweep takes 17.5 kB per member
# (13.5 maps; 162 MB at 21 x 11), compensate 23.7-24.7 kB (18.3-19 maps; 44 MB
# at 21 x 11, 3.0 MB at 5 x 3); 20 maps cover both.
MEMBER_BYTES, MAX_STACK_BYTES = 1296 * 20, 2 ** 30


@dataclass(frozen=True)
class FieldSweepConfig:
    fields: np.ndarray
    taus: np.ndarray


@dataclass(frozen=True)
class TempScanConfig:
    temperatures: np.ndarray
    taus: np.ndarray
    model: TemperatureModel


@dataclass(frozen=True)
class ScalingConfig:
    t2_opt_values: np.ndarray
    tau_in_pulses: float
    model: ScalingModel


@dataclass(frozen=True)
class CompensationConfig:
    model: FieldModel             # the ambient field as its field_vector
    search_range: float
    tolerance: float
    taus: np.ndarray


@dataclass(frozen=True)
class RunConfig:
    physics: LambdaParams
    ensemble: EnsembleSpec
    sequence: EchoConfig
    readout_mode: str
    field_model: FieldModel
    field_sweep: FieldSweepConfig
    temp_scan: TempScanConfig
    scaling: ScalingConfig
    compensation: CompensationConfig
    output_dir: str
    seed: int
    threads: int
    noise_rms: float


REQUIRED = object()


@dataclass(frozen=True)
class Key:
    """One config key at its dotted path: ``kind`` is a dimension of
    :func:`parse_quantity`, a ratio ("frequency/field"), "int", "bool", "str",
    a tuple of choices, "<dimension> axis" (a list or {min, max, n[, log]}
    range) or "list" (parsed by its section's code).  ``bound`` is the range
    of every value, of each field or offset of a list: clauses "> 0", ">= 1",
    "<= 1e15Hz", joined by ", ", each limit a bare number or a value of the
    key's kind.  An absent or invalid key takes ``default``:
    None leaves it to the dataclass's own, REQUIRED makes the key required.
    The value, times ``scale``, fills ``field``, the key's own name unless stated."""

    path: str
    kind: str | tuple
    bound: str | None = None
    note: str = ""
    default: object = None
    scale: float | None = None
    field: str | None = None

    @property
    def section(self) -> str:
        return self.path.rpartition(".")[0]

    @property
    def name(self) -> str:
        return self.path.rpartition(".")[2]


TAUS = f"storage times: >= {FIT_MIN_POINTS}, increasing, each a valid sequence.tau"
# geometric temperature and optical-T2 ladders: a T^7 broadening law spans
# decades of optical linewidth, so log spacing keeps every decade represented
KEYS = (
    Key("physics.t1_opt", "time", LIFETIME, "excited-state lifetime; omit for a closed system"),
    Key("physics.t2_opt", "time", LIFETIME, "optical coherence time, at most 2 * t1_opt"),
    Key("physics.t2_spin", "time", LIFETIME, "nuclear spin coherence time"),
    Key("physics.branch0", "dimensionless", None, "share of |e> decay into |0>, in [0, 1]"),
    Key("physics.excitation_spin_deph", "frequency", FREQUENCY, "spin dephasing rate added", 0.0),
    Key("physics.delta_opt", "frequency", DETUNING, "one-photon detuning", scale=TWO_PI),
    Key("physics.delta_spin", "frequency", DETUNING, "two-photon detuning", scale=TWO_PI),
    Key("ensemble.optical_fwhm", "frequency", FREQUENCY, "Gaussian optical width"),
    Key("ensemble.spin_fwhm", "frequency", FREQUENCY,
        "Gaussian spin width; required if n_spin > 1"),
    Key("ensemble.n_optical", "int", ">= 1, <= 255",
        "odd optical grid size; 1 = resonant member only"),
    Key("ensemble.n_spin", "int", ">= 1, <= 255", "odd spin grid size"),
    Key("ensemble.zeeman_branches", "list", DETUNING,
        "[{offset, weight}, ...], weights sum to 1"),
    Key("sequence.tau", "time", None, "storage time: the readout pulse starts here", REQUIRED),
    Key("sequence.t_init", "time", DURATION, "init pulse duration"),
    Key("sequence.t_rephase", "time", DURATION, "rephasing pulse duration"),
    Key("sequence.t_readout", "time", DURATION, "readout pulse duration"),
    Key("sequence.readout_rabi", "frequency", FREQUENCY, "default: the init pulse's",
        scale=TWO_PI),
    Key("sequence.splitting", "frequency", "> 0", "hyperfine splitting = beat frequency"),
    Key("sequence.init_phase_offset", "angle", None, "relative phase of the init pulse"),
    Key("sequence.init_area_pi", "dimensionless", "> 0, <= 1000", "init pulse area / pi",
        scale=math.pi, field="init_area"),
    Key("sequence.rephase_area_pi", "dimensionless", "> 0, <= 1000", "rephasing pulse area / pi",
        scale=math.pi, field="rephase_area"),
    Key("sequence.calibration", ("bright", "bare"), None, "coupling the pulse areas refer to"),
    Key("readout.mode", ("beat", "proxy"), None, "used by field-sweep and compensate only",
        "beat", field="readout_mode"),
    Key("field_model.g_factor", "frequency/field", "> 0, <= 1e12Hz/1T",
        'g-factor, e.g. "12kHz/100uT"'),
    Key("studies.field_sweep.fields", "field axis", FIELD, "vertical fields",
        np.linspace(0.0, 95e-6, 20)),
    Key("studies.field_sweep.taus", "time axis", None, TAUS, np.linspace(10e-6, 150e-6, 30)),
    Key("studies.temp_scan.temperatures", "temperature axis", "> 0", "scan temperatures",
        np.geomspace(2.0, 7.68, 5)),
    Key("studies.temp_scan.taus", "time axis", None, TAUS, np.linspace(20e-6, 180e-6, 5)),
    Key("studies.temp_scan.t2_opt_ref", "time", "> 0", "optical T2 at temperature_ref", 100e-6),
    Key("studies.temp_scan.temperature_ref", "temperature", "> 0", "reference temperature", 2.0),
    Key("studies.scaling.t2_opt", "time axis", LIFETIME, "optical coherence times",
        np.geomspace(100e-12, 10e-6, 13), field="t2_opt_values"),
    Key("studies.scaling.t_pi_ref", "time", DURATION, "pi-pulse duration at t2_opt_ref"),
    Key("studies.scaling.t2_opt_ref", "time", "> 0", "reference optical coherence time"),
    # the echo spans 4 init-pulse durations: init, a 2-long rephase, readout
    Key("studies.scaling.tau_in_pulses", "dimensionless", "> 4", "storage time / t_pi", 8.0),
    Key("studies.compensation.ambient_field", "list", FIELD, "[x, y, z] fields to compensate",
        ["0uT", "0uT", "50uT"]),
    Key("studies.compensation.search_range", "field", "> 0, <= 1kT", "search half-width", 100e-6),
    Key("studies.compensation.tolerance", "field", "> 0", "field resolution", 1e-6),
    Key("studies.compensation.taus", "time axis", None, TAUS, np.linspace(15e-6, 120e-6, 6)),
    Key("output.directory", "str", None, "output directory", "out", field="output_dir"),
    Key("output.seed", "int", ">= 0", "seed for simulated measurement noise", 12345),
    Key("output.threads", "int", ">= 1", "recorded in the manifest; changes no result", 1),
    Key("output.noise_rms", "dimensionless", ">= 0", "qst projection noise", 0.0),
)
_KEY_OF = {(k.section, k.field or k.name): k.name for k in KEYS}
_TYPES = {"int": (int, "an integer"), "bool": (bool, "true or false"), "str": (str, "a string")}
_MISSING = object()


def _lookup(tree, path: str):
    for part in path.split("."):
        if not isinstance(tree, dict) or part not in tree:
            return _MISSING
        tree = tree[part]
    return tree


def _check_keys(tree: dict, keys, errors: list, prefix: str = "", path: str = "") -> None:
    """Flags each key below `path` that `keys` does not name, and each section
    that is not a mapping."""
    for name, value in tree.items():
        full = f"{path}.{name}" if path else str(name)
        if any(k.path == full for k in keys):
            continue
        if not any(k.path.startswith(full + ".") for k in keys):
            errors.append(f"unknown key {prefix}{full}")
        elif isinstance(value, dict):
            _check_keys(value, keys, errors, prefix, full)
        elif value is not None:
            errors.append(f"{prefix}{full}: expected a mapping")


def _read(tree: dict, keys, errors: list, prefix: str = "") -> tuple[dict, set]:
    """Each section's values by the field each key fills, and the paths of the
    keys that are missing or invalid."""
    values, bad = {k.section: {} for k in keys}, set()
    for k in keys:
        raw, value = _lookup(tree, k.path), None
        if raw is not _MISSING:
            value = _value(raw, k.kind, k.bound, prefix + k.path, errors)
            if value is None:
                bad.add(k.path)
            elif k.scale is not None:
                value = value * k.scale
        elif k.default is REQUIRED:
            errors.append(f"missing required key {prefix}{k.path}")
            bad.add(k.path)
        if value is None and k.default is not REQUIRED:
            value = k.default.copy() if isinstance(k.default, np.ndarray) else k.default
        if value is not None:
            values[k.section][k.field or k.name] = value
    return values, bad


def _value(raw, kind, bound: str | None, path: str, errors: list):
    """One value of the given kind within `bound`, or None after recording why not."""
    if isinstance(kind, str) and kind.endswith(" axis"):
        return _axis(raw, kind.split()[0], bound, path, errors)
    try:
        if isinstance(kind, tuple):
            if raw not in kind:
                raise ValueError(f"expected one of {sorted(kind)}, got {raw!r}")
        elif kind in _TYPES:
            if type(raw) is not _TYPES[kind][0]:
                raise ValueError(f"expected {_TYPES[kind][1]}, got {raw!r}")
        elif "/" in kind:
            raw = parse_ratio(raw, *kind.split("/"))
        elif kind != "list":
            raw = parse_quantity(raw, kind)
    except ValueError as exc:
        errors.append(f"{path}: {exc}")
        return None
    # a list's bound is of each of its values, which its section's code reads
    return raw if kind == "list" or _within(raw, kind, bound, path, errors) else None


def _within(value, kind: str, bound: str | None, path: str, errors: list) -> bool:
    """Whether `value` keeps every clause of `bound` (see :class:`Key`), its
    limits read as values of `kind`; else records the first clause it breaks."""
    for clause in bound.split(", ") if bound else ():
        op, limit = clause.split()
        if not limit[-1].isalpha():
            limit = float(limit)
        else:
            limit = parse_ratio(limit, *kind.split("/")) if "/" in kind else \
                parse_quantity(limit, kind)
        if not {">": value > limit, ">=": value >= limit, "<=": value <= limit}[op]:
            errors.append(f"{path}: must be {clause}")
            return False
    return True


def _axis(spec, dimension: str, bound: str | None, path: str, errors: list):
    """A list or a {min, max, n[, log]} range of at most MAX_AXIS values, each within `bound`."""
    if isinstance(spec, list):
        if len(spec) > MAX_AXIS:
            errors.append(f"{path}: must have <= {MAX_AXIS} values, got {len(spec)}")
            return None
        values = [_value(item, dimension, bound, f"{path}[{i}]", errors)
                  for i, item in enumerate(spec)]
        return None if None in values else np.array(values)
    if not isinstance(spec, dict):
        errors.append(f"{path}: expected a list or a min/max/n mapping")
        return None
    keys = (Key("min", dimension, default=REQUIRED), Key("max", dimension, default=REQUIRED),
            Key("n", "int", f">= 1, <= {MAX_AXIS}", default=10), Key("log", "bool", default=False))
    _check_keys(spec, keys, errors, f"{path}.")
    values, bad = _read(spec, keys, errors, f"{path}.")
    if bad:
        return None
    r = values[""]
    if r["log"] and not r["min"] * r["max"] > 0.0:
        errors.append(f"{path}: a log range needs min and max nonzero "
                      f"and of one sign, got {r['min']:g} and {r['max']:g}")
        return None
    # the ends bound every value between them
    if not all(_within(r[end], dimension, bound, f"{path}.{end}", errors)
               for end in ("min", "max")):
        return None
    return (np.geomspace if r["log"] else np.linspace)(r["min"], r["max"], r["n"])


def _build(cls, section: str, values: dict, errors: list):
    """`cls` from the section's values that are its fields, or None; a problem
    that names a field of `cls` is reported under the key that fills it."""
    names = {f.name for f in fields(cls)}
    try:
        return cls(**{name: v for name, v in values.items() if name in names})
    except (ConfigurationError, ValidationError) as exc:
        for problem in exc.problems:
            head, _, rest = problem.partition(" ")
            owner, _, name = head.partition(".")
            key = _KEY_OF.get((section, name)) if owner == cls.__name__ else None
            errors.append(f"{section}.{key} {rest}" if key else f"{section}: {problem}")
        return None


def _physics(p: dict, errors: list) -> LambdaParams | None:
    """LambdaParams from the physics keys: each lifetime sets the rate it names,
    and an absent lifetime is infinite."""
    gamma_decay = 1.0 / p.get("t1_opt", math.inf)
    rates = {"gamma_opt_decay": gamma_decay,
             "gamma_spin_deph": 1.0 / p.get("t2_spin", math.inf) + p["excitation_spin_deph"]}
    if "t2_opt" in p:
        if 1.0 / p["t2_opt"] < 0.5 * gamma_decay - 1e-12:
            errors.append("physics.t2_opt: exceeds the 2*T1 limit set by physics.t1_opt")
        else:
            rates["gamma_opt_deph"] = max(1.0 / p["t2_opt"] - 0.5 * gamma_decay, 0.0)
    return _build(LambdaParams, "physics", {**p, **rates}, errors)


def _branches(raw, errors: list) -> tuple:
    path = "ensemble.zeeman_branches"
    if not (isinstance(raw, list)
            and all(isinstance(b, dict) and set(b) == {"offset", "weight"} for b in raw)):
        errors.append(f"{path}: expected a list of {{offset, weight}} mappings")
        return ()
    pairs = tuple((_value(b["offset"], "frequency", DETUNING, f"{path}[{i}].offset", errors),
                   _value(b["weight"], "dimensionless", None, f"{path}[{i}].weight", errors))
                  for i, b in enumerate(raw))
    return () if any(None in pair for pair in pairs) else pairs


def _ambient(raw, errors: list) -> tuple | None:
    path = "studies.compensation.ambient_field"
    if not (isinstance(raw, list) and len(raw) == 3):
        errors.append(f"{path}: expected a list of 3 fields")
        return None
    values = tuple(_value(v, "field", FIELD, f"{path}[{i}]", errors) for i, v in enumerate(raw))
    return None if None in values else values


def _temperature_rates(temperatures: np.ndarray, model: TemperatureModel,
                       errors: list) -> None:
    """Each scan temperature's optical dephasing rate under `model` must be > 0
    and at most MAX_RATE, as a lifetime key's: the first that is not is reported."""
    for i, t in enumerate(temperatures.tolist()):
        try:
            rate = model.gamma_opt_deph(t)
        except ArithmeticError:
            rate = math.nan
        if not 0.0 < rate <= MAX_RATE:
            errors.append(f"studies.temp_scan.temperatures[{i}]: at {t:g} K the T^-7 law from "
                          f"t2_opt_ref {model.t2_opt_ref:g} s at temperature_ref "
                          f"{model.temperature_ref:g} K gives no finite optical T2 {LIFETIME}")
            return


def stack_bytes(spec: EnsembleSpec, n_fields: int, n_temperatures: int) -> tuple[int, str]:
    """The peak bytes of the largest member stack that any subcommand builds
    from the grid of `spec`, counted before anything is built, and the pass
    that stacks it: MEMBER_BYTES per member of n_optical x n_spin x the Zeeman
    branches, once per ensemble the pass stacks (mirror folds ignored)."""
    branches = max(1, len(spec.zeeman_branches))
    passes = {"studies.field_sweep.fields": 2 * n_fields,
              "studies.temp_scan.temperatures": branches * n_temperatures,
              f"compensate's table curves, {CURVES_PER_CALL} per call": 2 * CURVES_PER_CALL,
              "one echo": branches}
    pass_name = max(passes, key=passes.get)
    return spec.n_optical * spec.n_spin * passes[pass_name] * MEMBER_BYTES, pass_name


def _check_taus(taus: np.ndarray, path: str, sequence: EchoConfig | None, errors: list) -> None:
    """A study's storage times: at least FIT_MIN_POINTS, for the decay fit,
    strictly increasing, as a decay curve's axis, and each long enough to
    hold the echo pulses of `sequence` (None when the sequence is invalid)."""
    if taus.size < FIT_MIN_POINTS:
        errors.append(f"{path}: the decay fit needs at least "
                      f"{FIT_MIN_POINTS} storage times, got {taus.size}")
    elif not np.all(np.diff(taus) > 0.0):
        errors.append(f"{path}: storage times must be strictly increasing")
    elif sequence is not None:
        # EchoConfig holds the rule: a wait has least room at the shortest
        # storage time, a pulse, which starts later as tau grows, at the longest
        for i in (0, taus.size - 1):
            try:
                replace(sequence, tau=float(taus[i]))
            except ConfigurationError as exc:
                errors.extend(f"{path}[{i}]: " + p.replace("EchoConfig.tau", "storage time")
                              .replace("EchoConfig.", "sequence.") for p in exc.problems)


def validate_config(tree: dict) -> tuple[RunConfig | None, list[str]]:
    """Validate a parsed YAML tree; returns (config, all problems found)."""
    errors: list[str] = []
    if not isinstance(tree, dict):
        errors.append("config: expected a mapping")
        tree = {}
    _check_keys(tree, KEYS, errors)
    v, bad = _read(tree, KEYS, errors)

    ensemble, compensation = v["ensemble"], v["studies.compensation"]
    temp_scan, scaling = v["studies.temp_scan"], v["studies.scaling"]
    if ensemble.get("n_spin", 0) > 1 and _lookup(tree, "ensemble.spin_fwhm") is _MISSING:
        errors.append("missing required key ensemble.spin_fwhm")
    if "zeeman_branches" in ensemble:
        ensemble["zeeman_branches"] = _branches(ensemble["zeeman_branches"], errors)
    ambient = _ambient(compensation["ambient_field"], errors)
    physics = _physics(v["physics"], errors)
    spec = _build(EnsembleSpec, "ensemble", ensemble, errors)
    # an infinite placeholder keeps a missing tau from hiding the other problems
    sequence = _build(EchoConfig, "sequence", {"tau": math.inf, **v["sequence"]}, errors)
    sequence_ok = sequence is not None and not any(p.startswith("sequence.") for p in bad)
    field_model = _build(FieldModel, "field_model", v["field_model"], errors)
    if field_model is not None and ambient is not None:
        compensation["model"] = replace(field_model, field_vector=ambient)
    temp_scan["model"] = _build(TemperatureModel, "studies.temp_scan", temp_scan, errors)
    scaling["model"] = _build(ScalingModel, "studies.scaling", scaling, errors)
    for study in ("field_sweep", "temp_scan", "compensation"):
        if f"studies.{study}.taus" not in bad:
            # against the pulses only when every sequence key is valid
            _check_taus(v[f"studies.{study}"]["taus"], f"studies.{study}.taus",
                        sequence if sequence_ok else None, errors)
    if (sequence is not None and "model" in compensation
            and not any(p.startswith(("sequence.", "studies.compensation.")) for p in bad)):
        def bracket_problems(model: FieldModel) -> list:
            """The room rule at the bracketing stage's longest storage time,
            where a pulse has least room; EchoConfig has none for an inf."""
            tau = float(compensation_bracket_taus(model, sequence,
                                                  compensation["search_range"])[-1])
            if tau == math.inf:
                return ["its bracketing storage time is inf: g_factor times the reach, "
                        "|ambient_field| + 2 search_range, is too small to invert"]
            try:
                replace(sequence, tau=tau)
            except ConfigurationError as exc:
                return [f"its bracketing storage time {tau:g} s: "
                        + p.replace("EchoConfig.", "sequence.") for p in exc.problems]
            return []

        model = compensation["model"]
        if problems := bracket_problems(model):
            # the g-factor is at fault if the default one leaves room
            at_fault = ("studies.compensation.search_range" if bracket_problems(
                replace(model, g_factor=FieldModel.g_factor)) else "field_model.g_factor")
            errors.extend(f"{at_fault}: {p}" for p in problems)
    if spec is not None:
        size, pass_name = stack_bytes(spec, len(v["studies.field_sweep"]["fields"]),
                                      len(temp_scan["temperatures"]))
        if size > MAX_STACK_BYTES:
            key = "n_optical" if spec.n_optical >= spec.n_spin else "n_spin"
            errors.append(f"ensemble.{key}: the {spec.n_optical} x {spec.n_spin} grid would "
                          f"take ~{size / 2 ** 30:.3g} GiB at its peak ({pass_name}), beyond the "
                          f"bound of {MAX_STACK_BYTES / 2 ** 30:g} GiB")
    if not any(p.startswith("studies.temp_scan.") for p in bad):
        _temperature_rates(temp_scan["temperatures"], temp_scan["model"], errors)
    if sequence is not None and not any(p.startswith("studies.scaling.") for p in bad):
        # each point's echo, as the scaling study builds it, with pulses of at
        # most MAX_DURATION
        for i, t2 in enumerate(scaling["t2_opt_values"].tolist()):
            t_pi = scaling["model"].pulse_duration(t2)
            if not t_pi <= MAX_DURATION:
                errors.append(f"studies.scaling.t2_opt[{i}]: its pulse duration t_pi_ref * "
                              f"sqrt(t2_opt / t2_opt_ref), {t_pi:g} s, must be <= "
                              f"{MAX_DURATION:g}s")
                break
            try:
                scaling_echo(sequence, t_pi, scaling["tau_in_pulses"])
            except ConfigurationError as exc:
                errors.extend(f"studies.scaling.t2_opt[{i}]: " + p.replace("EchoConfig.", "echo ")
                              for p in exc.problems)
                break
    if errors:
        return None, errors
    return RunConfig(physics=physics, ensemble=spec, sequence=sequence, field_model=field_model,
                     field_sweep=FieldSweepConfig(**v["studies.field_sweep"]),
                     temp_scan=_build(TempScanConfig, "studies.temp_scan", temp_scan, errors),
                     scaling=_build(ScalingConfig, "studies.scaling", scaling, errors),
                     compensation=_build(CompensationConfig, "studies.compensation",
                                         compensation, errors),
                     **v["readout"], **v["output"]), []


def grid_warnings(cfg: RunConfig) -> list[str]:
    """A warning for each storage time source and ensemble axis whose longest
    storage time reaches the axis grid's revival (:func:`alias_free_size`),
    from config values alone: no propagation."""
    comp = cfg.compensation
    window = compensation_bracket_taus(comp.model, cfg.sequence, comp.search_range)
    sources = [("sequence.tau", cfg.sequence.tau),
               ("studies.field_sweep.taus", cfg.field_sweep.taus[-1]),
               ("studies.temp_scan.taus", cfg.temp_scan.taus[-1]),
               ("studies.compensation.taus", comp.taus[-1]),
               ("studies.compensation.search_range (bracketing storage times)", window[-1])]
    warnings = []
    for axis in ("optical", "spin"):
        fwhm, n = getattr(cfg.ensemble, f"{axis}_fwhm"), getattr(cfg.ensemble, f"n_{axis}")
        if n == 1 or fwhm == 0.0:         # a single node: no grid to revive
            continue
        for path, tau in sources:
            need = alias_free_size(fwhm, float(tau))
            if n < need:
                warnings.append(f"warning: {path} reaches {tau:g} s, where the {n}-point "
                                f"{axis} grid revives (within 5/sigma of 2*pi/spacing); "
                                f"the least odd ensemble.n_{axis} that clears it is {need}")
    return warnings


def readout_warnings(cfg: RunConfig) -> list[str]:
    """A warning when the readout window holds fewer beat periods than a beat
    readout needs (:data:`eitecho.readout.MIN_PERIODS`), counted on the
    detector clock as the readout counts them.  Only the beat-reading runs
    fail on it, so it is not an error."""
    seq = cfg.sequence
    periods = window_periods(make_readout_pulse(seq), seq.splitting)
    if periods >= MIN_PERIODS:
        return []
    return [f"warning: sequence.t_readout ({seq.t_readout:g} s) holds {periods:.2f} periods "
            f"of sequence.splitting ({seq.splitting:g} Hz), below the {MIN_PERIODS} a beat "
            f"readout needs: simulate, and field-sweep and compensate in beat mode, will fail"]


def parse_config(text: str) -> RunConfig:
    """Parse and validate a YAML config; raises with every problem listed."""
    try:
        tree = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigurationError([f"config is not valid YAML: {exc}"])
    cfg, errors = validate_config(tree if tree is not None else {})
    if errors:
        raise ConfigurationError(errors)
    return cfg


DEFAULT_CONFIG_TEXT = """\
# Minimal echo-simulation configuration.  Every dimensioned value carries an
# explicit unit suffix; bare numbers are only allowed for dimensionless keys.
physics:
  t1_opt: 164us          # excited-state lifetime (omit for a closed system)
  t2_spin: 500us         # nuclear spin coherence time
  branch0: 0.5           # |e> decay branching fraction into |0>
ensemble:
  optical_fwhm: 170kHz
  n_optical: 1           # odd grid sizes; 1 = resonant member only
  n_spin: 1
sequence:
  tau: 60us              # storage time: readout pulse starts here
  t_init: 2us
  t_rephase: 2us
  t_readout: 2us
  splitting: 10.2MHz     # ground hyperfine splitting = beat frequency
  init_phase_offset: 0deg
readout:
  mode: beat             # 'proxy' skips beat synthesis for fast sweeps
output:
  directory: out
  seed: 12345
  threads: 1
"""
