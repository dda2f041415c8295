"""Structured run configuration: schema, validation, and defaults.

Configs are YAML trees whose dimensioned leaves carry explicit unit suffixes
("tau: 60us", "optical_fwhm: 170kHz", "ambient_field: [20uT, -10uT, 45uT]").
Validation walks the whole tree and reports every problem at once, with the
dotted path of the offending key; unknown keys are errors, never silently
ignored.  Detunings, Rabi amplitudes and widths are written as ordinary
frequencies (Hz) and converted to angular units where the physics needs them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
import yaml

from .ensemble import EnsembleSpec
from .errors import ConfigurationError, ValidationError
from .lambda_system import LambdaParams
from .readout import FIT_MIN_POINTS
from .sequences import DEFAULT_SPLITTING_HZ, EchoConfig
from .studies import (
    DEFAULT_G_FACTOR_HZ_PER_T,
    FieldModel,
    ScalingModel,
    TemperatureModel,
)
from .units import parse_quantity, parse_ratio

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class SweepRange:
    lo: float
    hi: float
    n: int
    log: bool = False

    def values(self) -> np.ndarray:
        if self.log:
            return np.geomspace(self.lo, self.hi, self.n)
        return np.linspace(self.lo, self.hi, self.n)


@dataclass(frozen=True)
class FieldSweepConfig:
    fields: np.ndarray
    taus: np.ndarray


@dataclass(frozen=True)
class TempScanConfig:
    temperatures: np.ndarray
    taus: np.ndarray
    t2_opt_ref: float
    temperature_ref: float


@dataclass(frozen=True)
class ScalingConfig:
    t2_opt_values: np.ndarray
    t_pi_ref: float
    t2_opt_ref: float
    tau_in_pulses: float


@dataclass(frozen=True)
class CompensationConfig:
    ambient_field: tuple[float, float, float]
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
    scaling_model: ScalingModel
    field_sweep: FieldSweepConfig
    temp_scan: TempScanConfig
    scaling: ScalingConfig
    compensation: CompensationConfig
    output_dir: str
    seed: int
    threads: int
    noise_rms: float

    def temperature_model(self) -> TemperatureModel:
        return TemperatureModel(t2_opt_ref=self.temp_scan.t2_opt_ref,
                                temperature_ref=self.temp_scan.temperature_ref)


class _Reader:
    """Tracks visited keys and accumulates errors while walking a config dict."""

    def __init__(self, tree, errors: list, path: str = ""):
        self.tree = tree if isinstance(tree, dict) else {}
        self.errors = errors
        self.path = path
        self.seen: set = set()
        if tree is not None and not isinstance(tree, dict):
            errors.append(f"{path or 'config'}: expected a mapping")

    def _fullpath(self, key: str) -> str:
        return f"{self.path}.{key}" if self.path else key

    def child(self, key: str) -> "_Reader":
        self.seen.add(key)
        return _Reader(self.tree.get(key), self.errors, self._fullpath(key))

    def get(self, key: str, dimension: str, default=None, required: bool = False):
        self.seen.add(key)
        if key not in self.tree:
            if required:
                self.errors.append(f"missing required key {self._fullpath(key)}")
            return default
        try:
            return parse_quantity(self.tree[key], dimension)
        except ValueError as exc:
            self.errors.append(f"{self._fullpath(key)}: {exc}")
            return default

    def get_raw(self, key: str, default=None, required: bool = False):
        self.seen.add(key)
        if key not in self.tree:
            if required:
                self.errors.append(f"missing required key {self._fullpath(key)}")
            return default
        return self.tree[key]

    def get_int(self, key: str, default=None) -> int:
        v = self.get_raw(key, default)
        if v is default:
            return default
        if isinstance(v, bool) or not isinstance(v, int):
            self.errors.append(f"{self._fullpath(key)}: expected an integer, got {v!r}")
            return default
        return v

    def get_choice(self, key: str, choices, default):
        v = self.get_raw(key, default)
        if v not in choices:
            self.errors.append(
                f"{self._fullpath(key)}: expected one of {sorted(choices)}, got {v!r}")
            return default
        return v

    def get_values(self, key: str, dimension: str, default: SweepRange | list):
        """A sweep axis: either an explicit list of quantities or a range spec."""
        self.seen.add(key)
        if key not in self.tree:
            spec = default
        else:
            spec = self.tree[key]
        path = self._fullpath(key)
        if isinstance(spec, SweepRange):
            return spec.values()
        if isinstance(spec, list):
            out = []
            for i, item in enumerate(spec):
                try:
                    out.append(parse_quantity(item, dimension))
                except ValueError as exc:
                    self.errors.append(f"{path}[{i}]: {exc}")
            return np.array(out)
        if isinstance(spec, dict):
            sub = _Reader(spec, self.errors, path)
            lo = sub.get("min", dimension, required=True)
            hi = sub.get("max", dimension, required=True)
            n = sub.get_int("n", 10)
            log = bool(sub.get_raw("log", False))
            sub.finish()
            if lo is None or hi is None:
                return np.array([])
            if n < 1:
                self.errors.append(f"{path}.n: must be >= 1")
                return np.array([])
            if log and not lo * hi > 0.0:
                self.errors.append(f"{path}: a log range needs min and max nonzero "
                                   f"and of one sign, got {lo:g} and {hi:g}")
                return np.array([])
            return SweepRange(lo, hi, n, log).values()
        self.errors.append(f"{path}: expected a list or a min/max/n mapping")
        return np.array([])

    def get_taus(self, key: str, default: SweepRange, sequence: EchoConfig | None):
        """A study's storage times: at least FIT_MIN_POINTS, for the decay fit,
        strictly increasing, as a decay curve's axis, and each long enough to
        hold the echo pulses of `sequence` (None when the sequence is invalid)."""
        before = len(self.errors)
        taus = self.get_values(key, "time", default)
        path = self._fullpath(key)
        if len(self.errors) > before:
            return taus
        if taus.size < FIT_MIN_POINTS:
            self.errors.append(f"{path}: the decay fit needs at least "
                               f"{FIT_MIN_POINTS} storage times, got {taus.size}")
        elif not np.all(np.diff(taus) > 0.0):
            self.errors.append(f"{path}: storage times must be strictly increasing")
        elif sequence is not None:
            # EchoConfig holds the rule; the shortest storage time is the first
            try:
                replace(sequence, tau=float(taus[0]))
            except ConfigurationError as exc:
                self.errors.extend(f"{path}[0]: " + p.replace("EchoConfig.tau", "storage time")
                                   for p in exc.problems)
        return taus

    def finish(self):
        for key in self.tree:
            if key not in self.seen:
                self.errors.append(f"unknown key {self._fullpath(key)}")


def _physics_from(r: _Reader, errors: list) -> LambdaParams:
    t1_opt = r.get("t1_opt", "time")
    t2_opt = r.get("t2_opt", "time")
    t2_spin = r.get("t2_spin", "time")
    branch0 = r.get("branch0", "dimensionless", default=0.5)
    extra_spin_deph = r.get("excitation_spin_deph", "frequency", default=0.0)
    delta_opt = r.get("delta_opt", "frequency", default=0.0)
    delta_spin = r.get("delta_spin", "frequency", default=0.0)
    r.finish()

    gamma_decay = 0.0
    if t1_opt is not None:
        if t1_opt <= 0.0:
            errors.append("physics.t1_opt: must be > 0")
        else:
            gamma_decay = 1.0 / t1_opt
    gamma_opt_deph = 0.0
    if t2_opt is not None:
        if t2_opt <= 0.0:
            errors.append("physics.t2_opt: must be > 0")
        elif 1.0 / t2_opt < 0.5 * gamma_decay - 1e-12:
            errors.append("physics.t2_opt: exceeds the 2*T1 limit set by physics.t1_opt")
        else:
            gamma_opt_deph = max(1.0 / t2_opt - 0.5 * gamma_decay, 0.0)
    gamma_spin_deph = 0.0
    if t2_spin is not None:
        if t2_spin <= 0.0:
            errors.append("physics.t2_spin: must be > 0")
        else:
            gamma_spin_deph = 1.0 / t2_spin
    if extra_spin_deph < 0.0:
        errors.append("physics.excitation_spin_deph: must be >= 0")
        extra_spin_deph = 0.0
    try:
        return LambdaParams(
            delta_opt=TWO_PI * delta_opt,
            delta_spin=TWO_PI * delta_spin,
            gamma_opt_decay=gamma_decay,
            gamma_opt_deph=gamma_opt_deph,
            gamma_spin_deph=gamma_spin_deph + extra_spin_deph,
            branch0=branch0 if branch0 is not None else 0.5,
        )
    except ValidationError as exc:
        errors.append(f"physics: {exc}")
        return LambdaParams()


def _ensemble_from(r: _Reader, errors: list) -> EnsembleSpec:
    optical_fwhm = r.get("optical_fwhm", "frequency", default=0.0)
    n_optical = r.get_int("n_optical", 1)
    n_spin = r.get_int("n_spin", 1)
    spin_fwhm = r.get("spin_fwhm", "frequency",
                      required=(n_spin is not None and n_spin > 1))
    branches_raw = r.get_raw("zeeman_branches", [])
    r.finish()

    branches = []
    if not isinstance(branches_raw, list):
        errors.append("ensemble.zeeman_branches: expected a list")
    else:
        for i, item in enumerate(branches_raw):
            if not isinstance(item, dict) or set(item) != {"offset", "weight"}:
                errors.append(
                    f"ensemble.zeeman_branches[{i}]: expected offset/weight mapping")
                continue
            try:
                off = parse_quantity(item["offset"], "frequency")
                w = parse_quantity(item["weight"], "dimensionless")
                branches.append((off, w))
            except ValueError as exc:
                errors.append(f"ensemble.zeeman_branches[{i}]: {exc}")
    try:
        return EnsembleSpec(
            optical_fwhm=optical_fwhm,
            spin_fwhm=spin_fwhm if spin_fwhm is not None else 0.0,
            n_optical=n_optical,
            n_spin=n_spin,
            zeeman_branches=tuple(branches),
        )
    except ValidationError as exc:
        errors.append(f"ensemble: {exc}")
        return EnsembleSpec()


def _sequence_from(r: _Reader, errors: list) -> EchoConfig | None:
    tau = r.get("tau", "time", required=True)
    t_init = r.get("t_init", "time", default=2e-6)
    t_rephase = r.get("t_rephase", "time", default=2e-6)
    t_readout = r.get("t_readout", "time", default=2e-6)
    readout_rabi = r.get("readout_rabi", "frequency")
    splitting = r.get("splitting", "frequency", default=DEFAULT_SPLITTING_HZ)
    offset = r.get("init_phase_offset", "angle", default=0.0)
    init_area = r.get("init_area_pi", "dimensionless", default=1.0)
    rephase_area = r.get("rephase_area_pi", "dimensionless", default=2.0)
    calibration = r.get_choice("calibration", {"bright", "bare"}, "bright")
    r.finish()
    try:
        return EchoConfig(
            tau=tau if tau is not None else 1.0,
            t_init=t_init, t_rephase=t_rephase, t_readout=t_readout,
            readout_rabi=None if readout_rabi is None else TWO_PI * readout_rabi,
            splitting=splitting,
            init_phase_offset=offset,
            init_area=init_area * math.pi,
            rephase_area=rephase_area * math.pi,
            calibration=calibration,
        )
    except ConfigurationError as exc:
        # EchoConfig.<field> problems name the key they come from
        errors.extend(f"sequence: {p}".replace("sequence: EchoConfig.", "sequence.")
                      .replace("sequence.init_area ", "sequence.init_area_pi ")
                      .replace("sequence.rephase_area ", "sequence.rephase_area_pi ")
                      for p in exc.problems)
        return None


def validate_config(tree: dict) -> tuple[RunConfig | None, list[str]]:
    """Validate a parsed YAML tree; returns (config, all problems found)."""
    errors: list[str] = []
    root = _Reader(tree if tree is not None else {}, errors)

    physics = _physics_from(root.child("physics"), errors)
    spec = _ensemble_from(root.child("ensemble"), errors)
    sequence = _sequence_from(root.child("sequence"), errors)

    ro = root.child("readout")
    readout_mode = ro.get_choice("mode", {"beat", "proxy"}, "beat")
    ro.finish()

    fm = root.child("field_model")
    g_raw = fm.get_raw("g_factor")
    g_factor = DEFAULT_G_FACTOR_HZ_PER_T
    if g_raw is not None:
        try:
            g_factor = parse_ratio(g_raw, "frequency", "field")
        except ValueError as exc:
            errors.append(f"field_model.g_factor: {exc}")
    fm.finish()
    try:
        field_model = FieldModel(g_factor=g_factor)
    except ValidationError as exc:
        errors.append(f"field_model: {exc}")
        field_model = FieldModel()

    studies = root.child("studies")

    fs = studies.child("field_sweep")
    fs_fields = fs.get_values("fields", "field", SweepRange(0.0, 95e-6, 20))
    fs_taus = fs.get_taus("taus", SweepRange(10e-6, 150e-6, 30), sequence)
    fs.finish()

    ts = studies.child("temp_scan")
    # geometric temperature ladder: a T^7 broadening law spans decades of
    # optical linewidth, so log spacing keeps every decade represented
    ts_temps = ts.get_values("temperatures", "temperature",
                             SweepRange(2.0, 7.68, 5, log=True))
    ts_taus = ts.get_taus("taus", SweepRange(20e-6, 180e-6, 5), sequence)
    t2_opt_ref = ts.get("t2_opt_ref", "time", default=100e-6)
    temperature_ref = ts.get("temperature_ref", "temperature", default=2.0)
    ts.finish()

    sc = studies.child("scaling")
    sc_values = sc.get_values("t2_opt", "time", SweepRange(100e-12, 10e-6, 13, log=True))
    t_pi_ref = sc.get("t_pi_ref", "time", default=100e-9)
    sc_t2_ref = sc.get("t2_opt_ref", "time", default=100e-6)
    tau_in_pulses = sc.get("tau_in_pulses", "dimensionless", default=8.0)
    sc.finish()

    co = studies.child("compensation")
    ambient_raw = co.get_raw("ambient_field", ["0uT", "0uT", "50uT"])
    ambient = [0.0, 0.0, 0.0]
    if not isinstance(ambient_raw, list) or len(ambient_raw) != 3:
        errors.append("studies.compensation.ambient_field: expected a list of 3 fields")
    else:
        for i, item in enumerate(ambient_raw):
            try:
                ambient[i] = parse_quantity(item, "field")
            except ValueError as exc:
                errors.append(f"studies.compensation.ambient_field[{i}]: {exc}")
    search_range = co.get("search_range", "field", default=100e-6)
    tolerance = co.get("tolerance", "field", default=1e-6)
    co_taus = co.get_taus("taus", SweepRange(15e-6, 120e-6, 6), sequence)
    co.finish()
    studies.finish()

    out = root.child("output")
    output_dir = out.get_raw("directory", "out")
    seed = out.get_int("seed", 12345)
    threads = out.get_int("threads", 1)
    noise_rms = out.get("noise_rms", "dimensionless", default=0.0)
    out.finish()
    if not isinstance(output_dir, str):
        errors.append("output.directory: expected a string")
        output_dir = "out"
    if threads is not None and threads < 1:
        errors.append("output.threads: must be >= 1")
        threads = 1
    if noise_rms is not None and noise_rms < 0.0:
        errors.append("output.noise_rms: must be >= 0")
        noise_rms = 0.0

    root.finish()

    try:
        scaling_model = ScalingModel(t_pi_ref=t_pi_ref, t2_opt_ref=sc_t2_ref)
    except ValidationError as exc:
        errors.append(f"studies.scaling: {exc}")

    if errors:
        return None, errors

    cfg = RunConfig(
        physics=physics,
        ensemble=spec,
        sequence=sequence,
        readout_mode=readout_mode,
        field_model=field_model,
        scaling_model=scaling_model,
        field_sweep=FieldSweepConfig(fields=fs_fields, taus=fs_taus),
        temp_scan=TempScanConfig(temperatures=ts_temps, taus=ts_taus,
                                 t2_opt_ref=t2_opt_ref, temperature_ref=temperature_ref),
        scaling=ScalingConfig(t2_opt_values=sc_values, t_pi_ref=t_pi_ref,
                              t2_opt_ref=sc_t2_ref, tau_in_pulses=tau_in_pulses),
        compensation=CompensationConfig(ambient_field=tuple(ambient),
                                        search_range=search_range,
                                        tolerance=tolerance, taus=co_taus),
        output_dir=output_dir,
        seed=seed,
        threads=threads,
        noise_rms=noise_rms,
    )
    return cfg, []


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
