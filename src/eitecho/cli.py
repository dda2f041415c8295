"""Command-line front end: config-driven studies with CSV/JSON outputs.

Every subcommand takes --config/--out/--seed, validates the whole config
before any simulation starts, writes plot-ready CSV files plus a JSON run
manifest sufficient to re-run the study, and is bitwise reproducible for a
fixed config and seed.  A study runs all its numerics before it yields its
first (file name, text) pair, and `main` is the one writer: it writes each
output, then the manifest naming them, so a run that fails leaves only
config_used.yaml.
Exit codes: 0 success, 1 invalid configuration or arguments, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from collections.abc import Iterator
from pathlib import Path

import numpy as np

from . import __version__
from .config import DEFAULT_CONFIG_TEXT, RunConfig, parse_config
from .dynamics import SequenceSpec, run_sequence
from .ensemble import ensemble_average, ensemble_final_state
from .errors import ConfigurationError, FitFailureError, ValidationError
from .qstate import DensityMatrix3, GroundQubitState
from .readout import beat_amplitude, synthesize_beat
from .sequences import make_echo_sequence, make_init_pulse
from .studies import (
    FieldModel,
    compensation_json,
    compensation_search,
    field_fits_csv,
    field_sweep,
    field_sweep_csv,
    scaling_csv,
    scaling_study,
    temperature_scan,
    temperature_scan_csv,
)
from .tomography import reconstruct, state_fidelity, tomography_of
from .units import csv_text

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERICAL = 2


def _config_as_dict(obj):
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: _config_as_dict(getattr(obj, f.name))
                for f in dataclasses.fields(obj)}
    if isinstance(obj, np.ndarray):
        return [float(v) for v in obj]
    if isinstance(obj, (list, tuple)):
        return [_config_as_dict(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return float(obj)
    return obj


def _write_manifest(outdir: Path, cfg: RunConfig, subcommand: str, written: list) -> None:
    manifest = {
        "subcommand": subcommand,
        "config": _config_as_dict(cfg),
        "seed": cfg.seed,
        "threads": cfg.threads,
        "outputs": sorted(written),
        "versions": {"eitecho": __version__, "numpy": np.__version__},
    }
    (outdir / "run_manifest.json").write_text(json.dumps(manifest, sort_keys=True, indent=2))


def _cmd_simulate(cfg: RunConfig) -> Iterator[tuple[str, str]]:
    seq = make_echo_sequence(cfg.sequence)
    avg = ensemble_average(seq, cfg.physics, cfg.ensemble)
    trace = synthesize_beat(avg, beat_frequency=cfg.sequence.splitting)
    summary = {
        "beat_amplitude": beat_amplitude(trace),
        "stored_coherence_at_readout":
            abs(complex(avg.coherence01[avg.segment_start_index("readout")])),
    }
    print(f"echo simulated: beat amplitude {summary['beat_amplitude']:.6g}")
    yield "trajectory.csv", avg.to_csv()
    yield "bloch_path.csv", avg.bloch_path_csv()
    yield "beat_trace.csv", trace.to_csv()
    yield "echo_summary.json", json.dumps(summary, sort_keys=True)


def _cmd_bloch_path(cfg: RunConfig) -> Iterator[tuple[str, str]]:
    """Paths of the two computational ground components under the EIT pulses."""
    rows = []
    stages = {
        "init": make_echo_sequence(cfg.sequence, include_rephase=False,
                                   include_readout=False),
        "echo": make_echo_sequence(cfg.sequence, include_readout=False),
    }
    for stage, seq in stages.items():
        for comp, ket in (("0", [1, 0, 0]), ("1", [0, 1, 0])):
            rho0 = DensityMatrix3(0.5 * np.outer(ket, np.conj(ket)).astype(complex))
            traj = run_sequence(rho0, cfg.physics, seq)
            table = np.column_stack([traj.times, traj.bloch_path(), traj.populations[:, 2]])
            rows.extend([stage, comp, *cells] for cells in table.tolist())
    print(f"bloch paths written for {len(stages)} stages")
    yield "bloch_path.csv", csv_text("stage,component,time_s,x,y,z,pop_e", rows)


def _qst_cases(cfg: RunConfig):
    """The three characterization cases, each measured right after its last pulse."""
    base = cfg.sequence
    case2 = dataclasses.replace(base, init_phase_offset=base.init_phase_offset + math.pi / 2)
    echo = make_echo_sequence(base, include_readout=False)
    return [
        ("init_x", base, SequenceSpec(segments=(make_init_pulse(base),))),
        ("init_y", case2, SequenceSpec(segments=(make_init_pulse(case2),))),
        # init, wait, both rephasing halves; drop the trailing wait
        ("after_rephase", base, SequenceSpec(segments=echo.segments[:-1])),
    ]


def _cmd_qst(cfg: RunConfig) -> Iterator[tuple[str, str]]:
    rng = np.random.default_rng(cfg.seed)
    rows = []
    results = {}
    for name, case_cfg, seq in _qst_cases(cfg):
        final = ensemble_final_state(seq, cfg.physics, cfg.ensemble)
        offset = case_cfg.init_phase_offset
        dark = np.array([1.0, -np.exp(1j * offset)], dtype=complex) / math.sqrt(2.0)
        tomo = tomography_of(GroundQubitState(final.matrix[:2, :2]), dark,
                             cfg.noise_rms, rng)
        (x, y, z), f_pure = tomo.projections, tomo.fidelity_vs_target
        ideal = reconstruct(-0.5 * math.cos(offset), -0.5 * math.sin(offset), 0.0)
        f_ideal = state_fidelity(tomo.reconstructed, ideal)
        rows.append((name, x, y, z, f_pure, f_ideal))
        results[name] = {"projections": [x, y, z], "fidelity_pure_target": f_pure,
                         "fidelity_vs_ideal": f_ideal}
        print(f"{name}: fidelity vs pure target {f_pure:.4f}, vs ideal run {f_ideal:.4f}")
    yield "qst.csv", csv_text("case,x,y,z,fidelity_pure_target,fidelity_vs_ideal", rows)
    yield "qst.json", json.dumps(results, sort_keys=True)


def _cmd_field_sweep(cfg: RunConfig) -> Iterator[tuple[str, str]]:
    points = field_sweep(cfg.field_sweep.fields, cfg.sequence, cfg.physics,
                         cfg.ensemble, cfg.field_sweep.taus,
                         model=cfg.field_model, mode=cfg.readout_mode)
    print(f"field sweep: {len(points)} fields x {cfg.field_sweep.taus.size} storage times")
    yield "field_sweep.csv", field_sweep_csv(points)
    yield "field_fits.csv", field_fits_csv(points)


def _cmd_temp_scan(cfg: RunConfig) -> Iterator[tuple[str, str]]:
    tm = cfg.temperature_model()
    points = temperature_scan(cfg.temp_scan.temperatures, tm, cfg.sequence,
                              cfg.physics, cfg.ensemble, cfg.temp_scan.taus,
                              mode="proxy")
    print(f"temperature scan: {len(points)} points")
    yield "temp_scan.csv", temperature_scan_csv(points)


def _cmd_scaling(cfg: RunConfig) -> Iterator[tuple[str, str]]:
    points = scaling_study(cfg.scaling.t2_opt_values, cfg.scaling_model,
                           cfg.sequence, cfg.physics, cfg.ensemble,
                           tau_in_pulses=cfg.scaling.tau_in_pulses)
    print(f"scaling study: {len(points)} optical-T2 points")
    yield "scaling.csv", scaling_csv(points)


def _cmd_compensate(cfg: RunConfig) -> Iterator[tuple[str, str]]:
    model = FieldModel(g_factor=cfg.field_model.g_factor,
                       field_vector=cfg.compensation.ambient_field)
    result = compensation_search(model, cfg.sequence, cfg.physics, cfg.ensemble,
                                 cfg.compensation.taus,
                                 search_range=cfg.compensation.search_range,
                                 tol=cfg.compensation.tolerance,
                                 mode=cfg.readout_mode)
    comp_ut = ", ".join(f"{1e6 * c:.2f}" for c in result.compensation)
    print(f"compensation field: ({comp_ut}) uT in {result.evaluations} evaluations")
    if result.warning:
        print(f"warning: {result.warning}", file=sys.stderr)
    yield "compensation.json", compensation_json(result)


_COMMANDS = {
    "simulate": _cmd_simulate,
    "bloch-path": _cmd_bloch_path,
    "qst": _cmd_qst,
    "field-sweep": _cmd_field_sweep,
    "temp-scan": _cmd_temp_scan,
    "scaling": _cmd_scaling,
    "compensate": _cmd_compensate,
}


CONFIG_KEYS_HELP = """\
config file keys (YAML; dimensioned values carry unit suffixes like 2us, 170kHz, 50uT, 90deg):
  physics:    t1_opt, t2_opt, t2_spin, branch0, excitation_spin_deph,
              delta_opt, delta_spin
  ensemble:   optical_fwhm, spin_fwhm (required when n_spin > 1), n_optical,
              n_spin (odd), zeeman_branches: [{offset, weight}, ...]
  sequence:   tau (required), t_init, t_rephase, t_readout, readout_rabi,
              splitting, init_phase_offset, init_area_pi, rephase_area_pi,
              calibration (bright|bare)
  readout:    mode (beat|proxy); used by field-sweep and compensate only:
              simulate always reads the beat, temp-scan always the proxy
  field_model: g_factor (e.g. "12kHz/100uT")
  studies:
    field_sweep:  fields, taus              (lists or {min, max, n[, log]})
    temp_scan:    temperatures, taus, t2_opt_ref, temperature_ref
    scaling:      t2_opt, t_pi_ref, t2_opt_ref, tau_in_pulses
    compensation: ambient_field (3 entries), search_range, tolerance, taus
  output:     directory, seed, threads, noise_rms
"""


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors exit 1, a configuration error, not 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="eitecho",
        description="All-optical EIT spin-echo simulator for three-level lambda systems.",
        epilog=CONFIG_KEYS_HELP,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    help_text = {
        "validate": "check a config file without running anything",
        "simulate": "single echo: averaged trajectory, Bloch path and beat trace",
        "bloch-path": "paths of the two ground components under the EIT pulses",
        "qst": "state tomography of the three characterization cases",
        "field-sweep": "echo decay curves and fits versus vertical magnetic field",
        "temp-scan": "fitted spin T2 and echo amplitude versus temperature",
        "scaling": "end-of-sequence fidelity versus optical coherence time",
        "compensate": "search the three-axis compensation field",
    }
    for name, text in help_text.items():
        p = sub.add_parser(name, help=text)
        p.add_argument("--config", type=Path, default=None,
                       help="YAML config file (built-in defaults when omitted)")
        p.add_argument("--out", type=Path, default=None,
                       help="output directory (default: from config)")
        p.add_argument("--seed", type=int, default=None,
                       help="seed for simulated measurement noise")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        text = args.config.read_text() if args.config else DEFAULT_CONFIG_TEXT
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        cfg = parse_config(text)
    except ConfigurationError as exc:
        for problem in exc.problems:
            print(f"config error: {problem}", file=sys.stderr)
        return EXIT_CONFIG

    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    if args.out is not None:
        cfg = dataclasses.replace(cfg, output_dir=str(args.out))

    if args.command == "validate":
        print("config OK")
        return EXIT_OK
    outdir = Path(cfg.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    # alongside the manifest this makes any run re-runnable from its outputs
    (outdir / "config_used.yaml").write_text(text)

    written = []
    try:
        for name, output in _COMMANDS[args.command](cfg):
            (outdir / name).write_text(output)
            written.append(name)
            del output    # release each output before the next one is built
    except ConfigurationError as exc:
        for problem in exc.problems:
            print(f"config error: {problem}", file=sys.stderr)
        return EXIT_CONFIG
    except (FitFailureError, ValidationError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    _write_manifest(outdir, cfg, args.command, written)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
