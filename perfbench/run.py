"""End-to-end and per-layer benchmark of the eitecho studies.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout.  Every workload run is a fresh Python
process (perfbench/child.py) that imports eitecho from ``src/`` and calls
``eitecho.cli.main`` in-process on a config generated here from the seed.

With ``--trace 0`` the run prints the end-to-end metrics, measured with no
tracing: ``wall_s`` (config parsed to ``cli.main`` returning, median over the
runs that fit in ``--seconds``), ``setup_s`` (process start to a validated
config, median over several fresh processes), ``peak_rss_mb`` (the run's own
``ru_maxrss``) and ``ok_ratio`` (study points that produced a checked result
/ study points attempted).  With ``--trace 1`` it makes one untraced and one
traced run and prints the per-layer metrics of perfbench/tracer.py.

Each run's outputs are compared with perfbench/reference.json and with
physics checks; a failed check makes ``correct`` false and the exit code 1.
A study point also fails when its fit cell is blank; ``fail_ratio`` =
1 - ``ok_ratio`` is printed with the readable summary.  Standard output
holds a ``raw`` line with every per-run value and the machine facts, one
line per metric, and as its last line one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"
REFERENCE = HERE / "reference.json"

SETUP_PROBES = 3
DEADLINE_S = 170

# Tolerances of the correctness gate.  Reference values were recorded with the
# RK4 propagator; an exact per-segment propagator moves states by <= 1e-9,
# which moves amplitudes and fitted times far less than these, while any
# change of the physics moves them by much more.
AMPLITUDE_RTOL = 1e-6
FIT_T2_RTOL = 1e-4
STATE_ATOL = 1e-8
# At the found compensation the residual field is below the 1 uT tolerance,
# which leaves the zero-field decay curve, and so its fitted T2, nearly intact.
COMPENSATED_T2_RTOL = 1e-3

# The program's built-in default config, with the ensemble and the ambient
# field filled in per workload.  The study blocks keep their built-in
# defaults: 5 temperatures from 2 K to 7.68 K log-spaced, 5 storage times
# from 20 to 180 us; compensation within +/-100 uT to 1 uT over 6 storage
# times from 15 to 120 us.
CONFIG_TEMPLATE = """\
physics:
  t1_opt: 164us
  t2_spin: 500us
  branch0: 0.5
ensemble:
{ensemble}
sequence:
  tau: 60us
  t_init: 2us
  t_rephase: 2us
  t_readout: 2us
  splitting: 10.2MHz
  init_phase_offset: 0deg
readout:
  mode: beat
studies:
  compensation:
    ambient_field: [{ambient}]
output:
  directory: out
  seed: {seed}
  threads: 1
"""

# The built-in default ensemble: the resonant member only.
DEFAULT_ENSEMBLE = "  optical_fwhm: 170kHz\n  n_optical: 1\n  n_spin: 1"
# The large ensemble of the roadmap: 21 x 11 = 231 members.
LARGE_ENSEMBLE = ("  optical_fwhm: 170kHz\n  spin_fwhm: 20kHz\n"
                  "  n_optical: 21\n  n_spin: 11")
DEFAULT_AMBIENT_UT = (0.0, 0.0, 50.0)
# Ambient components stay inside +/-80 uT so that the true compensation lies
# strictly inside the +/-100 uT coarse search grid on every axis.
AMBIENT_BOX_UT = 80.0
COMPENSATION_TOL_T = 1e-6
T_INIT_S = 2e-6


def ambient_for(workload: str, seed: int) -> tuple:
    """Ambient field (uT) of a run: drawn from the seed for `compensate` only."""
    if workload != "compensate":
        return DEFAULT_AMBIENT_UT
    rng = random.Random(seed)
    return tuple(round(rng.uniform(-AMBIENT_BOX_UT, AMBIENT_BOX_UT), 3) for _ in range(3))


def config_text(workload: str, seed: int) -> str:
    """The YAML config the program receives for one run of a workload."""
    ensemble = LARGE_ENSEMBLE if workload == "ensemble_echo" else DEFAULT_ENSEMBLE
    ambient = ", ".join(f"{b}uT" for b in ambient_for(workload, seed))
    return CONFIG_TEMPLATE.format(ensemble=ensemble, ambient=ambient, seed=seed)


# -- reading outputs ------------------------------------------------------

def _cell(text: str):
    return float(text) if text != "" else None


def read_temp_scan(outdir: Path) -> list:
    """Rows of temp_scan.csv: [T, t2_opt, fitted_t2 | None, ci95 | None, amplitude]."""
    with open(outdir / "temp_scan.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    return [[_cell(c) for c in row] for row in rows[1:]]


def read_echo(outdir: Path) -> dict:
    """Echo summary plus the final averaged-state row of trajectory.csv."""
    summary = json.loads((outdir / "echo_summary.json").read_text())
    with open(outdir / "trajectory.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    summary["final_row"] = [float(c) for c in rows[-1]]
    return summary


# -- correctness gate -----------------------------------------------------

def _close(a, b, rtol, atol=0.0) -> bool:
    return a is not None and b is not None and math.isclose(a, b, rel_tol=rtol, abs_tol=atol)


def check_temp_scan(outdir: Path, ref: dict, seed: int) -> tuple:
    rows = read_temp_scan(outdir)
    want = ref["rows"]
    problems = []
    if len(rows) != len(want):
        return len(want), [f"temp_scan.csv has {len(rows)} rows, expected {len(want)}"]
    failed = 0
    for got, exp in zip(rows, want):
        label = f"T={exp[0]:g} K"
        if not (_close(got[0], exp[0], 1e-12) and _close(got[1], exp[1], 1e-12)):
            problems.append(f"{label}: temperature or optical T2 differs")
        if not _close(got[4], exp[4], AMPLITUDE_RTOL, 1e-12):
            problems.append(f"{label}: relative amplitude {got[4]!r}, reference {exp[4]!r}")
        if got[2] is None:
            failed += 1          # blank fit cell: the point has no fitted T2
        elif exp[2] is not None and not _close(got[2], exp[2], FIT_T2_RTOL):
            problems.append(f"{label}: fitted T2 {got[2]!r}, reference {exp[2]!r}")
    amps = [r[4] for r in rows]
    if amps[0] != 1.0:
        problems.append(f"first relative amplitude is {amps[0]!r}, not 1")
    # above the knee (optical T2 shorter than the init pulse) initialization
    # fails progressively: the amplitude falls with every hotter point
    hot = [r[4] for r in rows if r[1] < T_INIT_S]
    if not hot or any(b >= a for a, b in zip(hot, hot[1:])) or hot[0] >= amps[0]:
        problems.append(f"amplitude does not fall above the knee: {amps}")
    if problems:
        failed = len(want)
    return failed, problems


def check_compensate(outdir: Path, ref: dict, seed: int) -> tuple:
    result = json.loads((outdir / "compensation.json").read_text())
    problems = []
    ambient = [1e-6 * b for b in ambient_for("compensate", seed)]
    errors = [abs(c + b) for c, b in zip(result["compensation_t"], ambient)]
    if len(errors) != 3 or max(errors) >= COMPENSATION_TOL_T:
        problems.append(f"compensation misses -ambient by {errors} T")
    if result["improved"] is not True:
        problems.append("search reports no improvement")
    if result["warning"] is not None:
        problems.append(f"search warning: {result['warning']}")
    if not _close(result["objective_t2_s"], ref["zero_field_t2_s"], COMPENSATED_T2_RTOL):
        problems.append(f"compensated T2 {result['objective_t2_s']!r}, zero-field "
                        f"reference {ref['zero_field_t2_s']!r}")
    return (1 if problems else 0), problems


def check_ensemble_echo(outdir: Path, ref: dict, seed: int) -> tuple:
    got = read_echo(outdir)
    problems = []
    for key in ("beat_amplitude", "stored_coherence_at_readout"):
        if not _close(got[key], ref[key], AMPLITUDE_RTOL):
            problems.append(f"{key} {got[key]!r}, reference {ref[key]!r}")
    final, want = got["final_row"], ref["final_row"]
    if (len(final) != len(want) or not _close(final[0], want[0], 1e-12)
            or max(abs(a - b) for a, b in zip(final[1:], want[1:])) > STATE_ATOL):
        problems.append(f"final averaged state {final}, reference {want}")
    return (1 if problems else 0), problems


# Why each workload exists, and what it leaves out, is recorded in
# BENCHMARK.json; the attempted counts are the study points per run.
# ensemble_echo runs on one thread: with --threads 2 its wall time spread by
# 42% between runs on a shared 2-vCPU machine (the pool's two workers hand
# the interpreter lock back and forth), wider than any usable bound.
WORKLOADS = {
    "temp_scan": {"args": ["temp-scan"], "attempted": 5, "check": check_temp_scan},
    "compensate": {"args": ["compensate"], "attempted": 1, "check": check_compensate},
    "ensemble_echo": {"args": ["simulate"], "attempted": 1,
                      "check": check_ensemble_echo},
}


# -- running --------------------------------------------------------------

class Bench:
    """Fresh-process runs of one workload at one seed, inside a scratch directory."""

    def __init__(self, workload: str, seed: int, tmp: Path, ref: dict):
        self.workload = workload
        self.seed = seed
        self.tmp = tmp
        self.ref = ref[workload]
        self.config = tmp / "config.yaml"
        self.config.write_text(config_text(workload, seed))
        # every child is stopped in time for the whole command to end within
        # DEADLINE_S, even if one of them hangs
        self.deadline = time.monotonic() + DEADLINE_S

    def child(self, cli_args: list, tag: str, trace: int = 0):
        """One fresh process running the CLI; returns (result dict | None, log text)."""
        result_path = self.tmp / f"{tag}.json"
        log_path = self.tmp / f"{tag}.log"
        # one BLAS thread: the workloads promise at most their own --threads
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                   MKL_NUM_THREADS="1")
        with open(log_path, "w") as log:
            spawned = time.monotonic()
            cmd = [sys.executable, str(HERE / "child.py"), str(ROOT), str(result_path),
                   str(trace), repr(spawned), "--", *cli_args]
            try:
                code = subprocess.run(cmd, cwd=self.tmp, stdout=log, stderr=subprocess.STDOUT,
                                      env=env, timeout=max(1.0, self.deadline - spawned)
                                      ).returncode
            except subprocess.TimeoutExpired:
                code = "timeout"
        text = log_path.read_text()
        if code != 0 or not result_path.exists():
            return None, f"process exit {code}: {text[-2000:]}"
        return json.loads(result_path.read_text()), text

    def run(self, tag: str, trace: int = 0):
        """One checked workload run: (result | None, attempted, failed, problems)."""
        spec = WORKLOADS[self.workload]
        out = self.tmp / f"{tag}-out"
        result, log = self.child([*spec["args"], "--config", str(self.config),
                                  "--out", str(out)], tag, trace)
        attempted = spec["attempted"]
        if result is None or result["exit_code"] != 0:
            code = None if result is None else result["exit_code"]
            return None, attempted, attempted, [f"run failed (cli exit {code}): {log}"]
        try:
            failed, problems = spec["check"](out, self.ref, self.seed)
        except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            failed, problems = attempted, [f"outputs unreadable: {exc!r}"]
        shutil.rmtree(out, ignore_errors=True)
        return result, attempted, failed, problems

    def setup_probe(self, tag: str) -> float:
        """Set-up time of one fresh process that only validates the config."""
        result, log = self.child(["validate", "--config", str(self.config)], tag)
        if result is None or result["exit_code"] != 0 or result["setup_s"] is None:
            raise RuntimeError(f"set-up probe failed: {log}")
        return result["setup_s"]


def machine_facts(versions: dict) -> dict:
    model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), model)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": model,
            "python": platform.python_version(), **versions}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "eitecho" / "cli.py").is_file():
        print(f"no eitecho sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    ref = json.loads(REFERENCE.read_text())

    WORK.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=WORK))
    try:
        bench = Bench(args.workload, args.seed, tmp, ref)
        # fills the bytecode and file caches; users do not pay that per run
        bench.setup_probe("warmup")
        if args.trace:
            return report_layers(bench)
        return report_end_to_end(bench, args.seconds)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def report_end_to_end(bench: Bench, seconds: float) -> int:
    setups = [bench.setup_probe(f"setup{i}") for i in range(SETUP_PROBES)]
    runs, attempted, failed, problems = [], 0, 0, []
    start = time.monotonic()
    while True:
        began = time.monotonic()
        result, n, bad, why = bench.run(f"run{len(runs)}")
        attempted, failed, problems = attempted + n, failed + bad, problems + why
        if result is None:
            break
        runs.append(result)
        now = time.monotonic()
        if now - start + (now - began) > seconds:
            break
    setups += [r["setup_s"] for r in runs]

    metrics = {}
    if runs:
        metrics = {
            "wall_s": {"value": statistics.median(r["wall_s"] for r in runs), "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(r["peak_rss_mb"] for r in runs),
                            "unit": "MB"},
            "ok_ratio": {"value": (attempted - failed) / attempted, "unit": "ratio"},
        }
    raw = {"workload": bench.workload, "seed": bench.seed, "setup_s": setups,
           "runs": [{k: r[k] for k in ("wall_s", "setup_s", "peak_rss_mb", "cpu_s")}
                    for r in runs],
           "machine": machine_facts(runs[0]["versions"] if runs else {})}
    return finish(raw, metrics, attempted, failed, problems,
                  extra=f"fail_ratio {failed / attempted:.4g} ratio")


def report_layers(bench: Bench) -> int:
    from tracer import PER_LAYER

    plain, n0, bad0, why0 = bench.run("plain")
    traced, n1, bad1, why1 = bench.run("traced", trace=1)
    attempted, failed, problems = n0 + n1, bad0 + bad1, why0 + why1
    metrics, absent = {}, []
    if plain is not None and traced is not None:
        layers = dict(traced["layers"])
        layers["process.cpu_s"] = plain["cpu_s"]
        layers["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
        absent = traced["absent"]
        metrics = {name: {"value": layers.get(name, 0), "unit": unit}
                   for name, unit, _ in PER_LAYER}
    raw = {"workload": bench.workload, "seed": bench.seed,
           "untraced_wall_s": plain and plain["wall_s"],
           "traced_wall_s": traced and traced["wall_s"],
           "machine": machine_facts(plain["versions"] if plain else {})}
    return finish(raw, metrics, attempted, failed, problems,
                  extra=f"absent: {', '.join(absent) or 'none'}")


def finish(raw, metrics, attempted, failed, problems, extra) -> int:
    """Print the raw values, a readable summary and the result line."""
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    correct = not problems and bool(metrics)
    print("raw " + json.dumps(raw))
    for name, m in metrics.items():
        print(f"{raw['workload']} {name} {m['value']:.6g} {m['unit']}")
    print(f"{raw['workload']} {extra}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
