"""Record perfbench/reference.json, the outputs the correctness gate compares with.

    python3 perfbench/record_reference.py

Run from the root of a checkout whose outputs are trusted.  The workloads'
physical inputs do not depend on the seed, except for the compensate ambient
field, so one run each suffices; for compensate the reference is the fitted
T2 of the zero-field decay curve, which a correct search reproduces for any
ambient field.
"""

import json
import sys
import tempfile
from pathlib import Path

from run import REFERENCE, ROOT, config_text, read_echo, read_temp_scan

sys.path.insert(0, str(ROOT / "src"))

from eitecho import cli  # noqa: E402
from eitecho.config import parse_config  # noqa: E402
from eitecho.readout import assemble_decay_curve, fit_decay  # noqa: E402


def _run(workload: str, args: list, tmp: Path) -> Path:
    cfg = tmp / f"{workload}.yaml"
    cfg.write_text(config_text(workload, seed=0))
    out = tmp / workload
    code = cli.main([*args, "--config", str(cfg), "--out", str(out)])
    if code != 0:
        raise SystemExit(f"{workload} exited {code}")
    return out


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        rows = read_temp_scan(_run("temp_scan", ["temp-scan"], tmp))
        echo = read_echo(_run("ensemble_echo", ["simulate"], tmp))
    cfg = parse_config(config_text("compensate", seed=0))
    curve = assemble_decay_curve(cfg.sequence, cfg.compensation.taus, cfg.physics,
                                 cfg.ensemble, mode=cfg.readout_mode)
    reference = {
        "temp_scan": {"rows": rows},
        "compensate": {"zero_field_t2_s": fit_decay(curve).t2},
        "ensemble_echo": {key: echo[key] for key in
                          ("beat_amplitude", "stored_coherence_at_readout", "final_row")},
    }
    REFERENCE.write_text(json.dumps(reference, indent=1) + "\n")
    print(f"wrote {REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
