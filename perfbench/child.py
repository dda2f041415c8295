"""One benchmark run: a fresh process that calls ``eitecho.cli.main`` in-process.

Usage: child.py <checkout root> <result json> <trace 0|1> <spawn time> -- <cli args>

<spawn time> is the parent's ``time.monotonic()`` just before it started this
process; both clocks are the system's CLOCK_MONOTONIC.  The result file
holds the timestamps the parent turns into setup_s and wall_s, the process's
peak RSS and CPU time, the CLI exit code and, with tracing on, the per-layer
metrics.
"""

import json
import resource
import sys
import time
from pathlib import Path


def main():
    root, result_path, trace, spawned = sys.argv[1:5]
    cli_args = sys.argv[6:]
    src = (Path(root) / "src").resolve()
    sys.path.insert(0, str(src))

    import eitecho.cli as cli
    if src not in Path(cli.__file__).resolve().parents:
        print(f"eitecho imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 3

    tracer = None
    if trace == "1":
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()

    parsed_at = []
    parse_config = cli.parse_config

    def timed_parse_config(text):
        cfg = parse_config(text)
        parsed_at.append(time.monotonic())
        return cfg

    cli.parse_config = timed_parse_config
    usage = resource.getrusage(resource.RUSAGE_SELF)
    cpu_start = usage.ru_utime + usage.ru_stime
    code = cli.main(cli_args)
    ended = time.monotonic()
    usage = resource.getrusage(resource.RUSAGE_SELF)

    import numpy
    import scipy
    result = {
        "exit_code": code,
        "setup_s": parsed_at[0] - float(spawned) if parsed_at else None,
        "wall_s": ended - parsed_at[0] if parsed_at else None,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "cpu_s": usage.ru_utime + usage.ru_stime - cpu_start,
        "versions": {"numpy": numpy.__version__, "scipy": scipy.__version__},
    }
    if tracer is not None:
        result["layers"] = tracer.metrics()
        result["absent"] = sorted(tracer.absent)
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
