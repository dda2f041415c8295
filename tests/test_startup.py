"""Process start-up: which modules the CLI imports, the BLAS thread default and
the package's exported names."""

import os
import subprocess
import sys
from pathlib import Path

import eitecho

SRC = str(Path(__file__).resolve().parents[1] / "src")
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# prints the BLAS variables, then any scipy.stats or scipy.interpolate module loaded
PROBE = ("import os, sys, eitecho.cli; "
         f"print(','.join(os.environ[v] for v in {BLAS_VARS!r})); "
         "print(sorted(m for m in sys.modules "
         "if m.split('.')[:2] in (['scipy', 'stats'], ['scipy', 'interpolate'])))")


def start_cli(**env_vars) -> list:
    """Output lines of PROBE in a fresh interpreter whose environment sets no BLAS variable."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    env.update(env_vars)
    done = subprocess.run([sys.executable, "-c", PROBE], env=env, capture_output=True,
                          text=True, check=True, timeout=120)
    return done.stdout.split("\n")[:2]


def test_default_start_up_is_lean_and_single_threaded():
    assert start_cli() == ["1,1,1", "[]"]


def test_user_set_blas_threads_win():
    assert start_cli(OPENBLAS_NUM_THREADS="2", MKL_NUM_THREADS="3")[0] == "2,1,3"


def test_every_exported_name_resolves():
    missing = [name for name in eitecho.__all__ if not hasattr(eitecho, name)]
    assert missing == []
