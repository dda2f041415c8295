"""Process start-up: which modules the CLI imports, the BLAS thread default and
the package's exported names."""

import os
import subprocess
import sys
from pathlib import Path

import eitecho

SRC = str(Path(__file__).resolve().parents[1] / "src")
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# the subcommands whose modules PROBE checks: every study subcommand
SUBCOMMANDS = ("temp-scan", "compensate", "simulate", "field-sweep", "scaling", "qst",
               "bloch-path")
# prints the BLAS variables, then the scipy modules loaded after importing the
# CLI, then after each of SUBCOMMANDS, run in turn into the directory given as
# argv[1], its exit code, the scipy modules and whether numpy.ma is loaded
# (np.unique and its kin import it on first use, 10-19 ms of a cold run) and
# numpy.polynomial (~4 ms of import; the compensation search's Chebyshev
# tables are built with cos and a matrix product instead)
PROBE = f"""
import contextlib, io, os, sys
import eitecho.cli as cli
print(','.join(os.environ[v] for v in {BLAS_VARS!r}))
scipy_modules = lambda: sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')
print(scipy_modules())
for name in {SUBCOMMANDS!r}:
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main([name, '--out', os.path.join(sys.argv[1], name)])
    print(name, code, scipy_modules(), 'numpy.ma' in sys.modules,
          'numpy.polynomial' in sys.modules)
"""


def start_cli(out_dir, **env_vars) -> list:
    """Output lines of PROBE in a fresh interpreter whose environment sets no BLAS variable."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    env.update(env_vars)
    done = subprocess.run([sys.executable, "-c", PROBE, str(out_dir)], env=env,
                          capture_output=True, text=True, check=True, timeout=120)
    return done.stdout.split("\n")[:2 + len(SUBCOMMANDS)]


def test_default_start_up_is_lean_and_single_threaded(tmp_path):
    assert start_cli(tmp_path) == ["1,1,1", "[]"] + [f"{name} 0 [] False False"
                                                     for name in SUBCOMMANDS]


def test_user_set_blas_threads_win(tmp_path):
    assert start_cli(tmp_path, OPENBLAS_NUM_THREADS="2", MKL_NUM_THREADS="3")[0] == "2,1,3"


def test_every_exported_name_resolves():
    missing = [name for name in eitecho.__all__ if not hasattr(eitecho, name)]
    assert missing == []
