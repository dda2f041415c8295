"""Reach: every function in `src/eitecho` is run by some subcommand.

All eight subcommands run through `cli.main` under `sys.setprofile`, on the
built-in config and on one that uses every key form (a {min, max, n, log}
axis, Zeeman branches, a ratio g-factor, proxy readout and --seed).  The
functions that never get called must be exactly NEVER_CALLED: code that runs
only at import, code that runs only on an error path, and
`readout.assemble_decay_curve`, which only the benchmark's reference recorder
imports.  A function that only tests use belongs in the tests.
"""

import importlib
import inspect
import pkgutil
import sys
import types
from pathlib import Path

import eitecho
from eitecho.cli import main
from eitecho.dynamics import _base_generator
from eitecho.units import _tables

FORMS_CONFIG = """\
physics: {t1_opt: 164us, t2_spin: 500us}
ensemble:
  optical_fwhm: 170kHz
  n_optical: 3
  zeeman_branches: [{offset: -3kHz, weight: 0.5}, {offset: 3kHz, weight: 0.5}]
sequence: {tau: 60us}
readout: {mode: proxy}
field_model: {g_factor: 12kHz/100uT}
studies:
  field_sweep:
    fields: {min: 1uT, max: 90uT, n: 3, log: true}
    taus: {min: 20us, max: 120us, n: 5}
  temp_scan: {temperatures: [2K, 3K, 4K]}
  scaling: {t2_opt: {min: 100ps, max: 1us, n: 3, log: true}}
"""

COMMANDS = ["validate", "simulate", "bloch-path", "qst", "field-sweep", "temp-scan",
            "scaling", "compensate"]

NEVER_CALLED = {
    # import time
    "cli._keys_help", "cli.accepts", "dynamics._GeneratorCache.__init__",
    "lambda_system._commutator_diagonal", "lambda_system._superop",
    # error paths
    "cli._Parser.error", "errors._Problems.__init__", "ensemble.MemberStack.member_name",
    "readout._inverse",
    # imported by perfbench/record_reference.py only
    "readout.assemble_decay_curve",
}


def _functions(code: types.CodeType, prefix: str, found: dict) -> None:
    """The functions defined in `code`, nested ones too, by (file, line, name)."""
    for const in code.co_consts:
        if isinstance(const, types.CodeType) and not const.co_name.startswith("<"):
            name = f"{prefix}.{const.co_name}"
            if const.co_flags & inspect.CO_NEWLOCALS:        # not a class body
                found[const.co_filename, const.co_firstlineno, const.co_name] = name
            _functions(const, name, found)


def defined_functions() -> dict:
    found = {}
    for info in pkgutil.iter_modules(eitecho.__path__):
        path = importlib.import_module(f"eitecho.{info.name}").__file__
        _functions(compile(Path(path).read_text(), path, "exec"), info.name, found)
    return found


def test_every_function_is_reached(tmp_path, capsys, monkeypatch):
    # start cold, so that what earlier tests cached is built again here
    monkeypatch.setattr(_base_generator, "store", {})
    _tables.cache_clear()
    config = tmp_path / "forms.yaml"
    config.write_text(FORMS_CONFIG)
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            called.add((code.co_filename, code.co_firstlineno, code.co_name))

    sys.setprofile(profile)
    try:
        codes = [main([command, "--out", str(tmp_path / f"{command}{k}")] + extra)
                 for command in COMMANDS
                 for k, extra in enumerate([[], ["--config", str(config), "--seed", "3"]])]
    finally:
        sys.setprofile(None)
    capsys.readouterr()
    assert codes == [0] * len(codes)
    never = {name for key, name in defined_functions().items() if key not in called}
    assert never == NEVER_CALLED
