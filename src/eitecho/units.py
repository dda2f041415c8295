"""Parsing of unit-suffixed quantities from config files, and the one CSV
cell format of every output table.

Every dimensioned config value is written with an explicit unit ("2us",
"170kHz", "50uT", "90deg") and normalized to SI here; bare numbers are only
accepted for dimensionless keys.  Ratios like the magnetic g-factor may be
written as "<frequency>/<field>", e.g. "12kHz/100uT".

Every CSV output goes through :func:`csv_text`: numbers are written in their
shortest round-trip decimal form, missing values as empty cells.  A float
table is spelled with one ``repr`` per distinct value of each block of rows,
not one per cell.
"""

from __future__ import annotations

import math
import re

import numpy as np

_PREFIXES = {
    "p": 1e-12, "n": 1e-9, "u": 1e-6, "µ": 1e-6, "m": 1e-3,
    "": 1.0, "k": 1e3, "M": 1e6, "G": 1e9,
}

_DIMENSIONS = {
    "time": "s",
    "frequency": "Hz",
    "field": "T",
    "temperature": "K",
    "angle": "rad",
}

_NUMBER = r"[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?"
_TOKEN = re.compile(rf"^({_NUMBER})\s*([a-zA-Zµ]+)$")


def _parse_with_unit(text: str, base_unit: str) -> float:
    m = _TOKEN.match(text.strip())
    if not m:
        raise ValueError(f"expected '<number><unit>' with unit {base_unit}, got {text!r}")
    value, unit = float(m.group(1)), m.group(2)
    if base_unit == "rad" and unit in ("rad", "deg"):
        return value if unit == "rad" else math.radians(value)
    if base_unit == "K":
        if unit != "K":
            raise ValueError(f"temperature must use K, got {unit!r}")
        return value
    if not unit.endswith(base_unit):
        raise ValueError(f"expected unit {base_unit}, got {unit!r}")
    prefix = unit[: len(unit) - len(base_unit)]
    if prefix not in _PREFIXES:
        raise ValueError(f"unknown unit prefix {prefix!r} in {text!r}")
    return value * _PREFIXES[prefix]


def parse_quantity(value, dimension: str) -> float:
    """Normalize one config value of the given dimension to SI units.

    The result must be finite: a value that overflows (1e400us) or is not a
    number (.inf, .nan) is rejected here rather than deep inside a run.
    """
    if dimension == "dimensionless":
        if isinstance(value, bool) or not isinstance(value, (int, float, str)):
            raise ValueError(f"expected a number, got {value!r}")
        number = float(value)
    else:
        base = _DIMENSIONS.get(dimension)
        if base is None:
            raise ValueError(f"unknown dimension {dimension!r}")
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            raise ValueError(
                f"{dimension} values need an explicit unit suffix ({base}), got bare {value!r}")
        if not isinstance(value, str):
            raise ValueError(f"expected '<number><{base}>', got {value!r}")
        number = _parse_with_unit(value, base)
    if not math.isfinite(number):
        raise ValueError(f"expected a finite value, got {value!r}")
    return number


def parse_ratio(value: str, num_dimension: str, den_dimension: str) -> float:
    """Parse a '<quantity>/<quantity>' ratio, e.g. '12kHz/100uT' in Hz per Tesla."""
    if not isinstance(value, str) or "/" not in value:
        raise ValueError(f"expected '<{num_dimension}>/<{den_dimension}>', got {value!r}")
    num, den = value.split("/", 1)
    return parse_quantity(num.strip(), num_dimension) / parse_quantity(den.strip(), den_dimension)


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    return repr(float(value))


# Rows spelled together.  Repeats sit mostly within a column, so a block of
# rows finds nearly all of them (the 8,130-row trajectory: 62,742 reprs at 256
# rows against 60,467 for the whole table), while its arrays and strings stay
# small: spelling the whole table at once raised the simulate peak RSS on the
# 21x11 ensemble by about 2.6 MB, blocks of 256 rows do not raise it.
ROWS_PER_BLOCK = 256


def _float_lines(table: np.ndarray) -> list[str]:
    """One line per row of a 2-D float table, one repr per distinct double of
    each block of ROWS_PER_BLOCK rows.

    Values are told apart by their 64-bit pattern, so 0.0 and -0.0 keep their
    own spelling and every NaN pattern is written as 'nan'.
    """
    bits = np.asarray(table, dtype=np.float64).view(np.int64)
    lines = []
    for start in range(0, len(bits), ROWS_PER_BLOCK):
        block = bits[start:start + ROWS_PER_BLOCK]
        unique, inverse = np.unique(block, return_inverse=True)
        spelled = np.array(list(map(repr, unique.view(np.float64).tolist())), dtype=object)
        lines.extend(map(",".join, spelled[inverse.reshape(block.shape)].tolist()))
    return lines


def csv_text(header: str, rows) -> str:
    """The header line plus one comma-joined line per row.

    A number is written as repr(float(value)), the shortest decimal that
    reads back to the same double (also for numpy scalars); None is an
    empty cell, and a str is written as it is.  ``rows`` may be a 2-D float
    ndarray, written with one repr per distinct value of each block of rows,
    or a dict of such tables by a tuple of label cells, each line of a table
    led by its labels.
    """
    lines = [header]
    if isinstance(rows, np.ndarray) and rows.ndim == 2 and rows.dtype.kind == "f":
        lines.extend(_float_lines(rows))
    elif isinstance(rows, dict):
        for labels, table in rows.items():
            lead = "".join(f"{label}," for label in labels)
            lines.extend(lead + line for line in _float_lines(table))
    else:
        lines.extend(",".join(map(_cell, row)) for row in rows)
    return "\n".join(lines) + "\n"
