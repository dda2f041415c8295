"""Parsing of unit-suffixed quantities from config files, and the one CSV
cell format of every output table.

Every dimensioned config value is written with an explicit unit ("2us",
"170kHz", "50uT", "90deg") and normalized to SI here; bare numbers are only
accepted for dimensionless keys.  Ratios like the magnetic g-factor may be
written as "<frequency>/<field>", e.g. "12kHz/100uT".

Every CSV output goes through :func:`csv_text`: numbers are written in their
shortest round-trip decimal form, byte for byte as ``repr(float(x))``, and
missing values as empty cells.  A float table is spelled by a numpy kernel, a
block of cells at once: Schubfach's shortest digits in 64-bit integer
arithmetic (R. Giulietti, "The Schubfach way to render doubles", 2020; the
algorithm of the JDK's ``Double.toString``), their ASCII from a table of
4-digit words, and one take through a layout table for repr's notation.
"""

from __future__ import annotations

import functools
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


# Rows spelled at once: ROWS_PER_BLOCK, or fewer in a table of more than 8
# columns, so that a block holds at most 8 * ROWS_PER_BLOCK cells.  Its
# (cells x 25) index block takes 200 B a cell, so each temporary of a block
# stays below 2 MB.
ROWS_PER_BLOCK = 1024

_M32, _M63 = np.uint64(2**32 - 1), np.uint64(2**63 - 1)
_K_MIN, _K_MAX = -324, 292
# A cell's 32-byte source row: digits d2...d17 (four 4-digit words), d1, the
# fixed characters "-.0", the exponent as a 4-digit word (its last three
# digits used), the fixed characters "e+infa", the cell's separator and the
# pad byte 0, which is compressed away.
_SOURCE = np.frombuffer(bytes(17) + b"-.0" + bytes(4) + b"e+infa" + bytes(2), np.uint8)
_D1, _MINUS, _DOT, _ZERO, _E, _PLUS, _SEP, _PAD = 16, 17, 18, 19, 24, 25, 30, 31
_EXP3, _INF, _NAN = [21, 22, 23], [26, 27, 28], [27, 29, 27]
_ONE_BITS, _INF_BITS = np.uint64(0x3FF0000000000000), np.uint64(0x7FF0000000000000)
# Layout keys: (sign * 17 + digits - 1) * 24 + form, the form the decimal
# point position -3...16 (+3) or 20 + 2 * (exponent < 0) + (3 exponent
# digits); then the five special cells 0.0, -0.0, inf, -inf and nan.
_FORMS, _SPECIAL = 24, 2 * 17 * 24


@functools.cache
def _tables():
    """Schubfach's g1, g0 (10^-k = beta 2^r, 2^125 <= beta < 2^126,
    g = floor(beta) + 1 = g1 2^63 + g0) for k in _K_MIN..._K_MAX, the ASCII
    of every 4-digit word, the powers of ten and the layout table."""
    g1, g0 = [], []
    for k in range(_K_MIN, _K_MAX + 1):
        r = ((-k * 913_124_641_741) >> 38) - 125    # floor(log2 10^-k) - 125
        num, den = (10 ** -k, 1) if k <= 0 else (1, 10 ** k)
        num, den = (num << -r, den) if r < 0 else (num, den << r)
        g = num // den + 1
        g1.append(g >> 63)
        g0.append(g & (2**63 - 1))
    words = np.indices((10,) * 4, np.uint8).reshape(4, -1).T + np.uint8(ord("0"))
    layout = [_layout(sign, n, form) for sign in (0, 1) for n in range(1, 18)
              for form in range(_FORMS)]
    layout += [[_ZERO, _DOT, _ZERO], [_MINUS, _ZERO, _DOT, _ZERO], _INF, [_MINUS, *_INF], _NAN]
    return (np.array(g1, np.uint64), np.array(g0, np.uint64),
            np.ascontiguousarray(words).view(np.uint32)[:, 0],
            np.array([10 ** i for i in range(18)], np.uint64),
            np.array([i for row in layout for i in [*row, *[_PAD] * (24 - len(row)), _SEP]],
                     np.intp).reshape(-1, 25))


def _layout(sign: int, n: int, form: int) -> list:
    """Source slots of one cell spelled as repr does: n digits, in positional
    notation when the decimal point sits at -3...16, else in exponent form."""
    digits = [_D1, *range(n - 1)]
    if form >= 20:
        negative, three = divmod(form - 20, 2)
        body = [digits[0], *([_DOT, *digits[1:]] if n > 1 else []), _E,
                _MINUS if negative else _PLUS, *_EXP3[1 - three:]]
    elif (point := form - 3) <= 0:
        body = [_ZERO, _DOT, *[_ZERO] * -point, *digits]
    elif point < n:
        body = [*digits[:point], _DOT, *digits[point:]]
    else:
        body = [*digits, *[_ZERO] * (point - n), _DOT, _ZERO]
    return [_MINUS] * sign + body


def _mul_hi(ah, al, bh, bl):
    """High 64 bits of (ah 2^32 + al)(bh 2^32 + bl), each half < 2^32."""
    ll, lh = al * bl, al * bh
    mid = ah * bl + (ll >> 32) + (lh & _M32)            # < 2^64
    return ah * bh + (lh >> 32) + (mid >> 32)


def _rop(g1, g, cp):
    """Schubfach's r_o'(g cp 2^-127), round to odd, as the JDK computes it,
    with g = g1 2^63 + g0 and g the 32-bit halves of g1 and g0."""
    ch, cl = cp >> 32, cp & _M32
    z = ((g1 * cp) >> 1) + _mul_hi(g[2], g[3], ch, cl)
    return (_mul_hi(g[0], g[1], ch, cl) + (z >> 63)) | ((z & _M63) != 0)


def _shortest(bits: np.ndarray, g1t, g0t):
    """Digits d and exponent k of the shortest decimal d 10^k that reads back
    to each finite positive double (Giulietti, "The Schubfach way to render
    doubles", 2020), the closest to it on a tie of length, even on a tie.
    Unlike the JDK's Double.toString it never pads to two digits: the least
    subnormal gives 5e-324, not 4.9e-324."""
    t = bits & np.uint64(2**52 - 1)
    bq = (bits >> 52).astype(np.int64)
    c = np.where(bq > 0, t | np.uint64(2**52), t)
    q = np.maximum(bq, 1) - 1075
    irregular = (t == 0) & (bq > 1)         # the gap below is half the gap above
    k = (q * 661_971_961_083 - irregular * 274_743_187_321) >> 41
    h = (q + ((-k * 913_124_641_741) >> 38) + 2).astype(np.uint64)
    g1, g0 = g1t.take(k - _K_MIN), g0t.take(k - _K_MIN)
    g = g1 >> 32, g1 & _M32, g0 >> 32, g0 & _M32
    cb = c << 2
    # the interval of decimals that read back, ends scaled like vb; an odd c
    # leaves its ends out, since they round to the even neighbour
    vb = _rop(g1, g, cb << h)
    vbl = _rop(g1, g, (cb - 2 + irregular) << h) + (c & 1)
    vbr = _rop(g1, g, (cb + 2) << h) - (c & 1)
    s = vb >> 2
    # one digit shorter: at most one multiple of 10^(k+1) lies in the interval;
    # the JDK tries it only for s >= 100, which would give 7.9e-323 for 8e-323
    sp10 = s // 10 * 10
    up, wp = vbl <= sp10 << 2, (sp10 << 2) + 40 <= vbr
    u, w = vbl <= s << 2, (s << 2) + 4 <= vbr
    # with both s and s + 1 in the interval, the closer one, s on a tie if even
    frac = vb & 3
    lower = np.where(u != w, u, (frac < 2) | ((frac == 2) & ((s & 1) == 0)))
    d = np.where(up != wp, sp10 + np.uint64(10) * wp, s + ~lower)
    return d, k


def _spelled(bits: np.ndarray, src: np.ndarray, tables) -> np.ndarray:
    """(rows, cells x 25) bytes of a 2-D block of float64 bit patterns: each
    cell as repr(float(cell)) followed by its separator, padded with zero
    bytes.  ``src`` holds a source row of 32 bytes per cell, its fixed
    characters and separators in place; the digits are written here."""
    g1t, g0t, words, pow10, layout = tables
    n_cells = bits.size
    sign = (bits >> 63).ravel().astype(np.intp)
    mag = bits.ravel() & _M63
    zero, nonfinite = mag == 0, mag >= _INF_BITS
    special = zero | nonfinite
    d, k = _shortest(np.where(special, _ONE_BITS, mag), g1t, g0t)
    n_digits = np.searchsorted(pow10, d, side="right")
    point = k + n_digits                    # d 10^k = 0.d1d2... 10^point
    d = d * pow10.take(17 - n_digits)       # d1...d17
    top = d // np.uint64(10**16)
    high = d // np.uint64(10**8) - top * np.uint64(10**8)
    low = d % np.uint64(10**8)
    quads = np.empty((n_cells, 4), np.intp)            # d2...d17, four digits each
    quads[:, 0], quads[:, 2] = high // 10**4, low // 10**4
    quads[:, 1], quads[:, 3] = high - quads[:, 0] * 10**4, low - quads[:, 2] * 10**4
    chars = words.take(quads)
    src.view(np.uint32)[:, :4] = chars
    src[:, _D1] = top + ord("0")
    exponent = point - 1
    src.view(np.uint32)[:, 5] = words.take(np.abs(exponent))
    # d2...d17 less '0', byte by byte: the highest nonzero byte is the last
    # significant digit, read off the exponent of its float (bytes < 16)
    digits = chars.view("<u8") ^ np.uint64(0x3030303030303030)
    upper = digits[:, 1] != 0
    last = (np.where(upper, digits[:, 1], digits[:, 0]).astype(np.float64).view(np.int64)
            >> 52) - 1023
    n = np.where(last >= 0, (last >> 3) + 2 + 8 * upper, 1)
    form = np.where((point < -3) | (point > 16),
                    20 + 2 * (exponent < 0) + (np.abs(exponent) >= 100), point + 3)
    key = np.where(special,
                   _SPECIAL + np.where(zero, sign, np.where(mag > _INF_BITS, 4, 2 + sign)),
                   (sign * 17 + n - 1) * _FORMS + form)
    index = layout.take(key, axis=0)
    index += np.arange(0, src.size, 32, dtype=np.intp)[:, None]
    return src.reshape(-1).take(index).reshape(len(bits), -1)


def _float_rows(table: np.ndarray, lead: str = "") -> str:
    """One line per row of a 2-D float table, each led by ``lead``: every
    cell spelled byte for byte as repr(float(cell)), a block of cells at once.

    Digits come from :func:`_shortest`, 4-digit words of them from a lookup
    table, and one take through the layout table places each character;
    the pad bytes are then compressed away.  0.0 and -0.0 keep their own
    spelling and every NaN pattern is written as 'nan'.
    """
    # a signalling NaN of a float32 table sets the invalid flag as it is cast
    with np.errstate(invalid="ignore"):
        bits = np.ascontiguousarray(table, dtype=np.float64).view(np.uint64)
    rows, cols = bits.shape
    if not cols:
        return (lead + "\n") * rows
    tables = _tables()
    prefix = np.frombuffer(lead.encode(), np.uint8)
    step = max(1, 8 * ROWS_PER_BLOCK // max(cols, 8))
    src = np.tile(_SOURCE, (min(step, rows), cols, 1))
    src[:, :-1, _SEP], src[:, -1, _SEP] = ord(","), ord("\n")
    chunks = []
    for start in range(0, rows, step):
        block = bits[start:start + step]
        block = _spelled(block, src[:len(block)].reshape(-1, 32), tables)
        if prefix.size:
            block = np.concatenate([np.broadcast_to(prefix, (len(block), prefix.size)), block],
                                   axis=1)
        chunks.append(block[block != 0].tobytes())
    return b"".join(chunks).decode()


def csv_text(header: str, rows) -> str:
    """The header line plus one comma-joined line per row.

    A number is written as repr(float(value)), the shortest decimal that
    reads back to the same double (also for numpy scalars); None is an
    empty cell, and a str is written as it is.  ``rows`` may be a 2-D float
    ndarray, spelled a block of cells at a time, or a dict of such tables by
    a tuple of label cells, each line of a table led by its labels.
    """
    if isinstance(rows, np.ndarray) and rows.ndim == 2 and rows.dtype.kind == "f":
        return header + "\n" + _float_rows(rows)
    if isinstance(rows, dict):
        return header + "\n" + "".join(
            _float_rows(table, "".join(f"{label}," for label in labels))
            for labels, table in rows.items())
    return "".join(line + "\n" for line in [header, *(",".join(map(_cell, row)) for row in rows)])
