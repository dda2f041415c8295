"""The look-ahead golden section against the sequential search it replays.

`_golden_min` hands every point the next `depth` steps can ask for to
`prefetch` in one list before it asks `f` for the first; the compensation
search uses depth LOOKAHEAD on small ensembles and 1 on larger ones.  The reference below
is the sequential golden section (Kiefer, Proc. AMS 4, 502 (1953)), one
objective call per step.  On unimodal functions, V-shapes and flat stretches
that tie f(c) == f(d), and on intervals that end after any number of steps
(so also in the middle of a batch), the look-ahead search must return the
bitwise same (x, f), ask `f` for the same points, and have prefetched each
of them.
"""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eitecho.studies import LOOKAHEAD, _golden_min

INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def sequential_golden_min(f, lo: float, hi: float, tol: float) -> tuple[float, float]:
    a, b = lo, hi
    c = b - INVPHI * (b - a)
    d = a + INVPHI * (b - a)
    fc, fd = f(c), f(d)
    while (b - a) > tol:
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - INVPHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + INVPHI * (b - a)
            fd = f(d)
    return (c, fc) if fc <= fd else (d, fd)


def replay(f, lo: float, hi: float, tol: float, depth: int) -> tuple[list, list]:
    """Both searches of `f`; returns the reference's points and the prefetch batches."""
    visited = []

    def reference_f(x):
        visited.append(x)
        return f(x)

    expected = sequential_golden_min(reference_f, lo, hi, tol)

    fetched, batches, asked = set(), [], []

    def prefetch(xs):
        batches.append(list(xs))
        fetched.update(xs)

    def ahead_f(x):
        assert x in fetched, "asked for a point no batch computed"
        asked.append(x)
        return f(x)

    found = _golden_min(ahead_f, lo, hi, tol, prefetch=prefetch, depth=depth)
    assert (found[0].hex(), found[1].hex()) == (expected[0].hex(), expected[1].hex())
    assert asked == visited
    assert set(visited) <= fetched
    # the two interior points come in one batch (in two at depth 1), each later
    # batch covers `depth` steps
    steps = len(visited) - 2
    assert len(batches) == (1 if depth > 1 else 2) + math.ceil(steps / depth)
    assert all(len(batch) <= 2 ** depth - 1 for batch in batches)
    return visited, batches


@st.composite
def objectives(draw):
    """A unimodal function, possibly flat around or beside its minimum."""
    kind = draw(st.sampled_from(["power", "v", "flat", "steps", "constant"]))
    m = draw(st.floats(-3.0, 3.0))
    if kind == "power":
        p = draw(st.floats(0.3, 4.0))
        return lambda x: abs(x - m) ** p
    if kind == "v":
        left, right = draw(st.floats(1e-3, 1e3)), draw(st.floats(1e-3, 1e3))
        return lambda x: left * (m - x) if x < m else right * (x - m)
    if kind == "flat":
        w = draw(st.floats(0.0, 2.0))
        return lambda x: max(abs(x - m) - w, 0.0)
    if kind == "steps":
        q = draw(st.floats(0.5, 50.0))
        return lambda x: math.floor(q * (x - m) ** 2) / q
    return lambda x: 1.0


@settings(max_examples=300, deadline=None)
@given(f=objectives(), lo=st.floats(-2.0, 2.0), width=st.floats(1e-3, 8.0),
       tol_exponent=st.floats(-9.0, 0.5), depth=st.sampled_from([1, LOOKAHEAD, 3]))
@example(f=lambda x: 1.0, lo=0.0, width=1.0, tol_exponent=-3.0, depth=LOOKAHEAD)
@example(f=lambda x: abs(x), lo=-1.0, width=2.0, tol_exponent=-8.0, depth=LOOKAHEAD)
def test_lookahead_replays_the_sequential_search(f, lo, width, tol_exponent, depth):
    replay(f, lo, lo + width, width * 10.0 ** tol_exponent, depth)


@pytest.mark.parametrize("steps", range(12))
@pytest.mark.parametrize("f", [lambda x: (x - 0.3) ** 2, lambda x: max(abs(x) - 0.2, 0.0)],
                         ids=["parabola", "flat"])
@pytest.mark.parametrize("depth", [1, LOOKAHEAD])
def test_every_step_count(f, steps, depth):
    # a tolerance just above the bracket width after `steps` steps: an odd
    # count ends the search in the middle of a batch, which then computes no
    # point past the last step
    visited, batches = replay(f, -1.0, 1.0, 2.0 * INVPHI ** steps * 1.01, depth)
    assert len(visited) == steps + 2
    full, rest = divmod(steps, depth)
    assert sum(map(len, batches)) == 2 + full * (2 ** depth - 1) + 2 ** rest - 1
