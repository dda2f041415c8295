"""The lockstep Brent search against scipy's bounded minimizer on each axis alone.

`lockstep_brent` runs one bounded Brent search (`brent_min`) per component
of its bracket, the pending trial points of all unfinished components in one
call of the objective.  The independent oracle is
`scipy.optimize.fminbound`, run on each component alone with the same
tolerance and evaluation cap.  On separable objectives built from unimodal
functions, V-shapes, flat stretches and steps that tie values, each
component of the lockstep search must visit bitwise the same points as
`fminbound` and return the same (x, f).  The last test checks the
compensation search itself, axis by axis, against `fminbound` on an
objective that computes one decay curve per call, through the search's own
table of maps.  `golden_steps` sets the
cap: the evaluations a golden section (Kiefer, Proc. AMS 4, 502 (1953))
needs to shrink the bracket to the tolerance.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import fminbound

from eitecho.ensemble import EnsembleSpec
from eitecho.lambda_system import LambdaParams
import eitecho.studies as studies
from eitecho.readout import _echo_amplitudes, zeeman_table
from eitecho.sequences import EchoConfig, echo_layout
from eitecho.studies import (INVPHI, FieldModel, branches_for_splitting,
                             compensation_bracket_taus, compensation_search, golden_steps,
                             lockstep_brent, splitting_from_field)


def oracle(f, lo: float, hi: float, xatol: float, cap: int) -> tuple:
    """fminbound's (x, f) and the points it visits."""
    visits = []

    def recording(x):
        visits.append(float(x))
        return f(float(x))

    x, fx, _, calls = fminbound(recording, lo, hi, xtol=xatol, maxfun=cap, disp=0,
                                full_output=True)
    assert calls == len(visits) <= cap
    return float(x), float(fx), visits


def replay(fs, lo: list, hi: list, xatol: float, cap: int) -> tuple:
    """The lockstep search of the separable objective (f_0, f_1, ...) against
    fminbound on each f_i; returns each axis's point and visited points."""
    calls, lockstep_visits = [], [[] for _ in fs]

    def lockstep_f(axes, x):
        assert x.shape == (len(axes),) and list(axes) == sorted(set(axes))
        calls.append(list(axes))
        for i, xi in zip(axes, x):
            lockstep_visits[i].append(float(xi))
        return np.array([fs[i](float(xi)) for i, xi in zip(axes, x)])

    found, values = lockstep_brent(lockstep_f, np.array(lo, dtype=float),
                                   np.array(hi, dtype=float), xatol, cap)
    # one call per round, each with every axis still searching
    assert len(calls) == max(map(len, lockstep_visits))
    assert all(calls[k] == [i for i, v in enumerate(lockstep_visits) if len(v) > k]
               for k in range(len(calls)))
    for i, f in enumerate(fs):
        x, fx, visits = oracle(f, lo[i], hi[i], xatol, cap)
        assert (float(found[i]).hex(), float(values[i]).hex()) == (x.hex(), fx.hex())
        assert [v.hex() for v in lockstep_visits[i]] == [v.hex() for v in visits]
    return found, lockstep_visits


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
@given(fs=st.lists(objectives(), min_size=3, max_size=3),
       lo=st.lists(st.floats(-2.0, 2.0), min_size=3, max_size=3),
       width=st.lists(st.floats(1e-3, 8.0), min_size=3, max_size=3),
       xatol=st.floats(1e-12, 1.0),
       steps=st.integers(0, 60))
@example(fs=[lambda x: 1.0] * 3, lo=[0.0] * 3, width=[1.0] * 3, xatol=1e-6, steps=14)
@example(fs=[abs, lambda x: 1.0, lambda x: max(abs(x) - 0.2, 0.0)], lo=[-1.0] * 3,
         width=[2.0] * 3, xatol=1e-9, steps=40)
# a step function whose fourth value ties the second best above the best
@example(fs=[lambda x: math.floor(20.927836708287632 * (x - 1.1129383312157834) ** 2)
             / 20.927836708287632] * 3, lo=[-1.6624190410892297] * 3,
         width=[6.51118022329283] * 3, xatol=5.081999186064381e-06, steps=3)
def test_lockstep_replays_the_sequential_search(fs, lo, width, xatol, steps):
    replay(fs, lo, [a + w for a, w in zip(lo, width)], xatol, 2 + steps)


@pytest.mark.parametrize("steps", range(12))
@pytest.mark.parametrize("f, minima", [(lambda x: (x - 0.3) ** 2, (0.3, 0.3)),
                                       (lambda x: max(abs(x) - 0.2, 0.0), (-0.2, 0.2))],
                         ids=["parabola", "flat"])
@pytest.mark.parametrize("half_width", [1, 2])
def test_every_step_count(f, minima, steps, half_width):
    # a tolerance just above four times the bracket width after `steps`
    # golden-section steps: golden_steps asks for exactly that many, the cap
    # is 2 + steps values per axis, and each axis ends within tol / 4 of the
    # minima inside its bracket, or of the bracket end nearest to them
    tol = 8.0 * half_width * INVPHI ** steps * 1.01
    assert golden_steps(half_width, tol) == steps
    lo, hi = [-half_width, -half_width, 0.5], [half_width, 0.0, half_width]
    found, visits = replay([f] * 3, lo, hi, tol / 4, 2 + steps)
    assert all(len(v) <= steps + 2 for v in visits)
    for x, a, b in zip(found, lo, hi):
        first, last = (min(max(m, a), b) for m in minima)
        assert max(first - x, x - last, 0.0) <= tol / 4


@pytest.mark.parametrize("search_range, tol, steps", [
    # the default search; a tolerance below the float spacing of the
    # compensation values, where a search run to a bracket width never ended;
    # a subnormal tolerance and a huge range, whose quotient would overflow;
    # a tolerance wider than the box
    (100e-6, 1e-6, 14), (1e-6, 1e-28, 110), (100e-6, 5e-324, 1533), (1e300, 5e-324, 2987),
    (100e-6, 1e-3, 0)])
def test_step_count(search_range, tol, steps):
    assert golden_steps(search_range, tol) == steps
    if steps:
        assert 2.0 * search_range * INVPHI ** steps <= tol / 4.0 * (1.0 + 1e-12)


def test_compensation_search_replays_each_axis(monkeypatch):
    # criterion 12's search: each axis's result is fminbound on that axis
    # alone, with the other two held at the start vector and one decay curve
    # computed per call, its maps from the search's own table
    cfg, params, spec = EchoConfig(tau=30e-6), LambdaParams(gamma_spin_deph=1.0 / 500e-6), \
        EnsembleSpec()
    model = FieldModel(field_vector=(20e-6, -10e-6, 45e-6))
    tables = []

    def recording(*args):
        tables.append(zeeman_table(*args))
        return tables[-1]

    monkeypatch.setattr(studies, "zeeman_table", recording)
    res = compensation_search(model, cfg, params, spec, np.linspace(15e-6, 120e-6, 6),
                              tol=1e-6, mode="proxy")
    (table,) = tables
    assert table is not None
    window = compensation_bracket_taus(model, cfg, 100e-6)
    visits = 0
    for axis in range(3):
        def modulation(x: float) -> float:
            comp = [0.0, 0.0, 0.0]
            comp[axis] = x
            branches = branches_for_splitting(splitting_from_field(
                replace(model, compensation_vector=tuple(comp))))
            amplitudes = _echo_amplitudes(cfg, window, echo_layout(cfg, window), params,
                                          [replace(spec, zeeman_branches=branches)], "proxy",
                                          None, table)
            return -float(np.sum(np.ascontiguousarray(amplitudes[:, 0])))

        x, f, points = oracle(modulation, -100e-6, 100e-6, 1e-6 / 4,
                              2 + golden_steps(100e-6, 1e-6))
        visits += len(points)
        assert res.compensation[axis].hex() == x.hex()
        trial, amplitude = res.history[1 + axis]
        assert trial[axis].hex() == x.hex() and amplitude.hex() == (-f).hex()
    # the start, every axis's trial points and the found vector twice
    assert res.evaluations == 1 + visits + 2
