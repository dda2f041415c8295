"""The lockstep golden section against the sequential search of each axis.

`golden_section` runs one golden-section search per component of its
bracket, all components' trial points in one call of the objective.  The
reference below is the sequential golden section (Kiefer, Proc. AMS 4, 502
(1953)), one objective call per step, run for the same fixed step count.  On
separable objectives built from unimodal functions, V-shapes and flat
stretches that tie f(c) == f(d), each component of the lockstep search must
return the bitwise same (x, f) as the sequential search of that component
alone, and ask for the same points.  The last test checks the compensation
search itself, axis by axis, against a sequential search that computes one
decay curve per call.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eitecho.ensemble import EnsembleSpec
from eitecho.lambda_system import LambdaParams
from eitecho.readout import assemble_decay_curves
from eitecho.sequences import EchoConfig
from eitecho.studies import (INVPHI, FieldModel, branches_for_splitting,
                             compensation_bracket_taus, compensation_search, golden_section,
                             golden_steps, splitting_from_field)


def sequential_golden_min(f, lo: float, hi: float, steps: int) -> tuple[float, float]:
    a, b = lo, hi
    c = b - INVPHI * (b - a)
    d = a + INVPHI * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(steps):
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - INVPHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + INVPHI * (b - a)
            fd = f(d)
    return (c, fc) if fc <= fd else (d, fd)


def replay(fs, lo: list, hi: list, steps: int) -> tuple:
    """The lockstep search of the separable objective (f_0, f_1, ...) against the
    sequential search of each f_i; returns each axis's point and visited points."""
    calls, lockstep_visits = [], [[] for _ in fs]

    def lockstep_f(x):
        assert x.shape == (len(fs),)
        calls.append(x)
        for visits, xi in zip(lockstep_visits, x):
            visits.append(float(xi))
        return np.array([f(float(xi)) for f, xi in zip(fs, x)])

    found, values = golden_section(lockstep_f, np.array(lo, dtype=float),
                                   np.array(hi, dtype=float), steps)
    assert len(calls) == 2 + steps
    for i, f in enumerate(fs):
        visits = []

        def recording(x, f=f, visits=visits):
            visits.append(x)
            return f(x)

        expected = sequential_golden_min(recording, lo[i], hi[i], steps)
        assert (float(found[i]).hex(), float(values[i]).hex()) == \
            (expected[0].hex(), expected[1].hex())
        assert [x.hex() for x in lockstep_visits[i]] == [x.hex() for x in visits]
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
       steps=st.integers(0, 60))
@example(fs=[lambda x: 1.0] * 3, lo=[0.0] * 3, width=[1.0] * 3, steps=14)
@example(fs=[abs, lambda x: 1.0, lambda x: max(abs(x) - 0.2, 0.0)], lo=[-1.0] * 3,
         width=[2.0] * 3, steps=40)
def test_lockstep_replays_the_sequential_search(fs, lo, width, steps):
    replay(fs, lo, [a + w for a, w in zip(lo, width)], steps)


@pytest.mark.parametrize("steps", range(12))
@pytest.mark.parametrize("f, minima", [(lambda x: (x - 0.3) ** 2, (0.3, 0.3)),
                                       (lambda x: max(abs(x) - 0.2, 0.0), (-0.2, 0.2))],
                         ids=["parabola", "flat"])
@pytest.mark.parametrize("half_width", [1, 2])
def test_every_step_count(f, minima, steps, half_width):
    # a tolerance just above four times the bracket width after `steps` steps:
    # golden_steps asks for exactly that many, and each axis ends within tol / 4
    # of the minima inside its bracket, or of the bracket end nearest to them
    tol = 8.0 * half_width * INVPHI ** steps * 1.01
    assert golden_steps(half_width, tol) == steps
    lo, hi = [-half_width, -half_width, 0.5], [half_width, 0.0, half_width]
    found, visits = replay([f] * 3, lo, hi, steps)
    assert all(len(v) == steps + 2 for v in visits)
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


def test_compensation_search_replays_each_axis():
    # criterion 12's search: each axis's result is the sequential golden section
    # of that axis alone, with the other two held at the start vector and one
    # decay curve computed per call
    cfg, params, spec = EchoConfig(tau=30e-6), LambdaParams(gamma_spin_deph=1.0 / 500e-6), \
        EnsembleSpec()
    model = FieldModel(field_vector=(20e-6, -10e-6, 45e-6))
    res = compensation_search(model, cfg, params, spec, np.linspace(15e-6, 120e-6, 6),
                              tol=1e-6, mode="proxy")
    window = compensation_bracket_taus(model, cfg, 100e-6)
    for axis in range(3):
        def modulation(x: float) -> float:
            comp = [0.0, 0.0, 0.0]
            comp[axis] = x
            branches = branches_for_splitting(splitting_from_field(
                replace(model, compensation_vector=tuple(comp))))
            curve, = assemble_decay_curves(cfg, window, params,
                                           [replace(spec, zeeman_branches=branches)],
                                           mode="proxy")
            return -float(np.sum(curve.amplitudes))

        x, f = sequential_golden_min(modulation, -100e-6, 100e-6, golden_steps(100e-6, 1e-6))
        assert res.compensation[axis].hex() == x.hex()
        trial, amplitude = res.history[1 + axis]
        assert trial[axis].hex() == x.hex() and amplitude.hex() == (-f).hex()
