"""The separable decay fit: recovery of exact curves, runaways that fail at
once with their reason, a scipy least-squares oracle on the default study
curves, and stacks of curves fitted together with the bits and failures of
each curve fitted alone."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import least_squares

from eitecho import readout
from eitecho.config import DEFAULT_CONFIG_TEXT, parse_config
from eitecho.errors import FitFailureError, ValidationError
from eitecho.readout import (FIT_RATE_GRID, DecayCurve, FitResult, assemble_decay_curve,
                             fit_decay)
from eitecho.studies import field_sweep

SPAN = 160e-6


@settings(max_examples=200, deadline=None)
@given(first_amplitude=st.floats(1e-3, 1e3).flatmap(lambda a: st.sampled_from([a, -a])),
       t2_in_spans=st.floats(-2.0, 2.0).map(lambda e: 10.0 ** e),
       start_in_spans=st.floats(0.0, 1.0),
       offset_above_floor=st.floats(0.0, 5.0),
       n=st.integers(15, 40))
def test_noiseless_curves_are_recovered(first_amplitude, t2_in_spans, start_in_spans,
                                        offset_above_floor, n):
    # A e^{-tau/T2} + C with A e^{-tau_0/T2} = first_amplitude at the first
    # storage time tau_0, and C at or above the least offset keeping y >= 0
    t2 = t2_in_spans * SPAN
    taus = start_in_spans * SPAN + np.linspace(0.0, SPAN, n)
    decay = np.exp(-(taus - taus[0]) / t2)
    floor = -min(first_amplitude * decay.min(), first_amplitude * decay.max())
    offset = floor + offset_above_floor * abs(first_amplitude)
    amplitude = first_amplitude * np.exp(taus[0] / t2)
    y = np.maximum(first_amplitude * decay + offset, 0.0)
    fit = fit_decay(DecayCurve(taus=taus, amplitudes=y))
    scale = abs(first_amplitude)
    assert fit.t2 == pytest.approx(t2, rel=1e-8)
    assert fit.amplitude == pytest.approx(amplitude, rel=1e-8)
    assert fit.offset == pytest.approx(offset, rel=1e-8, abs=1e-8 * scale)


def test_concave_decrease_is_a_straight_line_without_refinement(monkeypatch):
    def refine(*args):
        raise AssertionError("a runaway must not be refined")

    monkeypatch.setattr(readout, "_refine_rate", refine)
    taus = np.linspace(20e-6, 180e-6, 9)
    y = 1.0 - ((taus - taus[0]) / (taus[-1] - taus[0])) ** 2
    with pytest.raises(FitFailureError, match="straight line") as failure:
        fit_decay(DecayCurve(taus=taus, amplitudes=y))
    diagnostics = failure.value.diagnostics
    assert diagnostics["reason"] == "straight line"
    assert diagnostics["best_rate_per_s"] == pytest.approx(FIT_RATE_GRID[0] / 160e-6)
    assert diagnostics["cost_slow_end"] < diagnostics["cost_fast_end"]


def test_drop_after_the_first_point_is_a_step():
    taus = np.linspace(20e-6, 180e-6, 9)
    y = np.full(taus.size, 0.25)
    y[0] = 1.0
    with pytest.raises(FitFailureError, match="step") as failure:
        fit_decay(DecayCurve(taus=taus, amplitudes=y))
    diagnostics = failure.value.diagnostics
    assert diagnostics["reason"] == "step"
    assert diagnostics["best_rate_per_s"] == pytest.approx(FIT_RATE_GRID[-1] / 160e-6)


def test_amplitude_beyond_float_range_is_a_fit_failure():
    # a decay over 1 ms seen 1 s after tau = 0: A = e^{1000} times its first value
    taus = 1.0 + np.linspace(0.0, 1e-3, 8)
    y = np.exp(-(taus - taus[0]) / 0.5e-3)
    with pytest.raises(FitFailureError, match="unphysical") as failure:
        fit_decay(DecayCurve(taus=taus, amplitudes=y))
    assert failure.value.diagnostics["theta"][0] == np.inf


def _default_curves() -> list:
    cfg = parse_config(DEFAULT_CONFIG_TEXT)
    ts, fs = cfg.temp_scan, cfg.field_sweep
    model = cfg.temp_scan.model
    curves = [assemble_decay_curve(cfg.sequence, ts.taus,
                                   cfg.physics.replace(gamma_opt_deph=model.gamma_opt_deph(t)),
                                   cfg.ensemble, mode="proxy") for t in ts.temperatures]
    points = field_sweep(fs.fields, cfg.sequence, cfg.physics, cfg.ensemble, fs.taus,
                         cfg.field_model, mode=cfg.readout_mode)
    return curves + [p.curve for p in points]


def _cost(theta, curve) -> np.longdouble:
    """Squared residual norm in extended precision: in float64 the rounding of
    the model alone moves a near-exact curve's cost by ~1e-10 relative."""
    a, t2, c = (np.longdouble(v) for v in theta)
    taus = curve.taus.astype(np.longdouble)
    r = a * np.exp(-taus / t2) + c - curve.amplitudes.astype(np.longdouble)
    return r @ r


@pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18,
                    reason="the cost comparison needs an extended-precision long double")
def test_least_squares_cannot_improve_on_the_default_study_fits():
    converged = 0
    for curve in _default_curves():
        try:
            fit = fit_decay(curve)
        except FitFailureError as exc:
            assert exc.diagnostics["reason"] == "straight line"
            continue
        converged += 1
        theta = np.array([fit.amplitude, fit.t2, fit.offset])
        oracle = least_squares(
            lambda p: p[0] * np.exp(-curve.taus / p[1]) + p[2] - curve.amplitudes,
            theta, x_scale=np.abs(theta), method="lm", xtol=1e-15, ftol=1e-15, gtol=1e-15)
        ours = _cost(theta, curve)
        assert _cost(oracle.x, curve) >= ours * (1.0 - 1e-12)
        assert fit.t2 == pytest.approx(oracle.x[1], rel=1e-7)
    # 3 of 5 temperatures and 15 of 20 fields: the 3.9 K and 5.5 K curves and
    # the 10-30 uT beats run away to straight lines
    assert converged == 3 + 15


KINDS = ("decay", "straight line", "step", "zero variance", "non-finite")


def stack_curve(kind: str, taus: np.ndarray, t2_in_spans: float, seed: int) -> DecayCurve:
    """A curve of `kind` on `taus`: a noisy decay of T2 = t2_in_spans spans, one
    that fails as each runaway, a constant one or one with a non-finite point."""
    rng = np.random.default_rng(seed)
    x = (taus - taus[0]) / (taus[-1] - taus[0])
    if kind == "decay":
        y = np.exp(-x / t2_in_spans) + rng.uniform(0.0, 1.0) + 1e-3 * rng.normal(size=x.size)
    elif kind == "straight line":
        y = 1.0 - x ** 2
    elif kind == "step":
        y = np.full(x.size, 0.25)
        y[0] = 1.0
    elif kind == "zero variance":
        y = np.full(x.size, rng.uniform(0.0, 1.0))
    else:
        y = np.exp(-x)
        y[rng.integers(x.size)] = rng.choice([np.nan, np.inf])
    return DecayCurve(taus=taus, amplitudes=np.abs(y))


def alone(curve: DecayCurve):
    try:
        return fit_decay(curve)
    except FitFailureError as exc:
        return exc


def assert_same_fit(got, want) -> None:
    """Bitwise: a FitResult field for field, a failure by message and diagnostics."""
    assert type(got) is type(want)
    if isinstance(want, FitFailureError):
        assert (str(got), repr(got.diagnostics)) == (str(want), repr(want.diagnostics))
        return
    fields = lambda f: [v.hex() for v in (f.amplitude, f.t2, f.offset, *f.ci95, f.residual_rms)]
    assert fields(got) == fields(want)
    assert got.iterations == want.iterations
    assert np.array_equal(got.covariance.view(np.uint64), want.covariance.view(np.uint64))


# every kind of curve in one stack, on storage times starting 1000 spans
# late: there the fast decay's amplitude at tau = 0 overflows ("unphysical")
# while the slow one fits
EVERY_KIND = [("decay", 3.0), ("decay", 0.2), *((kind, 1.0) for kind in KINDS[1:])]


@settings(max_examples=150, deadline=None)
@given(curves=st.lists(st.tuples(st.sampled_from(KINDS), st.floats(0.05, 20.0)), min_size=1,
                       max_size=8),
       start_in_spans=st.sampled_from([0.0, 0.5, 1000.0]), n=st.integers(5, 30),
       seed=st.integers(0, 2 ** 32 - 1))
@example(curves=EVERY_KIND, start_in_spans=1000.0, n=9, seed=0)
def test_a_stack_fits_each_curve_as_alone(curves, start_in_spans, n, seed):
    taus = (start_in_spans + np.linspace(0.0, 1.0, n)) * SPAN
    stack = [stack_curve(kind, taus, t2, seed + k) for k, (kind, t2) in enumerate(curves)]
    fits = fit_decay(stack)
    assert len(fits) == len(stack)
    for curve, fit in zip(stack, fits):
        assert_same_fit(fit, alone(curve))


@pytest.mark.parametrize("curves_per_block", [1, 2, 3])
def test_a_stack_fits_each_curve_as_alone_in_grid_blocks(monkeypatch, curves_per_block):
    # the grid stage takes the 4 curves that reach it a block at a time: one
    # each, two blocks of two, and one of three beside one of one
    taus = (1000.0 + np.linspace(0.0, 1.0, 9)) * SPAN
    stack = [stack_curve(kind, taus, t2, k) for k, (kind, t2) in enumerate(EVERY_KIND)]
    monkeypatch.setattr(readout, "FIT_GRID_VALUES", curves_per_block * FIT_RATE_GRID.size * 9)
    for curve, fit in zip(stack, fit_decay(stack), strict=True):
        assert_same_fit(fit, alone(curve))


def test_every_failure_of_a_stack_keeps_its_reason():
    taus = (1000.0 + np.linspace(0.0, 1.0, 9)) * SPAN
    stack = [stack_curve(kind, taus, t2, k) for k, (kind, t2) in enumerate(EVERY_KIND)]
    fits = fit_decay(stack)
    assert isinstance(fits[0], FitResult)
    assert [str(f).split(":")[-1].strip() if not f.diagnostics.get("reason") else
            f.diagnostics["reason"] for f in fits[1:]] == [
        "fit_decay converged to unphysical parameters", "straight line", "step",
        "degenerate curve with zero variance", "non-finite amplitudes"]


def test_a_curve_without_bracket_fails_alone_and_in_a_stack(monkeypatch):
    # on a coarse grid a fast and a slow decay leave two wells in the reduced
    # cost, and the best grid rate has no sign change of the slope beside it
    monkeypatch.setattr(readout, "FIT_RATE_GRID", np.logspace(-3.0, 3.0, 13))
    taus = np.linspace(0.0, 1.0, 37)
    two_wells = DecayCurve(taus=taus,
                           amplitudes=np.exp(-0.3 * taus) + 0.5 * np.exp(-300.0 * taus))
    stack = [stack_curve("decay", taus, 0.5, 1), two_wells, stack_curve("step", taus, 1.0, 2)]
    fits = fit_decay(stack)
    assert fits[1].diagnostics["reason"] == "no bracket"
    for curve, fit in zip(stack, fits):
        assert_same_fit(fit, alone(curve))


def test_short_curves_fail_and_a_ragged_stack_is_refused():
    short = DecayCurve(taus=np.linspace(1e-6, 4e-6, 4), amplitudes=np.array([4.0, 3.0, 2.0, 1.5]))
    fits = fit_decay([short, short])
    assert [str(f) for f in fits] == ["fit_decay needs at least 5 points, got 4"] * 2
    longer = stack_curve("decay", np.linspace(1e-6, 9e-6, 9), 1.0, 0)
    with pytest.raises(ValidationError, match="one number of storage times"):
        fit_decay([longer, stack_curve("decay", np.linspace(1e-6, 9e-6, 7), 1.0, 0)])
    assert fit_decay([]) == []
