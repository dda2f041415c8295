"""Chebyshev tables of the echo's maps in the Zeeman offset, and the compensation search on them.

`readout.zeeman_table` interpolates, over the Zeeman offsets of a search
box, every map a decay curve applies to a member: the echo's pulse maps and,
in beat mode, the readout's rows and full map.  The table is checked against
`_expm` and `geometric_sum` at random offsets, drives and parameters; the
node count against its a-priori rule; a box too wide for the node cap
against the exact maps, whose search output is pinned to the bytes the
search wrote before tables existed; and the curves that share a call
(the start with the first round, the found vector's two windows) against
calls of their own.  Waits are applied from their diagonals, which must
carry the bits of the full generators.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import eitecho.studies as studies
from eitecho.cli import main
from eitecho.dynamics import (DECAY_FED, PulseSpec, Wait, _expm, member_generators,
                              wait_rates, whole_steps)
from eitecho.ensemble import EnsembleSpec, stack_ensembles
from eitecho.lambda_system import LambdaParams
from eitecho.readout import (_echo_amplitudes, _readout_maps, chebyshev_basis,
                             chebyshev_coefficients, chebyshev_count, chebyshev_nodes,
                             zeeman_table)
from eitecho.sequences import EchoConfig, echo_layout
from eitecho.studies import (FieldModel, branches_for_splitting, compensation_bracket_taus,
                             compensation_json, compensation_search)

from test_propagators import W, lambda_params, unit

PARAMS = LambdaParams(gamma_opt_decay=1.0 / 164e-6, gamma_spin_deph=1.0 / 500e-6)
CFG = EchoConfig(tau=60e-6)
WINDOW = np.linspace(15e-6, 50e-6, 6)
LAYOUT = echo_layout(CFG, WINDOW)


def bits(a: np.ndarray) -> np.ndarray:
    """The bits of each real and imaginary part, signed zeros told apart."""
    return np.ascontiguousarray(a).view(np.uint64)


def one_norm(a: np.ndarray) -> np.ndarray:
    """1-norm (largest column sum) of each matrix of a stack (..., n, k)."""
    return np.abs(a).sum(axis=-2).max(axis=-1)


@st.composite
def table_cases(draw):
    """An echo of 0.2-3 us pulses read out over 1-2 us at 2-10.2 MHz,
    parameters up to W, a grid of up to 3 x 3 members and a Zeeman reach of
    1-40 kHz.  The readout holds at most the default window's 82 detector
    ticks: the exact rows and full map of :func:`geometric_sum` carry the
    rounding of its doublings, which reaches ~1.3e-13 at ~300 ticks with the
    table's nodes or eight more."""
    cfg = EchoConfig(tau=60e-6, t_init=draw(st.floats(0.2e-6, 3e-6)),
                     t_rephase=draw(st.floats(0.2e-6, 3e-6)),
                     t_readout=draw(st.floats(1e-6, 2e-6)),
                     splitting=draw(st.floats(2e6, 10.2e6)),
                     init_phase_offset=draw(st.floats(-math.pi, math.pi)))
    p = draw(lambda_params())
    spec = EnsembleSpec(optical_fwhm=draw(st.floats(0.0, 200e3)),
                        spin_fwhm=draw(st.floats(0.0, 30e3)),
                        n_optical=draw(st.sampled_from([1, 3])),
                        n_spin=draw(st.sampled_from([1, 3])))
    reach = 2.0 * math.pi * draw(st.floats(1e3, 40e3))
    return cfg, p, spec, reach, draw(st.integers(0, 2 ** 32 - 1))


class TestTableAgainstExactMaps:
    @settings(max_examples=40, deadline=None)
    @given(table_cases(), st.sampled_from(["beat", "proxy"]))
    def test_maps_and_rows_within_1e_13(self, case, mode):
        cfg, p, spec, reach, seed = case
        table = zeeman_table(cfg, echo_layout(cfg, WINDOW), p, spec, mode, reach, 51)
        assert table is not None
        # members at random offsets in the box, on the grid of the table's bases
        segments = make_echo_sequence_segments(cfg, mode)
        stack = stack_ensembles(p, [replace(spec, zeeman_branches=((-1.0, 0.5), (1.0, 0.5)))],
                                segments)
        z = reach * np.random.default_rng(seed).uniform(-1.0, 1.0, len(stack.offsets))
        stack = replace(stack, offsets=np.column_stack([stack.offsets[:, :2], z]))
        pulses, readout = table.maps(stack, segments, cfg.splitting, mode)
        echo_seq, readout_pulse, _ = echo_layout(cfg, WINDOW)
        echo = [s for s in echo_seq.segments if isinstance(s, PulseSpec)]
        exact = _expm(np.array([s.duration * member_generators(p, s, stack.offsets)
                                for s in echo]))
        assert (one_norm(pulses - exact) <= 1e-13 * one_norm(exact)).all()
        if mode == "proxy":
            assert readout is None
            return
        _, steps = whole_steps(readout_pulse.duration, readout_pulse.clock_dt)
        gen = member_generators(p, readout_pulse, stack.offsets)
        rows, full = _readout_maps(readout_pulse, _expm(np.array([h * gen for h in steps])),
                                   cfg.splitting, True)
        assert (one_norm(readout[1] - full) <= 1e-13 * one_norm(full)).all()
        # each row against its own size: e5^T F of the rows, 1 x 9 each
        error = np.abs(readout[0] - rows).sum(axis=-1)
        assert (error <= 1e-13 * np.abs(rows).sum(axis=-1).max(axis=-1, keepdims=True)).all()

    def test_a_member_has_the_bits_it_gets_alone(self):
        table = zeeman_table(CFG, LAYOUT, PARAMS, EnsembleSpec(), "beat", 2e5, 51)
        segments = make_echo_sequence_segments(CFG, "beat")
        stack = stack_ensembles(PARAMS, [EnsembleSpec(zeeman_branches=((-3e3, 0.5),
                                                                       (3e3, 0.5)))] * 4,
                                segments)
        stack = replace(stack, offsets=np.column_stack(
            [stack.offsets[:, :2], np.linspace(-2e5, 2e5, len(stack.offsets))]))
        together = table.maps(stack, segments, CFG.splitting, "beat")
        for m in range(len(stack.offsets)):
            alone = table.maps(replace(stack, offsets=stack.offsets[m:m + 1]), segments,
                               CFG.splitting, "beat")
            assert np.array_equal(alone[0][:, 0], together[0][:, m])
            assert np.array_equal(alone[1][0][:, 0], together[1][0][:, m])
            assert np.array_equal(alone[1][1][0], together[1][1][m])


class TestCoverage:
    """A table hands out maps only for the echo, parameters and box it was built for."""

    SPEC = EnsembleSpec(zeeman_branches=branches_for_splitting(2.0 * 5e4 / (2.0 * math.pi)))

    @pytest.mark.parametrize("mode", ["beat", "proxy"])
    @pytest.mark.parametrize("other", [
        {"cfg": replace(CFG, t_rephase=1.5e-6)}, {"cfg": replace(CFG, t_init=1.5e-6)},
        {"cfg": replace(CFG, init_phase_offset=0.3)}, {"cfg": replace(CFG, splitting=4e6)},
        {"cfg": replace(CFG, t_readout=1.5e-6)}, {"params": replace(PARAMS, gamma_spin_deph=1e3)},
        {"mode": "other"}, {"reach": 4e4}])
    def test_a_table_of_another_echo_or_a_narrower_box_maps_nothing(self, mode, other):
        # the curve's members reach a Zeeman offset of 5e4 rad/s
        cfg, params = other.get("cfg", CFG), other.get("params", PARAMS)
        built = {"beat": "proxy", "proxy": "beat"}[mode] if "mode" in other else mode
        table = zeeman_table(CFG, LAYOUT, PARAMS, EnsembleSpec(), built,
                             other.get("reach", 2e5), 51)
        segments = make_echo_sequence_segments(cfg, mode)
        stack = stack_ensembles(params, [self.SPEC], segments)
        assert np.abs(stack.offsets[:, 2]).max() == pytest.approx(5e4)
        maps = table.maps(stack, segments, cfg.splitting, mode)
        if mode == "proxy" and cfg.t_readout != CFG.t_readout:
            # proxy mode tabulates no readout: its table serves any readout
            assert maps is not None
            return
        assert maps is None
        # the curve then maps exactly
        layout = echo_layout(cfg, WINDOW)
        assert np.array_equal(
            _echo_amplitudes(cfg, WINDOW, layout, params, [self.SPEC], mode, None, table),
            _echo_amplitudes(cfg, WINDOW, layout, params, [self.SPEC], mode))

    def test_the_box_edge_is_covered(self):
        table = zeeman_table(CFG, LAYOUT, PARAMS, EnsembleSpec(), "beat", 5e4, 51)
        segments = make_echo_sequence_segments(CFG, "beat")
        stack = stack_ensembles(PARAMS, [self.SPEC], segments)
        z = stack.offsets[:, 2]
        edge = replace(stack, offsets=np.column_stack([stack.offsets[:, :2],
                                                       np.sign(z) * table.reach]))
        assert table.maps(edge, segments, CFG.splitting, "beat") is not None
        beyond = replace(edge, offsets=np.column_stack([stack.offsets[:, :2],
                                                        np.sign(z) * table.reach * 1.001]))
        assert table.maps(beyond, segments, CFG.splitting, "beat") is None


def make_echo_sequence_segments(cfg, mode) -> tuple:
    """The segments a curve of `cfg` stacks its members for in `mode`."""
    echo, readout, _ = echo_layout(cfg, WINDOW)
    return echo.segments + ((readout,) if mode == "beat" else ())


class TestNodeRule:
    @pytest.mark.parametrize("phase, n", [(0.0, 1), (1e-3, 5), (0.234, 11), (1.0, 15),
                                          (5.0, 26)])
    def test_counts(self, phase, n):
        assert chebyshev_count(phase, 100) == n

    def test_beyond_the_cap_is_none(self):
        assert chebyshev_count(0.234, 10) is None
        assert chebyshev_count(1.3e6, 153) is None

    @settings(max_examples=30, deadline=None)
    @given(st.floats(0.0, 3.0))
    def test_the_rule_resolves_e_to_the_phase_x(self, phase):
        # the scalar map e^{phase x} is the rule's worst case
        n = chebyshev_count(phase, 100)
        x = chebyshev_nodes(n)
        coefficients = chebyshev_coefficients(np.exp(phase * x)[:, None])
        grid = np.linspace(-1.0, 1.0, 201)
        got = (chebyshev_basis(grid, n) @ coefficients)[:, 0]
        assert np.abs(got - np.exp(phase * grid)).max() <= 1e-15 * 3 * math.exp(phase) + 1e-15

    @pytest.mark.parametrize("n", [1, 2, 5, 11, 12])
    def test_nodes_mirror_exactly(self, n):
        x = chebyshev_nodes(n)
        assert np.array_equal(x[::-1], -x)
        assert np.allclose(x, np.cos(np.pi * (np.arange(n) + 0.5) / n), rtol=0, atol=1e-15)


class TestWaitRates:
    @settings(max_examples=40, deadline=None)
    @given(lambda_params(), st.lists(st.tuples(unit, unit, unit), min_size=1, max_size=5),
           st.sampled_from([1.0, -1.0]))
    def test_diagonal_and_feed_carry_the_generators_bits(self, p, offsets, sign):
        wait, offsets = Wait(duration=1e-6, zeeman_sign=sign), W * np.array(offsets)
        gen = member_generators(p, wait, offsets)
        diagonal, feed = wait_rates(p, wait, offsets)
        assert np.array_equal(bits(diagonal), bits(np.einsum("mii->mi", gen)))
        assert np.array_equal(bits(feed), bits(gen[:, DECAY_FED, 8]))

    def test_non_finite_member_is_named(self):
        from eitecho.errors import ConfigurationError
        with np.errstate(invalid="ignore"), pytest.raises(
                ConfigurationError, match=r"^member 1: has a non-finite entry"):
            wait_rates(PARAMS, Wait(duration=1e-6), [[0.0, 0.0, 0.0], [np.nan, 0.0, 0.0]])


class TestSharedCalls:
    @pytest.mark.parametrize("mode", ["beat", "proxy"])
    @pytest.mark.parametrize("tabled", [True, False])
    def test_merged_curves_have_the_bits_of_their_own_calls(self, mode, tabled):
        table = zeeman_table(CFG, LAYOUT, PARAMS, EnsembleSpec(), mode, 2e5, 51) \
            if tabled else None
        specs = [EnsembleSpec(zeeman_branches=branches_for_splitting(s))
                 for s in (0.0, 4e3, 9e3, 17e3)]
        fit_window = np.linspace(15e-6, 120e-6, 6)
        # the start with the first round's three trials, on one window
        merged = _echo_amplitudes(CFG, WINDOW, LAYOUT, PARAMS, specs, mode, None, table)
        for g, spec in enumerate(specs):
            alone = _echo_amplitudes(CFG, WINDOW, LAYOUT, PARAMS, [spec], mode, None, table)
            assert np.array_equal(merged[:, g], alone[:, 0])
        # the found vector on both windows in one call, their tables of waits stacked
        joined = LAYOUT[:2] + (np.concatenate([LAYOUT[2], echo_layout(CFG, fit_window)[2]]),)
        both = _echo_amplitudes(CFG, np.concatenate([WINDOW, fit_window]), joined, PARAMS,
                                specs[1:2], mode, None, table)
        for window, part in ((WINDOW, both[:6]), (fit_window, both[6:])):
            alone = _echo_amplitudes(CFG, window, echo_layout(CFG, window), PARAMS, specs[1:2],
                                     mode, None, table)
            assert np.array_equal(part, alone)


# compensation.json of WIDE_BOX_CONFIG as the search wrote it with exact maps
# in every curve call, before tables and shared calls
WIDE_BOX_CONFIG = "sequence: {tau: 60us}\nstudies:\n  compensation: {search_range: 1kT}\n"
WIDE_BOX_JSON = (
    '{"compensation_t": [0.0, 0.0, 0.0], "evaluations": 62, "history": [{"compensation_t": '
    '[0.0, 0.0, 0.0], "summed_amplitude": 0.7409700393030384}, {"compensation_t": [0.0, 0.0, '
    '0.0], "summed_amplitude": 0.7409700393030384}, {"compensation_t": [0.0, 0.0, 0.0], '
    '"summed_amplitude": 0.7409700393030384}, {"compensation_t": [0.0, 0.0, 0.0], '
    '"summed_amplitude": 0.7409700393030384}, {"compensation_t": [0.0, 0.0, 0.0], '
    '"summed_amplitude": 0.7409700393030384}], "improved": false, "objective_t2_s": '
    '2.5830738255564955e-05, "warning": "search could not improve on the starting '
    'compensation"}')


class TestCompensationTable:
    def test_a_box_too_wide_maps_exactly(self, monkeypatch, tmp_path, capsys):
        # a 1 kT box turns a 2 us map by ~1.3e6 rad: past the node cap
        tables = []

        def recording(*args):
            tables.append(zeeman_table(*args))
            return tables[-1]

        monkeypatch.setattr(studies, "zeeman_table", recording)
        config = tmp_path / "wide.yaml"
        config.write_text(WIDE_BOX_CONFIG)
        assert main(["compensate", "--config", str(config), "--out", str(tmp_path / "o")]) == 0
        assert tables == [None]
        assert (tmp_path / "o" / "compensation.json").read_text() == WIDE_BOX_JSON

    def test_the_default_box_is_tabled_once(self, monkeypatch):
        tables, expm_calls = [], []

        def recording(*args):
            tables.append(zeeman_table(*args))
            return tables[-1]

        import eitecho.dynamics as dynamics
        import eitecho.readout as readout
        real = dynamics._expm

        def counting(*args, **kwargs):
            expm_calls.append(len(args[0]))
            return real(*args, **kwargs)

        monkeypatch.setattr(studies, "zeeman_table", recording)
        monkeypatch.setattr(dynamics, "_expm", counting)
        monkeypatch.setattr(readout, "_expm", counting)
        model = FieldModel(field_vector=(20e-6, -10e-6, 45e-6))
        res = compensation_search(model, CFG, PARAMS, EnsembleSpec(),
                                  np.linspace(15e-6, 120e-6, 6), tol=1e-6, mode="beat")
        (table,) = tables
        assert table is not None and len(expm_calls) == 1
        # the box's Zeeman offsets: pi g |(|B_i + c_i| + search_range)_i|
        reach = math.pi * model.g_factor * float(np.linalg.norm(
            np.abs(model.net_field()) + 100e-6))
        assert table.reach == reach
        assert all(abs(found + b) < 1e-6 for found, b in zip(res.compensation, model.field_vector))
        window = compensation_bracket_taus(model, CFG, 100e-6)
        assert np.array_equal(table.coefficients, zeeman_table(
            CFG, echo_layout(CFG, window), PARAMS, EnsembleSpec(), "beat", reach,
            1 + 3 * (2 + studies.golden_steps(100e-6, 1e-6)) + 2).coefficients)
