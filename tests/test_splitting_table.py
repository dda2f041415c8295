"""The Chebyshev table of the compensation search's objective in the Zeeman splitting.

`studies.splitting_table` interpolates, over the splittings of a search
box, the complex echo field of a decay curve at each storage time, from
exact curves at the nonnegative Chebyshev nodes.  The table is checked
against exact curves at random splittings, echoes, parameters and grids;
the node count against its a-priori rule; a box too wide for the node cap
against the exact curves, whose search output is pinned to the bytes the
search wrote before tables existed; its coverage against other curves and
splittings beyond its box, which the search then computes exactly; and
curves that share a call against calls of their own.  Waits are applied from their diagonals, which must
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
from eitecho.dynamics import DECAY_FED, Wait, member_generators, wait_rates
from eitecho.ensemble import EnsembleSpec
from eitecho.lambda_system import LambdaParams
from eitecho.readout import (_echo_amplitudes, _echo_fields, chebyshev_basis,
                             chebyshev_coefficients, chebyshev_count, chebyshev_nodes)
from eitecho.sequences import EchoConfig, echo_layout
from eitecho.studies import (FieldModel, branches_for_splitting, compensation_bracket_taus,
                             compensation_search, golden_steps, splitting_table)

from test_propagators import W, lambda_params, unit

PARAMS = LambdaParams(gamma_opt_decay=1.0 / 164e-6, gamma_spin_deph=1.0 / 500e-6)
CFG = EchoConfig(tau=60e-6)
WINDOW = np.linspace(15e-6, 50e-6, 6)
LAYOUT = echo_layout(CFG, WINDOW)


def bits(a: np.ndarray) -> np.ndarray:
    """The bits of each real and imaginary part, signed zeros told apart."""
    return np.ascontiguousarray(a).view(np.uint64)


def curve(cfg=CFG, taus=WINDOW, params=PARAMS, spec=EnsembleSpec(), mode="beat") -> tuple:
    """The curve a :class:`eitecho.studies.SplittingTable` is asked for fields of."""
    return cfg, tuple(np.asarray(taus).tolist()), params, spec, mode


def at(spec: EnsembleSpec, splittings) -> list:
    """`spec` with the Zeeman branches of each splitting (Hz)."""
    return [replace(spec, zeeman_branches=branches_for_splitting(s)) for s in splittings]


@st.composite
def table_cases(draw):
    """An echo of 0.2-3 us pulses read out over 1-2 us at 6-10.2 MHz (at least
    the 5 beat periods a beat readout needs),
    parameters up to W, a grid of 1, 3 or 9 members and a box of splittings
    up to 1-40 kHz."""
    cfg = EchoConfig(tau=60e-6, t_init=draw(st.floats(0.2e-6, 3e-6)),
                     t_rephase=draw(st.floats(0.2e-6, 3e-6)),
                     t_readout=draw(st.floats(1e-6, 2e-6)),
                     splitting=draw(st.floats(6e6, 10.2e6)),
                     init_phase_offset=draw(st.floats(-math.pi, math.pi)))
    p = draw(lambda_params())
    spec = EnsembleSpec(optical_fwhm=draw(st.floats(0.0, 200e3)),
                        spin_fwhm=draw(st.floats(0.0, 30e3)),
                        n_optical=draw(st.sampled_from([1, 3])),
                        n_spin=draw(st.sampled_from([1, 3])))
    return cfg, p, spec, draw(st.floats(1e3, 40e3)), draw(st.integers(0, 2 ** 32 - 1))


class TestSplittingTable:
    @settings(max_examples=40, deadline=None)
    @given(table_cases(), st.sampled_from(["beat", "proxy"]))
    def test_fields_within_1e_13_of_exact_curves(self, case, mode):
        # in amplitude units, the fields times the readout's scale, in which the
        # readout has norm <= 1 (chebyshev_count); the raw beat sum spans the
        # readout's ticks, up to ~5 here, and carries the exact path's own
        # rounding, ~2e-14 of it, which more nodes do not change
        cfg, p, spec, reach, seed = case
        layout = echo_layout(cfg, WINDOW)
        table = splitting_table(cfg, WINDOW, layout, p, spec, mode, reach, 51)
        assert table is not None
        splittings = reach * np.random.default_rng(seed).uniform(0.0, 1.0, 4)
        exact, scale = _echo_fields(cfg, WINDOW, layout, p, at(spec, splittings), mode)
        assert table.scale == scale
        fields = table.fields(splittings, curve(cfg, WINDOW, p, spec, mode))
        assert scale * np.abs(fields - exact.T).max() <= 1e-13

    def test_a_point_has_the_bits_it_gets_alone(self):
        table = splitting_table(CFG, WINDOW, LAYOUT, PARAMS, EnsembleSpec(), "beat", 2e4, 51)
        splittings = [0.0, 3e3, 1.7e4, 2e4]
        together = table.fields(splittings, curve())
        for k, s in enumerate(splittings):
            assert np.array_equal(bits(table.fields([s], curve())[0]), bits(together[k]))

    def test_node_curves_are_computed_once_each(self, monkeypatch):
        # the n mirrored nodes pair up at equal |s|: ceil(n/2) curves, at most
        # CURVES_PER_CALL to a call
        calls = []

        def recording(cfg, taus, layout, params, specs, *args):
            calls.append([spec.zeeman_branches for spec in specs])
            return _echo_fields(cfg, taus, layout, params, specs, *args)

        monkeypatch.setattr(studies, "_echo_fields", recording)
        reach = 2e4
        n = chebyshev_count(math.pi * reach * (WINDOW[-1] + CFG.t_readout), 51)
        table = splitting_table(CFG, WINDOW, LAYOUT, PARAMS, EnsembleSpec(), "proxy", reach, 51)
        assert len(table.coefficients) == n == 22
        assert [len(c) for c in calls] == [4, 4, 3]
        nodes = reach * chebyshev_nodes(n)[:11]
        assert [b for c in calls for b in c] == [s.zeeman_branches for s in at(EnsembleSpec(),
                                                                                nodes)]


class TestCoverage:
    """A table hands out fields only for the curve and box it was built for."""

    SPLITTINGS = [0.0, 5e3]

    @pytest.mark.parametrize("mode", ["beat", "proxy"])
    @pytest.mark.parametrize("other", [
        {"cfg": replace(CFG, t_rephase=1.5e-6)}, {"cfg": replace(CFG, t_init=1.5e-6)},
        {"cfg": replace(CFG, init_phase_offset=0.3)}, {"cfg": replace(CFG, splitting=4e6)},
        {"cfg": replace(CFG, t_readout=1.5e-6)}, {"params": replace(PARAMS, gamma_spin_deph=1e3)},
        {"mode": "other"}, {"reach": 4e3}, {"taus": WINDOW[:-1]},
        {"spec": EnsembleSpec(spin_fwhm=2e4, n_spin=3)}])
    def test_a_table_of_another_echo_or_a_narrower_box_maps_nothing(self, mode, other):
        # the curve asks for splittings up to 5e3 Hz
        built = {"beat": "proxy", "proxy": "beat"}[mode] if "mode" in other else mode
        table = splitting_table(CFG, WINDOW, LAYOUT, PARAMS, EnsembleSpec(), built,
                                other.get("reach", 2e4), 51)
        assert table.curve == curve(mode=built)
        if "reach" not in other:
            assert table.fields(self.SPLITTINGS, curve(mode=built)) is not None
        asked = curve(other.get("cfg", CFG), other.get("taus", WINDOW),
                      other.get("params", PARAMS), other.get("spec", EnsembleSpec()), mode)
        assert table.fields(self.SPLITTINGS, asked) is None

    def test_the_box_edge_is_covered(self):
        table = splitting_table(CFG, WINDOW, LAYOUT, PARAMS, EnsembleSpec(), "beat", 2e4, 51)
        assert table.fields([-table.reach, 0.0, table.reach], curve()) is not None
        # the rounding of the box's edge, and no further
        edge = table.reach + 4.0 * math.ulp(table.reach)
        assert table.fields([-edge, edge], curve()) is not None
        assert table.fields([0.0, np.nextafter(edge, math.inf)], curve()) is None
        assert table.fields([-table.reach * 1.001], curve()) is None


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
    def test_merged_curves_have_the_bits_of_their_own_calls(self, mode):
        specs = at(EnsembleSpec(), (0.0, 4e3, 9e3, 17e3))
        fit_window = np.linspace(15e-6, 120e-6, 6)
        # four curves on one window
        merged = _echo_amplitudes(CFG, WINDOW, LAYOUT, PARAMS, specs, mode)
        for g, spec in enumerate(specs):
            alone = _echo_amplitudes(CFG, WINDOW, LAYOUT, PARAMS, [spec], mode)
            assert np.array_equal(merged[:, g], alone[:, 0])
        # one curve on two windows in one call, their tables of waits stacked
        joined = LAYOUT[:2] + (np.concatenate([LAYOUT[2], echo_layout(CFG, fit_window)[2]]),)
        both = _echo_amplitudes(CFG, np.concatenate([WINDOW, fit_window]), joined, PARAMS,
                                specs[1:2], mode)
        for window, part in ((WINDOW, both[:6]), (fit_window, both[6:])):
            alone = _echo_amplitudes(CFG, window, echo_layout(CFG, window), PARAMS, specs[1:2],
                                     mode)
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
    def test_a_box_too_wide_maps_exactly(self, monkeypatch, tmp_path):
        # a 1 kT box turns a curve by ~1e7 rad: past the node cap
        tables = []

        def recording(*args):
            tables.append(splitting_table(*args))
            return tables[-1]

        monkeypatch.setattr(studies, "splitting_table", recording)
        config = tmp_path / "wide.yaml"
        config.write_text(WIDE_BOX_CONFIG)
        assert main(["compensate", "--config", str(config), "--out", str(tmp_path / "o")]) == 0
        assert tables == [None]
        assert (tmp_path / "o" / "compensation.json").read_text() == WIDE_BOX_JSON

    def test_the_default_box_is_tabled_once(self, monkeypatch):
        tables, exact = [], []

        def recording(*args):
            tables.append(splitting_table(*args))
            return tables[-1]

        def amplitudes(cfg, taus, *args):
            exact.append(tuple(taus))
            return _echo_amplitudes(cfg, taus, *args)

        monkeypatch.setattr(studies, "splitting_table", recording)
        monkeypatch.setattr(studies, "_echo_amplitudes", amplitudes)
        model = FieldModel(field_vector=(20e-6, -10e-6, 45e-6))
        taus = np.linspace(15e-6, 120e-6, 6)
        res = compensation_search(model, CFG, PARAMS, EnsembleSpec(), taus, tol=1e-6,
                                  mode="beat")
        (table,) = tables
        # every value on the bracketing storage times is read from the table:
        # the one exact curve is the found vector's on the fit window
        assert table is not None and exact == [tuple(taus)]
        # the box's splittings: g |(|B_i + c_i| + search_range)_i|
        assert table.reach == model.g_factor * float(np.linalg.norm(
            np.abs(model.net_field()) + 100e-6))
        assert all(abs(found + b) < 1e-6 for found, b in zip(res.compensation, model.field_vector))
        window = compensation_bracket_taus(model, CFG, 100e-6)
        assert table.curve == curve(taus=window)
        assert np.array_equal(table.coefficients, splitting_table(
            CFG, window, echo_layout(CFG, window), PARAMS, EnsembleSpec(), "beat", table.reach,
            1 + 3 * (2 + golden_steps(100e-6, 1e-6)) + 2).coefficients)

    def test_splittings_beyond_the_table_are_exact_curves(self, monkeypatch):
        # a table of a quarter of the box: a round that reaches past it is computed exactly
        tables, covered, refused, exact = [], [], [], []

        def narrow(cfg, taus, layout, params, spec, mode, reach, cap):
            tables.append(splitting_table(cfg, taus, layout, params, spec, mode, reach / 4, cap))
            return tables[-1]

        fields = studies.SplittingTable.fields

        def recording(self, splittings, asked):
            got = fields(self, splittings, asked)
            (refused if got is None else covered).append(max(splittings))
            return got

        def amplitudes(cfg, taus, layout, params, specs, *args):
            exact.append((tuple(taus), len(specs)))
            return _echo_amplitudes(cfg, taus, layout, params, specs, *args)

        monkeypatch.setattr(studies, "splitting_table", narrow)
        monkeypatch.setattr(studies.SplittingTable, "fields", recording)
        monkeypatch.setattr(studies, "_echo_amplitudes", amplitudes)
        model = FieldModel(field_vector=(20e-6, -10e-6, 45e-6))
        taus = np.linspace(15e-6, 120e-6, 6)
        res = compensation_search(model, CFG, PARAMS, EnsembleSpec(), taus, tol=1e-6,
                                  mode="proxy")
        (table,) = tables
        assert covered and refused
        assert max(covered) <= table.reach < min(refused)
        window = tuple(compensation_bracket_taus(model, CFG, 100e-6).tolist())
        assert [t for t, _ in exact] == [window] * len(refused) + [tuple(taus)]
        assert all(abs(found + b) < 1e-6 for found, b in zip(res.compensation, model.field_vector))
