"""Many decay curves in one call, and one Liouvillian per (parameters, drive).

Curves that differ only in their field share one member stack: the batched
amplitudes are checked against one call per field, and a failing member is
named within its own field.  The cached base generator is checked against a
fresh Liouvillian, for read-only storage, for a miss on every parameter and
drive field, and for how few Liouvillians a whole compensation search builds;
the search builds one echo per storage-time window.  A curve pass holds one
storage-time chunk of member states at a time, and the decay fit's rate grid
one block of curves, so neither peak grows with the storage times.
"""

import dataclasses
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import eitecho.dynamics as dynamics
import eitecho.sequences as sequences
from eitecho.config import DEFAULT_CONFIG_TEXT, parse_config
from eitecho.dynamics import PulseSpec, Wait, _base_generator, _segment_params, wait_states
from eitecho.ensemble import EnsembleSpec, _group_sums
from eitecho.errors import ConfigurationError
from eitecho.lambda_system import LambdaParams
from eitecho.readout import _echo_fields, assemble_decay_curve, assemble_decay_curves
from eitecho.sequences import EchoConfig, echo_layout, make_echo_sequence
from eitecho.studies import (FieldModel, branches_for_splitting, compensation_search,
                             field_sweep, golden_steps)

from conftest import generator, liouvillian
from test_propagators import lambda_params, segments

PARAMS = LambdaParams(delta_opt=2.0 * np.pi * 40e3, gamma_spin_deph=2e3, gamma_opt_deph=1e5,
                      gamma_opt_decay=1.0 / 164e-6)
CFG = EchoConfig(tau=30e-6)
G_FACTOR = FieldModel().g_factor


@st.composite
def field_batches(draw) -> list:
    """1 to 13 fields (T), one of them zero: a 1-member spec beside 2-member ones."""
    fields = draw(st.lists(st.floats(-100e-6, 100e-6).filter(lambda b: b != 0.0),
                           max_size=12))
    fields.insert(draw(st.integers(0, len(fields))), 0.0)
    return fields


class TestBatchedCurves:
    @pytest.mark.parametrize("mode", ["beat", "proxy"])
    @settings(max_examples=15, deadline=None)
    @given(fields=field_batches(),
           taus=st.lists(st.floats(10e-6, 120e-6), min_size=3, max_size=5, unique=True))
    @example(fields=[0.0], taus=[15e-6, 60e-6, 120e-6])
    @example(fields=list(np.linspace(-90e-6, 90e-6, 13)), taus=[15e-6, 60e-6, 120e-6])
    def test_matches_one_call_per_field(self, mode, fields, taus):
        taus = sorted(taus)
        specs = [EnsembleSpec(zeeman_branches=branches_for_splitting(G_FACTOR * abs(b)))
                 for b in fields]
        batched = assemble_decay_curves(CFG, taus, PARAMS, specs, mode=mode)
        assert len(batched) == len(specs)
        for spec, curve in zip(specs, batched):
            alone = assemble_decay_curve(CFG, taus, PARAMS, spec, mode=mode).amplitudes
            assert np.array_equal(curve.taus, taus)
            assert np.max(np.abs(curve.amplitudes - alone)) <= 1e-14 * np.max(alone)

    def test_field_sweep_matches_one_call_per_field(self):
        fields = [0.0, 20e-6, -45e-6]
        taus = np.linspace(15e-6, 120e-6, 6)
        points = field_sweep(fields, CFG, PARAMS, EnsembleSpec(), taus, mode="proxy")
        for b, point in zip(fields, points):
            spec = EnsembleSpec(zeeman_branches=branches_for_splitting(G_FACTOR * abs(b)))
            alone = assemble_decay_curve(CFG, taus, PARAMS, spec, mode="proxy").amplitudes
            assert point.field == b
            assert np.max(np.abs(point.curve.amplitudes - alone)) <= 1e-14 * np.max(alone)

    @pytest.mark.parametrize("mode", ["beat", "proxy"])
    @pytest.mark.parametrize("n_spin", [3, 5, 11])
    def test_curve_bits_do_not_depend_on_batch_mates(self, mode, n_spin):
        # 6 to 22 members per curve: past 7, a reduction whose order follows
        # the batch shape (a block weight matrix) moved curves by an ulp
        taus = np.linspace(15e-6, 120e-6, 6)
        specs = [EnsembleSpec(spin_fwhm=20e3, n_spin=n_spin,
                              zeeman_branches=branches_for_splitting(G_FACTOR * b))
                 for b in (0.0, 20e-6, 45e-6)]
        batched = assemble_decay_curves(CFG, taus, PARAMS, specs, mode=mode)
        reordered = assemble_decay_curves(CFG, taus, PARAMS, specs[::-1], mode=mode)[::-1]
        for spec, curve, other in zip(specs, batched, reordered):
            alone = assemble_decay_curve(CFG, taus, PARAMS, spec, mode=mode).amplitudes
            assert np.array_equal(curve.amplitudes, alone)
            assert np.array_equal(other.amplitudes, alone)

    @settings(max_examples=50, deadline=None)
    @given(sizes=st.lists(st.integers(1, 40), min_size=1, max_size=6), seed=st.integers(0, 2**32 - 1))
    def test_group_sums_are_sums_of_each_group_alone(self, sizes, seed):
        rng = np.random.default_rng(seed)
        starts = np.cumsum([0] + sizes)
        weights = rng.random(starts[-1])
        # the beat's (storage time, member, sum) projections, and a (T, M, 9)
        # end-state stack, whose entries must each keep the bits of that entry
        # summed alone: a proxy curve reads entry 1 of the whole reduction
        for shape in ((2, starts[-1], 3), (3, starts[-1], 9)):
            x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            sums = _group_sums(x, weights, starts[:-1])
            assert sums.shape == (shape[0], len(sizes), shape[2])
            for g, (s, e) in enumerate(zip(starts[:-1], starts[1:])):
                alone = _group_sums(x[:, s:e].copy(), weights[s:e].copy(), [0])[:, 0]
                assert np.array_equal(sums[:, g], alone)
                for k in range(shape[2]):
                    entry = _group_sums(x[:, s:e, k:k + 1].copy(), weights[s:e].copy(), [0])
                    assert np.array_equal(alone[:, k], entry[:, 0, 0])
                assert np.allclose(alone, np.einsum("tmk,m->tk", x[:, s:e], weights[s:e]),
                                   rtol=1e-12, atol=1e-12)

    def test_no_fields_gives_no_points(self):
        assert field_sweep([], CFG, PARAMS, EnsembleSpec(), [20e-6, 40e-6, 60e-6]) == []


class TestGroupNamedErrors:
    @pytest.mark.parametrize("mode", ["beat", "proxy"])
    def test_physicality_error_names_field_member_and_tau(self, monkeypatch, mode):
        # stacked rows: field 0 -> row 0, 10 uT -> rows 1-2, 20 uT -> rows 3-4;
        # inflate the spin coherence of row 4 at the last storage time
        def inflating(gen, durations, v):
            states = wait_states(gen, durations, v)
            states[-1, 4, [1, 3]] *= 5.0
            return states

        monkeypatch.setattr(dynamics, "wait_states", inflating)
        taus = np.array([20e-6, 40e-6, 60e-6])
        with pytest.raises(ConfigurationError,
                           match=r"in member 1 of field 2e-05 T at tau 6e-05 s with offsets"):
            field_sweep([0.0, 10e-6, 20e-6], CFG, PARAMS, EnsembleSpec(), taus, mode=mode)

    @pytest.mark.parametrize("mode", ["beat", "proxy"])
    def test_expm_error_names_group_and_member(self, mode):
        specs = [EnsembleSpec(), EnsembleSpec(zeeman_branches=((0.0, 0.5), (np.inf, 0.5)))]
        with np.errstate(invalid="ignore"), pytest.raises(
                ConfigurationError,
                match=r"segment 0 \(init_pi_half\), member 1 of field b: has a non-finite"):
            assemble_decay_curves(CFG, [20e-6, 40e-6, 60e-6], PARAMS, specs, mode=mode,
                                  labels=["field a", "field b"])

    def test_unlabelled_groups_are_numbered(self):
        specs = [EnsembleSpec(), EnsembleSpec(zeeman_branches=((0.0, 0.5), (np.inf, 0.5)))]
        with np.errstate(invalid="ignore"), pytest.raises(ConfigurationError,
                                                          match=r"member 1 of group 1:"):
            assemble_decay_curves(CFG, [20e-6, 40e-6, 60e-6], PARAMS, specs, mode="proxy")


def drive_of(seg):
    return None if isinstance(seg, Wait) else (seg.rabi0, seg.rabi1, seg.phase0, seg.phase1)


class TestGeneratorCache:
    @settings(max_examples=100, deadline=None)
    @given(lambda_params(), segments())
    def test_cached_equals_fresh_and_ignores_duration_and_sign(self, p, segs):
        # keys equal up to the sign of a zero share an entry, so start empty
        # for the bitwise check of the first build
        _base_generator.store.clear()
        for k, seg in enumerate(segs):
            cached = generator(p, drive_of(seg))
            fresh = liouvillian(_segment_params(p, replace(seg, zeeman_sign=1.0), 0.0))
            if k == 0:
                assert cached.tobytes() == fresh.tobytes()
            assert np.array_equal(cached, fresh)
            other = replace(seg, duration=2.0 * seg.duration, zeeman_sign=-seg.zeeman_sign)
            assert generator(p, drive_of(other)) is cached

    def test_read_only(self):
        gen = generator(PARAMS, (1e6, 1e6, 0.0, 0.0))
        assert not gen.flags.writeable
        with pytest.raises(ValueError):
            gen[0, 0] = 1.0

    @pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(LambdaParams)])
    def test_any_parameter_change_misses(self, name, builds):
        drive = (1e6, 2e6, 0.1, 0.2)
        generator(PARAMS, drive)
        changed = PARAMS.replace(**{name: getattr(PARAMS, name) + 0.25})
        gen = generator(changed, drive)
        assert builds == [1, 1]
        assert np.array_equal(gen, liouvillian(_segment_params(
            changed, PulseSpec(1e-6, *drive), 0.0)))

    @pytest.mark.parametrize("index", range(4))
    def test_any_drive_change_misses(self, index, builds):
        drive = (1e6, 2e6, 0.1, 0.2)
        generator(PARAMS, drive)
        changed = tuple(v + 0.5 if i == index else v for i, v in enumerate(drive))
        generator(PARAMS, changed)
        assert builds == [1, 1]

    def test_compensation_search_builds_few_liouvillians(self, builds):
        res = compensation_search(FieldModel(field_vector=(20e-6, -10e-6, 45e-6)), CFG,
                                  LambdaParams(gamma_spin_deph=1.0 / 500e-6), EnsembleSpec(),
                                  np.linspace(15e-6, 120e-6, 6), tol=1e-6, mode="beat")
        assert res.evaluations == 21 <= 1 + 3 * (2 + golden_steps(100e-6, 1e-6)) + 2
        assert sum(builds) <= 8


class TestLayoutCache:
    def test_compensation_search_builds_one_layout_per_window(self, monkeypatch):
        calls = []

        def counting(cfg, **kwargs):
            calls.append(cfg.tau)
            return make_echo_sequence(cfg, **kwargs)

        monkeypatch.setattr(sequences, "make_echo_sequence", counting)
        res = compensation_search(FieldModel(field_vector=(20e-6, -10e-6, 45e-6)), CFG,
                                  LambdaParams(gamma_spin_deph=1.0 / 500e-6), EnsembleSpec(),
                                  np.linspace(15e-6, 120e-6, 6), tol=1e-6, mode="beat")
        assert res.evaluations == 21 <= 1 + 3 * (2 + golden_steps(100e-6, 1e-6)) + 2
        # one echo for each window, the bracketing one and the caller's
        assert len(calls) <= 2


def traced_peak(f, *args) -> int:
    """The tracemalloc peak, in bytes, of the call f(*args)."""
    tracemalloc.start()
    try:
        f(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestCurvePassMemory:
    DEFAULT = parse_config(DEFAULT_CONFIG_TEXT)

    @pytest.mark.parametrize("mode", ["beat", "proxy"])
    def test_storage_times_do_not_raise_the_peak(self, mode):
        # the default sweep's 20 fields of the 5 x 3 grid: 160 members after
        # the fold, whose states over 1024 storage times (23.6 MB) the pass
        # never holds at once
        cfg = self.DEFAULT
        grid = EnsembleSpec(optical_fwhm=170e3, spin_fwhm=20e3, n_optical=5, n_spin=3)
        specs = [replace(grid, zeeman_branches=branches_for_splitting(
                     cfg.field_model.g_factor * abs(b))) for b in cfg.field_sweep.fields]
        peaks = []
        for n_taus in (30, 1024):
            taus = np.linspace(10e-6, 150e-6, n_taus)
            peaks.append(traced_peak(_echo_fields, cfg.sequence, taus,
                                     echo_layout(cfg.sequence, taus), cfg.physics, specs, mode))
        assert peaks[1] <= 1.2 * peaks[0], [f"{peak / 1e6:.1f} MB" for peak in peaks]

    def test_field_sweep_of_long_curves_stays_small(self):
        # 64 fields x 1024 storage times of the built-in config: the curves
        # and their fits, whose rate grid over every curve at once would
        # take ~100 MB
        cfg = self.DEFAULT
        peak = traced_peak(field_sweep, np.linspace(0.0, 100e-6, 64), cfg.sequence, cfg.physics,
                           cfg.ensemble, np.linspace(10e-6, 150e-6, 1024), cfg.field_model,
                           cfg.readout_mode)
        assert peak < 16e6, f"{peak / 1e6:.1f} MB"
