"""Decay curves with one parameter set per ensemble, in one batched call.

A temperature scan's curves differ in their optical dephasing rate, so each
spec brings its own LambdaParams.  The batched call must give every curve the
bits of a call of its own: one expm call per stack, in which each map takes
the Pade degree of its own norm, so maps of several degrees share a call, and
a mirror fold decided per spec.  The endpoint path works through the storage
times in chunks of at most BATCH_STATES (storage time x member) states; chunks
must not move a bit or change which member and storage time an error names.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import eitecho.dynamics as dynamics
import eitecho.readout as readout
import eitecho.studies as studies
from eitecho.config import parse_config
from eitecho.dynamics import PADE_THETAS, wait_states
from eitecho.ensemble import EnsembleSpec
from eitecho.errors import ConfigurationError, ValidationError
from eitecho.lambda_system import LambdaParams
from eitecho.readout import assemble_decay_curves
from eitecho.sequences import EchoConfig
from eitecho.studies import TemperatureModel, temperature_scan

PARAMS = LambdaParams(gamma_spin_deph=2e3, gamma_opt_deph=1e5, gamma_opt_decay=1.0 / 164e-6)
SHORT = dict(t_init=0.5e-6, t_rephase=0.5e-6, t_readout=0.5e-6)
TAUS = [20e-6, 40e-6, 60e-6]
GRID = EnsembleSpec(optical_fwhm=170e3, spin_fwhm=20e3, n_optical=3, n_spin=3)
# a weak init pulse whose maps cross Pade thresholds as the optical rate grows:
# at 1e4/s its stack takes a lower degree than at 3e6/s (checked below)
WEAK = EchoConfig(tau=TAUS[0], init_area=0.05 * np.pi, rephase_area=0.1 * np.pi, **SHORT)
# the config of the second-run temp-scan comparison in .github/workflows/tier1.yml:
# short weak pulses, so that the scan's cold and hot points map at different degrees
STRADDLING_SCAN = ("sequence: {tau: 60us, t_init: 0.5us, t_rephase: 0.5us, init_area_pi: 0.05, "
                   "rephase_area_pi: 0.1}\n")


def alone(cfg, taus, params, specs, mode) -> list:
    """Each spec's amplitudes from a call of its own."""
    return [assemble_decay_curves(cfg, taus, p, [spec], mode=mode)[0].amplitudes
            for p, spec in zip(params, specs)]


@pytest.fixture
def pade_degrees(monkeypatch) -> list:
    """The Pade degree of each matrix of each `_expm` call, in call order: one
    integer array per call, shaped as the stack without its matrix axes."""
    degrees = []
    real = dynamics._expm
    degree = np.vectorize(lambda norm: next(m for m in PADE_THETAS
                                            if m == 13 or norm <= PADE_THETAS[m]), otypes=[int])

    def recorded(a, name=None):
        degrees.append(degree(np.abs(np.asarray(a)).sum(axis=-2).max(axis=-1)))
        return real(a, name)

    for module in (dynamics, readout):
        monkeypatch.setattr(module, "_expm", recorded)
    return degrees


class TestOneSetPerSpec:
    @pytest.mark.parametrize("mode", ["beat", "proxy"])
    @settings(max_examples=12, deadline=None)
    @given(rates=st.lists(st.sampled_from([1e4, 3e5, 3e6]) | st.floats(1e3, 3e7),
                          min_size=1, max_size=5),
           n_optical=st.sampled_from([1, 3, 5]), n_spin=st.sampled_from([1, 3]),
           weak=st.booleans(), detuned=st.none() | st.integers(0, 5),
           taus=st.lists(st.floats(12e-6, 120e-6), min_size=3, max_size=4, unique=True))
    @example(rates=[1e4, 3e6, 1e4], n_optical=3, n_spin=3, weak=True, detuned=1, taus=TAUS)
    @example(rates=[3e6], n_optical=5, n_spin=1, weak=False, detuned=None, taus=TAUS)
    def test_equals_one_call_per_spec_bitwise(self, mode, rates, n_optical, n_spin, weak,
                                              detuned, taus):
        # duplicates share one set; a detuned set keeps its whole stack
        # beside folded ones, whose odd grids mirror at zero base detuning
        cfg = WEAK if weak else EchoConfig(tau=TAUS[0], **SHORT)
        spec = EnsembleSpec(optical_fwhm=170e3, spin_fwhm=20e3, n_optical=n_optical,
                            n_spin=n_spin)
        params = [PARAMS.replace(gamma_opt_deph=r) for r in rates]
        if detuned is not None:
            params.insert(min(detuned, len(params)), PARAMS.replace(delta_opt=2e5))
        specs = [spec] * len(params)
        taus = sorted(taus)
        batched = assemble_decay_curves(cfg, taus, params, specs, mode=mode)
        for curve, own in zip(batched, alone(cfg, taus, params, specs, mode), strict=True):
            assert np.array_equal(curve.amplitudes, own)

    def test_the_weak_example_straddles_a_pade_threshold(self, pade_degrees):
        # one (pulse, member) stack: the first half of the members is 1e4/s's,
        # whose maps all take a lower degree than the highest of 3e6/s's
        params = [PARAMS.replace(gamma_opt_deph=r) for r in (1e4, 3e6)]
        batched = assemble_decay_curves(WEAK, TAUS, params, [GRID] * 2, mode="proxy")
        [stack] = pade_degrees
        cold, hot = np.split(stack, 2, axis=1)
        assert cold.max() < hot.max()
        for curve, own in zip(batched, alone(WEAK, TAUS, params, [GRID] * 2, "proxy"),
                              strict=True):
            assert np.array_equal(curve.amplitudes, own)

    @pytest.mark.parametrize("mode, stacks", [("proxy", 1), ("beat", 2)])
    def test_one_expm_call_per_stack(self, pade_degrees, mode, stacks):
        # a call maps one stack in proxy mode (the pulses) and two in beat mode
        # (and the readout ticks), whatever degrees its maps take: the weak
        # pair's pulse maps take several degrees in their one call
        ladder = [PARAMS.replace(gamma_opt_deph=r) for r in (1e5, 3e6, 1e5, 3e6, 1e6)]
        assemble_decay_curves(EchoConfig(tau=TAUS[0], **SHORT), TAUS, ladder, [GRID] * 5,
                              mode=mode)
        assert len(pade_degrees) == stacks
        pade_degrees.clear()
        weak = [PARAMS.replace(gamma_opt_deph=r) for r in (1e4, 3e6)]
        batched = assemble_decay_curves(WEAK, TAUS, weak, [GRID] * 2, mode=mode)
        assert len(pade_degrees) == stacks
        assert len(set(pade_degrees[0].ravel().tolist())) >= 2
        for curve, own in zip(batched, alone(WEAK, TAUS, weak, [GRID] * 2, mode), strict=True):
            assert np.array_equal(curve.amplitudes, own)

    def test_one_set_for_all_specs_is_one_call(self, pade_degrees):
        specs = [GRID, EnsembleSpec(), GRID]
        assemble_decay_curves(EchoConfig(tau=TAUS[0], **SHORT), TAUS, [PARAMS] * 3, specs,
                              mode="proxy")
        assert len(pade_degrees) == 1

    def test_one_set_per_spec_is_required(self):
        with pytest.raises(ValidationError, match="2 parameter sets for 3 ensembles"):
            assemble_decay_curves(EchoConfig(tau=TAUS[0], **SHORT), TAUS, [PARAMS] * 2,
                                  [GRID] * 3)


class TestStorageChunks:
    @pytest.mark.parametrize("n_taus, n_members, bound, sizes", [
        (5, 3, 7, [2, 2, 1]), (5, 3, 1, [1] * 5), (4, 9, 8, [1] * 4), (3, 1, 100, [3])])
    def test_chunks_cover_the_storage_times_in_order(self, monkeypatch, n_taus, n_members,
                                                     bound, sizes):
        monkeypatch.setattr(dynamics, "BATCH_STATES", bound)
        chunks = dynamics.storage_chunks(n_taus, n_members)
        assert [c.stop - c.start for c in chunks] == sizes
        assert [c.start for c in chunks] == [0] + list(np.cumsum(sizes)[:-1])

    @pytest.mark.parametrize("mode", ["beat", "proxy"])
    def test_one_state_per_chunk_moves_no_bit(self, monkeypatch, mode):
        cfg = EchoConfig(tau=TAUS[0], **SHORT)
        taus = np.linspace(15e-6, 90e-6, 6)
        params = [PARAMS.replace(gamma_opt_deph=r) for r in (1e5, 3e6, 1e5)]
        params.append(PARAMS.replace(delta_opt=2e5))
        specs = [GRID] * 4
        whole = assemble_decay_curves(cfg, taus, params, specs, mode=mode)
        monkeypatch.setattr(dynamics, "BATCH_STATES", 1)
        chunked = assemble_decay_curves(cfg, taus, params, specs, mode=mode)
        for a, b in zip(whole, chunked, strict=True):
            assert np.array_equal(a.amplitudes, b.amplitudes)

    @pytest.mark.parametrize("mode", ["beat", "proxy"])
    @pytest.mark.parametrize("bound", [1, 7, dynamics.BATCH_STATES])
    def test_errors_name_the_first_failing_state_in_row_order(self, monkeypatch, mode, bound):
        # stacked rows: 2 temperatures of the 9-member grid, folded to 5 each;
        # inflate row 7 (member 2 of 3 K) from the second storage time on and
        # row 1 (member 1 of 2 K) at the last: row order is storage time first
        def inflating(gen, durations, v):
            states = wait_states(gen, durations, v)
            for row, longer_than in ((7, 15e-6), (1, 25e-6)):
                late = np.flatnonzero(np.asarray(durations) > longer_than)
                states[late[:, None], row, [1, 3]] *= 5.0
            return states

        monkeypatch.setattr(dynamics, "wait_states", inflating)
        monkeypatch.setattr(dynamics, "BATCH_STATES", bound)
        params = [PARAMS.replace(gamma_opt_deph=r) for r in (1e5, 3e5)]
        with pytest.raises(ConfigurationError,
                           match=r"in member 2 of temperature 3 K at tau 4e-05 s with offsets"):
            assemble_decay_curves(EchoConfig(tau=TAUS[0], **SHORT), TAUS, params, [GRID] * 2,
                                  mode=mode, labels=["temperature 2 K", "temperature 3 K"])


class TestTemperatureScan:
    def test_makes_one_curve_call(self, monkeypatch):
        calls = []
        real = studies.assemble_decay_curves

        def counted(*args, **kwargs):
            calls.append(len(args[3]))
            return real(*args, **kwargs)

        monkeypatch.setattr(studies, "assemble_decay_curves", counted)
        tm = TemperatureModel(t2_opt_ref=10e-6, temperature_ref=2.0)
        cfg = EchoConfig(tau=TAUS[0], **SHORT)
        taus = np.linspace(20e-6, 180e-6, 5)
        points = temperature_scan([2.0, 3.0, 2.0, 5.0], tm, cfg, PARAMS, GRID, taus)
        assert calls == [4]
        assert [p.temperature for p in points] == [2.0, 3.0, 2.0, 5.0]
        firsts = [real(cfg, taus, PARAMS.replace(gamma_opt_deph=tm.gamma_opt_deph(t)),
                       [GRID], mode="proxy")[0].amplitudes[0] for t in (2.0, 3.0, 2.0, 5.0)]
        assert [p.amplitude for p in points] == [a / firsts[0] for a in firsts]

    def test_the_straddling_scan_mixes_degrees_in_one_stack(self, pade_degrees):
        # the scan's one pulse stack mixes degrees, and every point keeps the
        # fit it gets from a scan of its own temperature
        cfg = parse_config(STRADDLING_SCAN)
        scan = cfg.temp_scan
        args = scan.model, cfg.sequence, cfg.physics, cfg.ensemble, scan.taus
        points = temperature_scan(scan.temperatures, *args)
        [stack] = pade_degrees
        assert len(set(stack.ravel().tolist())) >= 2
        for point in points:
            [own] = temperature_scan([point.temperature], *args)
            assert (point.fitted_t2, point.t2_ci95) == (own.fitted_t2, own.t2_ci95)

    def test_amplitudes_are_relative_to_the_first_point_as_listed(self):
        tm = TemperatureModel(t2_opt_ref=10e-6, temperature_ref=2.0)
        cfg = EchoConfig(tau=TAUS[0], **SHORT)
        points = temperature_scan([7.68, 2.0], tm, cfg, PARAMS, EnsembleSpec(),
                                  np.linspace(20e-6, 180e-6, 5))
        assert points[0].amplitude == 1.0
        assert points[1].amplitude != 1.0
