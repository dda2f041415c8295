"""Field, temperature, and scaling studies plus the compensation search."""

import numpy as np
import pytest

import eitecho.studies as studies
from eitecho.ensemble import EnsembleSpec
from eitecho.errors import ConfigurationError, ValidationError
from eitecho.lambda_system import LambdaParams
from eitecho.readout import _echo_amplitudes
from eitecho.sequences import EchoConfig
from eitecho.studies import (
    FieldModel,
    ScalingModel,
    TemperatureModel,
    branches_for_splitting,
    compensation_search,
    field_sweep,
    first_minimum,
    scaling_study,
    splitting_from_field,
    temperature_scan,
)

PARAMS = LambdaParams(gamma_spin_deph=1.0 / 500e-6)
SINGLE = EnsembleSpec()

# The proxy-mode search of TestCompensationSearch, recorded with the lockstep
# bounded Brent search and the search's Chebyshev table of maps: the
# compensation found and every (compensation, summed amplitude) of its
# history (the start, each axis's best trial and the found vector), as
# float.hex literals.
PINNED_COMPENSATION = ("-0x1.4f659353a0079p-16", "0x1.4fbd05f093e41p-17",
                       "-0x1.792357857faf7p-15")
PINNED_HISTORY = [
    (("0x0.0p+0", "0x0.0p+0",
      "0x0.0p+0"), "0x1.73e4b889bf8abp+0"),
    (("-0x1.4f659353a0079p-16", "0x0.0p+0",
      "0x0.0p+0"), "0x1.74c9b7aa88ae9p+0"),
    (("0x0.0p+0", "0x1.4fbd05f093e41p-17",
      "0x0.0p+0"), "0x1.741df368c6aabp+0"),
    (("0x0.0p+0", "0x0.0p+0",
      "-0x1.792357857faf7p-15"), "0x1.786e1edc50f4cp+0"),
    (("-0x1.4f659353a0079p-16", "0x1.4fbd05f093e41p-17",
      "-0x1.792357857faf7p-15"), "0x1.798db1d2d8d3bp+0"),
]


class TestFieldModel:
    def test_50_microtesla_gives_6_kilohertz(self):
        m = FieldModel(field_vector=(0.0, 0.0, 50e-6))
        assert splitting_from_field(m) == pytest.approx(6.0e3)

    def test_compensated_field_gives_zero(self):
        m = FieldModel(field_vector=(0.0, 0.0, 50e-6),
                       compensation_vector=(0.0, 0.0, -50e-6))
        assert splitting_from_field(m) == 0.0

    def test_100_microtesla_gives_12_kilohertz(self):
        m = FieldModel(field_vector=(100e-6, 0.0, 0.0))
        assert splitting_from_field(m) == pytest.approx(12.0e3)

    def test_branches_are_symmetric_half_splitting(self):
        assert branches_for_splitting(6e3) == ((-3e3, 0.5), (3e3, 0.5))
        assert branches_for_splitting(0.0) == ()


class TestTemperatureModel:
    def test_seventh_power_law_exact(self):
        tm = TemperatureModel(t2_opt_ref=100e-6, temperature_ref=2.0)
        ratio = tm.gamma_opt_deph(11.0) / tm.gamma_opt_deph(6.0)
        assert ratio == pytest.approx((11.0 / 6.0) ** 7, rel=1e-9)

    def test_reference_point(self):
        tm = TemperatureModel(t2_opt_ref=100e-6, temperature_ref=2.0)
        assert tm.t2_opt(2.0) == pytest.approx(100e-6)


class TestScalingModel:
    def test_square_root_law(self):
        sm = ScalingModel(t_pi_ref=100e-9, t2_opt_ref=100e-6)
        assert sm.pulse_duration(100e-6) == pytest.approx(100e-9)
        assert sm.pulse_duration(1e-6) == pytest.approx(10e-9)
        assert sm.pulse_duration(4e-4) == pytest.approx(200e-9)


class TestFirstMinimum:
    def test_monotone_curve_has_none(self):
        taus = np.linspace(1e-5, 1e-4, 10)
        assert first_minimum(taus, np.exp(-taus / 3e-5)) is None

    def test_parabolic_refinement(self):
        taus = np.linspace(0.0, 1.0, 21)
        y = (taus - 0.517) ** 2
        assert first_minimum(taus, y) == pytest.approx(0.517, abs=1e-12)


class TestFieldSweep:
    def test_beat_minimum_tracks_inverse_splitting(self):
        cfg = EchoConfig(tau=30e-6)
        taus = np.linspace(10e-6, 150e-6, 30)
        points = field_sweep([50e-6], cfg, PARAMS, SINGLE, taus, mode="proxy")
        p = points[0]
        assert p.splitting == pytest.approx(6e3)
        assert p.beat_minimum == pytest.approx(1.0 / (2.0 * 6e3), rel=0.05)

    def test_zero_field_recovers_configured_t2(self):
        cfg = EchoConfig(tau=30e-6)
        taus = np.linspace(10e-6, 900e-6, 12)
        points = field_sweep([0.0], cfg, PARAMS, SINGLE, taus, mode="proxy")
        p = points[0]
        assert p.beat_minimum is None
        assert p.fit is not None
        assert p.fit.t2 == pytest.approx(500e-6, rel=0.02)

    def test_doubled_splitting_halves_minimum(self):
        cfg = EchoConfig(tau=30e-6)
        taus = np.linspace(8e-6, 80e-6, 30)
        points = field_sweep([100e-6], cfg, PARAMS, SINGLE, taus, mode="proxy")
        assert points[0].beat_minimum == pytest.approx(1.0 / (2.0 * 12e3), rel=0.05)

    @pytest.mark.parametrize("splitting_khz", [2.0, 6.0, 20.0])
    def test_beat_minimum_law_across_splittings(self, splitting_khz):
        # first minimum within 5% of 1/(2 * splitting) across the working range
        splitting = splitting_khz * 1e3
        expected = 1.0 / (2.0 * splitting)
        field = splitting / FieldModel().g_factor
        cfg = EchoConfig(tau=30e-6, t_init=1e-6, t_rephase=1e-6, t_readout=1e-6)
        taus = np.linspace(0.2 * expected, 1.8 * expected, 30)
        taus = taus[taus > 2 * cfg.t_init + cfg.t_rephase + cfg.t_readout]
        points = field_sweep([field], cfg, PARAMS, SINGLE, taus, mode="proxy")
        assert points[0].beat_minimum == pytest.approx(expected, rel=0.05)


class TestTemperatureScan:
    def test_rejects_nonpositive_temperature(self):
        tm = TemperatureModel(t2_opt_ref=100e-6, temperature_ref=2.0)
        with pytest.raises(ValidationError):
            temperature_scan([0.0], tm, EchoConfig(tau=30e-6), PARAMS, SINGLE,
                             np.linspace(20e-6, 100e-6, 5))

    def test_propagation_failure_names_its_temperature(self):
        # at 1e10 K the init pulse map needs more than 64 squarings
        tm = TemperatureModel(t2_opt_ref=100e-6, temperature_ref=2.0)
        with pytest.raises(ConfigurationError, match=r"temperature 1e\+10 K"):
            temperature_scan([2.0, 1e10], tm, EchoConfig(tau=60e-6), PARAMS, SINGLE,
                             np.linspace(20e-6, 180e-6, 5))

    def test_reference_amplitude_is_one_and_decreasing_after_knee(self):
        tm = TemperatureModel(t2_opt_ref=100e-6, temperature_ref=2.0)
        temps = np.geomspace(2.0, 7.68, 5)
        taus = np.linspace(20e-6, 180e-6, 5)
        pts = temperature_scan(temps, tm, EchoConfig(tau=30e-6), PARAMS, SINGLE,
                               taus, mode="proxy")
        amps = np.array([p.amplitude for p in pts])
        assert amps[0] == pytest.approx(1.0)
        knee = np.where(amps < 0.95 * amps[0])[0][0]
        assert np.all(np.diff(amps[knee - 1:]) <= 1e-12)


class TestScalingStudy:
    def test_monotone_and_plateau(self):
        sm = ScalingModel(t_pi_ref=100e-9, t2_opt_ref=100e-6)
        params = LambdaParams()
        values = np.geomspace(100e-12, 1e-6, 7)
        pts = scaling_study(values, sm, EchoConfig(tau=30e-6), params, SINGLE)
        fids = [p.end_fidelity for p in pts]
        assert all(b >= a - 1e-9 for a, b in zip(fids, fids[1:]))
        assert fids[-1] > 0.74

    def test_pulse_durations_follow_the_anchor(self):
        sm = ScalingModel(t_pi_ref=100e-9, t2_opt_ref=100e-6)
        pts = scaling_study([1e-6], sm, EchoConfig(tau=30e-6), LambdaParams(), SINGLE)
        assert pts[0].t_pi == pytest.approx(10e-9)


class TestCompensationSearch:
    def test_three_axis_ambient_recovered(self):
        cfg = EchoConfig(tau=30e-6)
        taus = np.linspace(15e-6, 120e-6, 6)
        model = FieldModel(field_vector=(20e-6, -10e-6, 45e-6))
        res = compensation_search(model, cfg, PARAMS, SINGLE, taus, tol=1e-6,
                                  mode="proxy")
        assert res.warning is None
        for found, ambient in zip(res.compensation, model.field_vector):
            assert abs(found + ambient) < 1e-6

    def test_repeated_curves_are_computed_once(self, monkeypatch):
        # criterion 12's search: the start with the first round's trial points
        # of all three axes, one call of the unfinished axes' trial points per
        # later round (here all three converge after six rounds), then the
        # found vector on both storage-time windows (six storage times each)
        # in one call; no curve is computed twice, and no more than the cap of
        # 2 + golden_steps values per axis
        pending, computed, batches = [], [], []

        def recording(model):
            pending.append(np.asarray(model.compensation_vector).tobytes())
            return splitting_from_field(model)

        def counting(cfg, taus, layout, params, specs, *args):
            assert len(pending) == len(specs)
            windows = taus.reshape(-1, 6)
            computed.extend((comp, w.tobytes()) for comp in pending for w in windows)
            pending.clear()
            batches.append((len(specs), len(windows)))
            return _echo_amplitudes(cfg, taus, layout, params, specs, *args)

        monkeypatch.setattr(studies, "splitting_from_field", recording)
        monkeypatch.setattr(studies, "_echo_amplitudes", counting)
        cfg = EchoConfig(tau=30e-6)
        taus = np.linspace(15e-6, 120e-6, 6)
        ambient = (20e-6, -10e-6, 45e-6)
        res = compensation_search(FieldModel(field_vector=ambient), cfg, PARAMS, SINGLE,
                                  taus, tol=1e-6, mode="proxy")
        steps = studies.golden_steps(100e-6, 1e-6)
        assert batches == [(4, 1)] + [(3, 1)] * 5 + [(1, 2)]
        assert res.evaluations == len(computed) == 21 <= 1 + 3 * (2 + steps) + 2
        assert len(set(computed)) == len(computed)
        assert all(abs(found + true) < 1e-6 for found, true in zip(res.compensation, ambient))
        assert res.warning is None

    def test_spin_ensemble_ambient_recovered(self):
        # three spin grid points stack 6 members per curve
        ambient = (20e-6, -10e-6, 45e-6)
        res = compensation_search(FieldModel(field_vector=ambient), EchoConfig(tau=30e-6),
                                  PARAMS, EnsembleSpec(spin_fwhm=20e3, n_spin=3),
                                  np.linspace(15e-6, 120e-6, 6), tol=1e-6, mode="proxy")
        assert all(abs(found + true) < 1e-6 for found, true in zip(res.compensation, ambient))
        assert res.improved and res.warning is None

    def test_search_path_is_pinned(self):
        res = compensation_search(FieldModel(field_vector=(20e-6, -10e-6, 45e-6)),
                                  EchoConfig(tau=30e-6), PARAMS, SINGLE,
                                  np.linspace(15e-6, 120e-6, 6), tol=1e-6, mode="proxy")
        assert tuple(c.hex() for c in res.compensation) == PINNED_COMPENSATION
        assert [(tuple(c.hex() for c in comp), a.hex()) for comp, a in res.history] == \
            PINNED_HISTORY

    def test_zero_ambient_stays_at_zero(self):
        cfg = EchoConfig(tau=30e-6)
        taus = np.linspace(15e-6, 120e-6, 6)
        res = compensation_search(FieldModel(), cfg, PARAMS, SINGLE, taus,
                                  tol=1e-6, mode="proxy")
        assert np.allclose(res.compensation, 0.0, atol=1e-6)
        assert res.warning is None

    @pytest.mark.parametrize("search_range, tol", [
        # at tol 0 the golden-section bracket stops shrinking one ulp wide and
        # the search never returned
        (100e-6, 0.0), (100e-6, -1e-6), (0.0, 1e-6), (-100e-6, 1e-6)])
    def test_non_positive_tolerance_or_range_rejected(self, monkeypatch, search_range, tol):
        def no_curves(*args, **kwargs):
            raise AssertionError("no curve may be computed")

        monkeypatch.setattr(studies, "_echo_amplitudes", no_curves)
        with pytest.raises(ValidationError, match="search_range and tol must be > 0"):
            compensation_search(FieldModel(field_vector=(0.0, 0.0, 50e-6)),
                                EchoConfig(tau=30e-6), PARAMS, SINGLE,
                                np.linspace(15e-6, 120e-6, 6), search_range=search_range,
                                tol=tol, mode="proxy")
