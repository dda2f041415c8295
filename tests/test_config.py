"""Unit parsing and config validation: every error reported, unknown keys rejected."""

import math
from dataclasses import replace
import re
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eitecho.cli import accepts, build_parser
from eitecho.config import (KEYS, DEFAULT_CONFIG_TEXT, MAX_DURATION, MAX_RATE, MAX_STACK_BYTES,
                            MEMBER_BYTES, grid_warnings, parse_config, stack_bytes,
                            validate_config)
from eitecho.dynamics import PulseSpec, _check_squarings, member_generators
from eitecho.ensemble import EnsembleSpec, member_stack
from eitecho.errors import ConfigurationError
from eitecho.lambda_system import LambdaParams
from eitecho.readout import FIT_MIN_POINTS, assemble_decay_curves
from eitecho.sequences import EchoConfig, make_echo_sequence
from eitecho.studies import (FieldModel, ScalingModel, TemperatureModel,
                             branches_for_splitting, scaling_point)
from eitecho.units import parse_quantity, parse_ratio


class TestUnits:
    def test_times(self):
        assert parse_quantity("2us", "time") == pytest.approx(2e-6)
        assert parse_quantity("500ns", "time") == pytest.approx(500e-9)
        assert parse_quantity("1.5ms", "time") == pytest.approx(1.5e-3)

    def test_frequencies(self):
        assert parse_quantity("170kHz", "frequency") == pytest.approx(170e3)
        assert parse_quantity("10.2MHz", "frequency") == pytest.approx(10.2e6)

    def test_fields_including_micro_sign(self):
        assert parse_quantity("50uT", "field") == pytest.approx(50e-6)
        assert parse_quantity("50µT", "field") == pytest.approx(50e-6)

    def test_angles(self):
        assert parse_quantity("90deg", "angle") == pytest.approx(math.pi / 2)
        assert parse_quantity("1.2rad", "angle") == pytest.approx(1.2)

    def test_bare_number_rejected_for_dimensioned(self):
        with pytest.raises(ValueError, match="unit suffix"):
            parse_quantity(2e-6, "time")

    def test_wrong_unit_rejected(self):
        with pytest.raises(ValueError):
            parse_quantity("2us", "frequency")

    def test_g_factor_ratio(self):
        assert parse_ratio("12kHz/100uT", "frequency", "field") == pytest.approx(1.2e8)


class TestValidation:
    def test_default_config_parses(self):
        cfg = parse_config(DEFAULT_CONFIG_TEXT)
        assert cfg.sequence.tau == pytest.approx(60e-6)
        assert cfg.physics.gamma_opt_decay == pytest.approx(1.0 / 164e-6)
        assert cfg.ensemble.optical_fwhm == pytest.approx(170e3)

    def test_missing_tau_named(self):
        _, errors = validate_config({"sequence": {"t_init": "2us"}})
        assert any("sequence.tau" in e for e in errors)

    def test_missing_spin_fwhm_for_ensemble_run(self):
        tree = {"sequence": {"tau": "60us"}, "ensemble": {"n_spin": 5}}
        _, errors = validate_config(tree)
        assert any("spin_fwhm" in e for e in errors)

    def test_spin_fwhm_not_required_for_single_member(self):
        cfg, errors = validate_config({"sequence": {"tau": "60us"}})
        assert errors == []
        assert cfg.ensemble.spin_fwhm == 0.0

    def test_unknown_key_rejected_with_path(self):
        tree = {"sequence": {"tau": "60us", "t_int": "2us"}}
        _, errors = validate_config(tree)
        assert any("unknown key sequence.t_int" in e for e in errors)

    def test_negative_rate_flagged_with_path(self):
        tree = {"sequence": {"tau": "60us"}, "physics": {"t2_spin": "-5us"}}
        _, errors = validate_config(tree)
        assert any("physics.t2_spin" in e for e in errors)

    def test_all_errors_reported_at_once(self):
        tree = {
            "sequence": {"t_init": "2"},          # missing tau + bare number
            "physics": {"t1_opt": "-1us"},
            "ensemble": {"n_optical": 4},
            "bogus": {},
        }
        _, errors = validate_config(tree)
        assert len(errors) >= 4
        joined = "\n".join(errors)
        for needle in ("sequence.tau", "sequence.t_init", "physics.t1_opt",
                       "n_optical", "unknown key bogus"):
            assert needle in joined

    def test_every_problem_of_a_section_is_reported(self):
        # the ensemble reported its first failed invariant only
        tree = {"sequence": {"tau": "60us"},
                "ensemble": {"n_optical": 4,
                             "zeeman_branches": [{"offset": "1kHz", "weight": 0.7}]}}
        _, errors = validate_config(tree)
        assert len(errors) == 2
        assert errors[0].startswith("ensemble.n_optical must be odd")
        assert errors[1].startswith("ensemble.zeeman_branches weights must sum to 1")

    def test_scaling_points_checked_by_the_room_rule(self):
        # just above the "> 4" bound the first wait is 5e-13 of the init pulse
        tree = {"sequence": {"tau": "60us"},
                "studies": {"scaling": {"tau_in_pulses": 4.000000000001}}}
        _, errors = validate_config(tree)
        assert len(errors) == 1
        assert errors[0].startswith("studies.scaling.t2_opt[0]: echo tau (")
        assert "leaves no room for the wait" in errors[0]
        tree["studies"]["scaling"]["tau_in_pulses"] = 4.001
        assert validate_config(tree)[1] == []

    def test_scaling_point_beyond_the_squarings_names_its_key(self):
        # validate said "config OK" and scaling exited 1 naming no key: the
        # init pulse's 1e-155 s at a 1e300 /s dephasing rate
        tree = {"sequence": {"tau": "60us"},
                "studies": {"scaling": {"t2_opt": ["1e-300s", "1us"]}}}
        _, errors = validate_config(tree)
        assert errors == ["studies.scaling.t2_opt[0]: must be >= 1e-15s"]

    def test_compensation_bracket_without_room_names_the_search_range(self):
        # with no ambient field a 1e-26 T search range sets bracketing storage
        # times near 1e17 s, where a 2 us pulse is below the clock's resolution
        tree = {"sequence": {"tau": "60us"},
                "studies": {"compensation": {"ambient_field": ["0uT", "0uT", "0uT"],
                                             "search_range": "1e-20uT"}}}
        _, errors = validate_config(tree)
        assert errors and all(e.startswith("studies.compensation.search_range: its "
                                           "bracketing storage time ") for e in errors)
        assert "sequence.t_readout (2e-06) leaves no room" in errors[-1]
        tree["studies"]["compensation"]["search_range"] = "1e-3uT"
        assert validate_config(tree)[1] == []

    @pytest.mark.parametrize("block, head", [
        # 1.4 / (pi g reach) overflows: validate warned from np.linspace and
        # said "config OK" to the first and third, and raised ZeroDivisionError
        # on the second; EchoConfig has no room rule for an infinite tau
        ({"field_model": {"g_factor": "1e-310Hz/1T"}},
         "field_model.g_factor: its bracketing storage time is inf: "),
        ({"field_model": {"g_factor": "5e-324Hz/1T"}},
         "field_model.g_factor: its bracketing storage time is inf: "),
        ({"studies": {"compensation": {"ambient_field": ["0uT", "0uT", "0uT"],
                                       "search_range": "1e-320T"}}},
         "studies.compensation.search_range: its bracketing storage time is inf: "),
        # near 1e303 s no pulse has room: this named the search range, though
        # the default g-factor leaves room
        ({"field_model": {"g_factor": "1e-300Hz/1T"}},
         "field_model.g_factor: its bracketing storage time 1.78254e+303 s: "),
    ])
    def test_compensation_bracket_names_the_key_at_fault(self, block, head):
        _, errors = validate_config({"sequence": {"tau": "60us"}, **block})
        assert errors and all(e.startswith(head) for e in errors)

    @pytest.mark.parametrize("block, head", [
        # the T^-7 law underflows the optical T2 to 0 at 1e50 K and overflows
        # at 1e-60 K and from a 1e300 K reference; at 1e10 K the T2 is finite
        # but below the 1e-15 s of a lifetime key; the other values are
        # finite but outside their key's range: validate said "config OK" to
        # the last four, and their runs exited 1 with "beyond 64 squarings"
        ({"studies": {"temp_scan": {"temperatures": ["2K", "1e50K"]}}},
         "studies.temp_scan.temperatures[1]: at 1e+50 K "),
        ({"studies": {"temp_scan": {"temperatures": ["2K", "1e-60K"]}}},
         "studies.temp_scan.temperatures[1]: at 1e-60 K "),
        ({"studies": {"temp_scan": {"temperature_ref": "1e300K"}}},
         "studies.temp_scan.temperatures[0]: at 2 K "),
        ({"studies": {"temp_scan": {"temperatures": ["2K", "1e10K"]}}},
         "studies.temp_scan.temperatures[1]: at 1e+10 K "),
        ({"ensemble": {"optical_fwhm": "1e308Hz", "n_optical": 3}},
         "ensemble.optical_fwhm: must be <= 1e15Hz"),
        ({"ensemble": {"spin_fwhm": "1e308Hz", "n_spin": 3}},
         "ensemble.spin_fwhm: must be <= 1e15Hz"),
        ({"sequence": {"tau": "60us", "readout_rabi": "1e300Hz"}},
         "sequence.readout_rabi: must be <= 1e15Hz"),
        ({"studies": {"field_sweep": {"fields": ["0uT", "1e30uT"]}}},
         "studies.field_sweep.fields[1]: must be <= 1kT"),
        ({"field_model": {"g_factor": "1e300kHz/100uT"}},
         "field_model.g_factor: must be <= 1e12Hz/1T"),
        ({"studies": {"compensation": {"ambient_field": ["0uT", "0uT", "1e30uT"]}}},
         "studies.compensation.ambient_field[2]: must be <= 1kT"),
    ], ids=["1e50K", "1e-60K", "reference-1e300K", "1e10K", "optical_fwhm", "spin_fwhm",
            "readout_rabi", "field_sweep", "g_factor", "ambient_field"])
    def test_values_beyond_float_range_name_their_key(self, block, head):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, errors = validate_config({"sequence": {"tau": "60us"}, **block})
        assert len(errors) == 1 and errors[0].startswith(head)

    @pytest.mark.parametrize("ensemble, key", [
        ({"optical_fwhm": "1e300Hz", "n_optical": 3}, "optical_fwhm"),
        ({"spin_fwhm": "1e300Hz", "n_spin": 3}, "spin_fwhm"),
        ({"zeeman_branches": [{"offset": "1e300Hz", "weight": 1}]}, "zeeman_branches")])
    def test_ensemble_too_wide_for_the_pulse_maps_names_its_key(self, ensemble, key):
        # a finite width below the grid bound: validate named
        # studies.temp_scan.temperatures[4] and studies.scaling.t2_opt[0],
        # though the member offsets alone put the base echo's pulse maps
        # beyond 64 squarings at any temperature or optical T2
        _, errors = validate_config({"sequence": {"tau": "60us"}, "ensemble": ensemble})
        offset = "[0].offset" if key == "zeeman_branches" else ""
        assert errors == [f"ensemble.{key}{offset}: must be <= 1e15Hz"]

    @pytest.mark.parametrize("block, key", [
        ({"physics": {"delta_opt": "1e300Hz"}}, "delta_opt"),
        ({"physics": {"delta_spin": "-1e300Hz"}}, "delta_spin"),
        ({"physics": {"delta_opt": "1e300Hz", "delta_spin": "1e299Hz"},
          "ensemble": {"optical_fwhm": "170kHz", "n_optical": 3}}, "delta_opt")])
    def test_base_detuning_too_large_for_the_pulse_maps_names_its_key(self, block, key):
        # validate named studies.temp_scan.temperatures[4] and
        # studies.scaling.t2_opt[0]: the resonant member alone fails the base
        # echo's check, on its base detunings; each detuning out of its range
        # is named, the first in table order first
        _, errors = validate_config({"sequence": {"tau": "60us"}, **block})
        assert errors[0].startswith(f"physics.{key}: must be ")
        assert all(e.startswith("physics.delta_") and e.endswith("1e15Hz") for e in errors)

    @pytest.mark.parametrize("physics, key", [
        ({"t2_opt": "1e-300s"}, "t2_opt"),
        ({"t1_opt": "1e-300s"}, "t1_opt"),
        ({"t2_spin": "1e-300s"}, "t2_spin"),
        ({"excitation_spin_deph": "1e300Hz"}, "excitation_spin_deph"),
        ({"t1_opt": "1e-290s", "t2_opt": "1e-300s", "t2_spin": "1e-295s"}, "t2_opt")])
    def test_base_rate_too_large_for_the_pulse_maps_names_its_key(self, physics, key):
        # validate passed t2_opt (the studies replace the optical rate with
        # their own) and blamed the studies for t1_opt; each rate or lifetime
        # out of its range is named
        _, errors = validate_config({"sequence": {"tau": "60us"}, "physics": physics})
        limit = "<= 1e15Hz" if key == "excitation_spin_deph" else ">= 1e-15s"
        assert f"physics.{key}: must be {limit}" in errors
        assert all(e.startswith("physics.") and e.endswith(("1e15Hz", "1e-15s")) for e in errors)

    def test_parse_config_raises_with_all_problems(self):
        with pytest.raises(ConfigurationError) as exc:
            parse_config("sequence: {tau: 60us, nonsense: 1}\nalso_bad: {}")
        assert len(exc.value.problems) == 2

    def test_sweep_range_and_lists(self):
        tree = {
            "sequence": {"tau": "60us"},
            "studies": {
                "field_sweep": {"fields": ["0uT", "25uT", "50uT"],
                                "taus": {"min": "10us", "max": "100us", "n": 10}},
            },
        }
        cfg, errors = validate_config(tree)
        assert errors == []
        assert np.allclose(cfg.field_sweep.fields, [0.0, 25e-6, 50e-6])
        assert cfg.field_sweep.taus.size == 10

    def test_t2_opt_cannot_beat_lifetime_limit(self):
        tree = {"sequence": {"tau": "60us"},
                "physics": {"t1_opt": "100us", "t2_opt": "300us"}}
        _, errors = validate_config(tree)
        assert any("2*T1" in e for e in errors)

    def test_excitation_induced_dephasing_adds_to_spin_rate(self):
        tree = {"sequence": {"tau": "60us"},
                "physics": {"t2_spin": "500us", "excitation_spin_deph": "1kHz"}}
        cfg, errors = validate_config(tree)
        assert errors == []
        assert cfg.physics.gamma_spin_deph == pytest.approx(1.0 / 500e-6 + 1e3)

    def test_zeeman_branch_block(self):
        tree = {"sequence": {"tau": "60us"},
                "ensemble": {"zeeman_branches": [
                    {"offset": "-3kHz", "weight": 0.5},
                    {"offset": "3kHz", "weight": 0.5}]}}
        cfg, errors = validate_config(tree)
        assert errors == []
        assert cfg.ensemble.zeeman_branches == ((-3e3, 0.5), (3e3, 0.5))

    @pytest.mark.parametrize("study", ["field_sweep", "temp_scan", "compensation"])
    @pytest.mark.parametrize("taus, problem", [
        # fit_decay needs FIT_MIN_POINTS points; a shorter curve only ever fails its fit
        (["20us", "60us", "100us", "140us"], "the decay fit needs at least 5 storage times, got 4"),
        ({"min": "20us", "max": "140us", "n": 4}, "needs at least 5 storage times, got 4"),
        # a decay curve's axis must be strictly increasing
        (["20us", "60us", "40us", "100us", "140us"], "strictly increasing"),
        (["20us", "60us", "60us", "100us", "140us"], "strictly increasing"),
        ({"min": "140us", "max": "20us", "n": 5}, "strictly increasing"),
    ])
    def test_unusable_study_taus_named(self, study, taus, problem):
        tree = {"sequence": {"tau": "60us"}, "studies": {study: {"taus": taus}}}
        cfg, errors = validate_config(tree)
        assert cfg is None
        assert len(errors) == 1 and errors[0].startswith(f"studies.{study}.taus: ")
        assert problem in errors[0]

    @pytest.mark.parametrize("study", ["field_sweep", "temp_scan", "compensation"])
    def test_study_taus_too_short_for_the_pulses_named(self, study):
        # 1 us cannot hold the three 2 us pulses: every run of the study failed
        # with an EchoConfig.tau error naming neither the key nor the index
        tree = {"sequence": {"tau": "60us"},
                "studies": {study: {"taus": ["1us", "20us", "40us", "60us", "80us"]}}}
        cfg, errors = validate_config(tree)
        assert cfg is None and errors
        assert all(e.startswith(f"studies.{study}.taus[0]: storage time (1e-06)") for e in errors)
        assert "must exceed the summed pulse durations" in errors[0]

    def test_study_taus_checked_against_the_configured_pulses(self):
        taus = ["5us", "20us", "40us", "60us", "80us"]
        # 5 us holds three 1 us pulses but not three 2 us ones
        short = {"tau": "60us", "t_init": "1us", "t_rephase": "1us", "t_readout": "1us"}
        cfg, errors = validate_config({"sequence": short, "studies": {"temp_scan": {"taus": taus}}})
        assert errors == [] and cfg.temp_scan.taus[0] == pytest.approx(5e-6)
        _, errors = validate_config({"sequence": {"tau": "60us"},
                                     "studies": {"temp_scan": {"taus": taus}}})
        assert errors and all(e.startswith("studies.temp_scan.taus[0]: ") for e in errors)

    def test_invalid_sequence_does_not_flag_study_taus(self):
        tree = {"sequence": {"tau": "60us", "t_init": "-1us"},
                "studies": {"temp_scan": {"taus": ["1us", "20us", "40us", "60us", "80us"]}}}
        _, errors = validate_config(tree)
        assert errors and all(e.startswith("sequence.") for e in errors)

    def test_study_taus_parse_error_reported_once(self):
        tree = {"sequence": {"tau": "60us"}, "studies": {"temp_scan": {"taus": ["20"]}}}
        _, errors = validate_config(tree)
        assert len(errors) == 1 and errors[0].startswith("studies.temp_scan.taus[0]")

    def test_fit_minimum_is_the_validation_minimum(self):
        taus = [f"{20 + 20 * k}us" for k in range(FIT_MIN_POINTS)]
        tree = {"sequence": {"tau": "60us"}, "studies": {"temp_scan": {"taus": taus}}}
        cfg, errors = validate_config(tree)
        assert errors == []
        assert cfg.temp_scan.taus.size == FIT_MIN_POINTS


class TestGridWarnings:
    RATED = DEFAULT_CONFIG_TEXT.replace("n_optical: 1 ", "n_optical: 21")

    def test_default_config_has_no_warning(self):
        assert grid_warnings(parse_config(DEFAULT_CONFIG_TEXT)) == []

    def test_aliasing_grid_names_the_least_clearing_size(self):
        # 170 kHz over 21 points revives at 48.5 us; 5/sigma is 11 us
        found = grid_warnings(parse_config(self.RATED))
        assert all(w.startswith("warning: ") and w.endswith(tuple("0123456789"))
                   for w in found)
        sizes = {w.split()[1]: int(w.split()[-1]) for w in found}
        assert sizes == {"sequence.tau": 31, "studies.field_sweep.taus": 71,
                         "studies.temp_scan.taus": 83, "studies.compensation.taus": 57}
        assert all("ensemble.n_optical" in w for w in found)
        cleared = self.RATED.replace("n_optical: 21", "n_optical: 83")
        assert grid_warnings(parse_config(cleared)) == []

    def test_spin_axis_is_checked_too(self):
        text = self.RATED.replace("n_optical: 21", "n_optical: 83").replace(
            "n_spin: 1", "spin_fwhm: 20kHz\n  n_spin: 11")
        found = grid_warnings(parse_config(text))
        assert found and all("ensemble.n_spin" in w for w in found)

    def test_the_warned_grid_misses_the_echo(self):
        # the glitch behind the rule: a 21-point grid's revival puts the beat
        # amplitude at 100 us >= 10% off a 161-point reference; the size the
        # warning names for the compensation window, 57, is within 1e-3 of it
        cfg = parse_config(self.RATED)
        taus = np.sort(np.append(cfg.compensation.taus, 100e-6))
        curves = {n: assemble_decay_curves(cfg.sequence, taus, cfg.physics,
                                           [replace(cfg.ensemble, n_optical=n)],
                                           mode="beat")[0].amplitudes
                  for n in (21, 57, 161)}
        at_100us = int(np.flatnonzero(taus == 100e-6)[0])
        assert abs(curves[21][at_100us] / curves[161][at_100us] - 1.0) >= 0.1
        assert np.all(np.abs(curves[57] / curves[161] - 1.0) <= 1e-3)


class TestKeyTable:
    """One table states every key: the README, --help and the defaults follow it."""

    @staticmethod
    def readme_section() -> str:
        text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        return text.split("## Configuration", 1)[1].split("\n## ", 1)[0]

    def test_readme_names_exactly_the_table_keys_with_their_bounds(self):
        rows = re.findall(r"^\| `([\w.]+)` \| (.+?) \|", self.readme_section(), re.M)
        assert [path for path, _ in rows] == [k.path for k in KEYS]
        assert {path: takes.replace("\\|", "|") for path, takes in rows} == \
            {k.path: accepts(k) for k in KEYS}

    def test_readme_example_is_valid(self):
        example_text = self.readme_section().split("```yaml\n", 1)[1].split("```", 1)[0]
        cfg, errors = validate_config(yaml.safe_load(example_text))
        assert errors == [] and cfg is not None

    def test_help_names_exactly_the_table_keys(self):
        names, section = [], None
        for line in build_parser().format_help().splitlines():
            if m := re.fullmatch(r"  ([\w.]+):", line):
                section = m.group(1)
            elif section and (m := re.match(r"    (\w+) ", line)):
                names.append(f"{section}.{m.group(1)}")
        assert names == [k.path for k in KEYS]

    def test_absent_keys_take_the_dataclass_defaults(self):
        cfg, errors = validate_config({"sequence": {"tau": "60us"}})
        assert errors == []
        assert cfg.sequence == EchoConfig(tau=parse_quantity("60us", "time"))
        assert cfg.ensemble == EnsembleSpec()
        assert cfg.physics == LambdaParams()
        assert cfg.field_model == FieldModel()
        assert cfg.scaling.model == ScalingModel()

    def test_scaled_keys_fill_their_fields(self):
        tree = {"sequence": {"tau": "60us", "init_area_pi": 0.5, "rephase_area_pi": 1,
                             "readout_rabi": "1MHz"},
                "physics": {"delta_opt": "2kHz"}}
        cfg, errors = validate_config(tree)
        assert errors == []
        assert cfg.sequence.init_area == 0.5 * math.pi
        assert cfg.sequence.rephase_area == math.pi
        assert cfg.sequence.readout_rabi == 2.0 * math.pi * 1e6
        assert cfg.physics.delta_opt == 2.0 * math.pi * 2e3

    def test_axis_defaults_are_not_shared_between_configs(self):
        first, _ = validate_config({"sequence": {"tau": "60us"}})
        first.field_sweep.taus[0] = -1.0
        second, _ = validate_config({"sequence": {"tau": "60us"}})
        assert second.field_sweep.taus[0] == pytest.approx(10e-6)


class TestBounds:
    @pytest.mark.parametrize("block, problem", [
        # 0 uT made the golden section of compensate loop forever
        ({"compensation": {"tolerance": "0uT"}}, "studies.compensation.tolerance: must be > 0"),
        ({"compensation": {"tolerance": "-1uT"}}, "studies.compensation.tolerance: must be > 0"),
        ({"compensation": {"search_range": "0uT"}},
         "studies.compensation.search_range: must be > 0"),
        # these passed validate, then failed the run as a numerical failure
        ({"temp_scan": {"temperatures": ["2K", "0K"]}},
         "studies.temp_scan.temperatures[1]: must be > 0"),
        ({"temp_scan": {"temperatures": {"min": "-1K", "max": "5K", "n": 3}}},
         "studies.temp_scan.temperatures.min: must be > 0"),
        ({"temp_scan": {"t2_opt_ref": "0us"}}, "studies.temp_scan.t2_opt_ref: must be > 0"),
        ({"temp_scan": {"temperature_ref": "-2K"}},
         "studies.temp_scan.temperature_ref: must be > 0"),
        ({"scaling": {"t2_opt": ["1ns", "-1ns"]}}, "studies.scaling.t2_opt[1]: must be >= 1e-15s"),
        ({"scaling": {"t2_opt": {"min": "0ns", "max": "1us", "n": 4}}},
         "studies.scaling.t2_opt.min: must be >= 1e-15s"),
        # the echo spans 4 init-pulse durations; this named EchoConfig.tau at run time
        ({"scaling": {"tau_in_pulses": 4}}, "studies.scaling.tau_in_pulses: must be > 4"),
        ({"scaling": {"tau_in_pulses": 3.5}}, "studies.scaling.tau_in_pulses: must be > 4"),
        # t_pi = 100 ns * sqrt(t2_opt / 100 us): 10 s at t2_opt = 1e12 s
        ({"scaling": {"t2_opt": ["1us", "1e12s"]}},
         "studies.scaling.t2_opt[1]: its pulse duration t_pi_ref * sqrt(t2_opt / t2_opt_ref), "
         "10 s, must be <= 1s"),
    ])
    def test_study_bound_names_its_key(self, block, problem):
        cfg, errors = validate_config({"sequence": {"tau": "60us"}, "studies": block})
        assert cfg is None and errors == [problem]

    @pytest.mark.parametrize("path", ["field_sweep.fields", "field_sweep.taus",
                                      "temp_scan.temperatures", "temp_scan.taus",
                                      "scaling.t2_opt", "compensation.taus"])
    def test_an_axis_holds_at_most_1024_values(self, path):
        # {min: 2K, max: 5K, n: 1000000} passed validate, and each value is a
        # decay curve or a point of one
        study, key = path.split(".")
        low, high = {"fields": ("0uT", "95uT"), "temperatures": ("2K", "5K"),
                     "t2_opt": ("1ns", "1us")}.get(key, ("200us", "300us"))

        def errors(axis):
            return validate_config({"sequence": {"tau": "60us"},
                                    "studies": {study: {key: axis}}})[1]

        assert errors({"min": low, "max": high, "n": 1024}) == []
        assert errors({"min": low, "max": high, "n": 1000000}) == \
            [f"studies.{path}.n: must be <= 1024"]
        assert errors([low] * 1025) == [f"studies.{path}: must have <= 1024 values, got 1025"]

    def test_negative_seed_named(self):
        cfg, errors = validate_config({"sequence": {"tau": "60us"}, "output": {"seed": -5}})
        assert cfg is None and errors == ["output.seed: must be >= 0"]
        cfg, errors = validate_config({"sequence": {"tau": "60us"}, "output": {"seed": 0}})
        assert errors == [] and cfg.seed == 0

    @pytest.mark.parametrize("log", ["no", "yes please", 1, 0, None, [True]])
    def test_range_log_takes_only_booleans(self, log):
        fields = {"min": "1uT", "max": "90uT", "n": 6, "log": log}
        cfg, errors = validate_config({"sequence": {"tau": "60us"},
                                       "studies": {"field_sweep": {"fields": fields}}})
        assert cfg is None and len(errors) == 1
        assert errors[0].startswith("studies.field_sweep.fields.log: expected true or false")

    @pytest.mark.parametrize("log, spacing", [(True, np.geomspace), (False, np.linspace)])
    def test_range_log_booleans(self, log, spacing):
        fields = {"min": "1uT", "max": "90uT", "n": 6, "log": log}
        cfg, errors = validate_config({"sequence": {"tau": "60us"},
                                       "studies": {"field_sweep": {"fields": fields}}})
        assert errors == []
        assert np.array_equal(cfg.field_sweep.fields, spacing(
            parse_quantity("1uT", "field"), parse_quantity("90uT", "field"), 6))

    def test_yaml_boolean_spellings_are_booleans(self):
        cfg = parse_config("sequence: {tau: 60us}\nstudies:\n  field_sweep:\n"
                           "    fields: {min: 1uT, max: 90uT, n: 6, log: yes}\n")
        assert np.array_equal(cfg.field_sweep.fields, np.geomspace(
            parse_quantity("1uT", "field"), parse_quantity("90uT", "field"), 6))

    def test_unknown_range_key_named(self):
        fields = {"min": "1uT", "max": "90uT", "n": 6, "lg": True}
        _, errors = validate_config({"sequence": {"tau": "60us"},
                                     "studies": {"field_sweep": {"fields": fields}}})
        assert errors == ["unknown key studies.field_sweep.fields.lg"]




def _end(path: str, op: str) -> str:
    """The limit of the `op` clause (">=" or "<=") of a key's range, as written."""
    bound = next(k.bound for k in KEYS if k.path == path)
    return dict(clause.split() for clause in bound.split(", "))[op]


def _hottest_at_the_rate_end() -> float:
    """The hottest scan temperature whose T^-7 dephasing rate, from the default
    reference pair, validate accepts: at most MAX_RATE."""
    model = TemperatureModel(t2_opt_ref=100e-6, temperature_ref=2.0)
    t = 2.0 * (100e-6 * MAX_RATE) ** (1.0 / 7.0)
    while model.gamma_opt_deph(t) > MAX_RATE:
        t = math.nextafter(t, 0.0)
    return t


def edge_tree(pick) -> dict:
    """A config tree whose ranged keys sit at an end of their range in KEYS (a
    lower end of 0 written as 0Hz), or are left out (None); `pick(choices)`
    picks one of each key's choices, the last of which puts the pulse maps'
    norms farthest out."""
    def ends(path):
        return _end(path, ">="), _end(path, "<=")

    def chosen(**choices):
        picked = {key: pick(values) for key, values in choices.items()}
        return {key: value for key, value in picked.items() if value is not None}

    lifetime, (short, long) = _end("physics.t1_opt", ">="), ends("sequence.t_init")
    # pulse durations (init, rephase, readout): the defaults, the shortest, the
    # longest, and the shortest init pulse before the longest readout pulse,
    # whose default drive, the init pulse's, is then the largest of any key
    durations = pick([("2us",) * 3, (short,) * 3, (long,) * 3, (short, "2us", long)])
    tau = 2.0 * sum(parse_quantity(d, "time") for d in durations)
    taus = {"min": f"{tau!r}s", "max": f"{5 * tau!r}s", "n": 5}
    n_optical, n_spin = pick([(1, 1), (3, 3), (3, int(_end("ensemble.n_spin", "<="))),
                              (int(_end("ensemble.n_optical", "<=")), 3)])
    offset_lo, offset_hi = ends("ensemble.zeeman_branches")
    ambient_lo, ambient_hi = ends("studies.compensation.ambient_field")
    return {
        "physics": chosen(t1_opt=(None, lifetime), t2_opt=(None, lifetime),
                          t2_spin=(None, lifetime),
                          excitation_spin_deph=("0Hz", _end("physics.excitation_spin_deph", "<=")),
                          delta_opt=(None, *ends("physics.delta_opt")),
                          delta_spin=(None, *ends("physics.delta_spin"))),
        "ensemble": {"n_optical": n_optical, "n_spin": n_spin, "spin_fwhm": "0Hz", **chosen(
            optical_fwhm=("0Hz", _end("ensemble.optical_fwhm", "<=")),
            spin_fwhm=("0Hz", _end("ensemble.spin_fwhm", "<=")),
            zeeman_branches=(None, [{"offset": offset_lo, "weight": 0.5},
                                    {"offset": offset_hi, "weight": 0.5}]))},
        "sequence": {"tau": f"{tau!r}s", **dict(zip(("t_init", "t_rephase", "t_readout"),
                                                    durations)), **chosen(
            readout_rabi=("0Hz", _end("sequence.readout_rabi", "<="), None),
            init_area_pi=(None, _end("sequence.init_area_pi", "<=")),
            rephase_area_pi=(None, _end("sequence.rephase_area_pi", "<=")),
            calibration=("bright", "bare"))},
        "field_model": chosen(g_factor=(None, _end("field_model.g_factor", "<="))),
        "studies": {
            "field_sweep": {"taus": taus,
                            **chosen(fields=(None, list(ends("studies.field_sweep.fields"))))},
            "temp_scan": {"taus": taus, **chosen(
                temperatures=(None, ["2K", f"{_hottest_at_the_rate_end()!r}K"]))},
            # pulses of t_pi_ref * sqrt(t2_opt / 100 us), up to the longest
            # that validate accepts, MAX_DURATION
            "scaling": pick([{}, {"t_pi_ref": _end("studies.scaling.t_pi_ref", "<="),
                                  "t2_opt": [_end("studies.scaling.t2_opt", ">="),
                                             f"{100e-6 * MAX_DURATION ** 2!r}s"]}]),
            "compensation": {"taus": taus, **chosen(
                ambient_field=(None, [ambient_hi, ambient_lo, ambient_hi]),
                search_range=(None, _end("studies.compensation.search_range", "<=")))},
        },
    }


@st.composite
def edge_trees(draw) -> dict:
    return edge_tree(lambda choices: draw(st.sampled_from(choices)))


def pulse_stacks(cfg):
    """(parameters, sequence, member offsets) of every pulse stack that the
    subcommands propagate: the base echo with its readout, at the hottest scan
    temperature, at the largest sweep field and at the compensation box's
    farthest corner, and each scaling point's echo."""
    seq = make_echo_sequence(cfg.sequence)
    offsets = member_stack(cfg.ensemble)[0]
    yield cfg.physics, seq, offsets
    rate = max(cfg.temp_scan.model.gamma_opt_deph(t) for t in cfg.temp_scan.temperatures)
    yield cfg.physics.replace(gamma_opt_deph=rate), seq, offsets
    comp = cfg.compensation
    corner = np.linalg.norm(np.abs(comp.model.net_field()) + comp.search_range)
    for field in (np.abs(cfg.field_sweep.fields).max(), corner):
        spec = replace(cfg.ensemble, zeeman_branches=branches_for_splitting(
            cfg.field_model.g_factor * field))
        yield cfg.physics, seq, member_stack(spec)[0]
    for t2 in cfg.scaling.t2_opt_values:
        _, member, scaled = scaling_point(cfg.sequence, cfg.scaling.model, cfg.physics, t2,
                                          cfg.scaling.tau_in_pulses)
        yield member, scaled, offsets


class TestRangesBoundThePulseMaps:
    """A config that validates cannot fail _expm's squaring check at run time."""

    @settings(max_examples=40, deadline=None)
    @given(tree=edge_trees())
    @example(tree=edge_tree(lambda choices: choices[-1]))
    def test_every_pulse_map_of_a_valid_config_is_scalable(self, tree):
        cfg, errors = validate_config(tree)
        assert errors == []
        for params, seq, offsets in pulse_stacks(cfg):
            pulses = [seg for seg in seq.segments if isinstance(seg, PulseSpec)]
            _check_squarings(np.array([seg.duration * member_generators(params, seg, offsets)
                                       for seg in pulses]))


class TestStackBound:
    """The member stack a config implies is estimated from the config alone,
    before any generator or map is built (ensemble.n_optical x n_spin)."""

    GRID_255 = ("sequence: {tau: 60us}\nensemble: {optical_fwhm: 170kHz, spin_fwhm: 20kHz, "
                "n_optical: 255, n_spin: 255}\n")

    def test_estimate(self):
        grid = EnsembleSpec(optical_fwhm=170e3, spin_fwhm=20e3, n_optical=21, n_spin=11)
        # the default field sweep stacks 20 fields of 2 Zeeman branches each
        assert stack_bytes(grid, 20, 5) == (21 * 11 * 40 * MEMBER_BYTES,
                                            "studies.field_sweep.fields")
        assert stack_bytes(grid, 1, 5) == (21 * 11 * 8 * MEMBER_BYTES,
                                           "compensate's table curves, 4 per call")
        branched = replace(grid, zeeman_branches=((-1e3, 0.25), (0.0, 0.5), (1e3, 0.25)))
        assert stack_bytes(branched, 1, 5)[0] == 21 * 11 * 15 * MEMBER_BYTES
        assert 21 * 11 * 40 * MEMBER_BYTES < MAX_STACK_BYTES < 255 * 255 * 40 * MEMBER_BYTES

    @pytest.mark.parametrize("command, passes", [("field-sweep", (20, 5)),
                                                 ("compensate", (1, 1))])
    def test_the_estimate_covers_the_traced_peak(self, tmp_path, capsys, command, passes):
        # the pass the estimate picks for these counts is the one the command runs
        text = DEFAULT_CONFIG_TEXT.replace("n_optical: 1 ", "n_optical: 9").replace(
            "n_spin: 1", "spin_fwhm: 20kHz\n  n_spin: 5")
        config = tmp_path / "g.yaml"
        config.write_text(text)
        from eitecho.cli import main
        tracemalloc.start()
        try:
            assert main([command, "--config", str(config), "--out", str(tmp_path / "o")]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        estimate = stack_bytes(parse_config(text).ensemble, *passes)[0]
        assert 0.6 * estimate < peak <= estimate

    def test_the_21_x_11_grid_passes(self):
        text = DEFAULT_CONFIG_TEXT.replace("n_optical: 1 ", "n_optical: 21").replace(
            "n_spin: 1", "spin_fwhm: 20kHz\n  n_spin: 11")
        assert parse_config(text).ensemble.n_optical == 21

    @pytest.mark.parametrize("grid, key", [((255, 255), "n_optical"), ((101, 255), "n_spin")])
    def test_a_huge_grid_names_its_larger_axis(self, grid, key):
        text = self.GRID_255.replace("n_optical: 255", f"n_optical: {grid[0]}").replace(
            "n_spin: 255", f"n_spin: {grid[1]}")
        with pytest.raises(ConfigurationError) as info:
            parse_config(text)
        assert [p for p in info.value.problems if "GiB" in p] == [
            f"ensemble.{key}: the {grid[0]} x {grid[1]} grid would take "
            f"~{stack_bytes(parse_grid(grid), 20, 5)[0] / 2 ** 30:.3g} GiB at its peak "
            f"(studies.field_sweep.fields), beyond the bound of 1 GiB"]

    @pytest.mark.parametrize("command", ["validate", "simulate", "bloch-path", "qst",
                                         "field-sweep", "temp-scan", "scaling", "compensate"])
    def test_every_subcommand_exits_1_at_once(self, tmp_path, capsys, command):
        from eitecho.cli import main
        config = tmp_path / "g.yaml"
        config.write_text(self.GRID_255)
        start = time.monotonic()
        assert main([command, "--config", str(config), "--out", str(tmp_path / "o")]) == 1
        assert time.monotonic() - start < 1.0
        err = capsys.readouterr().err
        assert err.startswith("config error: ensemble.n_optical: the 255 x 255 grid")
        assert "Traceback" not in err


def parse_grid(grid) -> EnsembleSpec:
    return EnsembleSpec(optical_fwhm=170e3, spin_fwhm=20e3, n_optical=grid[0], n_spin=grid[1])
