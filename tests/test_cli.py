"""End-to-end CLI behavior: exit codes, outputs, and reproducibility."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import eitecho.cli as cli
import eitecho.studies as studies
from eitecho.cli import main
from eitecho.config import parse_config
from eitecho.errors import FitFailureError, ValidationError
from eitecho.readout import _echo_amplitudes
from eitecho.sequences import DEFAULT_SPLITTING_HZ, SAMPLES_PER_PERIOD, echo_layout
from eitecho.studies import golden_steps

SRC = str(Path(__file__).resolve().parents[1] / "src")

CLOSED_CONFIG = """\
physics: {}
ensemble: {}
sequence:
  tau: 30us
readout:
  mode: beat
output:
  directory: out
  seed: 7
"""

SWEEP_CONFIG = """\
physics:
  t2_spin: 500us
sequence:
  tau: 30us
readout:
  mode: proxy
studies:
  field_sweep:
    fields: {min: 0uT, max: 95uT, n: 20}
    taus: {min: 10us, max: 150us, n: 30}
output:
  directory: out
"""

SCALING_CONFIG = """\
physics:
  t2_spin: 500us
sequence:
  tau: 30us
studies:
  scaling:
    t2_opt: [100ps, 10ns, 1us]
output:
  directory: out
"""


def write_config(tmp_path: Path, text: str) -> Path:
    path = tmp_path / "config.yaml"
    path.write_text(text)
    return path


class TestValidate:
    def test_good_config_exits_zero(self, tmp_path, capsys):
        cfg = write_config(tmp_path, CLOSED_CONFIG)
        assert main(["validate", "--config", str(cfg)]) == 0
        assert "config OK" in capsys.readouterr().out
        assert not (tmp_path / "out").exists()

    def test_bad_config_exits_one_and_names_keys(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "sequence: {tau: 60us}\nensemble: {n_spin: 3}\n")
        assert main(["validate", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert "spin_fwhm" in err

    def test_aliasing_grid_warns_and_exits_zero(self, tmp_path, capsys):
        cfg = write_config(tmp_path, CLOSED_CONFIG.replace(
            "ensemble: {}", "ensemble: {optical_fwhm: 170kHz, n_optical: 21}"))
        assert main(["validate", "--config", str(cfg)]) == 0
        out, err = capsys.readouterr()
        assert out == "config OK\n"
        lines = err.splitlines()
        assert lines and all(line.startswith("warning: ") for line in lines)
        assert "ensemble.n_optical that clears it is 57" in lines[-1]

    # the default splitting's detector clock ticks 8 times a period, so 40
    # ticks are the 5-period minimum; the readout counts 40 * (1 - 1e-12)
    # ticks as 40 whole ones and 40 * (1 - 1e-8) as 39
    @pytest.mark.parametrize("ticks", [32, 40 * (1 - 1e-8), 40 * (1 - 1e-12), 40, 41])
    def test_short_readout_warns_exactly_when_the_beat_refuses(self, tmp_path, capsys, ticks):
        t_readout = ticks / (SAMPLES_PER_PERIOD * DEFAULT_SPLITTING_HZ)
        path = write_config(tmp_path, f"sequence: {{tau: 60us, t_readout: {t_readout!r}s}}\n")
        assert main(["validate", "--config", str(path)]) == 0
        out, err = capsys.readouterr()
        assert out == "config OK\n"
        warned = "sequence.t_readout" in err and "sequence.splitting" in err
        cfg = parse_config(path.read_text())
        try:
            taus = np.array([cfg.sequence.tau])
            _echo_amplitudes(cfg.sequence, taus, echo_layout(cfg.sequence, taus), cfg.physics,
                             [cfg.ensemble], "beat")
            refused = False
        except ValidationError as exc:
            assert "beat_amplitude: window" in str(exc)
            refused = True
        assert warned == refused == (ticks < 40 * (1 - 1e-9))

    def test_unreadable_config_exits_one(self, tmp_path):
        assert main(["validate", "--config", str(tmp_path / "missing.yaml")]) == 1

    @pytest.mark.parametrize("key, value", [
        ("tau", "1e400us"),          # overflows to inf
        ("init_area_pi", ".inf"),    # YAML infinity
        ("splitting", "1e400Hz"),    # overflows to inf
        ("splitting", "1e-320Hz"),   # subnormal: detector clock 1/(8 splitting) is inf
        # finite values whose Rabi frequency overflows
        ("init_area_pi", "1e308"),
        ("rephase_area_pi", "1e308"),
        ("readout_rabi", "1e308Hz"),
    ])
    def test_non_finite_sequence_value_is_a_config_error(self, tmp_path, capsys, key,
                                                         value):
        setting = f"tau: {value}" if key == "tau" else f"tau: 30us\n  {key}: {value}"
        cfg = write_config(tmp_path, CLOSED_CONFIG.replace("tau: 30us", setting))
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert f"config error: sequence.{key}" in err

    @pytest.mark.parametrize("tau", ["6us", "6.000000000000001us"])
    @pytest.mark.parametrize("command", ["validate", "simulate"])
    def test_wait_without_room_is_a_config_error(self, tmp_path, capsys, command, tau):
        # validate exited 0 and simulate 2: a first wait of 4.2e-22 s after the
        # 2 us init pulse, whose samples did not advance the trajectory's clock
        setting = f"tau: {tau}\n  t_readout: 1us"
        cfg = write_config(tmp_path, CLOSED_CONFIG.replace("tau: 30us", setting))
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        assert "config error: sequence.tau" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("key", ["t_rephase", "t_readout"])
    @pytest.mark.parametrize("command", ["validate", "simulate"])
    def test_pulse_without_room_is_a_config_error(self, tmp_path, capsys, command, key):
        # validate exited 0 and simulate 2: 5e-27 s rephasing halves near
        # 15 us, where one float spacing is 1.7e-21 s, stalled the samples;
        # so short a pulse is now outside its key's range, and the room rule
        # is shown on a 1 fs pulse near 15 s of a 30 s echo
        setting = f"tau: 30s\n  {key}: 1e-15s"
        cfg = write_config(tmp_path, CLOSED_CONFIG.replace("tau: 30us", setting))
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert f"config error: sequence.{key} (" in err and "leaves no room" in err
        assert not (tmp_path / "o").exists()

    def test_log_range_through_zero_is_a_config_error(self, tmp_path, capsys):
        text = CLOSED_CONFIG + ("studies:\n  temp_scan:\n"
                                "    temperatures: {min: 0K, max: 5K, n: 3, log: true}\n")
        assert main(["validate", "--config", str(write_config(tmp_path, text))]) == 1
        assert "config error: studies.temp_scan.temperatures: a log range" in \
            capsys.readouterr().err


    @pytest.mark.parametrize("command, study, taus", [
        # four storage times: every fitted_t2_s cell was blank, and exit 0
        ("temp-scan", "temp_scan", "[20us, 60us, 100us, 140us]"),
        # a NaN objective with a fit-failure warning, and exit 0
        ("compensate", "compensation", "[15us, 40us, 65us, 90us]"),
        # "numerical failure: DecayCurve taus must be strictly increasing", exit 2
        ("field-sweep", "field_sweep", "[10us, 50us, 30us, 70us, 90us]"),
    ])
    def test_unusable_study_taus_exit_one(self, tmp_path, capsys, command, study, taus):
        text = CLOSED_CONFIG + f"studies:\n  {study}:\n    taus: {taus}\n"
        out = tmp_path / "o"
        assert main([command, "--config", str(write_config(tmp_path, text)),
                     "--out", str(out)]) == 1
        assert f"config error: studies.{study}.taus: " in capsys.readouterr().err
        assert not out.exists()


    @pytest.mark.parametrize("command, study", [
        ("temp-scan", "temp_scan"), ("field-sweep", "field_sweep"),
        ("compensate", "compensation"), ("validate", "temp_scan")])
    def test_study_taus_shorter_than_the_pulses_exit_one(self, tmp_path, capsys, command,
                                                           study):
        # validate printed "config OK"; the studies exited 1 naming EchoConfig.tau
        text = CLOSED_CONFIG + f"studies:\n  {study}:\n    taus: [1us, 2us, 3us, 4us, 5us]\n"
        out = tmp_path / "o"
        assert main([command, "--config", str(write_config(tmp_path, text)),
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert f"config error: studies.{study}.taus[0]: storage time (1e-06) must exceed" in err
        assert "EchoConfig" not in err
        assert not out.exists()


class TestArgumentErrors:
    @staticmethod
    def run_cli(*args) -> subprocess.CompletedProcess:
        env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
        return subprocess.run([sys.executable, "-m", "eitecho.cli", *args], env=env,
                              capture_output=True, text=True, timeout=120)

    def test_unknown_argument_exits_one(self):
        done = self.run_cli("validate", "--bogus")
        assert done.returncode == 1
        assert "unrecognized arguments: --bogus" in done.stderr

    def test_help_exits_zero(self):
        done = self.run_cli("validate", "--help")
        assert done.returncode == 0
        assert "--config" in done.stdout


class TestQst:
    def test_noiseless_closed_system_fidelities(self, tmp_path):
        cfg = write_config(tmp_path, CLOSED_CONFIG)
        out = tmp_path / "o"
        assert main(["qst", "--config", str(cfg), "--out", str(out)]) == 0
        data = json.loads((out / "qst.json").read_text())
        assert set(data) == {"init_x", "init_y", "after_rephase"}
        for case in data.values():
            assert case["fidelity_vs_ideal"] >= 0.95
        assert data["init_x"]["fidelity_pure_target"] == pytest.approx(0.75, abs=0.01)
        # ideal runs clear the fidelity floors that real setups reach
        assert data["init_x"]["fidelity_pure_target"] >= 0.70
        assert data["init_y"]["fidelity_pure_target"] >= 0.68
        assert data["after_rephase"]["fidelity_pure_target"] >= 0.67


class TestNumericalFailureExit:
    def test_beat_window_too_short_exits_two(self, tmp_path, capsys):
        # 2 us readout at 1 MHz splitting is only 2 beat periods: the Fourier
        # extraction refuses and the run reports a numerical failure
        bad = CLOSED_CONFIG.replace("tau: 30us", "tau: 30us\n  splitting: 1MHz")
        cfg = write_config(tmp_path, bad)
        assert main(["simulate", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 2
        assert "numerical failure" in capsys.readouterr().err

    def test_fit_failure_prints_its_diagnostics(self, tmp_path, capsys, monkeypatch):
        diagnostics = {"theta": [1.0, -2e-5, 0.5], "iterations": 200, "cost": 0.25}

        def failing(*args, **kwargs):
            raise FitFailureError("fit_decay did not converge", diagnostics=diagnostics)

        monkeypatch.setattr(cli, "field_sweep", failing)
        out = tmp_path / "o"
        assert main(["field-sweep", "--config", str(write_config(tmp_path, SWEEP_CONFIG)),
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == ["numerical failure: fit_decay did not converge",
                       json.dumps(diagnostics, sort_keys=True)]
        assert json.loads(err[1]) == diagnostics
        assert sorted(p.name for p in out.iterdir()) == ["config_used.yaml"]

    def test_failure_without_diagnostics_prints_one_line(self, tmp_path, capsys):
        bad = CLOSED_CONFIG.replace("tau: 30us", "tau: 30us\n  splitting: 1MHz")
        assert main(["simulate", "--config", str(write_config(tmp_path, bad)),
                     "--out", str(tmp_path / "o")]) == 2
        assert len(capsys.readouterr().err.splitlines()) == 1

    @pytest.mark.parametrize("seed, case", [(3, "init_y"), (5, "after_rephase")])
    def test_inconsistent_tomography_names_its_qst_case(self, tmp_path, capsys, seed, case):
        # read noise of 0.3 on the built-in config lengthens a projection
        # vector past 1 + INCONSISTENCY_MARGIN at these seeds
        out = tmp_path / "o"
        cfg = write_config(tmp_path, "sequence: {tau: 60us}\noutput: {noise_rms: 0.3}\n")
        assert main(["qst", "--config", str(cfg), "--seed", str(seed), "--out", str(out)]) == 2
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith(f"numerical failure: qst case {case}: projection vector length")
        assert sorted(p.name for p in out.iterdir()) == ["config_used.yaml"]


class TestOneWriter:
    def test_failed_run_leaves_only_the_config(self, tmp_path, capsys):
        # a 0.3 us readout holds too few detector ticks for the beat: the run
        # fails after the trajectory is computed and must write no result file
        bad = CLOSED_CONFIG.replace("tau: 30us", "tau: 30us\n  t_readout: 0.3us")
        out = tmp_path / "o"
        assert main(["simulate", "--config", str(write_config(tmp_path, bad)),
                     "--out", str(out)]) == 2
        assert "numerical failure" in capsys.readouterr().err
        assert sorted(p.name for p in out.iterdir()) == ["config_used.yaml"]

    def test_manifest_lists_every_file_written(self, tmp_path):
        out = tmp_path / "o"
        assert main(["simulate", "--config", str(write_config(tmp_path, CLOSED_CONFIG)),
                     "--out", str(out)]) == 0
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["subcommand"] == "simulate"
        written = {p.name for p in out.iterdir()} - {"config_used.yaml", "run_manifest.json"}
        assert set(manifest["outputs"]) == written
        assert len(manifest["outputs"]) == len(written) == 4

    def test_manifest_config_holds_each_study_model_in_its_section(self, tmp_path):
        out = tmp_path / "o"
        assert main(["temp-scan", "--out", str(out)]) == 0
        config = json.loads((out / "run_manifest.json").read_text())["config"]
        assert config["temp_scan"]["model"] == {"t2_opt_ref": 100e-6, "temperature_ref": 2.0}
        assert config["scaling"]["model"] == {"t_pi_ref": 100e-9, "t2_opt_ref": 100e-6}
        assert config["compensation"]["model"]["field_vector"] == [0.0, 0.0, 50 * 1e-6]
        assert "scaling_model" not in config


class TestFieldSweep:
    def test_shape_of_outputs(self, tmp_path):
        cfg = write_config(tmp_path, SWEEP_CONFIG)
        out = tmp_path / "o"
        assert main(["field-sweep", "--config", str(cfg), "--out", str(out)]) == 0
        rows = (out / "field_sweep.csv").read_text().strip().splitlines()
        assert len(rows) == 1 + 20 * 30
        fits = (out / "field_fits.csv").read_text().strip().splitlines()
        assert len(fits) == 1 + 20
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["subcommand"] == "field-sweep"
        assert "field_sweep.csv" in manifest["outputs"]


class TestTempScan:
    def test_zero_variance_writes_a_ci_of_zero(self, tmp_path):
        # short, weak pulses: the fit at 3.9 K has a T2 variance of -0.0,
        # whose CI was written as -0.0
        cfg = write_config(tmp_path, "sequence: {tau: 60us, t_init: 0.5us, t_rephase: 0.5us, "
                                     "init_area_pi: 0.05, rephase_area_pi: 0.1}\n")
        out = tmp_path / "o"
        assert main(["temp-scan", "--config", str(cfg), "--out", str(out)]) == 0
        rows = [row.split(",") for row in (out / "temp_scan.csv").read_text().splitlines()]
        assert rows[0][3] == "t2_ci95_s"
        assert rows[3][0].startswith("3.919") and rows[3][3] == "0.0"
        assert not any(row[3].startswith("-") for row in rows[1:])


class TestScaling:
    def test_scaling_csv_and_manifest(self, tmp_path):
        cfg = write_config(tmp_path, SCALING_CONFIG)
        out = tmp_path / "o"
        assert main(["scaling", "--config", str(cfg), "--out", str(out)]) == 0
        rows = (out / "scaling.csv").read_text().strip().splitlines()
        assert rows[0] == "t2_opt_s,t_pi_s,end_fidelity,coherence"
        assert len(rows) == 1 + 3
        assert [float(r.split(",")[0]) for r in rows[1:]] == pytest.approx([100e-12, 10e-9, 1e-6])
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["subcommand"] == "scaling"
        assert "scaling.csv" in manifest["outputs"]


    def test_failing_point_names_its_index_and_t2_opt(self, tmp_path, capsys, monkeypatch):
        calls, final_state = [], studies.ensemble_final_state

        def failing_second(*args):
            calls.append(args)
            if len(calls) == 2:
                raise ValidationError("DensityMatrix3: trace 1.5 outside [0, 1]")
            return final_state(*args)

        monkeypatch.setattr(studies, "ensemble_final_state", failing_second)
        cfg = write_config(tmp_path, SCALING_CONFIG)
        assert main(["scaling", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == ("numerical failure: scaling point 1 (t2_opt 1e-08 s): "
                                           "DensityMatrix3: trace 1.5 outside [0, 1]\n")


class TestCompensate:
    def test_tolerance_below_the_float_spacing_ends(self, tmp_path):
        # one float spacing of a 50 uT field is 6.8e-21 T, so no bracket gets
        # as narrow as these tolerances: each axis stops at the cap of
        # 2 + golden_steps values, the steps that still shrink a bracket of
        # values up to |start| + search_range, or at its own convergence; the
        # counts follow the last bits of the search's table of maps
        for compensation, search_range, count in (
                ("{search_range: 1uT, tolerance: 1e-22uT}", 1e-6, 173),
                ("{tolerance: 1e-317uT}", 100e-6, 143)):
            text = CLOSED_CONFIG + f"studies:\n  compensation: {compensation}\n"
            out = tmp_path / str(search_range)
            done = TestArgumentErrors.run_cli("compensate", "--config",
                                              str(write_config(tmp_path, text)), "--out", str(out))
            assert done.returncode == 0, done.stderr
            steps = golden_steps(search_range, 4.0 * math.ulp(search_range))
            evaluations = json.loads((out / "compensation.json").read_text())["evaluations"]
            assert evaluations == count <= 1 + 3 * (2 + steps) + 2 <= 1 + 3 * (2 + 80) + 2


class TestReproducibility:
    def test_identical_runs_are_bitwise_identical(self, tmp_path):
        cfg = write_config(tmp_path, CLOSED_CONFIG)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", "--config", str(cfg), "--out", str(out_a),
                     "--seed", "5"]) == 0
        assert main(["simulate", "--config", str(cfg), "--out", str(out_b),
                     "--seed", "5"]) == 0
        for name in ("trajectory.csv", "beat_trace.csv", "echo_summary.json"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
        # the exact config text rides along with the outputs
        assert (out_a / "config_used.yaml").read_text() == CLOSED_CONFIG

    def test_thread_count_does_not_change_outputs(self, tmp_path):
        # output.threads is recorded in the manifest and changes nothing else
        text = CLOSED_CONFIG.replace("ensemble: {}", "ensemble: {spin_fwhm: 20kHz, n_spin: 5}")
        outputs = []
        for threads in (1, 4):
            cfg = write_config(tmp_path, text + f"  threads: {threads}\n")
            out = tmp_path / f"t{threads}"
            assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
            assert json.loads((out / "run_manifest.json").read_text())["threads"] == threads
            outputs.append((out / "trajectory.csv").read_bytes())
        assert outputs[0] == outputs[1]

    def test_seed_changes_noisy_tomography(self, tmp_path):
        noisy = CLOSED_CONFIG.replace("seed: 7", "seed: 7\n  noise_rms: 0.01")
        cfg = write_config(tmp_path, noisy)
        out_a, out_b, out_c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
        assert main(["qst", "--config", str(cfg), "--out", str(out_a)]) == 0
        assert main(["qst", "--config", str(cfg), "--out", str(out_b)]) == 0
        assert main(["qst", "--config", str(cfg), "--out", str(out_c),
                     "--seed", "8"]) == 0
        assert (out_a / "qst.csv").read_bytes() == (out_b / "qst.csv").read_bytes()
        assert (out_a / "qst.csv").read_bytes() != (out_c / "qst.csv").read_bytes()


class TestBlochPath:
    def test_two_components_two_stages(self, tmp_path):
        cfg = write_config(tmp_path, CLOSED_CONFIG)
        out = tmp_path / "o"
        assert main(["bloch-path", "--config", str(cfg), "--out", str(out)]) == 0
        rows = (out / "bloch_path.csv").read_text().strip().splitlines()[1:]
        stages = {r.split(",")[0] for r in rows}
        components = {r.split(",")[1] for r in rows}
        assert stages == {"init", "echo"}
        assert components == {"0", "1"}
        # both components of the mixed state end at the same dark point
        finals = {}
        for stage, comp in (("init", "0"), ("init", "1")):
            sel = [r for r in rows if r.startswith(f"{stage},{comp},")]
            finals[comp] = np.array([float(v) for v in sel[-1].split(",")[3:6]])
        assert np.allclose(finals["0"], finals["1"], atol=1e-3)


class TestBoundsExitOne:
    @pytest.mark.parametrize("command, block, problem", [
        # compensate never returned at tolerance 0
        ("compensate", "compensation: {tolerance: 0uT}",
         "studies.compensation.tolerance: must be > 0"),
        ("compensate", "compensation: {search_range: -5uT}",
         "studies.compensation.search_range: must be > 0"),
        # these exited 2 as a "numerical failure" after validate passed them
        ("temp-scan", "temp_scan: {temperatures: [2K, 0K, 5K]}",
         "studies.temp_scan.temperatures[1]: must be > 0"),
        ("temp-scan", "temp_scan: {t2_opt_ref: 0us}", "studies.temp_scan.t2_opt_ref: must be > 0"),
        ("temp-scan", "temp_scan: {temperature_ref: 0K}",
         "studies.temp_scan.temperature_ref: must be > 0"),
        ("scaling", "scaling: {t2_opt: [1ns, 0ns]}",
         "studies.scaling.t2_opt[1]: must be >= 1e-15s"),
        # temp-scan died with a ZeroDivisionError traceback after validate passed it
        ("temp-scan", "temp_scan: {temperatures: [2K, 1e50K]}",
         "studies.temp_scan.temperatures[1]: at 1e+50 K the T^-7 law from t2_opt_ref 0.0001 s "
         "at temperature_ref 2 K gives no finite optical T2 >= 1e-15s"),
        # this exited 1 naming EchoConfig.tau instead of the key
        ("scaling", "scaling: {tau_in_pulses: 4}", "studies.scaling.tau_in_pulses: must be > 4"),
        ("validate", "compensation: {tolerance: 0uT}",
         "studies.compensation.tolerance: must be > 0"),
        # validate ran member_stack on the grid for 4.9 s, then said "config OK"
        ("field-sweep", "ensemble: {n_optical: 200001}", "ensemble.n_optical: must be <= 255"),
    ])
    def test_bound_is_a_config_error(self, tmp_path, capsys, command, block, problem):
        # a block is the ensemble section, or one section of the studies
        if block.startswith("ensemble:"):
            text = CLOSED_CONFIG.replace("ensemble: {}", block)
        else:
            text = CLOSED_CONFIG + f"studies:\n  {block}\n"
        out = tmp_path / "o"
        assert main([command, "--config", str(write_config(tmp_path, text)),
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == f"config error: {problem}\n"
        assert not out.exists()

    @pytest.mark.parametrize("command, section, problem", [
        # validate printed numpy's "invalid value" warning and "config OK", and
        # compensate exited 1 naming "EchoConfig.tau (nan)": 1.4 / (pi g reach)
        # overflows, and the bracket check let its infinite storage time pass
        ("compensate", "field_model: {g_factor: 1e-310Hz/1T}", "field_model.g_factor"),
        ("compensate", "studies:\n  compensation: {ambient_field: [0uT, 0uT, 0uT], "
         "search_range: 1e-320T}", "studies.compensation.search_range"),
        # validate said "config OK", and temp-scan would have made a million curves
        ("temp-scan", "studies:\n  temp_scan: {temperatures: {min: 2K, max: 5K, n: 1000000}}",
         "studies.temp_scan.temperatures.n: must be <= 1024"),
    ])
    def test_validate_and_the_run_name_the_key(self, tmp_path, capsys, command, section,
                                               problem):
        path = str(write_config(tmp_path, CLOSED_CONFIG + section + "\n"))
        out = tmp_path / "o"
        for args in (["validate"], [command, "--out", str(out)]):
            assert main([*args, "--config", path]) == 1
            err = capsys.readouterr().err
            assert err.startswith(f"config error: {problem}") and err.count("\n") == 1
        assert not out.exists()

    def test_negative_config_seed_exits_one(self, tmp_path, capsys):
        # qst died with numpy's "expected non-negative integer" traceback
        text = CLOSED_CONFIG.replace("seed: 7", "seed: -5")
        out = tmp_path / "o"
        assert main(["qst", "--config", str(write_config(tmp_path, text)),
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err == "config error: output.seed: must be >= 0\n"
        assert not out.exists()

    @pytest.mark.parametrize("seed", ["-1", "abc", "1.5"])
    def test_bad_seed_argument_is_a_usage_error(self, tmp_path, capsys, seed):
        out = tmp_path / "o"
        with pytest.raises(SystemExit) as exc:
            main(["qst", "--seed", seed, "--out", str(out)])
        assert exc.value.code == 1
        assert f"argument --seed: expected an integer >= 0, got '{seed}'" in \
            capsys.readouterr().err
        assert not out.exists()

    def test_zero_seed_runs(self, tmp_path):
        out = tmp_path / "o"
        assert main(["qst", "--config", str(write_config(tmp_path, CLOSED_CONFIG)),
                     "--seed", "0", "--out", str(out)]) == 0
        assert json.loads((out / "run_manifest.json").read_text())["seed"] == 0
