"""End-to-end CLI behavior: exit codes, outputs, and reproducibility."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from eitecho.cli import main

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

    def test_log_range_through_zero_is_a_config_error(self, tmp_path, capsys):
        text = CLOSED_CONFIG + ("studies:\n  temp_scan:\n"
                                "    temperatures: {min: 0K, max: 5K, n: 3, log: true}\n")
        assert main(["validate", "--config", str(write_config(tmp_path, text))]) == 1
        assert "config error: studies.temp_scan.temperatures: a log range" in \
            capsys.readouterr().err


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
