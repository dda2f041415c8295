"""The one CSV cell format shared by every output table."""

import csv
import io

import numpy as np

from eitecho import units
from eitecho.dynamics import Trajectory
from eitecho.ensemble import EnsembleSpec
from eitecho.lambda_system import LambdaParams
from eitecho.sequences import EchoConfig
from eitecho.studies import (
    FieldModel,
    TemperatureModel,
    field_fits_csv,
    field_sweep,
    field_sweep_csv,
    temperature_scan,
    temperature_scan_csv,
)

PARAMS = LambdaParams(gamma_spin_deph=1.0 / 500e-6)


def _parses(cell: str) -> bool:
    try:
        float(cell)
    except ValueError:
        return False
    return True


class TestCsvText:
    def test_none_is_empty_and_str_passes_through(self):
        assert units.csv_text("a,b,c", [(None, "init", 1.5)]) == "a,b,c\n,init,1.5\n"

    def test_numbers_are_shortest_round_trip(self):
        cells = [-0.0, 1e-300, np.float64(0.1), np.float64(-2.5e-7), 3]
        text = units.csv_text("v", [[c] for c in cells])
        assert text == "v\n-0.0\n1e-300\n0.1\n-2.5e-07\n3.0\n"
        assert text.splitlines()[1:] == [repr(float(c)) for c in cells]

    def test_no_rows_is_header_only(self):
        assert units.csv_text("x,y", []) == "x,y\n"


class TestTrajectoryCsv:
    def _traj(self) -> Trajectory:
        s0 = np.array([[0.5, 0.25 - 0.125j, 0.0],
                       [0.25 + 0.125j, 0.5, 0.0],
                       [0.0, 0.0, 0.0]], dtype=complex)
        s1 = np.array([[0.25, -0.5 + 0.0625j, 0.125j],
                       [-0.5 - 0.0625j, 0.5, 0.1 - 0.2j],
                       [-0.125j, 0.1 + 0.2j, 0.25]], dtype=complex)
        return Trajectory(times=np.array([0.0, 1e-6]), states=np.stack([s0, s1]))

    def test_to_csv(self):
        assert self._traj().to_csv() == (
            "time_s,pop0,pop1,pope,re_coh01,im_coh01,re_coh0e,im_coh0e,re_coh1e,im_coh1e\n"
            "0.0,0.5,0.5,0.0,0.25,-0.125,0.0,0.0,0.0,0.0\n"
            "1e-06,0.25,0.5,0.25,-0.5,0.0625,0.0,0.125,0.1,-0.2\n")

    def test_bloch_path_csv(self):
        assert self._traj().bloch_path_csv() == (
            "time_s,x,y,z\n"
            "0.0,0.5,0.25,0.0\n"
            "1e-06,-1.0,-0.125,-0.25\n")


def test_study_csvs_from_numpy_scalars_are_numbers():
    """numpy scalars in the models must not leak 'np.float64(...)' into cells."""
    cfg = EchoConfig(tau=30e-6)
    taus = np.linspace(10e-6, 150e-6, 6)
    fields = field_sweep([5e-6], cfg, PARAMS, EnsembleSpec(), taus,
                         model=FieldModel(g_factor=np.float64(1.2e8)))
    temps = temperature_scan([2.0, 4.0],
                             TemperatureModel(t2_opt_ref=np.float64(1e-4), temperature_ref=2.0),
                             cfg, PARAMS, EnsembleSpec(), taus)
    for text in (field_sweep_csv(fields), field_fits_csv(fields), temperature_scan_csv(temps)):
        rows = list(csv.reader(io.StringIO(text)))[1:]
        assert rows
        for row in rows:
            assert all(cell == "" or _parses(cell) for cell in row), row
