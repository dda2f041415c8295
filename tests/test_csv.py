"""The one CSV cell format shared by every output table."""

import csv
import io

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

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


# the cells where repr changes notation or a shortcut could slip: signed
# zeros, NaN, infinities, subnormals, the 1e-5/1e-4 and 1e16 switches
EDGES = [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, -2.2250738585072e-308,
         2.2250738585072014e-308, 1e-5, 9.999999999999999e-06, 1e-4, 0.0001000000000000001,
         1e16, 9999999999999998.0, 1.0000000000000002e16, -1e16, 0.1, 1.0 / 3.0]
edge_floats = st.sampled_from(EDGES) | st.floats(allow_nan=True, allow_infinity=True)


def per_cell_reference(header: str, table: np.ndarray) -> str:
    return "".join(line + "\n" for line in
                   [header, *(",".join(map(repr, row)) for row in table.tolist())])


class TestFloatTable:
    """A float ndarray takes the one-repr-per-distinct-value path."""

    @settings(max_examples=300, deadline=None)
    @given(table=hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2,
                                                         min_side=0, max_side=12),
                            elements=edge_floats))
    @example(table=np.array(EDGES).reshape(1, -1))            # a single row
    @example(table=np.array(EDGES).reshape(-1, 1))            # a single column
    @example(table=np.zeros((0, 4)))                          # zero rows
    @example(table=np.array([[0.0, -0.0], [-0.0, 0.0]]))      # signed zeros stay apart
    @example(table=np.full((5, 3), 0.1))                      # one repeated value
    @example(table=np.array([[np.nan, -np.nan], [np.inf, -np.inf]]))
    def test_equals_per_cell_repr(self, table):
        assert units.csv_text("h", table) == per_cell_reference("h", table)

    @pytest.mark.parametrize("block", [1, 2, 5])
    def test_blocks_of_rows_join_seamlessly(self, monkeypatch, block):
        # 11 rows: full blocks and a short last one, values repeated across blocks
        rng = np.random.default_rng(block)
        table = rng.choice(np.array(EDGES + list(rng.standard_normal(5))), size=(11, 4))
        monkeypatch.setattr(units, "ROWS_PER_BLOCK", block)
        assert units.csv_text("h", table) == per_cell_reference("h", table)

    def test_table_longer_than_a_block(self):
        rows = 2 * units.ROWS_PER_BLOCK + 3
        table = np.column_stack([np.arange(rows) * 1e-7, np.tile([0.0, -0.0, 0.5], rows)[:rows],
                                 np.random.default_rng(0).standard_normal(rows)])
        assert units.csv_text("h", table) == per_cell_reference("h", table)

    def test_every_nan_pattern_is_nan(self):
        bits = np.array([0x7FF8000000000000, 0xFFF8000000000000, 0x7FF0000000000001,
                         0x7FF8DEADBEEF0001], dtype=np.uint64)
        table = bits.view(np.float64).reshape(2, 2)
        assert units.csv_text("a,b", table) == "a,b\nnan,nan\nnan,nan\n"
        # a signalling float32 NaN, whose cast to float64 sets numpy's invalid flag
        small = np.array([0x7FA00000, 0x3F800000], np.uint32).view(np.float32).reshape(1, 2)
        assert units.csv_text("a,b", small) == "a,b\nnan,1.0\n"

    def test_non_contiguous_and_float32_tables(self):
        table = np.arange(24.0).reshape(4, 6) / 7.0
        assert units.csv_text("h", table[:, ::2]) == per_cell_reference("h", table[:, ::2])
        assert units.csv_text("h", table.T) == per_cell_reference("h", table.T)
        small = table.astype(np.float32)
        assert units.csv_text("h", small) == per_cell_reference("h", small.astype(np.float64))


def assert_spelled_as_repr(values) -> None:
    """Every value, eight to a row, spelled as repr(float(value))."""
    values = np.asarray(values, dtype=np.float64).ravel()
    table = np.resize(values, (-(-values.size // 8), 8))
    cells = units.csv_text("h", table).replace(",", "\n").split("\n")[1:values.size + 1]
    expected = list(map(repr, values.tolist()))
    if cells != expected:
        wrong = [(hex(bits), cell, want) for bits, cell, want
                 in zip(values.view(np.uint64).tolist(), cells, expected) if cell != want]
        pytest.fail(f"{len(wrong)} cells differ from repr, first {wrong[:5]}")


class TestShortestDigits:
    """The vectorized kernel against repr, on the doubles where its arithmetic
    turns: subnormals, the irregular gaps, powers of two and ten, integers."""

    def test_subnormals(self):
        mantissas = np.concatenate([np.arange(1, 2**16), 2**52 - np.arange(1, 2**16 + 1)])
        assert_spelled_as_repr(mantissas.astype(np.uint64).view(np.float64))

    def test_powers_of_two_and_their_neighbours(self):
        # every power of two from 2^-1021 up is an irregular point: mantissa
        # 0, the gap below half the gap above
        powers = np.ldexp(1.0, np.arange(-1074, 1024))
        assert_spelled_as_repr(np.concatenate(
            [powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf), -powers]))

    def test_powers_of_ten_and_their_neighbours(self):
        powers = np.array([float(f"1e{k}") for k in range(-323, 309)])
        assert_spelled_as_repr(np.concatenate(
            [powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf)]))

    def test_integers(self):
        rng = np.random.default_rng(5)
        assert_spelled_as_repr(np.concatenate(
            [np.arange(2**16), rng.integers(0, 2**53, 2**14)]).astype(np.float64))

    def test_random_bit_patterns(self):
        rng = np.random.default_rng(11)
        assert_spelled_as_repr(rng.integers(0, 2**64, 10**6, dtype=np.uint64).view(np.float64))

    @settings(max_examples=100, deadline=None)
    @given(bits=hnp.arrays(np.uint64, hnp.array_shapes(min_dims=2, max_dims=2,
                                                       min_side=0, max_side=9),
                           elements=st.integers(0, 2**64 - 1)))
    @example(bits=np.zeros((3, 0), np.uint64))
    @example(bits=np.zeros((0, 3), np.uint64))
    def test_raw_bit_pattern_tables(self, bits):
        table = bits.view(np.float64)
        assert units.csv_text("h", table) == per_cell_reference("h", table)


class TestLabeledTables:
    """A dict of float tables by label cells: each line led by its labels."""

    @staticmethod
    def per_cell(tables: dict) -> str:
        return units.csv_text("s,c,a,b", [[*labels, *row] for labels, table in tables.items()
                                          for row in table.tolist()])

    @settings(max_examples=100, deadline=None)
    @given(tables=st.dictionaries(
        st.tuples(st.sampled_from(["init", "echo"]), st.sampled_from(["0", "1"])),
        hnp.arrays(np.float64, st.tuples(st.integers(0, 6), st.just(2)), elements=edge_floats),
        max_size=4))
    def test_equals_labeled_rows_per_cell(self, tables):
        assert units.csv_text("s,c,a,b", tables) == self.per_cell(tables)

    def test_tables_longer_than_a_block_keep_their_order(self):
        rng = np.random.default_rng(3)
        tables = {("echo", "1"): rng.standard_normal((units.ROWS_PER_BLOCK + 5, 2)),
                  ("init", "0"): np.array([[0.0, -0.0], [np.nan, 1e16]])}
        text = units.csv_text("s,c,a,b", tables)
        assert text == self.per_cell(tables)
        assert text.splitlines()[-1] == "init,0,nan,1e+16"


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
