"""Detuning grids, weighted averaging, refocusing, and parallel determinism."""

import numpy as np
import pytest

from eitecho.dynamics import run_sequence
from eitecho.ensemble import (
    EnsembleSpec,
    _axis_nodes,
    alias_free_size,
    ensemble_average,
    member_stack,
)
from eitecho.errors import ValidationError
from eitecho.lambda_system import LambdaParams
from eitecho.qstate import DensityMatrix3
from eitecho.sequences import EchoConfig, make_echo_sequence, make_init_pulse
from eitecho.dynamics import SequenceSpec, Wait

from conftest import final_state

MIXED = DensityMatrix3(np.diag([0.5, 0.5, 0.0]).astype(complex))
TWO_PI = 2.0 * np.pi


class TestSpecValidation:
    def test_grid_sizes_must_be_odd(self):
        with pytest.raises(ValidationError, match="odd"):
            EnsembleSpec(n_optical=4)

    def test_branch_weights_must_sum_to_one(self):
        with pytest.raises(ValidationError, match="sum to 1"):
            EnsembleSpec(zeeman_branches=((1e3, 0.4), (-1e3, 0.4)))

    def test_every_problem_is_reported(self):
        with pytest.raises(ValidationError) as exc:
            EnsembleSpec(spin_fwhm=-1.0, n_spin=2, zeeman_branches=((1e3, -0.5),))
        assert [p.split()[0] for p in exc.value.problems] == [
            "EnsembleSpec.spin_fwhm", "EnsembleSpec.n_spin", "EnsembleSpec.zeeman_branches",
            "EnsembleSpec.zeeman_branches"]

    @pytest.mark.parametrize("name, n", [("optical_fwhm", "n_optical"), ("spin_fwhm", "n_spin")])
    def test_grid_span_beyond_float_range_rejected(self, name, n):
        # the +/- 3 sigma span overflows above ~1.1e307 Hz; one node spans nothing
        with pytest.raises(ValidationError) as exc:
            EnsembleSpec(**{name: 1e308, n: 3})
        assert [p.split()[0] for p in exc.value.problems] == [f"EnsembleSpec.{name}"]
        EnsembleSpec(**{name: 1e308})
        offsets, weights = member_stack(EnsembleSpec(**{name: 1e307, n: 3}))
        assert np.isfinite(offsets).all() and np.isfinite(weights).all()


class TestDetuningGrid:
    def test_single_member(self):
        offsets, weights = member_stack(EnsembleSpec())
        assert offsets.tolist() == [[0.0, 0.0, 0.0]]
        assert weights.tolist() == [1.0]

    def test_symmetric_weights_sum_to_one(self):
        spec = EnsembleSpec(optical_fwhm=170e3, n_optical=41)
        offsets, weights = member_stack(spec)
        detunings = offsets[:, 0]
        assert weights.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(weights, weights[::-1])
        assert np.allclose(detunings, -detunings[::-1])
        assert detunings[weights.size // 2] == 0.0

    @pytest.mark.parametrize("n", [3, 21, 57, 101])
    @pytest.mark.parametrize("fwhm", [1.0, 20e3, 170e3, 3e9])
    def test_resonant_node_and_mirror_are_exact(self, fwhm, n):
        nodes, weights = _axis_nodes(fwhm, n)
        assert nodes[(n - 1) // 2] == 0.0
        assert np.array_equal(nodes, -nodes[::-1])
        assert np.array_equal(weights, weights[::-1])
        # still the midpoints of n equal cells over +/- 3 sigma
        half = 3.0 * TWO_PI * fwhm / (2.0 * np.sqrt(2.0 * np.log(2.0)))
        edges = np.linspace(-half, half, n + 1)
        assert np.allclose(nodes, 0.5 * (edges[:-1] + edges[1:]), rtol=0.0, atol=1e-14 * half)

    def test_branches_duplicate_every_point(self):
        spec = EnsembleSpec(spin_fwhm=10e3, n_spin=5,
                            zeeman_branches=((-3e3, 0.5), (3e3, 0.5)))
        offsets, weights = member_stack(spec)
        assert weights.size == 10
        # every static node appears once per branch, the branch offset apart
        base = member_stack(EnsembleSpec(spin_fwhm=10e3, n_spin=5))[0][:, 1]
        assert np.array_equal(offsets[:, 1], np.repeat(base, 2))
        assert np.array_equal(offsets[:, 2], np.tile([-TWO_PI * 3e3, TWO_PI * 3e3], 5))

    def test_rows_are_the_axis_nodes_row_major(self):
        branches = ((-8e3, 0.4), (8e3, 0.6))
        spec = EnsembleSpec(optical_fwhm=170e3, spin_fwhm=20e3, n_optical=3, n_spin=3,
                            zeeman_branches=branches)
        rows, expected_weights = [], []
        for do, wo in zip(*_axis_nodes(170e3, 3)):
            for ds, ws in zip(*_axis_nodes(20e3, 3)):
                for off_hz, wb in branches:
                    rows.append((do, ds, TWO_PI * off_hz))
                    expected_weights.append(wo * ws * wb)
        offsets, weights = member_stack(spec)
        assert offsets.shape == (18, 3)
        assert np.array_equal(offsets, np.array(rows))
        assert np.array_equal(weights, np.array(expected_weights))

    def test_gaussian_weighting_matches_pdf(self):
        spec = EnsembleSpec(spin_fwhm=50e3, n_spin=101)
        offsets, w = member_stack(spec)
        sigma = TWO_PI * 50e3 / (2.0 * np.sqrt(2.0 * np.log(2.0)))
        d = offsets[:, 1]
        ref = np.exp(-0.5 * (d / sigma) ** 2)
        ref /= ref.sum()
        assert np.allclose(w, ref, atol=1e-15)


@pytest.mark.parametrize("fwhm, tau, n", [
    # 170 kHz: sigma = 4.54e5 rad/s, so 5/sigma = 11 us; n = 21 revives at 48.5 us
    (170e3, 60e-6, 31), (170e3, 120e-6, 57), (170e3, 180e-6, 83), (170e3, 0.0, 5),
    (20e3, 180e-6, 15), (1e9, 1e-3, 2547971)])
def test_alias_free_size_is_the_least_odd_clearing_size(fwhm, tau, n):
    assert alias_free_size(fwhm, tau) == n and n % 2 == 1
    sigma = TWO_PI * fwhm / (2.0 * np.sqrt(2.0 * np.log(2.0)))

    def revival(size):
        return 2.0 * np.pi / (6.0 * sigma / size)

    assert revival(n) - 5.0 / sigma > tau >= revival(n - 2) - 5.0 / sigma


class TestAveraging:
    def test_single_member_matches_run_sequence(self):
        cfg = EchoConfig(tau=20e-6)
        seq = make_echo_sequence(cfg, include_readout=False)
        p = LambdaParams(delta_spin=TWO_PI * 2e3)
        avg = ensemble_average(seq, p, EnsembleSpec())
        direct = run_sequence(MIXED, p, seq)
        assert np.allclose(final_state(avg).matrix, final_state(direct).matrix,
                           atol=1e-12)

    def test_free_induction_decay_timescale(self):
        # Gaussian spread of width sigma dephases as exp(-(sigma t)^2 / 2), so
        # the magnitude halves at t = sqrt(2 ln 2) / sigma; compare the
        # simulated half-decay time with that closed form
        fwhm = 40e3
        spec = EnsembleSpec(spin_fwhm=fwhm, n_spin=81)
        cfg = EchoConfig(tau=60e-6, t_init=0.5e-6, t_rephase=0.5e-6, t_readout=0.5e-6)
        seq = SequenceSpec(segments=(make_init_pulse(cfg), Wait(duration=25e-6)))
        avg = ensemble_average(seq, LambdaParams(), spec)
        mags = np.abs(avg.coherence01)
        i0 = [i for i, _ in avg.segment_starts][1]
        c0 = mags[i0]
        below = np.where(mags[i0:] <= 0.5 * c0)[0]
        t_half = avg.times[i0 + below[0]] - avg.times[i0]
        sigma = TWO_PI * fwhm / (2.0 * np.sqrt(2.0 * np.log(2.0)))
        assert t_half == pytest.approx(np.sqrt(2.0 * np.log(2.0)) / sigma, rel=0.05)
        # and the tail is truly gone a few widths later
        assert mags[-1] < 0.12 * c0

    def test_echo_refocuses_spin_inhomogeneity(self):
        spec = EnsembleSpec(spin_fwhm=60e3, n_spin=61)
        cfg = EchoConfig(tau=60e-6, t_init=0.25e-6, t_rephase=0.25e-6,
                         t_readout=0.25e-6)
        seq = make_echo_sequence(cfg, include_readout=False)
        avg = ensemble_average(seq, LambdaParams(), spec)
        i0 = [i for i, _ in avg.segment_starts][1]
        post_init = abs(avg.coherence01[i0])
        echo = abs(avg.coherence01[-1])
        assert echo >= 0.95 * post_init
        # without the rephasing pulse the coherence is gone at tau
        fid = make_echo_sequence(cfg, include_rephase=False, include_readout=False)
        avg_fid = ensemble_average(fid, LambdaParams(), spec)
        assert abs(avg_fid.coherence01[-1]) <= 0.1 * post_init

    def test_parallel_runs_bitwise_identical(self):
        spec = EnsembleSpec(spin_fwhm=30e3, n_spin=11, optical_fwhm=100e3,
                            n_optical=3)
        cfg = EchoConfig(tau=20e-6)
        seq = make_echo_sequence(cfg, include_readout=False)
        p = LambdaParams(gamma_spin_deph=1e3)
        a = ensemble_average(seq, p, spec)
        b = ensemble_average(seq, p, spec)
        assert np.array_equal(a.coherence01, b.coherence01)
        assert np.array_equal(a.populations, b.populations)
        assert np.array_equal(final_state(a).matrix, final_state(b).matrix)
