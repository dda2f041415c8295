"""Beat synthesis, single-bin Fourier amplitude, decay assembly, and the fit."""

from dataclasses import replace

import numpy as np
import pytest

from eitecho.ensemble import EnsembleSpec
from eitecho.errors import FitFailureError, ValidationError
from eitecho.lambda_system import LambdaParams
from eitecho.readout import (
    BeatTrace,
    DecayCurve,
    assemble_decay_curve,
    beat_amplitude,
    fit_decay,
    synthesize_beat,
)
from eitecho.sequences import EchoConfig, make_echo_sequence, make_readout_pulse
from eitecho.dynamics import SequenceSpec, Trajectory, run_sequence
from eitecho.qstate import DensityMatrix3
from eitecho.studies import branches_for_splitting

MIXED = DensityMatrix3(np.diag([0.5, 0.5, 0.0]).astype(complex))


def cosine_trace(a=1.0, f=10.2e6, phi=0.0, periods=20, rate_factor=8.0) -> BeatTrace:
    dt = 1.0 / (rate_factor * f)
    n = int(round(periods * rate_factor))
    t = dt * np.arange(n)
    return BeatTrace(times=t, signal=a * np.cos(2 * np.pi * f * t + phi),
                     beat_frequency=f)


class TestBeatTrace:
    def test_rejects_undersampled(self):
        t = np.linspace(0.0, 1e-5, 30)
        with pytest.raises(ValidationError, match="sample rate"):
            BeatTrace(times=t, signal=np.zeros_like(t), beat_frequency=10.2e6)

    def test_rejects_nonuniform(self):
        t = np.array([0.0, 1e-8, 3e-8, 4e-8])
        with pytest.raises(ValidationError, match="uniform"):
            BeatTrace(times=t, signal=np.zeros_like(t), beat_frequency=10.2e6)


class TestBeatAmplitude:
    def test_pure_cosine_integer_periods(self):
        for phi in (0.0, 0.7, 2.1):
            trace = cosine_trace(a=0.37, phi=phi)
            assert beat_amplitude(trace) == pytest.approx(0.37, abs=1e-9)

    def test_zero_signal(self):
        trace = cosine_trace(a=0.0)
        assert beat_amplitude(trace) == 0.0

    def test_noise_scaling(self):
        rng = np.random.default_rng(10)
        errs = []
        for _ in range(50):
            trace = cosine_trace(a=0.5, periods=200)
            noisy = BeatTrace(times=trace.times,
                              signal=trace.signal + rng.normal(0, 0.05, trace.times.size),
                              beat_frequency=trace.beat_frequency)
            errs.append(beat_amplitude(noisy) - 0.5)
        # estimator error ~ O(sigma / sqrt(N)); N = 1600 samples here
        assert np.std(errs) < 4 * 0.05 / np.sqrt(trace.times.size)

    def test_window_too_short_rejected(self):
        trace = cosine_trace(periods=3)
        with pytest.raises(ValidationError, match="periods"):
            beat_amplitude(trace)

    def test_time_shift_leaves_amplitude(self):
        trace = cosine_trace(a=0.8, periods=25)
        shifted = BeatTrace(times=trace.times,
                            signal=np.cos(2 * np.pi * trace.beat_frequency *
                                          (trace.times + 13e-9)) * 0.8,
                            beat_frequency=trace.beat_frequency)
        assert beat_amplitude(shifted) == pytest.approx(beat_amplitude(trace), abs=1e-9)


class TestSynthesizeBeat:
    def test_no_coherence_gives_flat_trace(self):
        cfg = EchoConfig(tau=20e-6)
        seq = make_echo_sequence(cfg)
        traj = run_sequence(MIXED, LambdaParams(gamma_spin_deph=1e9), seq)
        trace = synthesize_beat(traj, cfg.splitting)
        assert np.max(np.abs(trace.signal)) < 1e-6

    def test_off_clock_window_is_refused(self):
        # 10 ns samples do not divide the 12.25 ns detector clock at 10.2 MHz
        times = np.linspace(0.0, 2e-6, 201)
        traj = Trajectory(times=times, states=np.repeat(MIXED.matrix[None], 201, axis=0),
                          segment_starts=[(0, make_readout_pulse(EchoConfig(tau=20e-6)))])
        with pytest.raises(ValidationError, match=r"every 1e-08 s.*detector clock 1\.225"):
            synthesize_beat(traj, 10.2e6)

    def test_unclocked_readout_is_refused(self):
        # a readout pulse without the detector clock is sampled on its duration
        cfg = EchoConfig(tau=20e-6)
        seq = SequenceSpec(segments=(replace(make_readout_pulse(cfg), clock_dt=None),))
        traj = run_sequence(MIXED, LambdaParams(), seq)
        with pytest.raises(ValidationError, match="whole fraction of the detector clock"):
            synthesize_beat(traj, cfg.splitting)

    @staticmethod
    def _readout_beat(stored_coherence: complex):
        """Feed a ground state with the given 0-1 coherence into the readout pulse."""
        cfg = EchoConfig(tau=20e-6)
        rho = np.array([[0.25, stored_coherence, 0.0],
                        [np.conj(stored_coherence), 0.25, 0.0],
                        [0.0, 0.0, 0.5]], dtype=complex)
        seq = SequenceSpec(segments=(make_readout_pulse(cfg),))
        traj = run_sequence(DensityMatrix3(rho), LambdaParams(), seq)
        return synthesize_beat(traj, cfg.splitting)

    def test_linear_in_stored_coherence(self):
        # double the stored coherence, double the beat; exact because the
        # readout map is linear in the |1>-sector coherences
        a1 = beat_amplitude(self._readout_beat(-0.1))
        a2 = beat_amplitude(self._readout_beat(-0.2))
        assert a2 / a1 == pytest.approx(2.0, abs=1e-3)

    def test_phase_shift_preserves_amplitude_and_moves_phase(self):
        # tolerances sit at the counter-rotating leakage level of a single-bin
        # projection over a non-integer number of beat periods (~0.3% here)
        t0 = self._readout_beat(0.2)
        t1 = self._readout_beat(0.2 * np.exp(0.9j))
        assert beat_amplitude(t1) == pytest.approx(beat_amplitude(t0), rel=5e-3)
        ph = np.exp(-2j * np.pi * t0.beat_frequency * t0.times)
        p0 = np.angle(np.sum(t0.signal * ph))
        p1 = np.angle(np.sum(t1.signal * ph))
        assert (p1 - p0) % (2 * np.pi) == pytest.approx(2 * np.pi - 0.9, abs=0.02)


class TestDecayCurveAssembly:
    def test_flat_without_decoherence(self):
        cfg = EchoConfig(tau=20e-6)
        taus = np.linspace(10e-6, 60e-6, 5)
        curve = assemble_decay_curve(cfg, taus, LambdaParams(), EnsembleSpec(),
                                     mode="proxy")
        assert np.ptp(curve.amplitudes) < 1e-4

    def test_exponential_decay_recovered(self):
        t2 = 500e-6
        cfg = EchoConfig(tau=20e-6)
        taus = np.linspace(10e-6, 800e-6, 12)
        curve = assemble_decay_curve(cfg, taus, LambdaParams(gamma_spin_deph=1 / t2),
                                     EnsembleSpec(), mode="proxy")
        fit = fit_decay(curve)
        assert fit.t2 == pytest.approx(t2, rel=0.02)

    def test_branch_interference_envelope(self):
        # +-3 kHz branches: envelope |cos(pi * 6 kHz * tau)| on the decay
        t2 = 500e-6
        cfg = EchoConfig(tau=20e-6)
        taus = np.linspace(10e-6, 150e-6, 15)
        spec = EnsembleSpec(zeeman_branches=branches_for_splitting(6e3))
        curve = assemble_decay_curve(cfg, taus, LambdaParams(gamma_spin_deph=1 / t2),
                                     spec, mode="proxy")
        predicted = 0.25 * np.abs(np.cos(np.pi * 6e3 * taus)) * np.exp(-taus / t2)
        assert np.max(np.abs(curve.amplitudes - predicted)) < 0.02

    def test_beat_and_proxy_modes_proportional(self):
        cfg = EchoConfig(tau=20e-6)
        p = LambdaParams(gamma_spin_deph=1 / 300e-6)
        taus = np.linspace(10e-6, 250e-6, 6)
        beat = assemble_decay_curve(cfg, taus, p, EnsembleSpec(), mode="beat")
        proxy = assemble_decay_curve(cfg, taus, p, EnsembleSpec(), mode="proxy")
        ratios = beat.amplitudes / proxy.amplitudes
        assert np.max(np.abs(ratios / ratios[0] - 1.0)) < 0.02


class TestFitDecay:
    @staticmethod
    def synthetic(amplitude=1.0, t2=500e-6, offset=0.0, n=30,
                  lo=10e-6, hi=1500e-6, noise=0.0, rng=None):
        taus = np.linspace(lo, hi, n)
        y = amplitude * np.exp(-taus / t2) + offset
        if noise:
            y = y + rng.normal(0.0, noise, n)
        return DecayCurve(taus=taus, amplitudes=np.clip(y, 0.0, None))

    def test_noiseless_recovery(self):
        fit = fit_decay(self.synthetic())
        assert fit.amplitude == pytest.approx(1.0, rel=1e-6)
        assert fit.t2 == pytest.approx(500e-6, rel=1e-6)
        assert abs(fit.offset) < 1e-6

    def test_ci_coverage_over_seeds(self):
        hits = 0
        for seed in range(100):
            rng = np.random.default_rng(seed)
            curve = self.synthetic(noise=0.02, rng=rng)
            fit = fit_decay(curve)
            if abs(fit.t2 - 500e-6) <= fit.ci95[1]:
                hits += 1
        assert hits >= 90

    def test_scale_equivariance(self):
        base = self.synthetic(amplitude=0.8, offset=0.05)
        k = 3.7
        scaled = DecayCurve(taus=base.taus, amplitudes=k * base.amplitudes)
        f0, f1 = fit_decay(base), fit_decay(scaled)
        assert f1.amplitude == pytest.approx(k * f0.amplitude, rel=1e-9)
        assert f1.offset == pytest.approx(k * f0.offset, rel=1e-9, abs=1e-12)
        assert f1.t2 == pytest.approx(f0.t2, rel=1e-9)

    def test_ci_shrinks_with_averaging(self):
        # averaging r independent noisy curves shrinks the intervals ~1/sqrt(r)
        widths = []
        for repeats in (1, 4, 16):
            rng = np.random.default_rng(77)
            stack = [self.synthetic(noise=0.05, rng=rng).amplitudes
                     for _ in range(repeats)]
            curve = DecayCurve(taus=self.synthetic().taus,
                               amplitudes=np.mean(stack, axis=0))
            widths.append(fit_decay(curve).ci95[1])
        assert widths[2] < widths[1] < widths[0]
        assert widths[2] < 0.5 * widths[0]

    def test_beating_curve_biases_t2_low_with_structured_residuals(self):
        t2 = 500e-6
        taus = np.linspace(10e-6, 400e-6, 30)
        y = np.abs(np.cos(np.pi * 6e3 * taus)) * np.exp(-taus / t2)
        fit = fit_decay(DecayCurve(taus=taus, amplitudes=y))
        assert fit.t2 < t2
        resid = y - (fit.amplitude * np.exp(-taus / fit.t2) + fit.offset)
        # structure shows up as strong lag-1 correlation of the residuals
        lag1 = np.corrcoef(resid[:-1], resid[1:])[0, 1]
        assert lag1 > 0.3
        assert fit.residual_rms > 10 * fit_decay(self.synthetic()).residual_rms

    def test_too_few_points_rejected(self):
        curve = DecayCurve(taus=np.linspace(1e-5, 1e-4, 4),
                           amplitudes=np.ones(4))
        with pytest.raises(FitFailureError, match="at least 5"):
            fit_decay(curve)

    def test_degenerate_curve_rejected(self):
        curve = DecayCurve(taus=np.linspace(1e-5, 1e-4, 8),
                           amplitudes=np.full(8, 0.5))
        with pytest.raises(FitFailureError, match="zero variance"):
            fit_decay(curve)
