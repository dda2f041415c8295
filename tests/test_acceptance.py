"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one pass line with the measured figure; with `pytest -v`
the test names themselves double as the per-criterion checklist.
"""

import numpy as np
import pytest

from eitecho.dynamics import (
    PulseSpec,
    SequenceSpec,
    Wait,
    default_step,
    run_sequence,
    _segment_params,
)
from eitecho.ensemble import EnsembleSpec, ensemble_average
from eitecho.lambda_system import LambdaParams
from eitecho.qstate import DensityMatrix3, GroundQubitState, fidelity
from eitecho.readout import DecayCurve, beat_amplitude, fit_decay, synthesize_beat
from eitecho.sequences import EchoConfig, make_echo_sequence, make_init_pulse
from eitecho.studies import (
    FieldModel,
    ScalingModel,
    TemperatureModel,
    compensation_search,
    field_sweep,
    scaling_study,
    splitting_from_field,
    temperature_scan,
)
from eitecho.tomography import projection_measurements, reconstruct

from conftest import KET_DARK, final_state, propagate, random_qubit_state, trace_distance_matrix

TWO_PI = 2.0 * np.pi
MIXED = DensityMatrix3(np.diag([0.5, 0.5, 0.0]).astype(complex))
DARK3 = np.array([1.0, -1.0, 0.0], dtype=complex) / np.sqrt(2.0)


def report(number: int, name: str, detail: str) -> None:
    print(f"ACCEPTANCE {number:02d} {name}: PASS ({detail})")


def test_criterion_01_dark_state_stationarity():
    # resonant equal-amplitude drive leaves the dark state untouched for 10 us
    rabi = TWO_PI * 250e3
    pulse = PulseSpec(duration=10e-6, rabi0=rabi, rabi1=rabi)
    rho_dark = DensityMatrix3(np.outer(DARK3, DARK3.conj()))
    traj = propagate(rho_dark, LambdaParams(), pulse)
    change = max(trace_distance_matrix(s, rho_dark.matrix) for s in traj.states)
    assert change < 1e-6
    report(1, "dark-state stationarity", f"max state change {change:.2e}")


def _first_peak_time(times: np.ndarray, pope: np.ndarray) -> float:
    i = int(np.argmax(pope))
    t0, t1, t2 = times[i - 1:i + 2]
    y0, y1, y2 = pope[i - 1:i + 2]
    denom = (y0 - 2.0 * y1 + y2)
    return t1 - 0.5 * (t1 - t0) * (y2 - y0) / denom


def test_criterion_02_bright_state_enhancement():
    rabi = TWO_PI * 250e3
    bright = DensityMatrix3(np.outer(
        np.array([1.0, 1.0, 0.0]) / np.sqrt(2.0),
        np.array([1.0, 1.0, 0.0]).conj() / np.sqrt(2.0)))
    zero = DensityMatrix3(np.diag([1.0, 0.0, 0.0]).astype(complex))
    t_bi = propagate(bright, LambdaParams(),
                     PulseSpec(duration=2.2e-6, rabi0=rabi, rabi1=rabi))
    t_single = propagate(zero, LambdaParams(),
                         PulseSpec(duration=3.0e-6, rabi0=rabi))
    peak_bi = _first_peak_time(t_bi.times, t_bi.populations[:, 2])
    peak_single = _first_peak_time(t_single.times, t_single.populations[:, 2])
    ratio = peak_single / peak_bi
    assert ratio == pytest.approx(np.sqrt(2.0), rel=1e-3)
    report(2, "bright enhancement", f"frequency ratio {ratio:.6f} vs sqrt(2)")


def test_criterion_03_mixed_state_initialization():
    cfg = EchoConfig(tau=30e-6)
    traj = propagate(MIXED, LambdaParams(), make_init_pulse(cfg))
    target = 0.5 * np.outer(DARK3, DARK3.conj())
    target[2, 2] += 0.5
    dist = trace_distance_matrix(final_state(traj).matrix, target)
    assert dist < 1e-4
    report(3, "mixed-state init", f"trace distance {dist:.2e}")


def test_criterion_04_75_percent_bound():
    cfg = EchoConfig(tau=30e-6)
    t1_opt = 164e-6
    p = LambdaParams(gamma_opt_decay=1.0 / t1_opt, branch0=0.5)
    seq = SequenceSpec(segments=(make_init_pulse(cfg),
                                 Wait(duration=12.0 * t1_opt)))
    traj = run_sequence(MIXED, p, seq)
    ground = GroundQubitState(final_state(traj).matrix[:2, :2])
    f = fidelity(ground, KET_DARK)
    assert f == pytest.approx(0.750, abs=0.01)
    report(4, "75% fidelity bound", f"fidelity {f:.4f}")


def test_criterion_05_qst_round_trip():
    rng = np.random.default_rng(20240817)
    worst = 0.0
    for _ in range(1000):
        m = random_qubit_state(rng)
        rec = reconstruct(*projection_measurements(GroundQubitState(m)))
        worst = max(worst, trace_distance_matrix(rec.matrix, m))
    assert worst < 1e-10
    report(5, "QST round trip", f"worst trace distance {worst:.2e} over 1000 states")


def test_criterion_06_echo_refocusing():
    spec = EnsembleSpec(spin_fwhm=60e3, n_spin=61)
    cfg = EchoConfig(tau=60e-6, t_init=0.25e-6, t_rephase=0.25e-6, t_readout=0.25e-6)
    echo_seq = make_echo_sequence(cfg, include_readout=False)
    avg = ensemble_average(echo_seq, LambdaParams(), spec)
    i0 = [i for i, _ in avg.segment_starts][1]
    post_init = abs(avg.coherence01[i0])
    echo = abs(avg.coherence01[-1])

    fid_seq = make_echo_sequence(cfg, include_rephase=False, include_readout=False)
    fid = ensemble_average(fid_seq, LambdaParams(), spec)
    quarter = np.searchsorted(fid.times, cfg.tau / 4.0)
    fid_quarter = abs(fid.coherence01[quarter])
    control = abs(fid.coherence01[-1])

    assert fid_quarter <= 0.1 * post_init     # free induction gone by tau/4
    assert echo >= 0.95 * post_init
    assert control <= 0.1 * post_init
    assert echo >= 10.0 * control
    report(6, "echo refocusing",
           f"echo {echo / post_init:.3f} of post-init, control {control / post_init:.2e}")


def test_criterion_07_field_beating():
    split = splitting_from_field(FieldModel(field_vector=(0.0, 0.0, 50e-6)))
    assert split == pytest.approx(6.0e3, abs=1e-9)

    cfg = EchoConfig(tau=30e-6)
    params = LambdaParams(gamma_spin_deph=1.0 / 500e-6)
    taus = np.linspace(10e-6, 150e-6, 30)
    points = field_sweep([50e-6], cfg, params, EnsembleSpec(), taus, mode="proxy")
    t_min = points[0].beat_minimum
    expected = 1.0 / (2.0 * 6.0e3)
    assert t_min == pytest.approx(expected, rel=0.05)
    report(7, "field beating",
           f"splitting {split:.1f} Hz, first minimum {t_min * 1e6:.1f} us "
           f"vs {expected * 1e6:.1f} us")


def test_criterion_08_fit_pipeline():
    taus = np.linspace(10e-6, 1500e-6, 30)
    clean = DecayCurve(taus=taus, amplitudes=np.exp(-taus / 500e-6))
    fit = fit_decay(clean)
    assert fit.amplitude == pytest.approx(1.0, rel=1e-6)
    assert fit.t2 == pytest.approx(500e-6, rel=1e-6)
    assert abs(fit.offset) < 1e-6

    hits = 0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        noisy = DecayCurve(
            taus=taus,
            amplitudes=np.clip(np.exp(-taus / 500e-6) +
                               rng.normal(0.0, 0.02, taus.size), 0.0, None))
        f = fit_decay(noisy)
        if abs(f.t2 - 500e-6) <= f.ci95[1]:
            hits += 1
    assert hits >= 90
    report(8, "fit pipeline",
           f"noiseless T2 err {abs(fit.t2 - 500e-6) / 500e-6:.1e}, "
           f"coverage {hits}/100")


def test_criterion_09_temperature_law_and_knee():
    tm = TemperatureModel(t2_opt_ref=100e-6, temperature_ref=2.0)
    ratio = tm.gamma_opt_deph(11.0) / tm.gamma_opt_deph(6.0)
    assert ratio == pytest.approx(69.9, rel=0.01)

    cfg = EchoConfig(tau=30e-6)
    params = LambdaParams(gamma_spin_deph=1.0 / 500e-6)
    temps = np.geomspace(2.0, 7.68, 5)
    taus = np.linspace(20e-6, 180e-6, 5)
    pts = temperature_scan(temps, tm, cfg, params, EnsembleSpec(), taus,
                           mode="proxy")
    amps = np.array([p.amplitude for p in pts])
    below = np.where(amps < 0.95 * amps[0])[0]
    knee = int(below[0])
    crossing = int(np.argmin(np.abs(np.log(
        np.array([p.t2_opt for p in pts]) / cfg.t_init))))
    assert abs(knee - crossing) <= 1
    assert np.all(np.diff(amps[max(knee - 1, 0):]) <= 1e-12)
    report(9, "temperature law",
           f"linewidth ratio {ratio:.2f}, knee at grid {knee} vs crossing {crossing}")


def test_criterion_10_scaling_study():
    sm = ScalingModel(t_pi_ref=100e-9, t2_opt_ref=100e-6)
    cfg = EchoConfig(tau=30e-6)
    closed = scaling_study([1e-8], sm, cfg, LambdaParams(), EnsembleSpec())[0]

    values = np.geomspace(100e-12, 10e-6, 13)   # includes 1e-10 and 1e-8
    pts = scaling_study(values, sm, cfg, LambdaParams(), EnsembleSpec())
    fids = np.array([p.end_fidelity for p in pts])
    assert np.all(np.diff(fids) >= -1e-9)

    plateau = [p for p in pts if p.t2_opt >= 1e-8 - 1e-20]
    assert all(p.end_fidelity >= 0.95 * closed.end_fidelity for p in plateau)

    lowest = pts[0]
    max_coh = max(p.coherence for p in pts)
    assert lowest.t2_opt == pytest.approx(100e-12)
    assert lowest.coherence >= 0.01 * max_coh
    report(10, "optical-T2 scaling",
           f"plateau min {min(p.end_fidelity for p in plateau):.4f} vs "
           f"0.95x closed {0.95 * closed.end_fidelity:.4f}, "
           f"coherence at 100 ps {lowest.coherence:.3f}")


def test_criterion_11_numerics():
    # RK4 halving: all reported echo observables move by < 1e-6
    cfg = EchoConfig(tau=30e-6)
    p = LambdaParams(delta_spin=TWO_PI * 3e3, gamma_spin_deph=2e3)
    seq = make_echo_sequence(cfg)
    steps = [default_step(_segment_params(p, s, 0.0), s) for s in seq.segments]
    runs = []
    for scale in (1.0, 0.5):
        traj = run_sequence(MIXED, p, seq, dt_overrides=[s * scale for s in steps])
        i_ro = traj.segment_start_index("readout")
        trace = synthesize_beat(traj, cfg.splitting)
        runs.append(np.array([
            *traj.populations[-1],
            abs(traj.states[i_ro, 0, 1]),
            beat_amplitude(trace),
        ]))
    halving = float(np.max(np.abs(runs[0] - runs[1])))
    assert halving < 1e-6

    # determinism: identical configs and thread counts give identical bytes
    spec = EnsembleSpec(spin_fwhm=20e3, n_spin=5)
    a = ensemble_average(seq, p, spec)
    b = ensemble_average(seq, p, spec)
    c = ensemble_average(seq, p, spec)
    assert a.to_csv() == b.to_csv() == c.to_csv()
    report(11, "numerics",
           f"halving drift {halving:.2e}, threaded/repeated runs identical")


def test_criterion_12_compensation_search():
    cfg = EchoConfig(tau=30e-6)
    params = LambdaParams(gamma_spin_deph=1.0 / 500e-6)
    taus = np.linspace(15e-6, 120e-6, 6)
    ambient = (20e-6, -10e-6, 45e-6)
    res = compensation_search(FieldModel(field_vector=ambient), cfg, params,
                              EnsembleSpec(), taus, tol=1e-6, mode="proxy")
    errors = [abs(found + true) for found, true in zip(res.compensation, ambient)]
    assert all(e < 1e-6 for e in errors)
    report(12, "compensation search",
           "axis errors " + ", ".join(f"{e * 1e9:.1f} nT" for e in errors))
