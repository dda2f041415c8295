"""Closed-form sampling of waits in `propagate_members`.

A wait's samples are checked against the weighted per-member `expm` of the
generator at each sample time and against the 9x9 `expm` step-power path
that pulses use; its end states against `sequence_endpoints`.  A wait
is sampled with no `expm` and no step powers, on a whole fraction of its
duration, so no remainder step follows its last sample, and a non-finite wait
generator is named by its segment on both the sampled and the endpoint path.
"""

import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import eitecho.dynamics as dynamics
from eitecho.dynamics import (DECAY_FED, PulseSpec, SequenceSpec, Wait,
                              _expm, _step_powers, _wait_samples, member_generators,
                              propagate_members, sequence_endpoints, wait_rates)
from eitecho.errors import ConfigurationError
from eitecho.lambda_system import LambdaParams
from eitecho.qstate import DensityMatrix3

from conftest import random_density3
from test_propagators import W, lambda_params, unit

PARAMS = LambdaParams(delta_opt=0.3 * W, gamma_opt_decay=0.1 * W, gamma_opt_deph=0.05 * W,
                      gamma_spin_deph=0.01 * W, branch0=0.3)
RHO0 = DensityMatrix3(random_density3(np.random.default_rng(5)))


@st.composite
def wait_cases(draw):
    """A wait of up to 0.5 us on 1-300 samples, for 1-20 members with positive weights.

    Phases stay below about 10 rad, where rounding of the phase itself stays
    far below the 1e-14 bound.
    """
    p = draw(lambda_params())
    offsets = W * np.array(draw(st.lists(st.tuples(unit, unit, unit), min_size=1, max_size=20)))
    weights = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=len(offsets),
                                     max_size=len(offsets))))
    wait = Wait(duration=draw(st.floats(0.01e-6, 0.5e-6)),
                zeeman_sign=draw(st.sampled_from([1.0, -1.0])))
    seed = draw(st.integers(0, 2**32 - 1))
    return p, offsets, weights / weights.sum(), wait, draw(st.integers(1, 300)), seed


def expm_samples(p, offsets, weights, wait, rho0, times):
    """Weight-summed sum_m w_m expm(t gen_m) v0 at every sample time."""
    gen = member_generators(p, wait, offsets)
    v0 = np.asarray(rho0.matrix).reshape(9)
    return np.einsum("m,tmij,j->ti", weights, _expm(times[:, None, None, None] * gen), v0)


def step_power_samples(p, offsets, weights, wait, rho0, dt, n):
    """The 9x9 path: powers S^1 ... S^n of the expm step map, weight-summed."""
    powers = _step_powers(_expm(dt * member_generators(p, wait, offsets)), n)
    weighted = (weights[:, None] * np.asarray(rho0.matrix).reshape(1, 9)).reshape(-1)
    return (weighted @ powers.reshape(9 * len(weights), 9 * n)).reshape(n, 9)


class TestAgainstClosedForm:
    @settings(max_examples=80, deadline=None)
    @given(wait_cases())
    # Zeeman offsets under both signs
    @example((PARAMS, W * np.array([[0.2, -0.1, 0.4], [-0.3, 0.2, -0.4]]), np.array([0.3, 0.7]),
              Wait(duration=0.4e-6, zeeman_sign=-1.0), 97, 1))
    # a subnormal detuning and a subnormal Zeeman offset
    @example((LambdaParams(gamma_opt_decay=0.1 * W, delta_spin=5e-324 * W),
              np.array([[0.0, 0.0, 5e-324]]), np.array([1.0]), Wait(duration=0.3e-6), 50, 2))
    # one sample, and sample counts that are not a whole number of blocks
    @example((PARAMS, W * np.array([[0.1, 0.1, 0.1]]), np.array([1.0]), Wait(duration=0.2e-6),
              1, 3))
    @example((PARAMS, W * np.array([[0.1, 0.1, 0.1]]), np.array([1.0]), Wait(duration=0.2e-6),
              3, 3))
    @example((PARAMS, W * np.array([[0.1, 0.1, 0.1]]), np.array([1.0]), Wait(duration=0.2e-6),
              11, 3))
    def test_samples_and_end_states(self, case):
        p, offsets, weights, wait, n, seed = case
        rho0 = DensityMatrix3(random_density3(np.random.default_rng(seed)))
        traj = propagate_members(rho0, p, SequenceSpec(segments=(wait,)), offsets, weights,
                                 [wait.duration / n])
        times = traj.times[1:]
        assert len(times) == n and times[-1] == pytest.approx(wait.duration, rel=1e-12)
        got = traj.states[1:].reshape(n, 9)
        exact = expm_samples(p, offsets, weights, wait, rho0, times)
        scale = np.abs(exact).max()
        assert np.abs(got - exact).max() <= 1e-14 * scale
        old = step_power_samples(p, offsets, weights, wait, rho0, times[0], n)
        assert np.abs(got - old).max() <= 1e-12 * scale

        # the member states that continue into the next segment
        v0 = np.tile(np.asarray(rho0.matrix).reshape(9), (len(weights), 1))
        end = _wait_samples(wait_rates(p, wait, offsets), weights, v0, times[0],
                            np.empty((n, 9), dtype=complex))
        ends = sequence_endpoints(rho0, p, SequenceSpec(segments=(wait,)), offsets)[0]
        assert np.abs(end - ends).max() <= 1e-14

    @settings(max_examples=40, deadline=None)
    @given(lambda_params(), st.lists(st.tuples(unit, unit, unit), min_size=1, max_size=20),
           st.sampled_from([1.0, -1.0]))
    def test_decay_feed_is_shared(self, p, offsets, sign):
        # what _wait_samples relies on: a wait's generator is diagonal apart
        # from the decay of rho_ee into rho_00 and rho_11, and its population
        # entries, which set the populations' decay and that feed, are the
        # same for every member
        gen = member_generators(p, Wait(duration=1e-6, zeeman_sign=sign), W * np.array(offsets))
        coupling = gen.copy()
        coupling[:, range(9), range(9)] = 0.0
        coupling[:, DECAY_FED, 8] = 0.0
        assert not coupling.any()
        populations = gen[:, [0, 4, 8]][:, :, [0, 4, 8]]
        assert (populations == populations[0]).all()

    def test_wait_between_pulses(self):
        # a wait continues from a pulse's states and hands its states on to a
        # readout whose duration is not a whole number of clock ticks
        offsets = W * np.array([[0.1, -0.2, 0.05], [-0.2, 0.1, -0.05], [0.0, 0.3, 0.1]])
        weights = np.array([0.2, 0.5, 0.3])
        seq = SequenceSpec(segments=(
            PulseSpec(duration=0.3e-6, rabi0=W, rabi1=W, label="init_pi_half"),
            Wait(duration=0.5e-6, zeeman_sign=-1.0),
            PulseSpec(duration=0.35e-6, rabi0=0.5 * W, label="readout", clock_dt=0.1e-6)))
        traj = propagate_members(RHO0, PARAMS, seq, offsets, weights)
        start = traj.segment_starts[1][0]
        stop = traj.segment_starts[2][0]
        before = sequence_endpoints(RHO0, PARAMS, SequenceSpec(segments=seq.segments[:1]),
                                    offsets)[0]
        gen = member_generators(PARAMS, seq.segments[1], offsets)
        elapsed = traj.times[start + 1:stop + 1] - traj.times[start]
        exact = np.einsum("m,tmij,mj->ti", weights, _expm(elapsed[:, None, None, None] * gen),
                          before)
        got = traj.states[start + 1:stop + 1].reshape(-1, 9)
        assert np.abs(got - exact).max() <= 1e-13
        final = weights @ sequence_endpoints(RHO0, PARAMS, seq, offsets)[0]
        assert np.abs(traj.states[-1].reshape(9) - final).max() <= 1e-13


@settings(max_examples=100, deadline=None)
@given(duration=st.floats(-15.0, 0.0).map(lambda e: 10.0 ** e),
       steps=st.floats(0.5, 2.0 ** 16))
@example(duration=1e-15, steps=3.0)
@example(duration=1.0, steps=2.0 ** 16 - 0.5)
def test_a_wait_has_no_remainder_sample(duration, steps):
    # a wait's clock is its duration, so its samples fall on whole steps of
    # dt, none a remainder map, and the last falls on the wait's end
    seq = SequenceSpec(segments=(Wait(duration=duration),))
    times = propagate_members(RHO0, PARAMS, seq, [[0.0, 0.0, 0.0]], [1.0],
                              [duration / steps]).times
    assert np.array_equal(times[1:], times[1] * np.arange(1, len(times)))
    assert len(times) - 1 >= steps * (1.0 - 1e-12)
    assert times[-1] == pytest.approx(duration, rel=1e-14)


def test_waits_make_no_expm_or_power_call(monkeypatch):
    calls = []
    for name in ("_expm", "_step_powers"):
        def counted(*args, _name=name, _f=getattr(dynamics, name)):
            calls.append(_name)
            return _f(*args)
        monkeypatch.setattr(dynamics, name, counted)
    seq = SequenceSpec(segments=(Wait(duration=3e-6), Wait(duration=2e-6, zeeman_sign=-1.0)))
    propagate_members(RHO0, PARAMS, seq, W * np.array([[0.1, 0.2, 0.3], [0.0, -0.1, 0.2]]),
                      [0.4, 0.6])
    assert calls == []
    propagate_members(RHO0, PARAMS, SequenceSpec(segments=(PulseSpec(duration=1e-6, rabi0=W),)),
                      [[0.0, 0.0, 0.0]], [1.0])
    assert calls == ["_expm", "_step_powers"]


class TestNonFiniteWait:
    # segment 0, a wait of Zeeman sign -1, cancels the two spin offsets; in
    # segment 1 they add up beyond the largest float
    SEQ = SequenceSpec(segments=(Wait(duration=1e-6, zeeman_sign=-1.0), Wait(duration=1e-6),
                                 PulseSpec(duration=1e-6, rabi0=W)))
    OFFSETS = [[0.0, 0.0, 0.0], [0.0, 1.5e308, 1.5e308]]
    MESSAGE = r"segment 1 \(wait\), member 1: has a non-finite entry"

    def test_sampled_path_names_segment(self):
        start = time.monotonic()
        with np.errstate(over="ignore"), pytest.raises(ConfigurationError, match=self.MESSAGE):
            propagate_members(RHO0, PARAMS, self.SEQ, self.OFFSETS, [0.5, 0.5], [1e-7] * 3)
        assert time.monotonic() - start < 1.0

    def test_endpoint_path_names_segment(self):
        start = time.monotonic()
        with np.errstate(over="ignore"), pytest.raises(ConfigurationError, match=self.MESSAGE):
            sequence_endpoints(RHO0, PARAMS, self.SEQ, self.OFFSETS)
        assert time.monotonic() - start < 1.0

    def test_default_grid_names_segment(self):
        # the default grid reads the offsets only after the generators passed
        with np.errstate(over="ignore"), pytest.raises(ConfigurationError, match=self.MESSAGE):
            propagate_members(RHO0, PARAMS, self.SEQ, self.OFFSETS, [0.5, 0.5])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_wait_first_names_segment_on_both_paths(self, bad):
        seq = SequenceSpec(segments=(Wait(duration=1e-6), PulseSpec(duration=1e-6, rabi0=W)))
        offsets = [[0.0, 0.0, 0.0], [bad, 0.0, 0.0]]
        message = r"segment 0 \(wait\), member 1: has a non-finite entry"
        # 0 * inf in the generator's diagonal shift is itself nan
        with np.errstate(invalid="ignore"):
            with pytest.raises(ConfigurationError, match=message):
                propagate_members(RHO0, PARAMS, seq, offsets, [0.5, 0.5], [1e-7, 1e-7])
            with pytest.raises(ConfigurationError, match=message):
                sequence_endpoints(RHO0, PARAMS, seq, offsets)
