"""Sampled pulses from their block starts in `propagate_members`, and the form of a sampled state.

A pulse's samples are checked against the weighted per-member `expm` of
j dt times its generator, at sample counts around one block (1, B - 1, B,
B + 1) and at counts spanning several chunks of block starts.  Every sampled
state is exactly Hermitian.  A pulse that repeats the previous pulse's
generators and grid takes over its maps, which equal the recomputed ones
bitwise.  The memory of a long sampled pulse is set by the chunk of block
starts, not by samples x members, and an explicit step too fine for
MAX_SAMPLES is refused before any generator is built.
"""

import dataclasses
import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import eitecho.dynamics as dynamics
from eitecho.dynamics import (COHERENCES, CONJUGATES, POPULATIONS, SAMPLE_BLOCK,
                              PulseSpec, SequenceSpec, Wait, _expm, _step_powers,
                              member_generators, propagate_members, run_sequence,
                              sequence_endpoints)
from eitecho.errors import ConfigurationError
from eitecho.lambda_system import LambdaParams
from eitecho.qstate import DensityMatrix3

from conftest import random_density3
from test_propagators import W, lambda_params, magnitude, phase, segments, unit

B = SAMPLE_BLOCK
PARAMS = LambdaParams(delta_opt=0.3 * W, gamma_opt_decay=0.1 * W, gamma_opt_deph=0.05 * W,
                      gamma_spin_deph=0.01 * W, branch0=0.3)
PULSE = PulseSpec(duration=0.3e-6, rabi0=W, rabi1=0.5 * W, phase1=0.4)
RHO0 = DensityMatrix3(random_density3(np.random.default_rng(5)))


@st.composite
def member_rows(draw):
    """1-20 members: offsets up to W and positive weights summing to 1."""
    offsets = W * np.array(draw(st.lists(st.tuples(unit, unit, unit), min_size=1, max_size=20)))
    weights = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=len(offsets),
                                     max_size=len(offsets))))
    return offsets, weights / weights.sum()


@st.composite
def pulse_cases(draw):
    """A pulse of up to 0.4 us sampled 1, B - 1, B, B + 1 or up to 6 B + 3 times,
    with BATCH_STATES at 1, 2 or 3 blocks' worth of members, or left as it is."""
    p = draw(lambda_params())
    offsets, weights = draw(member_rows())
    pulse = PulseSpec(duration=draw(st.floats(0.05e-6, 0.4e-6)), rabi0=W * draw(magnitude),
                      rabi1=W * draw(magnitude), phase0=draw(phase), phase1=draw(phase),
                      zeeman_sign=draw(st.sampled_from([1.0, -1.0])))
    n = draw(st.one_of(st.sampled_from([1, B - 1, B, B + 1]), st.integers(1, 6 * B + 3)))
    blocks = draw(st.sampled_from([1, 2, 3, None]))
    return p, offsets, weights, pulse, n, blocks, draw(st.integers(0, 2**32 - 1))


class TestAgainstExpm:
    @settings(max_examples=60, deadline=None)
    @given(pulse_cases())
    @example((PARAMS, W * np.array([[0.1, -0.2, 0.3], [-0.3, 0.1, 0.2]]), np.array([0.4, 0.6]),
              PULSE, 1, None, 1))
    @example((PARAMS, W * np.array([[0.1, -0.2, 0.3], [-0.3, 0.1, 0.2]]), np.array([0.4, 0.6]),
              PULSE, B - 1, None, 1))
    @example((PARAMS, W * np.array([[0.1, -0.2, 0.3], [-0.3, 0.1, 0.2]]), np.array([0.4, 0.6]),
              PULSE, B, 1, 1))
    @example((PARAMS, W * np.array([[0.1, -0.2, 0.3], [-0.3, 0.1, 0.2]]), np.array([0.4, 0.6]),
              PULSE, B + 1, 1, 1))
    # seven blocks, the last of three samples, in chunks of two block starts
    @example((PARAMS, W * np.array([[0.1, -0.2, 0.3], [-0.3, 0.1, 0.2]]), np.array([0.4, 0.6]),
              PULSE, 6 * B + 3, 2, 1))
    def test_samples_and_end_states(self, case):
        p, offsets, weights, pulse, n, blocks, seed = case
        batch = dynamics.BATCH_STATES if blocks is None else blocks * len(weights)
        rho0 = DensityMatrix3(random_density3(np.random.default_rng(seed)))
        # a one-sample wait after the pulse reads the member states it hands on
        seq = SequenceSpec(segments=(pulse, Wait(duration=0.1e-6)))
        with mock.patch.object(dynamics, "BATCH_STATES", batch):
            traj = propagate_members(rho0, p, seq, offsets, weights, [pulse.duration / n, 1.0])
        times = traj.times[1:-1]
        assert len(times) == n and times[-1] == pytest.approx(pulse.duration, rel=1e-12)
        gen = member_generators(p, pulse, offsets)
        v0 = np.asarray(rho0.matrix).reshape(9)
        exact = np.einsum("m,tmij,j->ti", weights, _expm(times[:, None, None, None] * gen), v0)
        got = traj.states[1:-1].reshape(n, 9)
        assert np.abs(got - exact).max() <= 1e-12 * np.abs(exact).max()
        end = weights @ sequence_endpoints(rho0, p, seq, offsets)[0]
        assert np.abs(traj.states[-1].reshape(9) - end).max() <= 1e-12 * np.abs(end).max()


def bits(a: np.ndarray) -> np.ndarray:
    """The bit patterns of a complex array's parts."""
    return np.ascontiguousarray(a).view(np.uint64)


class TestHermitian:
    @settings(max_examples=60, deadline=None)
    @given(lambda_params(), member_rows(), segments(), st.booleans(),
           st.lists(st.integers(1, 40), min_size=4, max_size=4), st.integers(0, 2**32 - 1))
    def test_sampled_states_are_exactly_hermitian(self, p, members, segs, readout, counts, seed):
        # the lower triangle is the bitwise conjugate of the upper, the
        # populations are real, on pulses, waits and a readout's end sample
        if readout:
            segs += (PulseSpec(duration=0.35e-6, rabi0=0.5 * W, label="readout",
                               clock_dt=0.1e-6),)
        rho0 = DensityMatrix3(random_density3(np.random.default_rng(seed)))
        traj = propagate_members(rho0, p, SequenceSpec(segments=segs), *members,
                                 [seg.duration / n for seg, n in zip(segs, counts)])
        flat = traj.states.reshape(-1, 9)
        assert np.array_equal(bits(flat[:, CONJUGATES]), bits(flat[:, COHERENCES].conj()))
        assert not flat[:, POPULATIONS].imag.any()


class TestReusedMaps:
    def record(self, monkeypatch) -> dict:
        """Every `_expm` and `_step_powers` result, by name."""
        calls = {"_expm": [], "_step_powers": []}
        for name in calls:
            def recorded(*args, _name=name, _f=getattr(dynamics, name)):
                calls[_name].append(_f(*args))
                return calls[_name][-1]
            monkeypatch.setattr(dynamics, name, recorded)
        return calls

    @pytest.mark.parametrize("between", [(), (Wait(duration=0.2e-6),)], ids=["halves", "wait"])
    def test_equal_generators_reuse_bitwise_equal_maps(self, monkeypatch, between):
        # the rephasing halves without a Zeeman offset: the Zeeman sign flips,
        # the generators do not
        second = dataclasses.replace(PULSE, zeeman_sign=-1.0)
        seq = SequenceSpec(segments=(PULSE, *between, second))
        offsets = W * np.array([[0.1, -0.2, 0.0], [-0.3, 0.1, 0.0]])
        calls = self.record(monkeypatch)
        traj = propagate_members(RHO0, PARAMS, seq, offsets, [0.3, 0.7],
                                 [0.01e-6] * len(seq.segments))
        assert [len(calls["_expm"]), len(calls["_step_powers"])] == [1, 1]
        maps, powers = calls["_expm"][0], calls["_step_powers"][0]
        dt = traj.times[1]
        recomputed = _expm(np.array([dt * member_generators(PARAMS, second, offsets)]))
        assert np.array_equal(bits(maps), bits(recomputed))
        assert np.array_equal(bits(powers), bits(_step_powers(recomputed[0], B)))

    @pytest.mark.parametrize("change", [
        dict(offsets=[[0.1, -0.2, 0.05], [-0.3, 0.1, 0.0]]),     # a Zeeman offset
        dict(steps=[0.01e-6, 0.015e-6]),                          # another grid
        dict(rabi=0.5 * W),                                       # another drive
    ], ids=["zeeman-offset", "grid", "drive"])
    def test_other_generators_or_grid_are_mapped_anew(self, monkeypatch, change):
        second = dataclasses.replace(PULSE, zeeman_sign=-1.0, rabi0=change.get("rabi", W))
        offsets = W * np.array(change.get("offsets", [[0.1, -0.2, 0.0], [-0.3, 0.1, 0.0]]))
        calls = self.record(monkeypatch)
        propagate_members(RHO0, PARAMS, SequenceSpec(segments=(PULSE, second)), offsets,
                          [0.3, 0.7], change.get("steps", [0.01e-6, 0.01e-6]))
        assert [len(calls["_expm"]), len(calls["_step_powers"])] == [2, 2]


def test_long_pulse_memory_is_set_by_the_chunk():
    # 2^17 samples of 64 members: all block starts at once would take
    # 2^17 / B * 64 * 144 B = 151 MB; the trajectory itself is 2^17 * 144 B
    # (18.9 MB), written once into its buffer, whose lower triangle is
    # filled a chunk of rows at a time
    n, members = 2 ** 17, 64
    rng = np.random.default_rng(3)
    offsets = W * rng.uniform(-0.1, 0.1, (members, 3))
    state_bytes = 144
    unchunked = n // B * members * state_bytes
    bound = 1.5 * n * state_bytes + 16 * dynamics.BATCH_STATES * state_bytes
    assert bound < unchunked / 2
    tracemalloc.start()
    try:
        traj = propagate_members(RHO0, PARAMS, SequenceSpec(segments=(PULSE,)), offsets,
                                 np.full(members, 1.0 / members), [PULSE.duration / n])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(traj.times) == n + 1
    assert peak <= bound, f"peak {peak / 1e6:.1f} MB beyond {bound / 1e6:.1f} MB"


class TestSampleBoundBeforeGenerators:
    # a 20,000-member stack: its generators would take 26 MB per segment
    SEQ = SequenceSpec(segments=(PULSE, Wait(duration=3e-6)))
    MESSAGE = r"^segment 1 \(wait\): sampled \d+ times, \d+ samples in all, beyond the bound"

    def counted(self, monkeypatch) -> list:
        """The member count of each pulse's generators and each wait's rates built."""
        calls = []
        for name in ("member_generators", "wait_rates"):
            def counting(*args, real=getattr(dynamics, name)):
                calls.append(len(args[2]))
                return real(*args)

            monkeypatch.setattr(dynamics, name, counting)
        return calls

    def test_explicit_steps(self, monkeypatch):
        calls = self.counted(monkeypatch)
        start = time.monotonic()
        with pytest.raises(ConfigurationError, match=self.MESSAGE):
            propagate_members(RHO0, PARAMS, self.SEQ, np.zeros((20_000, 3)),
                              np.full(20_000, 1 / 20_000), [0.01e-6, 1e-12])
        assert time.monotonic() - start < 1.0
        assert calls == []
        # the same steps within the bound build every segment's generators
        propagate_members(RHO0, PARAMS, self.SEQ, np.zeros((2, 3)), [0.5, 0.5],
                          [0.01e-6, 0.01e-6])
        assert calls == [2, 2]

    def test_dt_overrides(self, monkeypatch):
        calls = self.counted(monkeypatch)
        with pytest.raises(ConfigurationError, match=self.MESSAGE):
            run_sequence(RHO0, PARAMS, self.SEQ, dt_overrides=[0.01e-6, 1e-12])
        assert calls == []
