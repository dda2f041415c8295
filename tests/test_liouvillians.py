"""Liouvillians of many parameter sets built at once.

`liouvillians` must give each set the bits of the einsum formula a set was
built with alone, kept here as the reference, signed zeros included
(compared as uint64 views): a jump a set lacks adds no term there, while a
zero term would turn a -0.0 entry into +0.0.  `lindblad_rhs` is the
independent oracle of the map.  The generator cache builds every missing
(parameter set, drive) of a request in one `liouvillians` call.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eitecho.dynamics import PulseSpec, Wait, _base_generator, _segment_params
from eitecho.ensemble import EnsembleSpec
from eitecho.lambda_system import KET0, KET1, KETE, LambdaParams, liouvillians
from eitecho.readout import assemble_decay_curves
from eitecho.sequences import EchoConfig
from eitecho.studies import FieldModel, compensation_search

from conftest import generator, hamiltonian, lindblad_rhs, liouvillian, random_density3


def reference_jumps(p: LambdaParams) -> list:
    """The jump operators of `p`, as a set was built alone."""
    ops = []
    if p.gamma_opt_decay > 0.0:
        if p.branch0 > 0.0:
            ops.append((p.branch0 * p.gamma_opt_decay, np.outer(KET0, KETE.conj())))
        if p.branch0 < 1.0:
            ops.append(((1.0 - p.branch0) * p.gamma_opt_decay, np.outer(KET1, KETE.conj())))
    if p.gamma_opt_deph > 0.0:
        ops.append((2.0 * p.gamma_opt_deph, np.outer(KETE, KETE.conj())))
    if p.gamma_spin_deph > 0.0:
        sz = np.diag([1.0, -1.0, 0.0]).astype(complex)
        ops.append((0.5 * p.gamma_spin_deph, sz))
    return ops


def reference_superop(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.einsum("ik,lj->ijkl", a, b).reshape(9, 9)


def reference_liouvillian(p: LambdaParams) -> np.ndarray:
    """The spre/spost einsum formula of one set."""
    jumps = reference_jumps(p)
    h_eff = hamiltonian(p)
    for gamma, c in jumps:
        h_eff -= 0.5j * gamma * (c.conj().T @ c)
    eye = np.eye(3)
    sup = -1j * (reference_superop(h_eff, eye) - reference_superop(eye, h_eff.conj().T))
    for gamma, c in jumps:
        sup += gamma * reference_superop(c, c.conj().T)
    return sup


def bits(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a).view(np.uint64)


# rates up to 1e15 /s, doubled well inside the float range; zero means the
# jump is absent
rate = st.one_of(st.just(0.0), st.floats(1e-3, 1e15))
# any finite angle or detuning, signed zeros included
value = st.one_of(st.sampled_from([0.0, -0.0, np.pi, -np.pi]),
                  st.floats(-1e15, 1e15, allow_nan=False))


@st.composite
def parameter_sets(draw) -> LambdaParams:
    return LambdaParams(
        rabi0=draw(rate), rabi1=draw(rate), phase0=draw(value), phase1=draw(value),
        delta_opt=draw(value), delta_spin=draw(value), gamma_opt_decay=draw(rate),
        gamma_opt_deph=draw(rate), gamma_spin_deph=draw(rate),
        branch0=draw(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))))


SPIN_ONLY = LambdaParams(delta_spin=-0.0, gamma_spin_deph=2e3)
DECAY_TO_0 = LambdaParams(rabi0=1e6, phase0=-0.0, gamma_opt_decay=6e3, branch0=1.0)


class TestAssembly:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(parameter_sets(), min_size=1, max_size=6))
    @example([SPIN_ONLY, DECAY_TO_0, LambdaParams()])
    def test_each_set_has_the_bits_of_the_reference(self, ps):
        stack = liouvillians(ps)
        assert stack.shape == (len(ps), 9, 9)
        for p, built in zip(ps, stack):
            reference = reference_liouvillian(p)
            assert np.array_equal(bits(built), bits(reference))
            assert np.array_equal(bits(liouvillian(p)), bits(reference))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(parameter_sets(), min_size=1, max_size=4), st.integers(0, 2 ** 32 - 1))
    def test_matches_the_rhs(self, ps, seed):
        rng = np.random.default_rng(seed)
        rho = random_density3(rng)
        for p, built in zip(ps, liouvillians(ps)):
            rhs = lindblad_rhs(rho, p)
            scale = np.abs(built).max(initial=1.0)
            assert np.abs((built @ rho.reshape(9)).reshape(3, 3) - rhs).max() <= 1e-13 * scale


DRIVES = [None, (1e6, 1e6, 0.0, 0.0), (2e6, 0.5e6, -0.0, 0.3)]


class TestGeneratorCache:
    @settings(max_examples=50, deadline=None)
    @given(st.lists(parameter_sets(), min_size=1, max_size=4))
    def test_many_equals_one_build_per_key(self, ps):
        _base_generator.store.clear()
        keys = [(p, d) for d in DRIVES for p in ps]
        for (p, d), gen in zip(keys, _base_generator.many(keys)):
            segment = Wait(duration=1.0) if d is None else PulseSpec(1.0, *d)
            assert np.array_equal(bits(gen), bits(liouvillian(_segment_params(p, segment, 0.0))))
            assert not gen.flags.writeable

    def test_misses_of_a_request_are_one_build(self, builds):
        p, q = LambdaParams(gamma_opt_deph=1e5), LambdaParams(gamma_opt_deph=3e6)
        generator(p, DRIVES[1])
        _base_generator.many([(p, d) for d in DRIVES] + [(q, d) for d in DRIVES])
        assert builds == [1, 5]
        assert len(_base_generator.store) == 6
        _base_generator.many([(q, DRIVES[0]), (p, DRIVES[2])])
        assert builds == [1, 5]

    def test_the_oldest_is_dropped(self, monkeypatch, builds):
        monkeypatch.setattr(_base_generator, "maxsize", 2)
        a, b, c = (LambdaParams(gamma_opt_deph=r) for r in (1.0, 2.0, 3.0))
        first = generator(a, None)
        second = generator(b, None)
        assert generator(a, None) is first
        generator(c, None)                                # drops a
        assert len(_base_generator.store) == 2
        assert builds == [1, 1, 1]
        assert generator(b, None) is second
        assert generator(a, None) is not first
        assert builds == [1, 1, 1, 1]

    def test_a_temperature_scan_builds_its_generators_in_one_call(self, builds):
        params = [LambdaParams(gamma_opt_deph=r, gamma_spin_deph=2e3) for r in (1e4, 1e5, 1e6)]
        cfg = EchoConfig(tau=20e-6, t_init=0.5e-6, t_rephase=0.5e-6, t_readout=0.5e-6)
        spec = EnsembleSpec(optical_fwhm=170e3, n_optical=3)
        assemble_decay_curves(cfg, [20e-6, 40e-6, 60e-6], params, [spec] * 3, mode="beat")
        # init, wait, rephasing and readout drives of three sets
        assert builds == [12]

    def test_compensation_search_builds_few_generators(self, builds):
        compensation_search(FieldModel(field_vector=(20e-6, -10e-6, 45e-6)),
                            EchoConfig(tau=30e-6), LambdaParams(gamma_spin_deph=1.0 / 500e-6),
                            EnsembleSpec(), np.linspace(15e-6, 120e-6, 6), tol=1e-6, mode="beat")
        # one parameter set under the echo's four drives
        assert sum(builds) == 4
