"""Driven lambda-system model: the Lindblad master equation of each parameter
set as a 9x9 Liouvillian on the flattened density matrix.

Conventions (basis order |0>, |1>, |e>):

* Drive couplings enter as <e|H|k> = (rabi_k / 2) * exp(i * phase_k), so a
  resonant single-color pulse with rabi * duration = pi fully inverts that
  transition.  With equal Rabi frequencies the bright superposition couples
  sqrt(2) times more strongly and the dark one not at all.
* The one-photon detuning sits on |e>, the two-photon (spin) detuning is split
  symmetrically as +delta_spin/2 on |0> and -delta_spin/2 on |1>, so the
  rotating-frame energy zero is the ground levels' mean.
* Dissipation is Lindblad-form: |e> decays to |0> and |1> with a branching
  fraction, plus pure dephasing of the optical transition and of the ground
  coherence.  Rates are calibrated so gamma_opt_deph and gamma_spin_deph are
  the coherence decay rates they name.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import ValidationError

KET0 = np.array([1.0, 0.0, 0.0], dtype=complex)
KET1 = np.array([0.0, 1.0, 0.0], dtype=complex)
KETE = np.array([0.0, 0.0, 1.0], dtype=complex)


@dataclass(frozen=True)
class LambdaParams:
    """All physical rates and detunings of one ensemble member.

    Angular frequencies and rates throughout: rabi0/rabi1 and the detunings in
    rad/s, decay/dephasing rates in 1/s.
    """

    rabi0: float = 0.0
    rabi1: float = 0.0
    phase0: float = 0.0
    phase1: float = 0.0
    delta_opt: float = 0.0
    delta_spin: float = 0.0
    gamma_opt_decay: float = 0.0
    gamma_opt_deph: float = 0.0
    gamma_spin_deph: float = 0.0
    branch0: float = 0.5

    def __post_init__(self):
        problems = []
        for name in ("rabi0", "rabi1", "gamma_opt_decay", "gamma_opt_deph",
                     "gamma_spin_deph"):
            v = getattr(self, name)
            if not np.isfinite(v) or v < 0.0:
                problems.append(f"LambdaParams.{name} must be >= 0, got {v}")
        if not 0.0 <= self.branch0 <= 1.0:
            problems.append(f"LambdaParams.branch0 must be in [0, 1], got {self.branch0}")
        for name in ("phase0", "phase1", "delta_opt", "delta_spin"):
            if not np.isfinite(getattr(self, name)):
                problems.append(f"LambdaParams.{name} must be finite")
        if problems:
            raise ValidationError(problems)

    def replace(self, **kw) -> "LambdaParams":
        return replace(self, **kw)


# The four jump operators C, in the order of _jump_rates, with C^dag C.
JUMPS = (np.outer(KET0, KETE.conj()), np.outer(KET1, KETE.conj()),
         np.outer(KETE, KETE.conj()), np.diag([1.0, -1.0, 0.0]).astype(complex))
_JUMP_NORMS = tuple(c.conj().T @ c for c in JUMPS)


def _jump_rates(p: LambdaParams) -> tuple:
    """Rate of each of the four JUMPS under `p`, None where the jump is absent."""
    decay = p.gamma_opt_decay > 0.0
    return (p.branch0 * p.gamma_opt_decay if decay and p.branch0 > 0.0 else None,
            (1.0 - p.branch0) * p.gamma_opt_decay if decay and p.branch0 < 1.0 else None,
            # rate 2*gamma on the projector gives optical coherences decay at gamma
            2.0 * p.gamma_opt_deph if p.gamma_opt_deph > 0.0 else None,
            # rate gamma/2 on (P0 - P1) makes the 0-1 coherence decay at gamma
            0.5 * p.gamma_spin_deph if p.gamma_spin_deph > 0.0 else None)


def _commutator_diagonal(levels: np.ndarray) -> np.ndarray:
    """Diagonal of X -> -i [diag(levels), X] on the row-major flattened X."""
    return -1j * np.subtract.outer(levels, levels).reshape(9)


# The detuning terms of H are diagonal, so they enter L only on its diagonal:
# L(p with delta_opt + a, delta_spin + b)
#     == L(p) + diag(a * DETUNING_OPT + b * DETUNING_SPIN).
DETUNING_OPT = _commutator_diagonal(np.array([0.0, 0.0, 1.0]))
DETUNING_SPIN = _commutator_diagonal(np.array([0.5, -0.5, 0.0]))


def _superop(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix of X -> a X b acting on the row-major flattened X."""
    return np.einsum("ik,lj->ijkl", a, b).reshape(9, 9)


_JUMP_SUPEROPS = tuple(_superop(c, c.conj().T) for c in JUMPS)


def liouvillians(ps) -> np.ndarray:
    """The master equation of each LambdaParams of `ps` as a 9x9 linear map on
    the flattened density matrix, (S, 9, 9) for S parameter sets, built at once.

    Closed form in the spre/spost idiom: the anticommutator terms fold into
    the effective Hamiltonian H_eff = H - (i/2) sum gamma C^dag C, leaving
    L = -i (S(H_eff, 1) - S(1, H_eff^dag)) + sum gamma S(C, C^dag) with
    S(a, b) the map X -> a X b.  The tests check it against the Hamiltonian
    and the right-hand side d(rho)/dt, kept there as independent oracles.
    Each set's entries are those of the set built alone, bit for bit: a set
    takes no term of a jump it lacks, since adding a zero term would turn a
    -0.0 entry into +0.0.
    """
    fields = np.array([(p.rabi0, p.rabi1, p.phase0, p.phase1, p.delta_opt, p.delta_spin)
                       for p in ps])
    h = np.zeros((len(fields), 3, 3), dtype=complex)          # rotating-frame H of each set
    h.reshape(-1, 9)[:, 0:5:4] = np.multiply(fields[:, 5:], [0.5, -0.5])
    h[:, 2, 2] = fields[:, 4]
    h[:, 2, :2] = 0.5 * fields[:, :2] * np.exp(1j * fields[:, 2:4])
    h[:, :2, 2] = np.conj(h[:, 2, :2])
    rates = np.array([_jump_rates(p) for p in ps], dtype=float)     # nan: jump absent
    present = ~np.isnan(rates)
    # every zero of a C^dag C is +0, so an absent jump's zero rate subtracts
    # +0 from every entry of H_eff, which moves no bit
    gammas = np.where(present, rates, 0.0)
    for j, norm in enumerate(_JUMP_NORMS):
        h -= (0.5j * gammas[:, j])[:, None, None] * norm
    eye = np.eye(3)
    sup = -1j * (np.einsum("sik,lj->sijkl", h, eye)
                 - np.einsum("ik,slj->sijkl", eye, h.conj().swapaxes(1, 2)))
    sup = sup.reshape(-1, 9, 9)
    for j, term in enumerate(_JUMP_SUPEROPS):
        np.add(sup, gammas[:, j, None, None] * term, out=sup, where=present[:, j, None, None])
    return sup
