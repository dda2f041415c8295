"""Builders for the named EIT pulses and the full spin-echo sequence.

Phase conventions.  The initialization pulse drives both ground-to-excited
transitions with equal Rabi amplitude; its relative phase (put on the |0>
color) sets the azimuth of the created dark superposition: offset 0 leaves the
ground block on the -x axis, offset pi/2 on -y, and generally the prepared
Bloch vector rotates with the offset.

The rephasing pulse must rotate the ground qubit around the prepared state's
own axis so that the stored coherence is preserved while accumulated
spin-detuning phases are conjugated.  A bichromatic pulse rotates the ground
manifold about its own bright/dark axis, and the init pulse leaves the state
*on* that axis, so the rephasing pulse reuses the init pulse's relative phase
(shifting the relative phase by 90 degrees would move the rotation axis to the
equatorial normal of the stored state and flip it instead).  Its nominal
optical area is 2*pi on the bright-enhanced transition so any amplitude sent
to |e> returns to the ground manifold.

Pulse areas are defined on the bright-enhanced coupling by default: a
bichromatic pulse of per-color Rabi frequency `rabi` drives the bright
superposition at sqrt(2)*rabi, so area pi means sqrt(2)*rabi*duration = pi.
The `calibration` switch selects the bare single-color convention instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .dynamics import PulseSpec, SequenceSpec, Wait
from .errors import ConfigurationError

SQRT2 = math.sqrt(2.0)

# Pr hyperfine ground splitting addressed by the bichromatic drive.
DEFAULT_SPLITTING_HZ = 10.2e6
# Detector clock: samples per period of the heterodyne beat at the splitting.
SAMPLES_PER_PERIOD = 8.0
# Room rule: each segment of an echo layout, pulse or wait, must last more than
# this fraction of its start time, so that each of the >= 50 steps a trajectory
# samples it in advances the clock (a segment of one float spacing ends after
# it starts; its samples do not).
WAIT_RESOLUTION = 1e-12


@dataclass(frozen=True)
class EchoConfig:
    """Declarative description of one spin-echo run.

    tau is the storage time: the readout pulse starts at t = tau, the
    rephasing pulse is centered at tau/2, and the init pulse starts at t = 0.
    Durations are the rectangular pulse lengths; the bichromatic pulse Rabi
    amplitudes follow from the requested areas, while `readout_rabi` sets the
    single-color readout drive directly (default: the init pulse amplitude).
    """

    tau: float
    t_init: float = 2e-6
    t_rephase: float = 2e-6
    t_readout: float = 2e-6
    readout_rabi: float | None = None
    splitting: float = DEFAULT_SPLITTING_HZ
    init_phase_offset: float = 0.0
    init_area: float = math.pi
    rephase_area: float = 2.0 * math.pi
    calibration: str = "bright"

    def __post_init__(self):
        problems = []
        for name in ("t_init", "t_rephase", "t_readout"):
            if not getattr(self, name) > 0.0:
                problems.append(f"EchoConfig.{name} must be > 0")
        if self.calibration not in ("bright", "bare"):
            problems.append("EchoConfig.calibration must be 'bright' or 'bare'")
        # the readout's detector clock 1/(SAMPLES_PER_PERIOD * splitting)
        # must be finite and > 0 too, which a subnormal or infinite value breaks
        if not (self.splitting > 0.0
                and 0.0 < 1.0 / (SAMPLES_PER_PERIOD * self.splitting) < math.inf):
            problems.append(f"EchoConfig.splitting must be > 0 with a finite detector "
                            f"clock, got {self.splitting} Hz")
        if self.init_area <= 0.0 or self.rephase_area <= 0.0:
            problems.append("EchoConfig pulse areas must be > 0")
        elif self.t_init > 0.0 and self.t_rephase > 0.0:
            # a finite area over a short pulse can still overflow the drive
            for name, rabi, duration in (("init_area", self.init_rabi, self.t_init),
                                         ("rephase_area", self.rephase_rabi, self.t_rephase)):
                if not math.isfinite(rabi):
                    problems.append(f"EchoConfig.{name} over a {duration:g} s pulse implies "
                                    f"a Rabi frequency of {rabi} rad/s, which is not finite")
        if self.readout_rabi is not None and not 0.0 <= self.readout_rabi < math.inf:
            problems.append(f"EchoConfig.readout_rabi must be finite and >= 0, "
                            f"got {self.readout_rabi} rad/s")
        if not self.tau > self.t_init + self.t_rephase + self.t_readout:
            problems.append(
                f"EchoConfig.tau ({self.tau}) must exceed the summed pulse durations")
        elif math.isfinite(self.tau) and self.t_rephase > 0.0 and self.t_readout > 0.0:
            problems += self._room_problems()
        if problems:
            raise ConfigurationError(problems)

    def _room_problems(self) -> list[str]:
        """The room rule for every segment after the init pulse, which starts
        at 0, in both layouts (see make_echo_sequence): its duration must
        exceed WAIT_RESOLUTION times its start time.  A wait's length is set
        by tau, a pulse's by its own duration key; each key names its first
        segment without room."""
        wait1, wait2 = self.waits(self.tau)
        half = self.t_rephase / 2.0
        problems = {}
        for key, what, start, duration in (
                ("tau", "the wait before the rephasing pulse, centered at tau/2",
                 self.t_init, wait1),
                ("t_rephase", "each half of the rephasing pulse", self.t_init + wait1, half),
                ("t_rephase", "each half of the rephasing pulse", self.tau / 2.0, half),
                ("tau", "the wait after the rephasing pulse", self.tau / 2.0 + half, wait2),
                ("t_readout", "the readout pulse", self.tau, self.t_readout),
                ("tau", "the wait after the init pulse when the rephasing pulse is left out",
                 self.t_init, self.tau - self.t_init)):
            if not duration > WAIT_RESOLUTION * start and key not in problems:
                problems[key] = (f"EchoConfig.{key} ({getattr(self, key)}) leaves no room "
                                 f"for {what}, starting at {start:g} s")
        return list(problems.values())

    def waits(self, tau):
        """The waits before and after the rephasing pulse centered at tau/2 of
        the storage time `tau`, a float or an array of them."""
        return tau / 2.0 - self.t_rephase / 2.0 - self.t_init, tau / 2.0 - self.t_rephase / 2.0

    @property
    def enhancement(self) -> float:
        return SQRT2 if self.calibration == "bright" else 1.0

    @property
    def init_rabi(self) -> float:
        """Per-color Rabi amplitude giving the requested init area."""
        return self.init_area / (self.enhancement * self.t_init)

    @property
    def rephase_rabi(self) -> float:
        return self.rephase_area / (self.enhancement * self.t_rephase)


def _bichromatic(cfg: EchoConfig, duration: float, rabi: float, label: str) -> PulseSpec:
    """Pulse of equal Rabi components with the init pulse's relative phase on the |0> color."""
    return PulseSpec(duration=duration, rabi0=rabi, rabi1=rabi, phase0=cfg.init_phase_offset,
                     phase1=0.0, label=label)


def make_init_pulse(cfg: EchoConfig) -> PulseSpec:
    """Bichromatic pulse creating the dark superposition from a mixed state;
    its relative phase steers the prepared state's Bloch azimuth."""
    return _bichromatic(cfg, cfg.t_init, cfg.init_rabi, "init_pi_half")


def dark_target(cfg: EchoConfig) -> np.ndarray:
    """Ground ket (|0> - e^{i phi}|1>)/sqrt(2) that the init pulse, of relative
    phase phi on its |0> color, leaves uncoupled: the state it prepares."""
    return np.array([1.0, -np.exp(1j * cfg.init_phase_offset)], dtype=complex) / math.sqrt(2.0)


def make_rephase_pulse(cfg: EchoConfig) -> PulseSpec:
    """Bichromatic spin-rephasing pulse (rotation about the stored state's axis).

    Same relative phase as the init pulse so the bright/dark axis coincides
    with the prepared state; nominal area 2*pi on the bright transition so the
    transiently excited amplitude returns to the ground manifold.
    """
    return _bichromatic(cfg, cfg.t_rephase, cfg.rephase_rabi, "rephase_pi")


def make_readout_pulse(cfg: EchoConfig) -> PulseSpec:
    """Single-color readout pulse on |0> -> |e> only.

    Stored ground coherence turns into |1> -> |e> optical coherence during
    this pulse; the heterodyne beat against the transmitted pulse is built in
    the readout module.  The pulse carries the detector clock,
    SAMPLES_PER_PERIOD samples per beat period, so its window is sampled on
    the ticks the detector reads.
    """
    rabi = cfg.readout_rabi if cfg.readout_rabi is not None else cfg.init_rabi
    return PulseSpec(
        duration=cfg.t_readout,
        rabi0=rabi,
        label="readout",
        clock_dt=1.0 / (SAMPLES_PER_PERIOD * cfg.splitting),
    )


def make_echo_sequence(cfg: EchoConfig, include_rephase: bool = True,
                       include_readout: bool = True) -> SequenceSpec:
    """Full echo layout: init at 0, rephase centered at tau/2, readout from tau.

    The rephasing pulse is emitted as two half-duration segments; the second
    half carries zeeman_sign = -1, flipping any Zeeman branch offset from the
    pulse center onward (branch exchange through |e>).  With the rephasing
    pulse omitted the layout degenerates to a free-induction-decay control and
    the sign never flips.
    """
    segments: list = [make_init_pulse(cfg)]
    if include_rephase:
        wait1, wait2 = cfg.waits(cfg.tau)
        half = replace(make_rephase_pulse(cfg), duration=cfg.t_rephase / 2.0)
        segments += [Wait(duration=wait1), half, replace(half, zeeman_sign=-1.0),
                     Wait(duration=wait2, zeeman_sign=-1.0)]
    else:
        segments.append(Wait(duration=cfg.tau - cfg.t_init))
    if include_readout:
        segments.append(replace(make_readout_pulse(cfg),
                                zeeman_sign=-1.0 if include_rephase else 1.0))
    return SequenceSpec(segments=tuple(segments))


def echo_layout(cfg: EchoConfig, taus) -> tuple[SequenceSpec, PulseSpec, np.ndarray]:
    """A decay curve's echo of `cfg` up to the readout, its readout pulse and the
    (T, 2) table of its waits, the only segments that depend on the storage time,
    at the storage times `taus` in any order.  The room rule holds at each if it
    holds at the shortest, where a wait has least room, and at the longest, where
    a pulse, which starts later as tau grows, has least: EchoConfig checks both."""
    taus = np.asarray(taus, dtype=float)
    segments = make_echo_sequence(replace(cfg, tau=float(taus.min()))).segments
    replace(cfg, tau=float(taus.max()))
    return SequenceSpec(segments=segments[:-1]), segments[-1], np.column_stack(cfg.waits(taus))
