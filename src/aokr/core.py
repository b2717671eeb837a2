"""Laboratory-to-scaled parameter conversions for the kicked-rotor lattice.

Scaled units: time in pulse periods, angle phi = 2 k_L x, momentum on the
two-photon-recoil ladder p/(2 hbar k_L) = n + beta.  The effective Planck
constant is hbar_eff = 8 omega_r T, so the pulse period sets the position
along the quantum-resonance axis (hbar_eff = 2 pi at the half-Talbot time).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Caesium D2-line two-photon recoil frequency, fixed so that a 60.5 us pulse
# period lands exactly on hbar_eff = 2 pi.
OMEGA_R_CS = 2.0 * math.pi / (8.0 * 60.5e-6)

MIN_DETUNING_RATIO = 10.0


class DetuningError(ValueError):
    """Detuning too small for the dispersive (adiabatic) potential to hold."""


def check_finite(owner: object, *names: str) -> None:
    """Reject a NaN or infinity in any named field (scalar or sequence; None passes)."""
    for name in names:
        value = getattr(owner, name)
        if value is not None and not np.all(np.isfinite(value)):
            raise ValueError(f"{name} must be finite, got {value!r}")


def effective_potential(rabi_frequency: float, detuning: float) -> float:
    """Two-level effective potential frequency Omega_eff = Omega^2 / Delta.

    Requires |Delta| >= 10 Omega; below that the excited-state population is
    no longer negligible and the dispersive reduction is invalid.
    """
    if rabi_frequency <= 0.0:
        raise ValueError(f"rabi_frequency must be positive, got {rabi_frequency}")
    if abs(detuning) < MIN_DETUNING_RATIO * rabi_frequency:
        raise DetuningError(
            f"|detuning| = {abs(detuning):g} is below {MIN_DETUNING_RATIO} x "
            f"rabi_frequency = {MIN_DETUNING_RATIO * rabi_frequency:g}"
        )
    return rabi_frequency**2 / detuning


@dataclass(frozen=True)
class LabParams:
    """Experimental pulse-train parameters, all in SI units.

    rabi_frequency: single-beam resonant Rabi frequency Omega [rad/s]
    detuning:       laser detuning Delta from the transition [rad/s]
    pulse_duration: single-pulse width tau_p [s]
    pulse_period:   kick period T [s]
    kick_count:     number of pulses N
    recoil_frequency: omega_r [rad/s] (caesium default)
    se_probability: spontaneous-emission probability per atom per pulse
    """

    rabi_frequency: float
    detuning: float
    pulse_duration: float
    pulse_period: float
    kick_count: int = 20
    recoil_frequency: float = OMEGA_R_CS
    se_probability: float = 0.025

    def __post_init__(self) -> None:
        check_finite(
            self, "rabi_frequency", "detuning", "pulse_duration", "pulse_period",
            "recoil_frequency", "se_probability",
        )
        for name in ("rabi_frequency", "pulse_duration", "pulse_period", "recoil_frequency"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        if self.kick_count < 0:
            raise ValueError(f"kick_count must be >= 0, got {self.kick_count}")
        if not 0.0 <= self.se_probability <= 1.0:
            raise ValueError(f"se_probability must lie in [0, 1], got {self.se_probability}")
        if abs(self.detuning) < MIN_DETUNING_RATIO * self.rabi_frequency:
            raise DetuningError(
                f"|detuning| must be >= {MIN_DETUNING_RATIO} x rabi_frequency"
            )


@dataclass(frozen=True)
class ScaledParams:
    """Dimensionless kicked-rotor parameters.

    hbar_eff:      effective Planck constant 8 omega_r T
    kick_strength: kappa (the classical stochasticity parameter of the
                   scaled map is kappa itself; experiments quote the ratio kappa/hbar_eff)
    kick_count:    number of kicks N
    """

    hbar_eff: float
    kick_strength: float
    kick_count: int = 20

    def __post_init__(self) -> None:
        check_finite(self, "hbar_eff", "kick_strength")
        if self.hbar_eff <= 0.0:
            raise ValueError(f"hbar_eff must be positive, got {self.hbar_eff}")
        if self.kick_strength < 0.0:
            raise ValueError(f"kick_strength must be >= 0, got {self.kick_strength}")
        if self.kick_count < 0:
            raise ValueError(f"kick_count must be >= 0, got {self.kick_count}")

    @property
    def kick_ratio(self) -> float:
        """Kick strength per effective Planck constant, kappa / hbar_eff."""
        return self.kick_strength / self.hbar_eff


def hbar_from_period(pulse_period: float, recoil_frequency: float = OMEGA_R_CS) -> float:
    """Effective Planck constant for a given pulse period, hbar_eff = 8 omega_r T."""
    if pulse_period <= 0.0:
        raise ValueError(f"pulse_period must be positive, got {pulse_period}")
    if recoil_frequency <= 0.0:
        raise ValueError(f"recoil_frequency must be positive, got {recoil_frequency}")
    return 8.0 * recoil_frequency * pulse_period


def scale_params(lab: LabParams) -> ScaledParams:
    """Reduce laboratory pulse parameters to the scaled kicked-rotor pair.

    kappa = Omega_eff * omega_r * T * tau_p, i.e. the pulse area of the
    cos(phi) lattice measured in the scaled time unit.  Linear in every
    laboratory input, so doubling tau_p doubles kappa but leaves hbar_eff
    alone, while doubling T doubles both (fixed kick ratio: this is why a
    period scan at constant beam power traces a constant-ratio curve).
    """
    omega_eff = effective_potential(lab.rabi_frequency, lab.detuning)
    hbar_eff = hbar_from_period(lab.pulse_period, lab.recoil_frequency)
    kappa = abs(omega_eff) * lab.recoil_frequency * lab.pulse_period * lab.pulse_duration
    return ScaledParams(
        hbar_eff=hbar_eff,
        kick_strength=kappa,
        kick_count=lab.kick_count,
    )
