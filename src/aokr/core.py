"""Scaled kicked-rotor parameters and the pulse-period-to-hbar_eff conversion.

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


def check_finite(owner: object, *names: str) -> None:
    """Reject a NaN or infinity in any named field (scalar or sequence; None passes)."""
    for name in names:
        value = getattr(owner, name)
        if value is not None and not np.all(np.isfinite(value)):
            raise ValueError(f"{name} must be finite, got {value!r}")


def check_integer(owner: object, *names: str) -> None:
    """Reject a bool or non-integer in any named field; numpy integers are stored as int."""
    for name in names:
        value = getattr(owner, name)
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise ValueError(f"{name} must be an integer, got {value!r}")
        object.__setattr__(owner, name, int(value))  # frozen dataclasses too


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
        check_integer(self, "kick_count")
        if self.hbar_eff <= 0.0:
            raise ValueError(f"hbar_eff must be positive, got {self.hbar_eff}")
        if self.kick_strength < 0.0:
            raise ValueError(f"kick_strength must be >= 0, got {self.kick_strength}")
        if self.kick_count < 0:
            raise ValueError(f"kick_count must be >= 0, got {self.kick_count}")


def hbar_from_period(pulse_period: float, recoil_frequency: float = OMEGA_R_CS) -> float:
    """Effective Planck constant for a given pulse period, hbar_eff = 8 omega_r T."""
    if pulse_period <= 0.0:
        raise ValueError(f"pulse_period must be positive, got {pulse_period}")
    if recoil_frequency <= 0.0:
        raise ValueError(f"recoil_frequency must be positive, got {recoil_frequency}")
    return 8.0 * recoil_frequency * pulse_period
