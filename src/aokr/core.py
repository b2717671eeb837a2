"""Scaled kicked-rotor parameters, hbar_eff from the pulse period, and the record field check.

Scaled units: time in pulse periods, angle phi = 2 k_L x, momentum on the
two-photon-recoil ladder p/(2 hbar k_L) = n + beta.  The effective Planck
constant is hbar_eff = 8 omega_r T, so the pulse period sets the position
along the quantum-resonance axis (hbar_eff = 2 pi at the half-Talbot time).

Every parameter record starts its `__post_init__` with `check_fields`, which
reads what each field accepts from its annotation and metadata.
"""

from __future__ import annotations

import functools
import math
import numbers
import sys
from dataclasses import dataclass, fields
from typing import get_args, get_origin, get_type_hints

# Caesium D2-line two-photon recoil frequency, fixed so that a 60.5 us pulse
# period lands exactly on hbar_eff = 2 pi.
OMEGA_R_CS = 2.0 * math.pi / (8.0 * 60.5e-6)


_KINDS = {int: (numbers.Integral, "an integer"), float: (numbers.Real, "a number")}


@functools.cache
def field_schema(cls: type) -> dict[str, tuple[type, bool, bool, tuple | None]]:
    """Field name -> (type of one value, None allowed, a tuple of values, its choices)."""
    schema, hints = {}, get_type_hints(cls)
    for key in fields(cls):
        hint = hints[key.name]
        optional = type(None) in get_args(hint)
        hint = get_args(hint)[0] if optional else hint  # X | None: X
        many = get_origin(hint) is tuple
        schema[key.name] = (get_args(hint)[0] if many else hint, optional, many,
                            key.metadata.get("choices"))
    return schema


def check_fields(record: object, error: type[ValueError] = ValueError) -> None:
    """Check every field of a dataclass record against its annotation, raising `error`.

    Choices come from the field metadata; ints are stored as int, tuples as tuples.
    """
    for name, (kind, optional, many, choices) in field_schema(type(record)).items():
        value = getattr(record, name)
        if choices is not None and value not in choices:
            raise error(f"{name} = {value!r} not one of {choices}")
        if (value is None and optional) or kind not in _KINDS:
            continue
        if many and not isinstance(value, (tuple, list)):
            raise error(f"{name} must be a list, got {type(value).__name__}")
        number, noun = _KINDS[kind]
        for i, x in enumerate(value if many else (value,)):
            if isinstance(x, bool) or not isinstance(x, number):
                where = f"{name}[{i}]" if many else name
                raise error(f"{where} must be {noun}, got {x!r}")
            # nan, inf, and an int too large for a float
            if kind is float and not abs(x) <= sys.float_info.max:
                raise error(f"{name} must be finite, got {value}")
        if many or kind is int:  # frozen records too; the JSON meta line needs int
            object.__setattr__(record, name, tuple(map(kind, value)) if many else int(value))


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
        check_fields(self)
        if self.hbar_eff <= 0.0:
            raise ValueError(f"hbar_eff must be positive, got {self.hbar_eff}")
        if self.kick_strength < 0.0:
            raise ValueError(f"kick_strength must be >= 0, got {self.kick_strength}")
        if self.kick_count < 0:
            raise ValueError(f"kick_count must be >= 0, got {self.kick_count}")


def hbar_from_period(pulse_period: float) -> float:
    """Effective Planck constant for a given pulse period, hbar_eff = 8 omega_r T."""
    if not 0.0 < pulse_period < math.inf:
        raise ValueError(f"pulse_period must be positive, got {pulse_period}")
    return 8.0 * OMEGA_R_CS * pulse_period
