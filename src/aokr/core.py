"""Scaled kicked-rotor parameters, hbar_eff from the pulse period, and the record field check.

Scaled units: time in pulse periods, angle phi = 2 k_L x, momentum on the
two-photon-recoil ladder p/(2 hbar k_L) = n + beta.  The effective Planck
constant is hbar_eff = 8 omega_r T, so the pulse period sets the position
along the quantum-resonance axis (hbar_eff = 2 pi at the half-Talbot time).

Every parameter record starts its `__post_init__` with `check_fields`, which
reads what each field accepts from its annotation and metadata (choices, range);
a check that spans fields or names a limit stays in the record's code.  A
record that restates another record's field declares it with `declared_as`,
which copies that field's default and metadata.
"""

from __future__ import annotations

import functools
import math
import numbers
import operator
import sys
from dataclasses import Field, dataclass, field, fields
from typing import get_args, get_origin, get_type_hints

# Caesium D2-line two-photon recoil frequency, fixed so that a 60.5 us pulse
# period lands exactly on hbar_eff = 2 pi.
OMEGA_R_CS = 2.0 * math.pi / (8.0 * 60.5e-6)


_KINDS = {int: (numbers.Integral, "an integer"), float: (numbers.Real, "a number")}

# a bound's metadata key -> (test of a value against it, the bound alone, in an interval)
_BOUNDS = {"min": (operator.ge, "be >= {}", "[{}"), "above": (operator.gt, "be > {}", "({}"),
           "max": (operator.le, "be <= {}", "{}]"), "below": (operator.lt, "be < {}", "{})")}


def _words(bounds: tuple[tuple[str, float], ...]) -> str:
    """The range that (metadata key, bound) pairs make, as an error message states it."""
    if len(bounds) == 2:  # a lower and an upper bound
        return "lie in " + ", ".join(_BOUNDS[key][2].format(bound) for key, bound in bounds)
    key, bound = bounds[0]
    return "be positive" if (key, bound) == ("above", 0) else _BOUNDS[key][1].format(bound)


@functools.cache
def field_schema(cls: type) -> dict[str, tuple[type, bool, bool, tuple | None, tuple]]:
    """Field name -> (type of one value, None allowed, a tuple of values, choices, bounds)."""
    schema, hints = {}, get_type_hints(cls)
    for key in fields(cls):
        hint = hints[key.name]
        optional = type(None) in get_args(hint)
        hint = get_args(hint)[0] if optional else hint  # X | None: X
        many = get_origin(hint) is tuple
        schema[key.name] = (get_args(hint)[0] if many else hint, optional, many,
                            key.metadata.get("choices"),
                            tuple((b, key.metadata[b]) for b in _BOUNDS if b in key.metadata))
    return schema


def check_fields(record: object, error: type[ValueError] = ValueError) -> None:
    """Check every field of a dataclass record against its annotation, raising `error`.

    Choices and ranges (`min`/`max` inclusive, `above`/`below` exclusive) come
    from the field metadata.  Numbers are stored as their field's kind, tuples as tuples.
    """
    for name, (kind, optional, many, choices, bounds) in field_schema(type(record)).items():
        value = getattr(record, name)
        if choices is not None and value not in choices:
            raise error(f"{name} = {value!r} not one of {choices}")
        if (value is None and optional) or kind not in _KINDS:
            continue
        if many and not isinstance(value, (tuple, list)):
            raise error(f"{name} must be a list, got {type(value).__name__}")
        number, noun = _KINDS[kind]
        where = f"{name}[{{}}]" if many else name  # where.format(i) names value i
        for i, x in enumerate(value if many else (value,)):
            if isinstance(x, bool) or not isinstance(x, number):
                raise error(f"{where.format(i)} must be {noun}, got {x!r}")
            # nan, inf, and an int too large for a float
            if kind is float and not abs(x) <= sys.float_info.max:
                raise error(f"{where.format(i)} must be finite, got {x}")
            if bounds and not all(_BOUNDS[b][0](x, bound) for b, bound in bounds):
                raise error(f"{where.format(i)} must {_words(bounds)}, got {x}")
        # frozen records too; 2 and 2.0 for a float field make the same JSON meta line
        object.__setattr__(record, name, tuple(map(kind, value)) if many else kind(value))


def declared_as(cls: type, name: str, **metadata) -> Field:
    """A field with the default and metadata of `cls`'s field `name`, plus `metadata`."""
    source = cls.__dataclass_fields__[name]
    return field(default=source.default, metadata={**source.metadata, **metadata})


@dataclass(frozen=True)
class ScaledParams:
    """Dimensionless kicked-rotor parameters.

    hbar_eff:      effective Planck constant 8 omega_r T
    kick_strength: kappa (the classical stochasticity parameter of the
                   scaled map is kappa itself; experiments quote the ratio kappa/hbar_eff)
    kick_count:    number of kicks N
    """

    hbar_eff: float = field(metadata={"above": 0})
    kick_strength: float = field(metadata={"min": 0})
    kick_count: int = field(default=20, metadata={"min": 0})

    def __post_init__(self) -> None:
        check_fields(self)


def hbar_from_period(pulse_period: float) -> float:
    """Effective Planck constant for a given pulse period, hbar_eff = 8 omega_r T."""
    if not 0.0 < pulse_period < math.inf:
        raise ValueError(f"pulse_period must be positive, got {pulse_period}")
    return 8.0 * OMEGA_R_CS * pulse_period
