"""Scaled parameters, the pulse-period-to-hbar_eff conversion and the record field check."""

import math
import re
from dataclasses import fields

import pytest
from hypothesis import given, strategies as st

from aokr.cli import ConfigError, ScanSpec
from aokr.core import ScaledParams, hbar_from_period
from aokr.epsmap import EpsParams
from aokr.noise import NoiseConfig
from aokr.qkr import EnsembleSpec

TWO_PI = 2.0 * math.pi


def test_hbar_from_period_matches_caesium_resonance():
    # the caesium ladder resonance sits at 60.5 us by construction
    assert hbar_from_period(60.5e-6) == pytest.approx(TWO_PI, rel=1e-12)
    assert hbar_from_period(30.25e-6) == pytest.approx(math.pi, rel=1e-12)


def test_hbar_from_period_validation():
    with pytest.raises(ValueError):
        hbar_from_period(0.0)


@pytest.mark.parametrize(
    "args, match",
    [((math.nan,), "pulse_period must be positive, got nan"),
     ((math.inf,), "pulse_period must be positive, got inf")],
)
def test_hbar_from_period_rejects_nan(args, match):
    with pytest.raises(ValueError, match=f"^{match}$"):
        hbar_from_period(*args)


@given(st.floats(min_value=1e-7, max_value=1e-3))
def test_hbar_linear_in_period(period):
    assert hbar_from_period(2.0 * period) == pytest.approx(
        2.0 * hbar_from_period(period), rel=1e-12
    )


def test_scaled_params_validation():
    with pytest.raises(ValueError):
        ScaledParams(hbar_eff=0.0, kick_strength=1.0)
    with pytest.raises(ValueError):
        ScaledParams(hbar_eff=TWO_PI, kick_strength=-1.0)
    with pytest.raises(ValueError):
        ScaledParams(hbar_eff=TWO_PI, kick_strength=1.0, kick_count=-1)


# each parameter record with the fewest arguments that construct it
RECORDS = {
    ScaledParams: dict(hbar_eff=1.0, kick_strength=1.0),
    NoiseConfig: dict(),
    EnsembleSpec: dict(n_atoms=2),
    EpsParams: dict(epsilon=0.01, kick_ratio=1.0),
    ScanSpec: dict(engine="quantum", abscissa="hbar", lo=6.0, hi=6.1, step=0.1, kick_ratio=1.0),
}


def _bad_values(key):
    """(label, value, bound) triples read from a field's annotation and metadata.

    `value` must be rejected: a wrong type, or the first value past a bound
    (`math.nextafter` for floats, one step for ints).  `bound` is the
    inclusive bound it lies next to, which must construct, or None.
    """
    if "choices" in key.metadata:
        return [("choice", "bogus", None)]
    many, kind = re.match(r"(tuple\[)?(\w+)", key.type).groups()
    types = {"int": [("bool", True), ("2.5", 2.5)],
             "float": [("bool", True), ("str", "1.0"), ("nan", math.nan)]}
    bad = [(label, value, None) for label, value in types.get(kind, [])]
    for name, outward in (("min", -1), ("max", 1)):  # inclusive
        if name in key.metadata:
            bound = key.metadata[name]
            past = bound + outward if kind == "int" else math.nextafter(bound, outward * math.inf)
            bad.append((name, past, bound))
    for name in ("above", "below"):  # exclusive: the bound itself is the first value past it
        if name in key.metadata:
            bad.append((name, key.metadata[name], None))
    wrap = (lambda v: v if v is None else [v]) if many else (lambda v: v)  # tuples: one element
    return [(label, wrap(value), wrap(bound)) for label, value, bound in bad]


@pytest.mark.parametrize(
    "record, name, value, bound",
    [
        pytest.param(record, key.name, value, bound, id=f"{record.__name__}.{key.name}-{label}")
        for record in RECORDS
        for key in fields(record)
        for label, value, bound in _bad_values(key)
    ],
)
def test_every_record_field_rejects_a_bad_value_by_name(record, name, value, bound):
    # a field added to any record is covered here without an edit
    error = ConfigError if record is ScanSpec else ValueError
    if bound is not None:  # an inclusive bound is in range
        assert getattr(record(**dict(RECORDS[record], **{name: bound})), name) == bound
    with pytest.raises(error, match=rf"^{name}\b"):
        record(**dict(RECORDS[record], **{name: value}))
