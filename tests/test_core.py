"""Scaled parameters and the pulse-period-to-hbar_eff conversion."""

import math

import pytest
from hypothesis import given, strategies as st

from aokr.core import ScaledParams, hbar_from_period

TWO_PI = 2.0 * math.pi


def test_hbar_from_period_matches_caesium_resonance():
    # the caesium ladder resonance sits at 60.5 us by construction
    assert hbar_from_period(60.5e-6) == pytest.approx(TWO_PI, rel=1e-12)
    assert hbar_from_period(30.25e-6) == pytest.approx(math.pi, rel=1e-12)


def test_hbar_from_period_validation():
    with pytest.raises(ValueError):
        hbar_from_period(0.0)
    with pytest.raises(ValueError):
        hbar_from_period(60.5e-6, recoil_frequency=-1.0)


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


def test_scaled_params_kick_ratio():
    scaled = ScaledParams(hbar_eff=TWO_PI, kick_strength=3.7 * TWO_PI, kick_count=20)
    assert scaled.kick_ratio == pytest.approx(3.7, rel=1e-12)
    assert scaled.kick_count == 20
