"""Pulse-train noise realizations: distributions and streams."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from aokr.noise import (
    STREAM_AMPLITUDE,
    STREAM_PERIOD,
    IntervalError,
    NoiseConfig,
    NoiseLevelError,
    free_evolution_intervals,
    sample_realization,
    stream_rng,
)


def test_config_bounds():
    NoiseConfig(amplitude_level=2.0, period_level=0.999, se_probability=1.0)
    with pytest.raises(NoiseLevelError):
        NoiseConfig(amplitude_level=2.0001)
    with pytest.raises(NoiseLevelError):
        NoiseConfig(amplitude_level=-0.1)
    with pytest.raises(NoiseLevelError):
        NoiseConfig(period_level=1.0)
    with pytest.raises(NoiseLevelError):
        NoiseConfig(se_probability=1.01)
    # a negative seed is named here, not left to numpy's SeedSequence
    with pytest.raises(ValueError, match=r"^master_seed must be >= 0, got -1$"):
        NoiseConfig(master_seed=-1)


def test_amplitude_factor_distribution():
    cfg = NoiseConfig(amplitude_level=2.0, master_seed=3)
    factors = np.concatenate(
        [
            sample_realization(
                NoiseConfig(amplitude_level=2.0, master_seed=3, realization_index=r),
                2000,
            ).amplitude_factors
            for r in range(5)
        ]
    )
    assert factors.min() >= 0.0 and factors.max() <= 2.0
    # uniform on [0, 2]: mean 1, variance L^2/12 = 1/3
    assert np.mean(factors) == pytest.approx(1.0, abs=0.02)
    assert np.var(factors) == pytest.approx(1.0 / 3.0, rel=0.05)


def test_period_offset_distribution():
    offs = np.concatenate(
        [
            sample_realization(
                NoiseConfig(period_level=0.5, master_seed=4, realization_index=r), 2000
            ).period_offsets[1:]
            for r in range(5)
        ]
    )
    assert offs.min() >= -0.25 and offs.max() <= 0.25
    assert np.mean(offs) == pytest.approx(0.0, abs=0.01)
    assert np.var(offs) == pytest.approx(0.25**2 / 3.0, rel=0.05)


def test_first_pulse_defines_time_origin():
    r = sample_realization(NoiseConfig(period_level=0.9, master_seed=1), 64)
    assert r.period_offsets[0] == 0.0


def test_zero_levels_give_clean_train():
    r = sample_realization(NoiseConfig(master_seed=0), 32)
    assert np.all(r.amplitude_factors == 1.0)
    assert np.all(r.period_offsets == 0.0)
    # the record is the pulse train alone: no per-atom (atoms, kicks) array
    fields = [f.name for f in dataclasses.fields(r)]
    assert fields == ["config", "amplitude_factors", "period_offsets"]


def test_streams_are_independent():
    cfg = NoiseConfig(amplitude_level=2.0, period_level=0.9, master_seed=7)
    r = sample_realization(cfg, 5000)
    a = r.amplitude_factors - 1.0
    p = r.period_offsets
    corr = np.corrcoef(a, p)[0, 1]
    assert abs(corr) < 0.05


def test_determinism_and_realization_separation():
    cfg = NoiseConfig(amplitude_level=1.0, period_level=0.2, se_probability=0.1, master_seed=11)
    r1 = sample_realization(cfg, 100)
    r2 = sample_realization(cfg, 100)
    assert np.array_equal(r1.amplitude_factors, r2.amplitude_factors)
    assert np.array_equal(r1.period_offsets, r2.period_offsets)
    other = sample_realization(
        NoiseConfig(
            amplitude_level=1.0, period_level=0.2, se_probability=0.1,
            master_seed=11, realization_index=1,
        ),
        100,
    )
    assert not np.array_equal(r1.amplitude_factors, other.amplitude_factors)


def test_stream_rng_separates_streams():
    a = stream_rng(5, 0, STREAM_AMPLITUDE).random(100)
    b = stream_rng(5, 0, STREAM_PERIOD).random(100)
    assert not np.array_equal(a, b)
    again = stream_rng(5, 0, STREAM_AMPLITUDE).random(100)
    assert np.array_equal(a, again)


def test_intervals_from_offsets():
    offsets = np.array([0.0, 0.3, -0.2, 0.0])
    want = np.array([1.3, 0.5, 1.2])
    assert np.allclose(free_evolution_intervals(offsets), want)


def test_intervals_reject_nonpositive_gaps():
    # adjacent pulses would overlap: offsets differ by -1
    with pytest.raises(IntervalError):
        free_evolution_intervals(np.array([0.0, 0.49, -0.51]))


@settings(max_examples=30, deadline=None)
@given(
    level=st.floats(min_value=0.0, max_value=2.0),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_amplitude_factors_always_in_band(level, seed):
    r = sample_realization(NoiseConfig(amplitude_level=level, master_seed=seed), 64)
    assert np.all(r.amplitude_factors >= 1.0 - level / 2.0 - 1e-12)
    assert np.all(r.amplitude_factors <= 1.0 + level / 2.0 + 1e-12)


@settings(max_examples=30, deadline=None)
@given(
    level=st.floats(min_value=0.0, max_value=0.99),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_intervals_always_positive(level, seed):
    r = sample_realization(NoiseConfig(period_level=level, master_seed=seed), 64)
    assert np.all(free_evolution_intervals(r.period_offsets) > 0.0)
