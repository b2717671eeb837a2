"""Pulse-train noise: per-kick random levels, their sampling streams, and
the one loop that averages an engine's result over noise realizations.

Every random draw in the package flows through `stream_rng`, a counter-based
Philox generator keyed by (master_seed, realization_index, stream id).  Two
realizations of the same configuration are statistically independent; the
same triple always reproduces the same bits, on any machine and with any
worker count.  A `NoiseRealization` is the pulse train alone, the numbers
every atom shares; per-atom draws (the cloud, the SE schedule) are made by
the engine that uses them, from their own streams.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .core import check_fields

# fixed stream ids; never renumber, stored seeds depend on them
STREAM_AMPLITUDE = 0
STREAM_PERIOD = 1
STREAM_SE_EVENTS = 2
STREAM_SE_BETA = 3
STREAM_ATOM_MOMENTA = 4
STREAM_ATOM_BETA = 5
STREAM_KICK_SPREAD = 6
STREAM_MAP_PHASE = 7

AMPLITUDE_LEVEL_MAX = 2.0
PERIOD_LEVEL_MAX = 1.0  # exclusive


class NoiseLevelError(ValueError):
    """A noise level (or another `NoiseConfig` field) lies outside its admissible range."""


class IntervalError(ValueError):
    """Period offsets put two pulses in the wrong order (interval <= 0)."""


def stream_rng(master_seed: int, realization_index: int, stream: int) -> np.random.Generator:
    """Philox generator for one (seed, realization, stream) triple."""
    ss = np.random.SeedSequence(master_seed, spawn_key=(realization_index, stream))
    return np.random.Generator(np.random.Philox(ss))


@dataclass(frozen=True)
class NoiseConfig:
    """Noise levels of one pulse train plus the seed that realizes them.

    amplitude_level: L_A in [0, 2]; kick factors R_n = 1 + delta_n with
                     delta_n uniform on [-L_A/2, +L_A/2]
    period_level:    L_P in [0, 1); pulse n fires at scaled time n + d_n with
                     d_n uniform on [-L_P/2, +L_P/2], d_0 = 0.  Offsets are
                     attached to the regular grid, not accumulated, so the
                     pulse clock never drifts.
    se_probability:  spontaneous-emission probability per atom per pulse
    """

    amplitude_level: float = field(default=0.0, metadata={"min": 0, "max": AMPLITUDE_LEVEL_MAX})
    period_level: float = field(default=0.0, metadata={"min": 0, "below": PERIOD_LEVEL_MAX})
    se_probability: float = field(default=0.0, metadata={"min": 0, "max": 1})
    master_seed: int = field(default=0, metadata={"min": 0})
    realization_index: int = field(default=0, metadata={"min": 0})

    def __post_init__(self) -> None:
        check_fields(self, NoiseLevelError)


@dataclass(frozen=True)
class NoiseRealization:
    """One concrete pulse train: the numbers every atom of a run shares.

    amplitude_factors: R_n, shape (n_kicks,)
    period_offsets:    d_n, shape (n_kicks,), d_0 = 0
    """

    config: NoiseConfig
    amplitude_factors: np.ndarray
    period_offsets: np.ndarray


def sample_realization(cfg: NoiseConfig, n_kicks: int) -> NoiseRealization:
    """Draw one pulse train from the config's amplitude and period streams."""
    if n_kicks < 0:
        raise ValueError(f"n_kicks must be >= 0, got {n_kicks}")

    half_a = 0.5 * cfg.amplitude_level
    rng = stream_rng(cfg.master_seed, cfg.realization_index, STREAM_AMPLITUDE)
    factors = 1.0 + rng.uniform(-half_a, half_a, n_kicks) if half_a > 0 else np.ones(n_kicks)

    half_p = 0.5 * cfg.period_level
    rng = stream_rng(cfg.master_seed, cfg.realization_index, STREAM_PERIOD)
    offsets = rng.uniform(-half_p, half_p, n_kicks) if half_p > 0 else np.zeros(n_kicks)
    if n_kicks > 0:
        offsets[0] = 0.0
    return NoiseRealization(config=cfg, amplitude_factors=factors, period_offsets=offsets)


def realization_mean(
    cfg: NoiseConfig, n_realizations: int, run: Callable[[NoiseConfig], np.ndarray | float]
) -> tuple[np.ndarray, np.ndarray]:
    """Mean of `run` over realizations and its s.e.m., zero for one realization.

    Realization r = 0..R-1 runs with realization_index = cfg.realization_index
    + r, so it draws its own pulse train, SE schedule and cloud; `run` maps
    that config to the realization's result, a number or an array (for
    `ensemble_energy` and `eps_energy`, the energy after every kick).  The
    s.e.m. is the spread across realization results, element by element.
    """
    if n_realizations < 1:
        raise ValueError(f"n_realizations must be >= 1, got {n_realizations}")
    runs = np.array([
        run(replace(cfg, realization_index=cfg.realization_index + r))
        for r in range(n_realizations)
    ])
    mean = runs.mean(axis=0)
    if n_realizations > 1:
        return mean, runs.std(axis=0, ddof=1) / math.sqrt(n_realizations)
    return mean, np.zeros_like(mean)


def free_evolution_intervals(period_offsets: np.ndarray) -> np.ndarray:
    """Gaps between consecutive pulses: dtau_n = 1 + d_{n+1} - d_n.

    N pulses give N-1 intervals, summing to N-1 + d_{N-1} (offsets attach to
    the grid, so total elapsed time keeps the grid's length).  Raises if any
    interval is not positive, which a level below 1 cannot produce.
    """
    offsets = np.asarray(period_offsets, dtype=float)
    if offsets.ndim != 1:
        raise ValueError("period_offsets must be one-dimensional")
    intervals = 1.0 + np.diff(offsets)
    if np.any(intervals <= 0.0):
        bad = int(np.argmax(intervals <= 0.0))
        raise IntervalError(
            f"interval between pulses {bad} and {bad + 1} is {intervals[bad]:g} <= 0"
        )
    return intervals
