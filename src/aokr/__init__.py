"""Simulation laboratory for the atom-optics kicked rotor with pulse-train noise.

Layers, bottom up: `core` holds the scaled kicked-rotor parameters and maps
a pulse period to hbar_eff; `noise` draws reproducible pulse-train noise
realizations (amplitude, period, spontaneous emission); `qkr` evolves atom
clouds on the momentum ladder to their mean energy after each kick; `epsmap`
runs the classical map approximations valid near the quantum resonances;
`theory` supplies the closed-form diffusion rates and resonance peak
heights; `cli` scans any of them over a pulse-period range to CSV and JSON.
"""

__version__ = "0.1.0"

from .core import OMEGA_R_CS, ScaledParams, hbar_from_period
from .noise import (
    AMPLITUDE_LEVEL_MAX,
    PERIOD_LEVEL_MAX,
    IntervalError,
    NoiseConfig,
    NoiseLevelError,
    NoiseRealization,
    free_evolution_intervals,
    sample_realization,
    stream_rng,
)
from .theory import (
    UnsupportedLevelError,
    bessel_j_row,
    diffusion_rate,
    diffusion_rate_with_noise,
    kick_strength_from_energy,
    noise_averaged_bessel,
    quantum_kick_strength,
)
from .qkr import (
    AUTO_CUTOFF_CAP,
    CutoffError,
    EnsembleSpec,
    ensemble_energy,
    ensemble_energy_history,
    sample_atoms,
)
from .epsmap import (
    EpsilonZeroError,
    EpsParams,
    UnsupportedNoiseError,
    eps_energy,
    eps_energy_history,
    eps_step,
    phase_portrait,
)
