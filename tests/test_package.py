"""The package namespace: every public name stays importable from `aokr`."""

import aokr

# the names `aokr.__all__` listed before the single-atom operators `kick`,
# `free_evolve` and `reshuffle` were folded into the batched stepper
PUBLIC_NAMES = """
    __version__ OMEGA_R_CS DetuningError LabParams ScaledParams effective_potential
    hbar_from_period scale_params AMPLITUDE_LEVEL_MAX PERIOD_LEVEL_MAX IntervalError
    NoiseConfig NoiseLevelError NoiseRealization free_evolution_intervals
    sample_realization stream_rng QuadratureError UnsupportedLevelError bessel_j
    bessel_j_row diffusion_curve diffusion_rate diffusion_rate_with_noise
    kick_strength_from_energy noise_averaged_bessel quantum_kick_strength
    resonance_height write_diffusion_curve DEFAULT_CUTOFF CutoffError EnsembleSpec
    MomentumDistribution QuantumState ensemble_energy ensemble_energy_history
    evolve_atom momentum_distribution plane_wave sample_atoms EpsilonZeroError
    EpsParams UnsupportedNoiseError classical_map_energy eps_energy eps_energy_history
    eps_step eps_step_inverse phase_portrait
""".split()


def test_package_exports_every_public_name():
    assert len(PUBLIC_NAMES) == 49
    missing = [name for name in PUBLIC_NAMES if not hasattr(aokr, name)]
    assert missing == []
    for removed in ("kick", "free_evolve", "reshuffle"):
        assert not hasattr(aokr, removed)
        assert not hasattr(aokr.qkr, removed)
