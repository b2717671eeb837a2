"""The plain standard map, a brute-force oracle for the diffusion rates.

Dropping the gauge terms (pi m, hbar_eff beta) and the eps rescaling of
`aokr.epsmap` gives the ordinary standard map, used here as a brute-force
oracle for the kick-to-kick correlation expansion of the diffusion rate.
Both c08 (`test_acceptance.py`) and `test_epsmap.py` run this one copy.
"""

import math

import numpy as np

from aokr.epsmap import _require_amplitude_only, _stratified_phases
from aokr.noise import (
    STREAM_ATOM_MOMENTA,
    STREAM_MAP_PHASE,
    NoiseConfig,
    realization_mean,
    sample_realization,
    stream_rng,
)
from aokr.qkr import _norm_ppf

TWO_PI = 2.0 * math.pi
_RHO_SIGMA = 4.0 * TWO_PI  # broad momentum start for the standard-map oracle


def classical_map_energy(
    kappa: float,
    hbar_eff: float,
    n_kicks: int = 5,
    n_traj: int = 100_000,
    cfg: NoiseConfig = NoiseConfig(),
    n_realizations: int = 1,
    fit_range: tuple[int, int] = (0, 5),
) -> tuple[float, float]:
    """Energy growth rate of the plain standard map, by least squares.

    phi' = phi + rho; rho' = rho + kappa * R * sin(phi'), with uniform
    start angles and a broad Gaussian momentum spread (narrow starts leave
    a spurious start-angle correlation in the first kicks).  Returns the
    slope of <rho^2> / (2 hbar_eff^2) against kick number over the
    inclusive window fit_range, averaged over noise realizations, with its
    s.e.m.  hbar_eff only sets the energy units for comparison with the
    quantum-facing rate formulas.

    With amplitude noise the first two kicks run at the bare quasilinear
    rate before the kick-to-kick correlations switch on, so the default
    early window overestimates the asymptotic rate by several percent;
    pass a later window (say n_kicks=16, fit_range=(8, 16)) to measure
    the settled rate in that case.
    """
    if kappa < 0.0:
        raise ValueError(f"kappa must be >= 0, got {kappa}")
    if hbar_eff <= 0.0:
        raise ValueError(f"hbar_eff must be positive, got {hbar_eff}")
    if n_traj < 2:
        raise ValueError(f"n_traj must be >= 2, got {n_traj}")
    lo, hi = fit_range
    if not 0 <= lo < hi <= n_kicks:
        raise ValueError(
            f"fit_range must satisfy 0 <= lo < hi <= n_kicks, got {fit_range} with n_kicks={n_kicks}"
        )
    _require_amplitude_only(cfg)

    kicks = np.arange(lo, hi + 1, dtype=float)

    def run(rcfg: NoiseConfig) -> float:
        factors = sample_realization(rcfg, n_kicks).amplitude_factors
        rng_phi = stream_rng(rcfg.master_seed, rcfg.realization_index, STREAM_MAP_PHASE)
        phi = _stratified_phases(rng_phi, n_traj)
        rng_rho = stream_rng(rcfg.master_seed, rcfg.realization_index, STREAM_ATOM_MOMENTA)
        rho = _RHO_SIGMA * _norm_ppf((np.arange(n_traj) + rng_rho.random(n_traj)) / n_traj)

        energy = np.empty(n_kicks + 1)
        energy[0] = np.mean(rho**2)
        for n in range(n_kicks):
            phi = np.mod(phi + rho, TWO_PI)
            rho = rho + kappa * factors[n] * np.sin(phi)
            energy[n + 1] = np.mean(rho**2)
        energy /= 2.0 * hbar_eff**2
        return float(np.polyfit(kicks, energy[lo : hi + 1], 1)[0])

    mean, sem = realization_mean(cfg, n_realizations, run)
    return float(mean), float(sem)
