"""Quantum kicked-rotor dynamics on the two-photon-recoil momentum ladder.

Quasimomentum beta is conserved by the kicks, so each atom lives on its own
ladder p = n + beta (units of two photon recoils) and is stored as the
complex amplitude vector c_n, n in [-M, M].  One pulse period applies

    kick:  c' = exp(i k_eff cos(phi)) c        (k_eff = kappa_n / hbar_eff)
    free:  c_n *= exp(-i hbar_eff (n + beta)^2 dtau / 2)

The kick is diagonal on an angle grid; with 2M+1 grid points the FFT round
trip is exactly unitary, and because the kick is diagonal there the natural
ladder ordering can be fed to the FFT without any index shuffling (the
implied index offset cancels between the transform pair).  A direct Bessel
convolution (matrix elements <n'|exp(i k cos phi)|n> = i^(n'-n) J_{n'-n}(k))
is kept as an independent route; both must agree to high precision.

At hbar_eff = 2 pi m the free phases collapse and kicks add coherently for
the resonant quasimomentum class; a plane-wave start then reaches the
ballistic energy (k N)^2 / 4.  Spontaneous emission is modeled as a random
replacement of beta (photon-recoil coarse graining), which breaks the ladder
coherence without touching the amplitude vector.

Energies are E = <(n + beta)^2> / 2 throughout.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from typing import IO

import numpy as np

from .core import ScaledParams
from .theory import bessel_j_row
from .noise import (
    STREAM_ATOM_BETA,
    STREAM_ATOM_MOMENTA,
    STREAM_KICK_SPREAD,
    NoiseConfig,
    NoiseRealization,
    free_evolution_intervals,
    sample_realization,
    stream_rng,
)

DEFAULT_CUTOFF = 512
TAIL_FRACTION = 0.9
TAIL_TOLERANCE = 1e-8
NORM_TOLERANCE = 1e-10
_CHUNK_ATOMS = 2048
_KERNEL_FLOOR = 1e-18
DEFAULT_BIN_WIDTH = 0.29  # imaging resolution, two-photon recoils


class CutoffError(RuntimeError):
    """Probability reached the edge of the momentum ladder; raise the cutoff."""


# ---------------------------------------------------------------------------
# single-atom state and operations
# ---------------------------------------------------------------------------

@dataclass
class QuantumState:
    """Amplitudes over ladder sites n = -M .. M at fixed quasimomentum.

    kick_factor is a per-atom multiplier on the kick strength (beam
    inhomogeneity across the cloud); 1.0 for a clean beam.
    """

    amplitudes: np.ndarray
    beta: float
    kick_factor: float = 1.0

    def __post_init__(self) -> None:
        self.amplitudes = np.asarray(self.amplitudes, dtype=complex)
        if self.amplitudes.ndim != 1 or len(self.amplitudes) % 2 != 1:
            raise ValueError("amplitudes must be a 1-d vector of odd length 2M+1")
        if not 0.0 <= self.beta < 1.0:
            raise ValueError(f"beta must lie in [0, 1), got {self.beta}")
        if self.kick_factor <= 0.0:
            raise ValueError(f"kick_factor must be positive, got {self.kick_factor}")

    @property
    def cutoff(self) -> int:
        return (len(self.amplitudes) - 1) // 2

    @property
    def ladder(self) -> np.ndarray:
        """Integer ladder indices n."""
        m = self.cutoff
        return np.arange(-m, m + 1)

    @property
    def momenta(self) -> np.ndarray:
        """Physical momenta n + beta in two-photon-recoil units."""
        return self.ladder + self.beta

    @property
    def norm(self) -> float:
        return float(np.sum(np.abs(self.amplitudes) ** 2))

    @property
    def energy(self) -> float:
        """Kinetic energy <(n + beta)^2> / 2."""
        p = self.momenta
        return float(np.sum(np.abs(self.amplitudes) ** 2 * p**2)) / 2.0

    def tail_mass(self) -> float:
        """Probability beyond |n| > 0.9 M, the cutoff health indicator."""
        mask = np.abs(self.ladder) > TAIL_FRACTION * self.cutoff
        return float(np.sum(np.abs(self.amplitudes[mask]) ** 2))

    def validate(self) -> None:
        if abs(self.norm - 1.0) > NORM_TOLERANCE:
            raise CutoffError(f"norm drifted to {self.norm!r}; ladder cutoff too small")
        if self.tail_mass() > TAIL_TOLERANCE:
            raise CutoffError(
                f"tail mass {self.tail_mass():.3e} beyond 0.9M exceeds {TAIL_TOLERANCE}; "
                f"raise the cutoff above M = {self.cutoff}"
            )


def plane_wave(cutoff: int, n0: int = 0, beta: float = 0.0, kick_factor: float = 1.0) -> QuantumState:
    """Momentum eigenstate |n0 + beta> on a ladder of half-width `cutoff`."""
    if cutoff < 1:
        raise ValueError(f"cutoff must be >= 1, got {cutoff}")
    if abs(n0) > cutoff:
        raise CutoffError(f"initial index n0 = {n0} lies outside the ladder |n| <= {cutoff}")
    amps = np.zeros(2 * cutoff + 1, dtype=complex)
    amps[cutoff + n0] = 1.0
    return QuantumState(amplitudes=amps, beta=beta, kick_factor=kick_factor)


def _kick_kernel(k_eff: float, l_size: int) -> np.ndarray:
    """Convolution kernel i^d J_d(k_eff), d = -D .. D, truncated below 1e-18."""
    d_max = min(int(abs(k_eff)) + 45, l_size - 1)
    row = bessel_j_row(d_max, abs(k_eff))
    keep = max(np.argmax(np.abs(row[::-1]) > _KERNEL_FLOOR), 0)
    d_max -= keep
    row = row[: d_max + 1]
    d = np.arange(-d_max, d_max + 1)
    vals = row[np.abs(d)].astype(complex)
    if k_eff >= 0:
        vals[d < 0] *= (-1.0) ** np.abs(d[d < 0])  # J_{-d} = (-1)^d J_d
        return (1j) ** d * vals
    vals[d > 0] *= (-1.0) ** d[d > 0]  # J_d(-x) = (-1)^d J_d(x)
    return (1j) ** d * vals


def kick(state: QuantumState, kappa_n: float, hbar_eff: float, method: str = "spectral") -> QuantumState:
    """Apply one kick exp(i k_eff cos phi), k_eff = kick_factor * kappa_n / hbar_eff.

    method "spectral": diagonalize on the 2M+1-point angle grid (exact
    unitary).  method "bessel": direct convolution with the Bessel kernel.
    The two agree amplitude-wise to better than 1e-10 whenever the state
    respects the tail invariant.
    """
    if hbar_eff <= 0.0:
        raise ValueError(f"hbar_eff must be positive, got {hbar_eff}")
    k_eff = state.kick_factor * kappa_n / hbar_eff
    c = state.amplitudes
    if method == "spectral":
        l_size = len(c)
        phi = 2.0 * np.pi * np.arange(l_size) / l_size
        out = np.fft.fft(np.exp(1j * k_eff * np.cos(phi)) * np.fft.ifft(c))
    elif method == "bessel":
        out = np.convolve(c, _kick_kernel(k_eff, len(c)), mode="same")
    else:
        raise ValueError(f"method must be 'spectral' or 'bessel', got {method!r}")
    new = QuantumState(amplitudes=out, beta=state.beta, kick_factor=state.kick_factor)
    new.validate()
    return new


def free_evolve(state: QuantumState, dtau: float, hbar_eff: float) -> QuantumState:
    """Free flight for a scaled time dtau: phases exp(-i hbar (n+beta)^2 dtau / 2)."""
    if hbar_eff <= 0.0:
        raise ValueError(f"hbar_eff must be positive, got {hbar_eff}")
    p = state.momenta
    phase = np.exp(-0.5j * hbar_eff * dtau * p**2)
    return QuantumState(
        amplitudes=state.amplitudes * phase, beta=state.beta, kick_factor=state.kick_factor
    )


def reshuffle(state: QuantumState, new_beta: float) -> QuantumState:
    """Spontaneous-emission event: replace beta, keep the amplitude vector."""
    return QuantumState(
        amplitudes=state.amplitudes.copy(), beta=new_beta, kick_factor=state.kick_factor
    )


def evolve_atom(
    state: QuantumState,
    params: ScaledParams,
    realization: NoiseRealization,
    atom_index: int = 0,
    method: str = "spectral",
) -> QuantumState:
    """Drive one atom through the full pulse train of a noise realization.

    Timeline: kick 0, gap, kick 1, gap, .. , kick N-1.  An SE reshuffle
    fires immediately after its kick (the final kick included).  N = 0
    returns the state untouched.
    """
    n_kicks = params.kick_count
    if n_kicks == 0:
        return state
    if realization.n_kicks < n_kicks:
        raise ValueError(
            f"realization holds {realization.n_kicks} kicks, need {n_kicks}"
        )
    intervals = free_evolution_intervals(realization.period_offsets[:n_kicks])
    for s in range(n_kicks):
        kappa_n = params.kick_strength * realization.amplitude_factors[s]
        state = kick(state, kappa_n, params.hbar_eff, method=method)
        if realization.se_events[atom_index, s]:
            state = reshuffle(state, float(realization.se_betas[atom_index, s]))
        if s < n_kicks - 1:
            state = free_evolve(state, float(intervals[s]), params.hbar_eff)
    return state


# ---------------------------------------------------------------------------
# ensembles
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EnsembleSpec:
    """Initial cloud: how many atoms, their momenta, and numeric knobs.

    beta_mode "thermal": momenta from a Gaussian of width sigma_p (stratified
    inverse-CDF sampling), ladder index n0 = floor(p), beta = frac(p).
    "uniform": n0 = 0 with beta stratified uniformly on [0, 1) (the flat
    quasimomentum ensemble of resonance peak theory).  "fixed": n0 = 0,
    beta = beta_fixed for every atom.  Explicit `momenta` override the draw.

    kick_spread: fractional rms of the per-atom kick factor (beam profile).
    p_max: detection window; probability with |p| > p_max is discarded and
    the remaining cloud renormalized as a whole.  None = no window.
    """

    n_atoms: int
    sigma_p: float = 2.5
    beta_mode: str = "thermal"
    beta_fixed: float = 0.0
    kick_spread: float = 0.0
    p_max: float | None = None
    cutoff: int = DEFAULT_CUTOFF
    momenta: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if self.n_atoms < 1:
            raise ValueError(f"n_atoms must be >= 1, got {self.n_atoms}")
        if self.beta_mode not in ("thermal", "uniform", "fixed"):
            raise ValueError(
                f"beta_mode must be 'thermal', 'uniform' or 'fixed', got {self.beta_mode!r}"
            )
        if self.sigma_p <= 0.0:
            raise ValueError(f"sigma_p must be positive, got {self.sigma_p}")
        if not 0.0 <= self.beta_fixed < 1.0:
            raise ValueError(f"beta_fixed must lie in [0, 1), got {self.beta_fixed}")
        if self.kick_spread < 0.0:
            raise ValueError(f"kick_spread must be >= 0, got {self.kick_spread}")
        if self.p_max is not None and self.p_max <= 0.0:
            raise ValueError(f"p_max must be positive, got {self.p_max}")
        if self.cutoff < 8:
            raise ValueError(f"cutoff must be >= 8, got {self.cutoff}")
        if self.momenta is not None and len(self.momenta) != self.n_atoms:
            raise ValueError(
                f"momenta holds {len(self.momenta)} entries but n_atoms = {self.n_atoms}"
            )


def _norm_ppf(u: np.ndarray) -> np.ndarray:
    """Inverse standard-normal CDF (Acklam's rational fit, |rel err| < 1.2e-9)."""
    a = (-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
         1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00)
    b = (-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
         6.680131188771972e+01, -1.328068155288572e+01)
    c = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
         -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00)
    d = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
         3.754408661907416e+00)
    u = np.asarray(u, dtype=float)
    x = np.empty_like(u)
    lo, hi = 0.02425, 1.0 - 0.02425
    low = u < lo
    high = u > hi
    mid = ~(low | high)
    if np.any(mid):
        q = u[mid] - 0.5
        r = q * q
        x[mid] = (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) * q / (
            ((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0
        )
    if np.any(low):
        q = np.sqrt(-2.0 * np.log(u[low]))
        x[low] = (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / (
            (((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0
        )
    if np.any(high):
        q = np.sqrt(-2.0 * np.log(1.0 - u[high]))
        x[high] = -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / (
            (((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0
        )
    return x


def sample_atoms(spec: EnsembleSpec, cfg: NoiseConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Initial (n0, beta, kick_factor) arrays for one realization of the cloud.

    Stratified draws keep the ensemble average close to the distributional
    mean at small atom counts while every number stays a deterministic
    function of (master_seed, realization_index).
    """
    n = spec.n_atoms
    if spec.momenta is not None:
        p = np.asarray(spec.momenta, dtype=float)
        n0 = np.floor(p).astype(int)
        beta = p - np.floor(p)
    elif spec.beta_mode == "thermal":
        rng = stream_rng(cfg.master_seed, cfg.realization_index, STREAM_ATOM_MOMENTA)
        u = (np.arange(n) + rng.random(n)) / n
        p = spec.sigma_p * _norm_ppf(u)
        n0 = np.floor(p).astype(int)
        beta = p - np.floor(p)
    elif spec.beta_mode == "uniform":
        rng = stream_rng(cfg.master_seed, cfg.realization_index, STREAM_ATOM_BETA)
        beta = (np.arange(n) + rng.random(n)) / n
        n0 = np.zeros(n, dtype=int)
    else:  # fixed
        beta = np.full(n, spec.beta_fixed)
        n0 = np.zeros(n, dtype=int)

    if np.max(np.abs(n0)) > spec.cutoff // 2:
        raise CutoffError(
            f"initial momenta reach |n0| = {int(np.max(np.abs(n0)))}, "
            f"too close to the cutoff M = {spec.cutoff}"
        )

    if spec.kick_spread > 0.0:
        rng = stream_rng(cfg.master_seed, cfg.realization_index, STREAM_KICK_SPREAD)
        g = 1.0 + spec.kick_spread * rng.standard_normal(n)
        while np.any(g <= 0.0):  # redraw the unphysical tail
            bad = g <= 0.0
            g[bad] = 1.0 + spec.kick_spread * rng.standard_normal(int(np.sum(bad)))
    else:
        g = np.ones(n)
    return n0, beta, g


def _ensemble_arrays(
    spec: EnsembleSpec, params: ScaledParams, realization: NoiseRealization
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Evolve the whole cloud; returns (energies over kicks, final |c|^2, final beta).

    Vectorized over atoms in chunks; all atoms of a realization share the
    pulse train, so the kick phase is computed once per kick unless the
    per-atom kick factors differ.
    """
    n_kicks = params.kick_count
    m = spec.cutoff
    l_size = 2 * m + 1
    n_grid = np.arange(-m, m + 1)
    phi = 2.0 * np.pi * np.arange(l_size) / l_size
    cos_phi = np.cos(phi)
    hbar = params.hbar_eff

    n0s, betas, gs = sample_atoms(spec, realization.config)
    intervals = (
        free_evolution_intervals(realization.period_offsets[:n_kicks])
        if n_kicks > 1
        else np.empty(0)
    )
    uniform_gaps = bool(np.all(intervals == 1.0)) if n_kicks > 1 else True
    common_kick = spec.kick_spread == 0.0

    total_energy = np.zeros(n_kicks + 1)
    total_weight = np.zeros(n_kicks + 1)
    final_prob = np.empty((spec.n_atoms, l_size))
    final_beta = np.empty(spec.n_atoms)

    for lo in range(0, spec.n_atoms, _CHUNK_ATOMS):
        hi = min(lo + _CHUNK_ATOMS, spec.n_atoms)
        idx = np.arange(lo, hi)
        beta = betas[lo:hi].copy()
        g = gs[lo:hi]
        c = np.zeros((hi - lo, l_size), dtype=complex)
        c[np.arange(hi - lo), m + n0s[lo:hi]] = 1.0

        pgrid = n_grid[None, :] + beta[:, None]
        p2 = pgrid**2
        free_unit = np.exp(-0.5j * hbar * p2) if uniform_gaps else None

        e, w = _windowed_energy(np.abs(c) ** 2, p2, spec.p_max)
        total_energy[0] += e
        total_weight[0] += w

        for s in range(n_kicks):
            k_eff = params.kick_strength * realization.amplitude_factors[s] / hbar
            if common_kick:
                kick_phase = np.exp(1j * (k_eff * g[0]) * cos_phi)[None, :]
            else:
                kick_phase = np.exp(1j * (k_eff * g)[:, None] * cos_phi[None, :])
            c = np.fft.fft(kick_phase * np.fft.ifft(c, axis=1), axis=1)

            hit = realization.se_events[lo:hi, s]
            if hit.any():
                beta[hit] = realization.se_betas[lo:hi, s][hit]
                pgrid[hit] = n_grid[None, :] + beta[hit, None]
                p2[hit] = pgrid[hit] ** 2
                if free_unit is not None:
                    free_unit[hit] = np.exp(-0.5j * hbar * p2[hit])

            prob = np.abs(c) ** 2
            tail = prob[:, np.abs(n_grid) > TAIL_FRACTION * m].sum(axis=1)
            if np.max(tail) > TAIL_TOLERANCE:
                raise CutoffError(
                    f"tail mass {np.max(tail):.3e} beyond 0.9M at kick {s + 1}; "
                    f"raise the cutoff above M = {m}"
                )
            e, w = _windowed_energy(prob, p2, spec.p_max)
            total_energy[s + 1] += e
            total_weight[s + 1] += w

            if s < n_kicks - 1:
                if free_unit is not None:
                    c *= free_unit
                else:
                    c *= np.exp((-0.5j * hbar * intervals[s]) * p2)

        final_prob[idx] = np.abs(c) ** 2
        final_beta[idx] = beta

    if np.any(total_weight <= 0.0):
        raise ValueError("detection window discarded the entire cloud")
    return total_energy / total_weight, final_prob, final_beta


def _windowed_energy(prob: np.ndarray, p2: np.ndarray, p_max: float | None) -> tuple[float, float]:
    """Sum of p^2/2 weights and total weight, restricted to the window."""
    if p_max is None:
        return float(np.sum(prob * p2)) / 2.0, float(prob.shape[0])
    mask = p2 <= p_max**2
    w = prob * mask
    return float(np.sum(w * p2)) / 2.0, float(np.sum(w))


def _realization_configs(cfg: NoiseConfig, n_realizations: int) -> list[NoiseConfig]:
    if n_realizations < 1:
        raise ValueError(f"n_realizations must be >= 1, got {n_realizations}")
    return [
        replace(cfg, realization_index=cfg.realization_index + r)
        for r in range(n_realizations)
    ]


def _mean_sem(runs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean over realizations (axis 0) and its s.e.m., zero for one realization."""
    mean = runs.mean(axis=0)
    if len(runs) > 1:
        return mean, runs.std(axis=0, ddof=1) / math.sqrt(len(runs))
    return mean, np.zeros_like(mean)


def ensemble_energy_history(
    spec: EnsembleSpec,
    params: ScaledParams,
    cfg: NoiseConfig,
    n_realizations: int = 1,
) -> tuple[np.ndarray, np.ndarray]:
    """Mean energy after each kick (index 0 = before any kick) with s.e.m.

    Realizations r = 0..R-1 use realization_index = cfg.realization_index + r;
    each draws a fresh pulse train, SE schedule and cloud.  The s.e.m. is the
    spread across realization means (zero when R = 1).
    """
    runs = np.empty((n_realizations, params.kick_count + 1))
    for i, rcfg in enumerate(_realization_configs(cfg, n_realizations)):
        realization = sample_realization(rcfg, params.kick_count, spec.n_atoms)
        runs[i], _, _ = _ensemble_arrays(spec, params, realization)
    return _mean_sem(runs)


def ensemble_energy(
    spec: EnsembleSpec,
    params: ScaledParams,
    cfg: NoiseConfig,
    n_realizations: int = 1,
) -> tuple[float, float]:
    """Mean energy after the final kick, with s.e.m. across realizations."""
    mean, sem = ensemble_energy_history(spec, params, cfg, n_realizations)
    return float(mean[-1]), float(sem[-1])


# ---------------------------------------------------------------------------
# momentum distributions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MomentumDistribution:
    """Binned cloud-momentum distribution with its energy summary.

    Probabilities sum to 1 (up to the detection window, which removes mass
    before renormalization happens cloud-wide).
    """

    momenta: np.ndarray
    probabilities: np.ndarray
    mean_energy: float
    energy_sem: float
    parameters: dict

    def to_csv(self, out: IO[str]) -> None:
        out.write(f"# meta: {json.dumps(self.parameters, sort_keys=True)}\n")
        out.write("p,probability\n")
        for p, w in zip(self.momenta, self.probabilities):
            out.write(f"{float(p)!r},{float(w)!r}\n")

    def to_json(self, out: IO[str]) -> None:
        json.dump(
            {
                "parameters": self.parameters,
                "momenta": [float(p) for p in self.momenta],
                "probabilities": [float(w) for w in self.probabilities],
                "mean_energy": self.mean_energy,
                "energy_sem": self.energy_sem,
            },
            out,
            sort_keys=True,
        )


def momentum_distribution(
    spec: EnsembleSpec,
    params: ScaledParams,
    cfg: NoiseConfig,
    n_realizations: int = 1,
    bin_width: float = DEFAULT_BIN_WIDTH,
) -> MomentumDistribution:
    """Final-time momentum distribution of the cloud, averaged over realizations."""
    if bin_width <= 0.0:
        raise ValueError(f"bin_width must be positive, got {bin_width}")
    m = spec.cutoff
    n_grid = np.arange(-m, m + 1)
    half_bins = int(math.ceil((m + 1) / bin_width))
    centers = np.arange(-half_bins, half_bins + 1) * bin_width
    hist = np.zeros(len(centers))
    energies = np.empty(n_realizations)

    for i, rcfg in enumerate(_realization_configs(cfg, n_realizations)):
        realization = sample_realization(rcfg, params.kick_count, spec.n_atoms)
        energy, prob, beta = _ensemble_arrays(spec, params, realization)
        energies[i] = energy[-1]
        p = n_grid[None, :] + beta[:, None]
        if spec.p_max is not None:
            prob = prob * (np.abs(p) <= spec.p_max)
        idx = np.clip(np.round(p / bin_width).astype(int) + half_bins, 0, len(centers) - 1)
        np.add.at(hist, idx.ravel(), prob.ravel())

    total = hist.sum()
    if total <= 0.0:
        raise ValueError("detection window discarded the entire cloud")
    mean_energy, sem = _mean_sem(energies)
    parameters = {
        "hbar_eff": params.hbar_eff,
        "kick_strength": params.kick_strength,
        "kick_count": params.kick_count,
        "n_atoms": spec.n_atoms,
        "sigma_p": spec.sigma_p,
        "beta_mode": spec.beta_mode,
        "kick_spread": spec.kick_spread,
        "p_max": spec.p_max,
        "cutoff": spec.cutoff,
        "bin_width": bin_width,
        "amplitude_level": cfg.amplitude_level,
        "period_level": cfg.period_level,
        "se_probability": cfg.se_probability,
        "master_seed": cfg.master_seed,
        "n_realizations": n_realizations,
    }
    return MomentumDistribution(
        momenta=centers,
        probabilities=hist / total,
        mean_energy=float(mean_energy),
        energy_sem=float(sem),
        parameters=parameters,
    )
