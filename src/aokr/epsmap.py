"""Classical map approximations near a quantum resonance.

Close to hbar_eff = 2 pi m the ladder dynamics of one quasimomentum class
reduces to an area-preserving map in the detuning-rescaled momentum
rho = epsilon * (ladder index):

    phi' = phi + sign(eps) rho + pi m + hbar_eff beta   (mod 2 pi)
    rho' = rho + |eps| * kick_ratio * R * sin(phi')

with R the per-kick amplitude factor.  Kinetic energies come back through
E = <rho^2> / (2 eps^2), so the model stays finite while eps shrinks; at
eps = 0 the map itself degenerates (the kick term carries a factor |eps|)
and the analytic resonant limit is used instead, where momentum after n
kicks is the phasor sum rho_n / |eps| = n0 + kick_ratio * sum_s R_s
sin(phi_0 + s a) with per-kick phase advance a = pi m + hbar_eff beta.

Every iteration runs in place through `_kick`, which reduces the angle as
phi - 2 pi floor(phi / 2 pi) in four passes: np.mod bit for bit on [0, 40).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .core import check_fields
from .noise import (
    STREAM_MAP_PHASE,
    NoiseConfig,
    realization_mean,
    sample_realization,
    stream_rng,
)
from .qkr import EnsembleSpec, sample_atoms

TWO_PI = 2.0 * math.pi
EPS_WARN_LIMIT = 0.5
_LIMIT_BLOCK = 2**16  # atom-kicks per block of the eps = 0 limit, 1 MB per complex array


class EpsilonZeroError(ValueError):
    """The map degenerates at eps = 0, where no phase portrait exists."""


class UnsupportedNoiseError(ValueError):
    """Only amplitude noise has a map counterpart here."""


@dataclass(frozen=True)
class EpsParams:
    """Map parameters: resonance detuning and kick strength.

    epsilon is the distance of hbar_eff from the resonance 2 pi m (either
    sign); kick_ratio is kappa / hbar_eff; the resonance order m also sets
    the pi * m gauge term (the free phase pi m n^2 equals pi m n modulo
    2 pi).  The quasimomentum beta is per trajectory and goes to `eps_step`.
    """

    epsilon: float
    kick_ratio: float
    resonance_order: int = 1

    def __post_init__(self) -> None:
        check_fields(self)
        if self.kick_ratio < 0.0:
            raise ValueError(f"kick_ratio must be >= 0, got {self.kick_ratio}")
        if self.resonance_order < 1:
            raise ValueError(
                f"resonance_order must be a positive integer, got {self.resonance_order}"
            )
        if abs(self.epsilon) > EPS_WARN_LIMIT:
            warnings.warn(
                f"|epsilon| = {abs(self.epsilon)} is large for a near-resonance model",
                stacklevel=2,
            )

    @property
    def hbar_eff(self) -> float:
        return TWO_PI * self.resonance_order + self.epsilon


def _phase_advance(p: EpsParams, beta) -> np.ndarray | float:
    return math.pi * p.resonance_order + p.hbar_eff * np.asarray(beta, dtype=float)


def _kick(phi, rho, epsilon: float, advance, kick, buf: np.ndarray) -> None:
    """In place: phi += sign(eps) rho + advance (mod 2 pi), then rho += kick sin(phi).

    advance = pi m + hbar_eff beta and kick = |eps| kick_ratio R g, scalar or
    per trajectory; buf is scratch shaped like phi.
    """
    if epsilon:  # at eps = 0, rho = eps n turns nothing
        (np.add if epsilon > 0.0 else np.subtract)(phi, rho, out=phi)
    np.add(phi, advance, out=phi)
    np.floor(np.divide(phi, TWO_PI, out=buf), out=buf)
    np.subtract(phi, np.multiply(buf, TWO_PI, out=buf), out=phi)
    np.add(rho, np.multiply(kick, np.sin(phi, out=buf), out=buf), out=rho)


def eps_step(phi, rho, p: EpsParams, kick_factor=1.0, beta=0.0):
    """One map iteration; phi updates first and feeds the kick.

    phi, rho may be scalars or arrays (broadcast together).  kick_factor is
    the per-kick amplitude factor; beta is the quasimomentum, scalar or per
    trajectory.  The inputs are copied, never changed.
    """
    arrays = np.broadcast_arrays(phi, rho, kick_factor, beta)
    phi, rho, factor, beta = (np.array(x, dtype=float) for x in arrays)
    kick = abs(p.epsilon) * p.kick_ratio * factor
    _kick(phi, rho, p.epsilon, _phase_advance(p, beta), kick, np.empty_like(phi))
    return phi[()], rho[()]


def _require_amplitude_only(cfg: NoiseConfig) -> None:
    if cfg.period_level != 0.0 or cfg.se_probability != 0.0:
        raise UnsupportedNoiseError(
            "the map models amplitude noise only; period noise and spontaneous "
            "emission have no counterpart here"
        )


def _stratified_phases(rng: np.random.Generator, n: int) -> np.ndarray:
    """Uniform [0, 2pi) start angles, stratified then shuffled.

    The shuffle decorrelates the angle strata from any other stratified
    per-trajectory quantity (quasimomentum, start momentum).
    """
    phases = TWO_PI * (np.arange(n) + rng.random(n)) / n
    return rng.permutation(phases)


def _resonant_limit_history(
    p: EpsParams,
    n_kicks: int,
    betas: np.ndarray,
    n0s: np.ndarray,
    gains: np.ndarray,
    factors: np.ndarray,
) -> np.ndarray:
    """eps -> 0 limit of the rescaled energies after kicks 0..n_kicks.

    Momentum becomes the phasor sum rho_n / |eps| = n0 + g r sum_s R_s
    sin(phi_0 + s a); averaging the start angle analytically leaves
    E_n = <n0^2/2 + (g r)^2 |sum_s R_s e^(i s a)|^2 / 4> per trajectory.
    The sums run over blocks of about _LIMIT_BLOCK atom-kicks, each carrying
    every atom's sum on.  A block of two kicks or more keeps the atom mean a
    column reduction, so every value is bit for bit that of one block.
    """
    a = _phase_advance(p, betas)
    base = n0s.astype(float)[:, None] ** 2 / 2.0
    growth = (gains * p.kick_ratio)[:, None] ** 2 / 4.0
    out = np.empty(n_kicks + 1)
    out[0] = float(np.mean(base))
    block, start, carry = max(2, _LIMIT_BLOCK // a.size), 0, 0.0
    while start < n_kicks:
        stop = start + block if n_kicks - start - block >= 2 else n_kicks
        steps = np.arange(start + 1, stop + 1)
        partial = factors[None, start:stop] * np.exp(1j * np.outer(a, steps))
        partial[:, 0] += carry
        np.cumsum(partial, axis=1, out=partial)
        carry = partial[:, -1].copy()
        out[start + 1 : stop + 1] = np.mean(base + growth * np.abs(partial) ** 2, axis=0)
        start = stop
    return out


def eps_energy(
    p: EpsParams,
    n_kicks: int,
    spec: EnsembleSpec,
    cfg: NoiseConfig = NoiseConfig(),
    n_realizations: int = 1,
) -> tuple[np.ndarray, np.ndarray]:
    """Rescaled mean energy E_n = <rho_n^2> / (2 eps^2) after kicks 0..n_kicks, with s.e.m.

    The ensemble (trajectory count, quasimomentum mode, momentum spread,
    per-trajectory kick factors) follows `spec` exactly as in the quantum
    engine, with rho_0 = |eps| * n0, so the two models share initial
    conditions and noise streams realization by realization.  At eps = 0
    the analytic resonant limit is evaluated instead of iterating.
    """
    if n_kicks < 0:
        raise ValueError(f"n_kicks must be >= 0, got {n_kicks}")
    _require_amplitude_only(cfg)
    if spec.p_max is not None:
        raise ValueError("detection windows are not modeled for map ensembles")

    def run(rcfg: NoiseConfig) -> np.ndarray:
        factors = sample_realization(rcfg, n_kicks, 1).amplitude_factors
        n0s, betas, gains = sample_atoms(spec, rcfg)
        if p.epsilon == 0.0:
            return _resonant_limit_history(p, n_kicks, betas, n0s, gains, factors)

        rng = stream_rng(rcfg.master_seed, rcfg.realization_index, STREAM_MAP_PHASE)
        phi = _stratified_phases(rng, spec.n_atoms)
        rho = abs(p.epsilon) * n0s.astype(float)
        advance, strength = _phase_advance(p, betas), abs(p.epsilon) * p.kick_ratio
        kick, buf = np.empty_like(rho), np.empty_like(rho)
        scale = 0.5 / p.epsilon**2
        history = np.empty(n_kicks + 1)
        history[0] = float(np.mean(np.square(rho, out=buf))) * scale
        for n in range(n_kicks):
            np.multiply(gains, factors[n], out=kick)
            np.multiply(kick, strength, out=kick)  # (|eps| k) (R g), the order eps_step uses
            _kick(phi, rho, p.epsilon, advance, kick, buf)
            history[n + 1] = float(np.mean(np.square(rho, out=buf))) * scale
        return history

    return realization_mean(cfg, n_realizations, run)


def phase_portrait(
    p: EpsParams,
    n_phi: int = 16,
    n_rho: int = 16,
    n_iters: int = 128,
    cfg: NoiseConfig = NoiseConfig(),
) -> np.ndarray:
    """Iterate a uniform grid of starts and record every visited point.

    Returns an array of shape (n_phi * n_rho * (n_iters + 1), 2) holding
    (phi, rho mod 2pi) rows: the initial grid plus one row set per
    iteration.  rho is folded into [0, 2pi) because the map commutes with
    2pi shifts of rho.  Amplitude noise draws one realization for the whole
    grid; n_iters = 0 returns exactly the initial grid.
    """
    if n_phi < 1 or n_rho < 1:
        raise ValueError(f"grid must be at least 1x1, got {n_phi}x{n_rho}")
    if n_iters < 0:
        raise ValueError(f"n_iters must be >= 0, got {n_iters}")
    _require_amplitude_only(cfg)
    if p.epsilon == 0.0:
        raise EpsilonZeroError("eps = 0 degenerates the map; no portrait exists")

    factors = sample_realization(cfg, n_iters, 1).amplitude_factors
    phi = np.repeat(TWO_PI * (np.arange(n_phi) + 0.5) / n_phi, n_rho)
    rho = np.tile(TWO_PI * (np.arange(n_rho) + 0.5) / n_rho, n_phi)
    points = np.empty((n_phi * n_rho * (n_iters + 1), 2))
    points[: phi.size, 0] = phi
    points[: phi.size, 1] = rho
    advance, strength = _phase_advance(p, 0.0), abs(p.epsilon) * p.kick_ratio
    buf = np.empty_like(phi)
    for n in range(n_iters):
        _kick(phi, rho, p.epsilon, advance, strength * factors[n], buf)
        block = slice((n + 1) * phi.size, (n + 2) * phi.size)
        points[block, 0] = phi
        points[block, 1] = np.mod(rho, TWO_PI)
    return points
