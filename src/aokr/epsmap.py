"""Classical map approximations near a quantum resonance.

Close to hbar_eff = 2 pi m the ladder dynamics of one quasimomentum class
reduces to an area-preserving map in the ladder index n (Wimberger,
Guarneri & Fishman, Nonlinearity 16:1381, 2003):

    phi' = phi + eps n + pi m + hbar_eff beta   (mod 2 pi)
    n'   = n + kick_ratio * R * sin(phi')

with R the per-kick amplitude factor and E = <n^2> / 2.  At eps = 0
`eps_energy` averages the start angle analytically over the phasor sum
n = n0 + kick_ratio * sum_s R_s sin(phi_0 + s a), a = pi m + hbar_eff beta,
carried on kick by kick.  `eps_step` and the phase portrait use
rho = |eps| n: the same kernel with eps -> sign(eps), kick |eps| kick_ratio R.

Every iteration runs in place through `_kick`, which reduces the angle as
phi - 2 pi floor(phi / 2 pi) in four passes (np.mod bit for bit on [0, 40))
and takes sin(phi) from `_sin`: a fold onto [-pi/2, pi/2] in four passes,
then Horner passes of a 9-term odd polynomial to z^17, 22 passes in all.
With the turn, the kick and the energy, an `eps_energy` kick is 33 passes
over a row of one float per trajectory, 35 with a kick spread.  They work
in three scratch rows allocated once per run.  Every pass is an add,
multiply, divide, floor or clip, each fixed to the bit by IEEE 754, so a
kick gives the same bytes whichever SIMD loops numpy dispatches, as it did
with np.sin (a scalar libm loop; numpy's vectorized transcendentals such as
np.exp differ in the last bits between loops).

The reduction is off by up to about ulp(phi), so `eps_energy`,
`phase_portrait` (`check_portrait`) and `eps_step` reject, before the first
kick, a run whose unreduced angle could pass ANGLE_LIMIT = 2**50.  Up to
there the error stays below a quarter radian, well inside `_sin`'s domain;
beyond about 1e16 the reduced angle can leave that domain, and |sin| then
grows without bound.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

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
ANGLE_LIMIT = 2.0**50  # largest unreduced angle a run may reach (module docstring)


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
    kick_ratio: float = field(metadata={"min": 0})
    resonance_order: int = field(default=1, metadata={"min": 1})

    def __post_init__(self) -> None:
        check_fields(self)
        if abs(self.epsilon) > EPS_WARN_LIMIT:
            warnings.warn(
                f"|epsilon| = {abs(self.epsilon)} is large for a near-resonance model",
                stacklevel=3,  # past the dataclass __init__ to its caller
            )

    @property
    def hbar_eff(self) -> float:
        return TWO_PI * self.resonance_order + self.epsilon


def _phase_advance(p: EpsParams, beta) -> np.ndarray | float:
    return math.pi * p.resonance_order + p.hbar_eff * np.asarray(beta, dtype=float)


# sin z = z P(z^2) on [-pi/2, pi/2], P(t) = sum_k _SIN_POLY[k] t^k: the
# coefficients are mpmath.chebyfit(lambda t: sin(sqrt(t)) / sqrt(t),
# [0, (pi/2)^2], 9) at mp.dps = 50, each rounded to float64.  The fit is
# within 2.1e-19 of sin z; rounding the z^3 coefficient to a float brings
# that to 2.2e-17, and float64 evaluation to 1.5 ulp(1) of np.sin.
_SIN_POLY = (
    1.0,
    -0.16666666666666666,
    0.008333333333333186,
    -0.00019841269841208676,
    2.7557319211229606e-06,
    -2.505210689056952e-08,
    1.605894087848656e-10,
    -7.643026557971632e-13,
    2.7215749422983443e-15,
)


def _sin(phi, out: np.ndarray, w: np.ndarray, z2: np.ndarray) -> np.ndarray:
    """sin(phi) into out, by adds, multiplies and a clip alone.

    phi may be anywhere in [-pi/2, 5pi/2], where the result is within 2 ulp(1)
    of np.sin and |result| <= 1.  `_kick`'s reduction returns [0, 2pi] up to
    about ulp of the unreduced angle on either side, so that holds while the
    unreduced angle stays within ANGLE_LIMIT (`_check_angle`); beyond about
    1e16 it can fail.
    The fold y = pi - phi, z = 2 clip(y, -pi/2, pi/2) - y puts z on
    [-pi/2, pi/2] with sin z = sin phi in four passes: z is y itself where
    |y| <= pi/2 and +-pi - y beyond, which is sign(y) (pi - |y|) to the bit
    (at phi = 2pi exactly z is +0.0 where that form gives -0.0).  Then
    in-place Horner passes in z^2 evaluate the 9-term odd polynomial
    `_SIN_POLY` to z^17, 18 passes.  Every pass is one IEEE operation per
    element, so the bytes do not depend on which SIMD loops numpy
    dispatches.  w and z2 are scratch shaped like phi, and out must not be
    phi.  Returns out.
    """
    np.subtract(math.pi, phi, out=out)  # y
    np.clip(out, -0.5 * math.pi, 0.5 * math.pi, out=w)
    np.subtract(np.add(w, w, out=w), out, out=w)  # z
    np.multiply(w, w, out=z2)
    np.multiply(z2, _SIN_POLY[-1], out=out)
    for c in _SIN_POLY[-2:0:-1]:
        np.add(out, c, out=out)
        np.multiply(out, z2, out=out)
    np.add(out, _SIN_POLY[0], out=out)
    return np.multiply(out, w, out=out)


def _scratch(like) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The three scratch rows `_kick` takes, shaped like `like`."""
    return np.empty_like(like), np.empty_like(like), np.empty_like(like)


def _kick(phi, n, epsilon: float, advance, kick, scratch) -> None:
    """In place: phi += eps n + advance (mod 2 pi), then n += kick sin(phi).

    advance = pi m + hbar_eff beta and kick = kick_ratio R g, scalar or per
    trajectory; epsilon is a scalar and may be 0.  scratch is three rows
    shaped like phi (`_scratch`).  The reduction uses the first, `_sin` all
    three, so no kick allocates.  The reduced angle is in `_sin`'s domain only
    while |phi + eps n + advance| <= ANGLE_LIMIT, which the caller checks.
    """
    buf, w, z2 = scratch
    np.add(phi, np.multiply(n, epsilon, out=buf), out=phi)
    np.add(phi, advance, out=phi)
    np.floor(np.divide(phi, TWO_PI, out=buf), out=buf)
    np.subtract(phi, np.multiply(buf, TWO_PI, out=buf), out=phi)
    np.add(n, np.multiply(kick, _sin(phi, buf, w, z2), out=buf), out=n)


def eps_step(phi, rho, p: EpsParams, kick_factor=1.0, beta=0.0):
    """One map iteration in rho = |eps| n; phi updates first and feeds the kick.

    phi, rho may be scalars or arrays (broadcast together).  kick_factor is
    the per-kick amplitude factor; beta is the quasimomentum, scalar or per
    trajectory.  The inputs are copied, never changed.  The kernel's eps is
    sign(eps): a turn by +-rho, exact, and none at eps = 0.  Inputs whose
    unreduced angle phi + sign(eps) rho + advance may pass ANGLE_LIMIT raise
    ValueError (`_check_angle`), as do non-finite phi and rho.
    """
    arrays = np.broadcast_arrays(phi, rho, kick_factor, beta)
    phi, rho, factor, beta = (np.array(x, dtype=float) for x in arrays)
    kick = abs(p.epsilon) * p.kick_ratio * factor
    advance = _phase_advance(p, beta)
    turned = float(np.max(np.abs(phi), initial=0.0)) + float(np.max(np.abs(rho), initial=0.0))
    _check_angle(turned, advance)  # phi, unreduced, counts in full
    _kick(phi, rho, np.sign(p.epsilon), advance, kick, _scratch(phi))
    return phi[()], rho[()]


def _check_angle(reach: float, advance) -> None:
    """Reject a run whose unreduced angle may pass ANGLE_LIMIT.

    The angle is phi + eps n + advance with phi in [0, 2pi) and |eps n| <= reach.
    """
    bound = TWO_PI + reach + float(np.max(np.abs(advance), initial=0.0))
    if not bound <= ANGLE_LIMIT:
        raise ValueError(f"the map angle may reach {bound:.3g}, past ANGLE_LIMIT = 2**50, "
                         "where the angle reduction leaves the sine's domain")


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
    """eps = 0 limit of the energies after kicks 0..n_kicks.

    The ladder index becomes the phasor sum n = n0 + g r sum_s R_s
    sin(phi_0 + s a); averaging the start angle analytically leaves
    E_n = <n0^2/2 + (g r)^2 |sum_s R_s e^(i s a)|^2 / 4> per trajectory.
    Each atom's sum is carried on kick by kick, so memory stays a few
    arrays of one value per atom at any kick count.
    """
    a = _phase_advance(p, betas)
    base = n0s.astype(float) ** 2 / 2.0
    growth = (gains * p.kick_ratio) ** 2 / 4.0
    total = np.zeros(a.size, dtype=complex)
    out = np.empty(n_kicks + 1)
    out[0] = float(np.mean(base))
    for s in range(1, n_kicks + 1):
        total += factors[s - 1] * np.exp(1j * (a * s))
        out[s] = float(np.mean(base + growth * np.abs(total) ** 2))
    return out


def eps_energy(
    p: EpsParams,
    n_kicks: int,
    spec: EnsembleSpec,
    cfg: NoiseConfig = NoiseConfig(),
    n_realizations: int = 1,
) -> tuple[np.ndarray, np.ndarray]:
    """Mean energy E_n = <n^2> / 2 after kicks 0..n_kicks, with s.e.m.

    The ensemble (trajectory count, quasimomentum mode, momentum spread,
    per-trajectory kick factors) follows `spec` exactly as in the quantum
    engine, with the map started at n = n0, so the two models share initial
    conditions and noise streams realization by realization.  At eps = 0
    the analytic resonant limit is evaluated instead of iterating; otherwise
    a realization whose angle may pass ANGLE_LIMIT raises ValueError.
    """
    _require_amplitude_only(cfg)
    if spec.p_max is not None:
        raise ValueError("detection windows are not modeled for map ensembles")

    def run(rcfg: NoiseConfig) -> np.ndarray:
        factors = sample_realization(rcfg, n_kicks).amplitude_factors
        n0s, betas, gains = sample_atoms(spec, rcfg)
        if p.epsilon == 0.0:
            return _resonant_limit_history(p, n_kicks, betas, n0s, gains, factors)

        rng = stream_rng(rcfg.master_seed, rcfg.realization_index, STREAM_MAP_PHASE)
        phi = _stratified_phases(rng, spec.n_atoms)
        n = n0s.astype(float)
        advance = _phase_advance(p, betas)
        kicks = float(np.sum(np.abs(factors)) * np.max(gains))  # sum_s |R_s| max g
        _check_angle(abs(p.epsilon) * (float(np.max(np.abs(n0s))) + p.kick_ratio * kicks), advance)
        # without a kick spread every gain is 1.0: k R is the product k (R g)
        spread = spec.kick_spread > 0.0
        kick = np.empty_like(n) if spread else None
        scratch = _scratch(n)
        buf = scratch[0]
        history = np.empty(n_kicks + 1)
        history[0] = 0.5 * float(np.mean(np.square(n, out=buf)))
        for s in range(n_kicks):
            if spread:
                np.multiply(gains, factors[s], out=kick)
                np.multiply(kick, p.kick_ratio, out=kick)
            else:
                kick = p.kick_ratio * factors[s]
            _kick(phi, n, p.epsilon, advance, kick, scratch)
            history[s + 1] = 0.5 * float(np.mean(np.square(n, out=buf)))
        return history

    return realization_mean(cfg, n_realizations, run)


def check_portrait(p: EpsParams, n_phi: int, n_rho: int, n_iters: int, cfg: NoiseConfig) -> None:
    """Raise ValueError for a `phase_portrait` call that cannot run, before any work.

    In rho units the angle turns by rho, which starts in (0, 2pi) and moves by at
    most |eps| kick_ratio (1 + level/2) per iteration, the largest kick factor.
    """
    if n_phi < 1 or n_rho < 1:
        raise ValueError(f"grid must be at least 1x1, got {n_phi}x{n_rho}")
    if n_iters < 0:
        raise ValueError(f"n_iters must be >= 0, got {n_iters}")
    _require_amplitude_only(cfg)
    if p.epsilon == 0.0:
        raise EpsilonZeroError("eps = 0 degenerates the map; no portrait exists")
    largest = abs(p.epsilon) * p.kick_ratio * (1.0 + 0.5 * cfg.amplitude_level)
    _check_angle(TWO_PI + largest * n_iters, _phase_advance(p, 0.0))


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
    grid; n_iters = 0 returns exactly the initial grid.  Arguments that
    `check_portrait` rejects raise ValueError.
    """
    check_portrait(p, n_phi, n_rho, n_iters, cfg)
    factors = sample_realization(cfg, n_iters).amplitude_factors
    phi = np.repeat(TWO_PI * (np.arange(n_phi) + 0.5) / n_phi, n_rho)
    rho = np.tile(TWO_PI * (np.arange(n_rho) + 0.5) / n_rho, n_phi)
    points = np.empty((n_phi * n_rho * (n_iters + 1), 2))
    points[: phi.size, 0] = phi
    points[: phi.size, 1] = rho
    advance, strength = _phase_advance(p, 0.0), abs(p.epsilon) * p.kick_ratio
    scratch = _scratch(phi)
    for n in range(n_iters):
        _kick(phi, rho, np.sign(p.epsilon), advance, strength * factors[n], scratch)
        block = slice((n + 1) * phi.size, (n + 2) * phi.size)
        points[block, 0] = phi
        points[block, 1] = np.mod(rho, TWO_PI)
    return points
