"""Analytic kicked-rotor results: diffusion rates and resonance peak heights.

Early-time momentum diffusion of the kicked rotor follows the quasilinear
rate kappa^2/(4 hbar_eff^2) corrected by kick-to-kick correlations that enter
through Bessel functions of the stochasticity parameter.  The classical map
uses K = kappa; the quantum dynamics away from resonance behaves like the
classical map with the rescaled K = kappa_q, which vanishes at the resonant
hbar_eff = 2 pi m.  Uniform amplitude noise on the kick strength averages
the Bessel arguments and adds its variance to the quasilinear term.

All energies are in two-photon-recoil units, E = <(p / 2 hbar k_L)^2> / 2,
and rates are per kick.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence, TextIO

import numpy as np

from .noise import AMPLITUDE_LEVEL_MAX

BESSEL_TOL = 1e-12
QUADRATURE_TOL = 1e-10
_QUADRATURE_MAX_NODES = 4096


class UnsupportedLevelError(ValueError):
    """No closed-form peak height exists for the requested noise level."""


class QuadratureError(RuntimeError):
    """Gauss-Legendre refinement failed to converge."""


# ---------------------------------------------------------------------------
# Bessel functions of the first kind, integer order
# ---------------------------------------------------------------------------

def bessel_j_row(n_max: int, x: float) -> np.ndarray:
    """J_0(x) .. J_{n_max}(x) for x >= 0 by Miller's backward recurrence.

    The downward recurrence J_{m-1} = (2m/x) J_m - J_{m+1} is stable in the
    direction of growing values; the row is fixed afterwards by the
    normalization J_0 + 2 J_2 + 2 J_4 + ... = 1.  The start order is raised
    until two runs agree to 1e-14, which keeps every returned entry good to
    about 1e-13 absolute.
    """
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    if x < 0.0:
        raise ValueError("bessel_j_row requires x >= 0; use bessel_j for signed x")
    if x < 1e-8:
        # leading series term: J_n = (x/2)^n / n!, exact to double precision
        # here; also keeps 2m/x in the recurrence from overflowing at tiny x
        row = np.zeros(n_max + 1)
        term = 1.0
        for n in range(n_max + 1):
            row[n] = term
            term *= 0.5 * x / (n + 1)
            if term == 0.0:
                break
        return row

    start = int(max(n_max, x)) + 20 + int(2.0 * math.sqrt(max(x, float(n_max))))
    prev: np.ndarray | None = None
    while True:
        row = _miller_pass(n_max, x, start)
        if not np.all(np.isfinite(row)):
            raise RuntimeError(f"Bessel recurrence overflowed at n_max={n_max}, x={x}")
        if prev is not None and np.max(np.abs(row - prev)) < 1e-14:
            return row
        prev = row
        start += 30


def _miller_pass(n_max: int, x: float, start: int) -> np.ndarray:
    row = np.zeros(n_max + 1)
    jp, jc = 0.0, 1e-30  # J_{m+1}, J_m seeded at the start order
    norm = 0.0
    for m in range(start, 0, -1):
        jm = (2.0 * m / x) * jc - jp
        jp, jc = jc, jm
        if m - 1 <= n_max:
            row[m - 1] = jm
        if (m - 1) % 2 == 0:
            norm += 2.0 * jm
        if abs(jc) > 1e250:  # rescale before overflow, ratios are all that matter
            jp *= 1e-250
            jc *= 1e-250
            norm *= 1e-250
            row *= 1e-250
    norm -= jc  # J_0 was added with weight 2 in the loop
    return row / norm


def bessel_j(order: int, x: float) -> float:
    """J_order(x) for integer order and real x, |error| < 1e-12.

    Symmetry reduces everything to the non-negative quadrant:
    J_{-n}(x) = (-1)^n J_n(x) and J_n(-x) = (-1)^n J_n(x).
    """
    n = abs(int(order))
    sign = 1.0
    if order < 0 and n % 2 == 1:
        sign = -sign
    if x < 0.0 and n % 2 == 1:
        sign = -sign
    return sign * float(bessel_j_row(n, abs(x))[n])


# ---------------------------------------------------------------------------
# Diffusion rates
# ---------------------------------------------------------------------------

def quantum_kick_strength(kappa: float, hbar_eff: float) -> float:
    """Rescaled stochasticity parameter kappa_q = 2 kappa sin(hbar_eff/2) / hbar_eff.

    Vanishes at the quantum resonances hbar_eff = 2 pi m, where the kick-to-kick
    correlations die and only the quasilinear rate survives.
    """
    if hbar_eff <= 0.0:
        raise ValueError(f"hbar_eff must be positive, got {hbar_eff}")
    return 2.0 * kappa * math.sin(0.5 * hbar_eff) / hbar_eff


def _check_regime(regime: str) -> None:
    if regime not in ("classical", "quantum"):
        raise ValueError(f"regime must be 'classical' or 'quantum', got {regime!r}")


def _bessel_argument(kappa: float, hbar_eff: float, regime: str) -> float:
    return kappa if regime == "classical" else quantum_kick_strength(kappa, hbar_eff)


def diffusion_rate(kappa: float, hbar_eff: float, regime: str = "quantum") -> float:
    """Noise-free early-time diffusion rate (energy per kick).

    D = (kappa/hbar_eff)^2 / 2 * (1/2 - J_2(K) - J_1(K)^2 + J_2(K)^2 + J_3(K)^2)
    with K = kappa (classical) or kappa_q (quantum).  The four Bessel terms
    are the lag-1..3 kick correlations of the standard map.
    """
    _check_regime(regime)
    if hbar_eff <= 0.0:
        raise ValueError(f"hbar_eff must be positive, got {hbar_eff}")
    K = abs(_bessel_argument(kappa, hbar_eff, regime))
    row = bessel_j_row(3, K)
    corr = 0.5 - row[2] - row[1] ** 2 + row[2] ** 2 + row[3] ** 2
    return float(0.5 * (kappa / hbar_eff) ** 2 * corr)


def noise_averaged_bessel(
    order: int, K: float, level: float, tol: float = QUADRATURE_TOL
) -> float:
    """J_order averaged over multiplicative kick noise on the argument.

    The noisy argument is K (1 + u) with u uniform on [-level/2, +level/2],
    so the average is (1/level) * integral of J_order(K(1+u)) du.  Evaluated
    by Gauss-Legendre quadrature starting at 64 nodes and doubling until two
    refinements differ by less than tol; the integrand is entire, so the
    doubling terminates almost immediately.
    """
    if not 0.0 <= level <= AMPLITUDE_LEVEL_MAX:
        raise UnsupportedLevelError(
            f"level must lie in [0, {AMPLITUDE_LEVEL_MAX}], got {level}"
        )
    if level == 0.0 or K == 0.0:
        return bessel_j(order, K)

    nodes = 64
    previous = None
    while nodes <= _QUADRATURE_MAX_NODES:
        x, w = np.polynomial.legendre.leggauss(nodes)
        args = K * (1.0 + 0.5 * level * x)
        n = abs(int(order))
        values = np.array([bessel_j_row(n, abs(a))[n] for a in args])
        signs = np.ones_like(args)
        if order < 0 and n % 2 == 1:
            signs = -signs
        signs[args < 0] *= (-1.0) ** n
        estimate = 0.5 * float(np.sum(w * signs * values))
        if previous is not None and abs(estimate - previous) < tol:
            return estimate
        previous = estimate
        nodes *= 2
    raise QuadratureError(
        f"noise-averaged J_{order}({K}) did not converge to {tol} "
        f"within {_QUADRATURE_MAX_NODES} nodes"
    )


def diffusion_rate_with_noise(
    kappa: float, hbar_eff: float, level: float, regime: str = "quantum"
) -> float:
    """Early-time diffusion rate under uniform amplitude noise of width `level`.

    The kick-strength variance kappa^2 level^2 / 12 adds to the quasilinear
    term, and each Bessel correlation is averaged over the noisy argument:

    D = (kappa^2 + Var) / (4 hbar^2)
        + kappa^2/(2 hbar^2) * (-<J_2> - <J_1>^2 + <J_2>^2 + <J_3>^2)

    At level = 0 this reduces exactly to `diffusion_rate`, which is what it
    returns there.  At resonance (K = 0) only the first term survives: level
    2 gives kappa^2/(3 hbar^2).
    """
    _check_regime(regime)
    if hbar_eff <= 0.0:
        raise ValueError(f"hbar_eff must be positive, got {hbar_eff}")
    if not 0.0 <= level <= AMPLITUDE_LEVEL_MAX:
        raise UnsupportedLevelError(
            f"level must lie in [0, {AMPLITUDE_LEVEL_MAX}], got {level}"
        )
    if level == 0.0:
        return diffusion_rate(kappa, hbar_eff, regime)
    K = _bessel_argument(kappa, hbar_eff, regime)
    j1 = noise_averaged_bessel(1, K, level)
    j2 = noise_averaged_bessel(2, K, level)
    j3 = noise_averaged_bessel(3, K, level)
    variance = kappa**2 * level**2 / 12.0
    quasilinear = (kappa**2 + variance) / (4.0 * hbar_eff**2)
    corr = -j2 - j1**2 + j2**2 + j3**2
    return float(quasilinear + 0.5 * (kappa / hbar_eff) ** 2 * corr)


# ---------------------------------------------------------------------------
# Resonance peak heights and their inversion
# ---------------------------------------------------------------------------

def resonance_height(kick_ratio: float, n_kicks: int, level: float | str = 0.0) -> float:
    """Mean energy after n kicks at exact resonance, uniform quasimomentum.

    Averaging the ballistic subclass over a flat quasimomentum distribution
    leaves linear growth: E_n = (1/4) r^2 n for kick ratio r = kappa/hbar_eff
    without noise (identical to the quasilinear prediction, pass
    level="quasilinear" to say so explicitly), and E_n = (1/3) r^2 n at full
    amplitude noise (level 2), where the variance of the uniform kick factor
    adds r^2/12 per kick.
    """
    if n_kicks < 0:
        raise ValueError(f"n_kicks must be >= 0, got {n_kicks}")
    if level == "quasilinear" or level == 0.0 or level == 0:
        return 0.25 * kick_ratio**2 * n_kicks
    if level == 2.0 or level == 2:
        return kick_ratio**2 * n_kicks / 3.0
    raise UnsupportedLevelError(
        f"no closed form at level {level!r}; supported: 0, 2, 'quasilinear'"
    )


def kick_strength_from_energy(energy: float, n_kicks: int, mode: str = "quasilinear") -> float:
    """Invert a measured mean energy to the kick ratio kappa/hbar_eff.

    mode "quasilinear" (or "resonant"): sqrt(4 E / n); mode
    "resonant-max-noise": sqrt(3 E / n), the level-2 peak height.
    """
    if n_kicks <= 0:
        raise ValueError(f"n_kicks must be positive, got {n_kicks}")
    if energy < 0.0:
        raise ValueError(f"energy must be >= 0, got {energy}")
    if mode in ("quasilinear", "resonant"):
        return math.sqrt(4.0 * energy / n_kicks)
    if mode == "resonant-max-noise":
        return math.sqrt(3.0 * energy / n_kicks)
    raise ValueError(
        f"mode must be 'quasilinear', 'resonant' or 'resonant-max-noise', got {mode!r}"
    )


# ---------------------------------------------------------------------------
# Curve emission for rate-vs-hbar plots
# ---------------------------------------------------------------------------

def diffusion_curve(
    kick_ratio: float, hbar_values: Sequence[float], levels: Iterable[float]
) -> list[tuple[float, float, float, float]]:
    """Rows (hbar_eff, level, D_classical, D_quantum) at fixed kappa/hbar_eff.

    The period scan of the experiment holds the kick ratio constant, so
    kappa = kick_ratio * hbar varies along the curve; both regimes are
    evaluated per noise level.
    """
    rows = []
    for level in levels:
        for hbar in hbar_values:
            kappa = kick_ratio * hbar
            dc = diffusion_rate_with_noise(kappa, hbar, level, "classical")
            dq = diffusion_rate_with_noise(kappa, hbar, level, "quantum")
            rows.append((float(hbar), float(level), dc, dq))
    return rows


def write_diffusion_curve(
    out: TextIO, kick_ratio: float, hbar_values: Sequence[float], levels: Iterable[float]
) -> None:
    """Emit `diffusion_curve` rows as CSV with a header line."""
    out.write("hbar,level,d_classical,d_quantum\n")
    for hbar, level, dc, dq in diffusion_curve(kick_ratio, hbar_values, levels):
        out.write(f"{hbar!r},{level!r},{dc!r},{dq!r}\n")
