"""Analytic kicked-rotor results: diffusion rates and resonance peak heights.

Early-time momentum diffusion of the kicked rotor follows the quasilinear
rate kappa^2/(4 hbar_eff^2) corrected by kick-to-kick correlations that enter
through Bessel functions of the stochasticity parameter.  The classical map
uses K = kappa; the quantum dynamics away from resonance behaves like the
classical map with the rescaled K = kappa_q, which vanishes at the resonant
hbar_eff = 2 pi m.  Uniform amplitude noise on the kick strength averages
the Bessel arguments and adds its variance to the quasilinear term.  Each
average has a closed form in Bessel functions of the two end arguments, so
no quadrature is needed.

All energies are in two-photon-recoil units, E = <(p / 2 hbar k_L)^2> / 2,
and rates are per kick.
"""

from __future__ import annotations

import math

import numpy as np

from .noise import AMPLITUDE_LEVEL_MAX

# largest Bessel argument: `bessel_j_row` takes x up to it and
# `noise_averaged_bessel` |K| (1 + level/2).  The Miller recurrence runs about
# x steps per pass, and a 2-element row at order 1e5 takes about 0.2 s
# (2-core Intel Xeon host, numpy 2.4.6)
ARGUMENT_MAX = 1e5
_SERIES_HALF_WIDTH = 1e-3  # below it the closed form's endpoint difference cancels


class UnsupportedLevelError(ValueError):
    """The noise level lies outside [0, AMPLITUDE_LEVEL_MAX], where the closed forms hold."""


# ---------------------------------------------------------------------------
# Bessel functions of the first kind, integer order
# ---------------------------------------------------------------------------

def bessel_j_row(n_max: int, x: float | np.ndarray) -> np.ndarray:
    """J_0(x) .. J_{n_max}(x) for 0 <= x <= ARGUMENT_MAX by Miller's backward recurrence.

    `x` is a scalar, giving shape (n_max+1,), or a 1-D array, giving one row
    per element, shape (len(x), n_max+1).  Each element is computed on its
    own: its row is bitwise the same whatever else is in the batch.

    The downward recurrence J_{m-1} = (2m/x) J_m - J_{m+1} is stable in the
    direction of growing values; the row is fixed afterwards by the
    normalization J_0 + 2 J_2 + 2 J_4 + ... = 1.  The start order is raised
    until two runs agree to 1e-14, which keeps every returned entry good to
    about 1e-13 absolute.
    """
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    xs = np.asarray(x, dtype=float)
    if xs.ndim > 1:
        raise ValueError(f"bessel_j_row takes a scalar or 1-D x, got shape {xs.shape}")
    flat = xs.reshape(-1)
    bad = flat[~np.isfinite(flat)]
    if bad.size:
        raise ValueError(f"bessel_j_row requires finite x, got {bad[0]}")
    if np.any(flat < 0.0):
        raise ValueError("bessel_j_row requires x >= 0")
    if np.any(flat > ARGUMENT_MAX):
        raise ValueError(
            f"bessel_j_row requires x <= {ARGUMENT_MAX:g}, got {flat.max()}: "
            "the recurrence runs about x steps"
        )
    rows = [_scalar_row(n_max, v) for v in flat.tolist()]
    return np.array(rows).reshape(xs.shape + (n_max + 1,))


def _scalar_row(n_max: int, x: float) -> np.ndarray:
    """The row of one argument 0 <= x <= ARGUMENT_MAX.

    Each Miller pass runs the recurrence in plain floats down from its start
    order, rescaling at 1e250 before overflow (ratios are all that matter);
    passes 30 orders apart repeat until two agree to 1e-14.
    """
    if x < 1e-8:
        # leading series term: J_n = (x/2)^n / n!, exact to double precision
        # here; also keeps 2m/x in the recurrence from overflowing at tiny x
        series, term = [], 1.0
        for n in range(n_max + 1):
            series.append(term)
            term *= 0.5 * x / (n + 1)
        return np.array(series)
    start = int(max(n_max, x)) + 20 + int(2.0 * math.sqrt(max(x, float(n_max))))
    prev = None
    while True:
        row = np.zeros(n_max + 1)
        jp, jc, norm = 0.0, 1e-30, 0.0  # J_{m+1}, J_m seeded at the start order
        for m in range(start, 0, -1):
            jp, jc = jc, (2.0 * m / x) * jc - jp
            if m - 1 <= n_max:
                row[m - 1] = jc
            if (m - 1) % 2 == 0:
                norm += 2.0 * jc
            if abs(jc) > 1e250:
                jp *= 1e-250
                jc *= 1e-250
                norm *= 1e-250
                row *= 1e-250
        out = row / (norm - jc)  # J_0 was added with weight 2 in the loop
        if not np.all(np.isfinite(out)):
            raise RuntimeError(f"Bessel recurrence overflowed at n_max={n_max}, x={x}")
        if prev is not None and np.max(np.abs(out - prev)) < 1e-14:
            return out
        prev, start = out, start + 30


# ---------------------------------------------------------------------------
# Diffusion rates
# ---------------------------------------------------------------------------

def quantum_kick_strength(kappa: float, hbar_eff: float) -> float:
    """Rescaled stochasticity parameter kappa_q = 2 kappa sin(hbar_eff/2) / hbar_eff.

    Vanishes at the quantum resonances hbar_eff = 2 pi m, where the kick-to-kick
    correlations die and only the quasilinear rate survives.
    """
    if not 0.0 < hbar_eff < math.inf:
        raise ValueError(f"hbar_eff must be positive, got {hbar_eff}")
    return 2.0 * kappa * math.sin(0.5 * hbar_eff) / hbar_eff


def _check_rate_arguments(kappa: float, hbar_eff: float, regime: str) -> None:
    if regime not in ("classical", "quantum"):
        raise ValueError(f"regime must be 'classical' or 'quantum', got {regime!r}")
    if not 0.0 < hbar_eff < math.inf:
        raise ValueError(f"hbar_eff must be positive, got {hbar_eff}")
    if not math.isfinite(kappa):
        raise ValueError(f"kappa must be finite, got {kappa}")


def _bessel_argument(kappa: float, hbar_eff: float, regime: str) -> float:
    return kappa if regime == "classical" else quantum_kick_strength(kappa, hbar_eff)


def diffusion_rate(kappa: float, hbar_eff: float, regime: str = "quantum") -> float:
    """Noise-free early-time diffusion rate (energy per kick).

    D = (kappa/hbar_eff)^2 / 2 * (1/2 - J_2(K) - J_1(K)^2 + J_2(K)^2 + J_3(K)^2)
    with K = kappa (classical) or kappa_q (quantum).  The four Bessel terms
    are the lag-1..3 kick correlations of the standard map.
    """
    _check_rate_arguments(kappa, hbar_eff, regime)
    K = abs(_bessel_argument(kappa, hbar_eff, regime))
    row = bessel_j_row(3, K)
    corr = 0.5 - row[2] - row[1] ** 2 + row[2] ** 2 + row[3] ** 2
    return float(0.5 * (kappa / hbar_eff) ** 2 * corr)


def noise_averaged_bessel(order: int, K: float, level: float) -> float:
    """J_order averaged over multiplicative kick noise on the argument.

    The noisy argument is K (1 + u) with u uniform on [-level/2, +level/2].
    With n = |order|, x = |K| and h = x level / 2 the average is the integral
    of J_n over [x - h, x + h] divided by 2h, which is (S(x+h) - S(x-h)) / h
    with S(y) = sum over k >= 0 of J_{n+2k+1}(y) (DLMF 10.22.2).  One
    `bessel_j_row` call gives both sums, up to the first order m > y = x + h
    where the bound |J_m(y)| <= exp(sqrt(m^2 - y^2) - m arccosh(m/y)) is
    below 1e-17 h; it falls faster than geometrically beyond.  For h < 1e-3
    the difference cancels, and J_n + (h^2/24) (J_{n-2} - 2 J_n + J_{n+2}),
    good to O(h^4), replaces it.  At level 0 it is J_order(K) itself.  Signs
    follow J_{-n}(x) = J_n(-x) = (-1)^n J_n(x).  |K| (1 + level/2) may not
    exceed ARGUMENT_MAX.
    """
    if not math.isfinite(K):
        raise ValueError(f"K must be finite, got {K}")
    if not 0.0 <= level <= AMPLITUDE_LEVEL_MAX:
        raise UnsupportedLevelError(
            f"level must lie in [0, {AMPLITUDE_LEVEL_MAX}], got {level}"
        )
    x, h = abs(K), 0.5 * level * abs(K)
    if x + h > ARGUMENT_MAX:
        raise ValueError(f"|K| (1 + level/2) = {x + h:g} exceeds {ARGUMENT_MAX:g}")
    n = abs(int(order))
    sign = -1.0 if n % 2 == 1 and (K < 0.0) != (order < 0) else 1.0
    if level == 0.0 or K == 0.0:
        return sign * float(bessel_j_row(n, x)[n])
    if h < _SERIES_HALF_WIDTH:
        row = bessel_j_row(n + 2, x)
        below = -row[1] if n == 1 else row[abs(n - 2)]  # J_{n-2}
        return sign * float(row[n] + h * h / 24.0 * (below - 2.0 * row[n] + row[n + 2]))
    y = x + h
    m = math.floor(max(n, y)) + 1
    log_floor = math.log(1e-17 * h)
    while math.sqrt((m - y) * (m + y)) - m * math.acosh(m / y) > log_floor:
        m += 1
    sums = np.sum(bessel_j_row(m, np.array([y, x - h]))[:, n + 1 :: 2], axis=1)
    return sign * float((sums[0] - sums[1]) / h)


def diffusion_rate_with_noise(
    kappa: float, hbar_eff: float, level: float, regime: str = "quantum"
) -> float:
    """Early-time diffusion rate under uniform amplitude noise of width `level`.

    The kick-strength variance kappa^2 level^2 / 12 adds to the quasilinear
    term, and each Bessel correlation is averaged over the noisy argument in
    closed form by `noise_averaged_bessel`, one call per order:

    D = (kappa^2 + Var) / (4 hbar^2)
        + kappa^2/(2 hbar^2) * (-<J_2> - <J_1>^2 + <J_2>^2 + <J_3>^2)

    At level = 0 this reduces exactly to `diffusion_rate`, which is what it
    returns there.  At resonance (K = 0) only the first term survives: level
    2 gives kappa^2/(3 hbar^2).
    """
    _check_rate_arguments(kappa, hbar_eff, regime)
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

def kick_strength_from_energy(energy: float, n_kicks: int, mode: str = "quasilinear") -> float:
    """Invert a measured mean energy to the kick ratio kappa/hbar_eff.

    At exact resonance with flat quasimomenta the peak height after n kicks
    is E = r^2 n / 4 for kick ratio r without noise (the quasilinear value),
    and E = r^2 n / 3 at amplitude level 2, whose uniform kick factor adds
    r^2 / 12 per kick.  So mode "quasilinear" (or "resonant") gives
    sqrt(4 E / n), and mode "resonant-max-noise" sqrt(3 E / n).  Both are
    computed as 2 sqrt(q E / n) with q = 1 or 3/4, a quarter of 4 or 3: bit
    for bit the same numbers for normal E, and finite up to the float maximum.
    """
    if n_kicks <= 0:
        raise ValueError(f"n_kicks must be positive, got {n_kicks}")
    if not math.isfinite(energy):
        raise ValueError(f"energy must be finite, got {energy!r}")
    if energy < 0.0:
        raise ValueError(f"energy must be >= 0, got {energy}")
    quarter = {"quasilinear": 1.0, "resonant": 1.0, "resonant-max-noise": 0.75}.get(mode)
    if quarter is None:
        raise ValueError(
            f"mode must be 'quasilinear', 'resonant' or 'resonant-max-noise', got {mode!r}"
        )
    return 2.0 * math.sqrt(quarter * energy / n_kicks)
