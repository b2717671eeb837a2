"""Quantum kicked-rotor dynamics on the two-photon-recoil momentum ladder.

Quasimomentum beta is conserved by the kicks, so each atom lives on its own
ladder p = n + beta (units of two photon recoils) and is stored as the
complex amplitude vector c_n over L ladder sites, n = -(L // 2) .. L - 1 -
L // 2 (the symmetric n = -M .. M when L = 2M + 1 is odd).  One pulse period
applies

    kick:  c' = exp(i k_eff cos(phi)) c        (k_eff = kappa_n / hbar_eff)
    free:  c_n *= exp(-i hbar_eff (n + beta)^2 dtau / 2)

The kick is diagonal on an angle grid of L points; the FFT round trip is
exactly unitary for any length L, and because the kick is diagonal there
the ladder ordering can be fed to the FFT without any index shuffling (the
implied index offset cancels between the transform pair).  One batched
stepper, `_evolve`, applies every kick, free flight and spontaneous-emission
swap, and the cloud is its only entry point.  The direct Bessel convolution
(matrix elements <n'|exp(i k cos phi)|n> = i^(n'-n) J_{n'-n}(k)) lives in
the tests as an independent oracle for it.

Per-kick cost.  A kick is one in-place FFT pair around a multiply by the
kick phase, which is rebuilt only when k_eff changes: without amplitude
noise, once per batch.  The free phase of all-unit gaps is built once.
Under period noise, exp(-i a (n + beta)^2) with a = hbar_eff tau_s / 2 is
factored into a row exp(-i a n^2) and per-atom powers of
z = exp(-2i a beta) from two small tables: about three complex multiplies
per site instead of an exponential.  Phases are written as cos + i sin into
buffers, and the amplitudes, phases, |c|^2 and one scratch array are
allocated once per batch, so no kick allocates an atoms x L array.  The one
exponential left per site and kick is the per-atom kick phase under
amplitude noise with a kick spread.

Ladder length.  An explicit cutoff M gives L = 2M + 1.  Without one, each
realization gets its own L from a reach bound, chosen before its first
chunk of atoms so that every chunk shares it.  Conjugating a kick
U = exp(i k cos phi) by exp(t n) turns it into multiplication by
exp(i k cos(phi - i t)), whose modulus is at most exp(|k| sinh t); free
phases and SE beta swaps commute with n.  So for an atom started in |n0>,
sum_n exp(2 t n) |c_n|^2 <= exp(2 t n0 + 2 K sinh t) with
K = (kappa / hbar_eff) sum_s |R_s| max(g), and optimizing t (cosh t = D/K)
bounds the mass beyond |n - n0| > D by

    2 exp(2 (sqrt(D^2 - K^2) - D arccosh(D / K))),

at every hbar_eff, noise kind and SE schedule.  The reach is max|n0| + D
for the smallest D that makes this <= REACH_TAIL.  L is the smallest
5-smooth length (a fast FFT size) >= 2 ceil(reach / 0.9) + 1, so the tail
guard's edge 0.9 (L // 2) lies beyond the reach, and at least 17 sites.  It
is capped at the 2 AUTO_CUTOFF_CAP + 1 sites of an explicit cutoff
AUTO_CUTOFF_CAP, the ladder a reach too wide for the cap runs on.  The tail
check against TAIL_TOLERANCE stays the guard on every ladder.

At hbar_eff = 2 pi m the free phases collapse and kicks add coherently for
the resonant quasimomentum class; a plane-wave start then reaches the
ballistic energy (k N)^2 / 4.  Spontaneous emission is modeled as a random
replacement of beta (photon-recoil coarse graining), which breaks the ladder
coherence without touching the amplitude vector.

Energies are E = <(n + beta)^2> / 2 throughout.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field

import numpy as np

from .core import ScaledParams, check_fields
from .noise import (
    STREAM_ATOM_BETA,
    STREAM_ATOM_MOMENTA,
    STREAM_KICK_SPREAD,
    NoiseConfig,
    NoiseRealization,
    free_evolution_intervals,
    realization_mean,
    sample_realization,
    stream_rng,
)

BETA_MODES = ("thermal", "uniform", "fixed")  # how EnsembleSpec draws quasimomenta
AUTO_CUTOFF_CAP = 512  # the automatic ladder's widest half-width: L <= 1025
TAIL_FRACTION = 0.9
TAIL_TOLERANCE = 1e-8
REACH_TAIL = 1e-10  # the reach bound's tail: 100x below TAIL_TOLERANCE
_MIN_CUTOFF = 8
# the automatic ladder's lengths: the 5-smooth ones (fast FFT sizes) below
# the cap's 2M + 1 sites, then the cap itself
_LADDER_LENGTHS = sorted(
    2**a * 3**b * 5**c
    for a in range(11) for b in range(7) for c in range(5)
    if 2**a * 3**b * 5**c < 2 * AUTO_CUTOFF_CAP + 1
) + [2 * AUTO_CUTOFF_CAP + 1]
_CHUNK_ATOMS = 2048
_POWER_BLOCK = 32  # the jittered free phase's power tables: z^r for r < 32, z^(32 q)


def _ladder(l_size: int) -> np.ndarray:
    """Ladder indices n of an L-site ladder: -(L // 2) .. L - 1 - L // 2."""
    return np.arange(l_size) - l_size // 2


class CutoffError(RuntimeError):
    """Probability reached the edge of the momentum ladder (or the momenta start there)."""


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
    cutoff: ladder half-width M (L = 2M + 1 sites).  None = automatic: each
    realization's ladder is sized from the reach bound (module docstring).
    """

    n_atoms: int
    sigma_p: float = 2.5
    beta_mode: str = field(default="thermal", metadata={"choices": BETA_MODES})
    beta_fixed: float = 0.0
    kick_spread: float = 0.0
    p_max: float | None = None
    cutoff: int | None = None
    momenta: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        check_fields(self)
        if self.n_atoms < 1:
            raise ValueError(f"n_atoms must be >= 1, got {self.n_atoms}")
        if self.sigma_p <= 0.0:
            raise ValueError(f"sigma_p must be positive, got {self.sigma_p}")
        if not 0.0 <= self.beta_fixed < 1.0:
            raise ValueError(f"beta_fixed must lie in [0, 1), got {self.beta_fixed}")
        if self.kick_spread < 0.0:
            raise ValueError(f"kick_spread must be >= 0, got {self.kick_spread}")
        if self.p_max is not None and self.p_max <= 0.0:
            raise ValueError(f"p_max must be positive, got {self.p_max}")
        if self.cutoff is not None and self.cutoff < _MIN_CUTOFF:
            raise ValueError(f"cutoff must be >= {_MIN_CUTOFF}, got {self.cutoff}")
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
        n0 = np.floor(p)
        beta = p - n0
    elif spec.beta_mode == "thermal":
        rng = stream_rng(cfg.master_seed, cfg.realization_index, STREAM_ATOM_MOMENTA)
        u = (np.arange(n) + rng.random(n)) / n
        p = spec.sigma_p * _norm_ppf(u)
        n0 = np.floor(p)
        beta = p - n0
    elif spec.beta_mode == "uniform":
        rng = stream_rng(cfg.master_seed, cfg.realization_index, STREAM_ATOM_BETA)
        beta = (np.arange(n) + rng.random(n)) / n
        n0 = np.zeros(n)
    else:  # fixed
        beta = np.full(n, spec.beta_fixed)
        n0 = np.zeros(n)

    # checked before the integer cast, which would wrap a huge index
    if spec.cutoff is not None:
        m, name = spec.cutoff, "the cutoff"
    else:
        m, name = AUTO_CUTOFF_CAP, "the automatic ladder's cap"
    if np.max(np.abs(n0)) > m // 2:
        raise CutoffError(
            f"initial momenta reach |n0| = {np.max(np.abs(n0)):g}, too close to {name} M = {m}"
        )

    if spec.kick_spread > 0.0:
        rng = stream_rng(cfg.master_seed, cfg.realization_index, STREAM_KICK_SPREAD)
        g = 1.0 + spec.kick_spread * rng.standard_normal(n)
        while np.any(g <= 0.0):  # redraw the unphysical tail
            bad = g <= 0.0
            g[bad] = 1.0 + spec.kick_spread * rng.standard_normal(int(np.sum(bad)))
    else:
        g = np.ones(n)
    return n0.astype(int), beta, g


def _cis(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """cos x + i sin x for real x, into the complex array `out` (a new one if None).

    Bitwise the same as np.exp(1j * x), without its complex temporaries.
    """
    if out is None:
        out = np.empty(np.shape(x), dtype=complex)
    np.cos(x, out=out.real)
    np.sin(x, out=out.imag)
    return out


def _jittered_free_phase(
    a: float, beta: np.ndarray, n_grid: np.ndarray, out: np.ndarray
) -> np.ndarray:
    """exp(-i a (n + beta)^2) per atom and site, built in `out`; returns its (atoms, L) view.

    With n = n_min + B q + r (0 <= r < B) the phase factors into a row
    exp(-i a n^2), a per-atom power z^(B q) exp(-i a beta (beta + 2 n_min))
    and a per-atom power z^r of z = exp(-2i a beta).  Only the row and the
    two small power tables are transcendental; each site costs two complex
    multiplies.  `out` has shape (atoms, Q, B) with Q B >= L.
    """
    atoms, q_len, block = out.shape
    w = -2.0 * a * beta  # arg z
    powers = _cis(w[:, None] * np.arange(block))
    blocks = _cis((-a * beta * (beta + 2.0 * n_grid[0]))[:, None]
                  + w[:, None] * (block * np.arange(q_len)))
    np.multiply(blocks[:, :, None], powers[:, None, :], out=out)
    phase = out.reshape(atoms, q_len * block)[:, : n_grid.size]
    np.multiply(phase, _cis(-a * n_grid**2), out=phase)
    return phase


def _evolve(
    c: np.ndarray,
    beta: np.ndarray,
    g: np.ndarray,
    params: ScaledParams,
    realization: NoiseRealization,
    rows: slice,
    p_max: float | None,
) -> np.ndarray:
    """The quantum stepper: drive a batch of atoms through the pulse train.

    c holds one amplitude row per atom (any ladder length L) and beta their
    quasimomenta; both are evolved in place.  g holds the atoms' kick
    factors, `rows` their SE schedule's rows in the realization.  Returns
    the batch's windowed energy sum and weight per kick index 0..N (0 =
    before any kick) as the two rows of a (2, N + 1) array.

    Per kick: one in-place FFT pair around the kick phase, which is rebuilt
    only when k_eff changes (equal kick factors share one row); the free
    phase is built once for all-unit gaps, and under period noise factored
    by `_jittered_free_phase`.  Every atoms x L array is allocated before
    the first kick.
    """
    n_kicks = params.kick_count
    atoms, l_size = c.shape
    m = l_size // 2
    n_grid = _ladder(l_size)
    cos_phi = np.cos(2.0 * np.pi * np.arange(l_size) / l_size)
    # the tail guard's sites |n| > 0.9 M are the two ends of the ladder
    inner = np.flatnonzero(np.abs(n_grid) <= TAIL_FRACTION * m)
    left, right = inner[0], inner[-1] + 1
    hbar = params.hbar_eff
    intervals = free_evolution_intervals(realization.period_offsets[:n_kicks])
    common_kick = bool(np.all(g == g[0]))

    p2 = (n_grid[None, :] + beta[:, None]) ** 2
    window = None if p_max is None else p2 <= p_max**2
    prob = np.empty((atoms, l_size))
    scratch = np.empty((atoms, l_size))
    kick_phase = np.empty(l_size if common_kick else (atoms, l_size), dtype=complex)
    if np.all(intervals == 1.0):
        free_unit = _cis(np.multiply(-0.5 * hbar, p2, out=scratch))
    else:
        free_unit = None
        q_len = -(-l_size // _POWER_BLOCK)
        free_buffer = np.empty((atoms, q_len, _POWER_BLOCK), dtype=complex)
    sums = np.zeros((2, n_kicks + 1))
    np.square(np.abs(c, out=prob), out=prob)
    sums[:, 0] = _windowed_energy(prob, p2, window, scratch)

    k_built = None
    for s in range(n_kicks):
        k_eff = params.kick_strength * realization.amplitude_factors[s] / hbar
        if k_eff != k_built:
            if common_kick:
                _cis(k_eff * g[0] * cos_phi, out=kick_phase)
            else:
                _cis(np.multiply((k_eff * g)[:, None], cos_phi, out=scratch), out=kick_phase)
            k_built = k_eff
        np.fft.ifft(c, axis=1, out=c)
        np.multiply(kick_phase, c, out=c)
        np.fft.fft(c, axis=1, out=c)

        hit = realization.se_events[rows, s]
        if hit.any():
            beta[hit] = realization.se_betas[rows, s][hit]
            p2[hit] = (n_grid[None, :] + beta[hit, None]) ** 2
            if window is not None:
                window[hit] = p2[hit] <= p_max**2
            if free_unit is not None:
                free_unit[hit] = _cis(-0.5 * hbar * p2[hit])

        np.square(np.abs(c, out=prob), out=prob)
        tail = prob[:, :left].sum(axis=1) + prob[:, right:].sum(axis=1)
        if np.max(tail) > TAIL_TOLERANCE:
            raise CutoffError(
                f"tail mass {np.max(tail):.3e} beyond 0.9M at kick {s + 1} "
                f"on the L = {l_size} ladder (M = {m})"
            )
        sums[:, s + 1] = _windowed_energy(prob, p2, window, scratch)

        if s < n_kicks - 1:
            if free_unit is None:
                free = _jittered_free_phase(0.5 * hbar * intervals[s], beta, n_grid, free_buffer)
            else:
                free = free_unit
            np.multiply(c, free, out=c)
    return sums


def _tail_bound(k_total: float, d: float) -> float:
    """Bound on an atom's mass beyond |n - n0| > d after kicks of summed strength k_total."""
    if d <= k_total:
        return 1.0
    return 2.0 * math.exp(
        2.0 * (math.sqrt((d - k_total) * (d + k_total)) - d * math.acosh(d / k_total))
    )


def _bound_reach(k_total: float) -> float:
    """Smallest d with `_tail_bound(k_total, d)` <= REACH_TAIL (inf for a non-finite k_total)."""
    if k_total == 0.0:
        return 0.0
    if not math.isfinite(k_total):
        return math.inf
    # at d_hi even the t = 1 Chernoff bound 2 exp(2 (k sinh 1 - d)) is below REACH_TAIL
    lo, hi = k_total, 1.18 * k_total + 12.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if _tail_bound(k_total, mid) <= REACH_TAIL:
            hi = mid
        else:
            lo = mid
    return hi


def _auto_ladder(
    params: ScaledParams, realization: NoiseRealization, n0s: np.ndarray, gs: np.ndarray
) -> tuple[int, float]:
    """(L, reach) of one realization's automatic ladder; see the module docstring."""
    factors = realization.amplitude_factors[: params.kick_count]
    k_total = (params.kick_strength / params.hbar_eff
               * float(np.sum(np.abs(factors))) * float(np.max(gs)))
    reach = float(np.max(np.abs(n0s))) + _bound_reach(k_total)
    need = 2 * max(math.ceil(min(reach / TAIL_FRACTION, AUTO_CUTOFF_CAP)), _MIN_CUTOFF) + 1
    return _LADDER_LENGTHS[bisect.bisect_left(_LADDER_LENGTHS, need)], reach


def _cloud_energy(
    spec: EnsembleSpec, params: ScaledParams, realization: NoiseRealization
) -> np.ndarray:
    """Mean energy per kick index 0..N of the cloud in one noise realization.

    The cloud is evolved in chunks of atoms, so only one chunk's amplitudes
    exist at a time; the chunks' energy sums and weights are added before
    the cloud-wide normalization.  The ladder is fixed before the first
    chunk, so every chunk shares it.
    """
    n0s, betas, gs = sample_atoms(spec, realization.config)
    if spec.cutoff is not None:
        l_size = 2 * spec.cutoff + 1
        remedy = f"raise the cutoff above M = {spec.cutoff}"
    else:
        l_size, reach = _auto_ladder(params, realization, n0s, gs)
        remedy = f"automatic ladder L = {l_size} for the reach bound |n0| + D = {reach:.6g}"
        if reach > TAIL_FRACTION * AUTO_CUTOFF_CAP:
            remedy += f", beyond the cap; set an explicit cutoff above M = {AUTO_CUTOFF_CAP}"
    n_grid = _ladder(l_size)
    sums = np.zeros((2, params.kick_count + 1))
    for lo in range(0, spec.n_atoms, _CHUNK_ATOMS):
        rows = slice(lo, min(lo + _CHUNK_ATOMS, spec.n_atoms))
        try:
            # each atom starts in |n0>
            sums += _evolve(
                (n_grid == n0s[rows, None]).astype(complex), betas[rows], gs[rows],
                params, realization, rows, spec.p_max,
            )
        except CutoffError as exc:
            raise CutoffError(f"{exc}; {remedy}") from None
    energy, weight = sums
    if np.any(weight <= 0.0):
        raise ValueError("detection window discarded the entire cloud")
    return energy / weight


def _windowed_energy(
    prob: np.ndarray, p2: np.ndarray, window: np.ndarray | None, scratch: np.ndarray
) -> tuple[float, float]:
    """Sum of p^2/2 weights and total weight, restricted to the window (None = no window)."""
    if window is None:
        return float(np.sum(np.multiply(prob, p2, out=scratch))) / 2.0, float(prob.shape[0])
    w = np.multiply(prob, window, out=scratch)
    total = float(np.sum(w))
    return float(np.sum(np.multiply(w, p2, out=scratch))) / 2.0, total


def ensemble_energy(
    spec: EnsembleSpec,
    params: ScaledParams,
    cfg: NoiseConfig,
    n_realizations: int = 1,
) -> tuple[np.ndarray, np.ndarray]:
    """Mean energy after each kick (index 0 = before any kick) with s.e.m.

    Realizations are averaged by `realization_mean`; each draws a fresh
    pulse train, SE schedule and cloud.
    """

    def run(rcfg: NoiseConfig) -> np.ndarray:
        realization = sample_realization(rcfg, params.kick_count, spec.n_atoms)
        return _cloud_energy(spec, params, realization)

    return realization_mean(cfg, n_realizations, run)
