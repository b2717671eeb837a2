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

Frames.  The kick is a convolution in n, so it commutes with a shift of n,
and the free phase and the energy see only n + beta.  An atom that starts in
|n0> with quasimomentum beta therefore evolves exactly like one that starts
at site 0 with the offset beta' = n0 + beta.  The cloud starts every atom so,
and an SE swap to beta_new sets beta' = n0 + beta_new: n counts sites from
the atom's own start, and the ladder holds the kicks' reach alone, whatever
the cloud's temperature.

Per-kick cost.  A kick is one in-place FFT pair around a multiply by the
kick phase, which is rebuilt only when k_eff changes: without amplitude
noise, once per stage of a block.  The free phase of all-unit gaps is built
once per block, and each new stage builds it on its new sites only.  Under
period noise, exp(-i a (n + beta)^2) with a =
hbar_eff tau_s / 2 is applied in place as three complex multiplies per
site: a row exp(-i a n^2), then per-atom blocks and powers of z =
exp(-2i a beta), running products of three exponentials per atom.  Phases
are written as cos + i sin into buffers, and the amplitudes, phases, |c|^2
and one scratch array are allocated once per block, so no kick allocates an
atoms x L array.  The one exponential left per site and kick is the per-atom
kick phase under amplitude noise with a kick spread.

Blocks.  A realization's cloud is evolved in blocks of max(1, _BLOCK_SITES
// L) atoms, L its last ladder length, one block at a time, so every
per-block array stays near the size of a core's L2 cache and a worker's
working set does not grow with the atom count (see `_cloud_energy`).  A
block's per-site arrays are allocated at length L, and a shorter stage of
the ladder works on contiguous prefixes of them.  The two SE streams are
opened once per realization and each block draws its own (atoms, kicks)
rows from them, so the blocks draw the whole cloud's SE schedule in atom
order, bit for bit.

Ladder length.  Each realization's ladder is a schedule of stages, fixed
before its first block of atoms so that every block shares it.  Conjugating
a kick U = exp(i k cos phi) by exp(t n) turns it into multiplication by
exp(i k cos(phi - i t)), whose modulus is at most exp(|k| sinh t); free
phases and SE beta swaps commute with n.  So for an atom started at site 0
of its frame, sum_n exp(2 t n) |c_n|^2 <= exp(2 K sinh t) after kicks of
summed strength K = (kappa / hbar_eff) sum_s |R_s| max(g), and optimizing
t (cosh t = D/K) bounds the mass beyond |n| > D by

    2 exp(2 (sqrt(D^2 - K^2) - D arccosh(D / K))),

at every hbar_eff, noise kind and SE schedule.  The reach D(K, tail) is
the smallest D that makes this <= tail, and a length certifies it when it
is a 5-smooth length (a fast FFT size) >= 2 ceil(D / 0.9) + 1, so the tail
guard's edge 0.9 (L // 2) lies beyond the reach, and at least 17 sites, or
the cap's 2 AUTO_CUTOFF_CAP + 1 = 1025.  The last length L is 2M + 1 for
an explicit cutoff M, and else the shortest that certifies D(K, REACH_TAIL)
for all N kicks, or 1025.  Kick s runs on its stage's length while that
certifies D(K_s, STAGE_TAIL), K_s the summed strength of kicks 0..s; else
a new stage starts on the shortest length that does, at least twice the
old one, or on L if none under L does (never on an uncertified 1025 below
a wider L).  The last kick runs on L.  The reach grows linearly with the
kicks, so a block re-lays its arrays a few times, padding the amplitudes
with zeros in momentum, which is exact up to the mass that the shorter
ladder wrapped around.  The energies move by about that tail: STAGE_TAIL,
far below REACH_TAIL, keeps them within 1e-14 of the fixed ladder's over
the tests' cases, where 1e-10 moved them by up to 1.2e-10.  The tail check
against TAIL_TOLERANCE stays the guard on every stage.

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
    STREAM_SE_BETA,
    STREAM_SE_EVENTS,
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
STAGE_TAIL = 1e-16  # the tail of every ladder stage but the last (module docstring)
_MIN_CUTOFF = 8
# the lengths of every ladder stage but an explicit cutoff's last: the
# 5-smooth ones (fast FFT sizes) below the cap's 2M + 1 sites, then the cap
_LADDER_LENGTHS = sorted(
    2**a * 3**b * 5**c
    for a in range(11) for b in range(7) for c in range(5)
    if 2**a * 3**b * 5**c < 2 * AUTO_CUTOFF_CAP + 1
) + [2 * AUTO_CUTOFF_CAP + 1]
_BLOCK_SITES = 2**16  # ladder sites per block of atoms: 1 MiB of amplitudes


def _ladder(l_size: int) -> np.ndarray:
    """Ladder indices n of an L-site ladder: -(L // 2) .. L - 1 - L // 2."""
    return np.arange(l_size) - l_size // 2


class CutoffError(RuntimeError):
    """Probability reached the edge of the momentum ladder (or n0 has no int64 index)."""


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
    cutoff: half-width M of the widest ladder stage, L = 2M + 1 sites, counted
    around each atom's start (|n - n0| <= M); earlier kicks run on shorter
    stages that the reach bound certifies.  None = automatic: the bound sizes
    L too (module docstring).
    """

    n_atoms: int = field(default=1000, metadata={"min": 1})
    sigma_p: float = field(default=2.5, metadata={"above": 0})
    beta_mode: str = field(default="thermal", metadata={"choices": BETA_MODES})
    beta_fixed: float = field(default=0.0, metadata={"min": 0, "below": 1})
    kick_spread: float = field(default=0.0, metadata={"min": 0})
    p_max: float | None = field(default=None, metadata={"above": 0})
    cutoff: int | None = field(default=None, metadata={"min": _MIN_CUTOFF})
    momenta: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        check_fields(self)
        if self.momenta is not None and len(self.momenta) != self.n_atoms:
            raise ValueError(
                f"momenta holds {len(self.momenta)} entries but n_atoms = {self.n_atoms}"
            )


def _norm_ppf(u: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Inverse standard-normal CDF (Acklam's rational fit, |rel err| < 1.2e-9), into `out`.

    Both tails take one branch: the upper is the lower mirrored, x(u) = -x(1 - u).
    out (a new array if None) may be u itself.  The central fit runs in place
    over the whole row, tail entries included, which it leaves finite and the
    tail fit then overwrites; so the peak is out, two float rows and the tail
    rows, and every entry gets the bytes of the fit of its own region.
    """
    a = (-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
         1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00)
    b = (-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
         6.680131188771972e+01, -1.328068155288572e+01)
    c = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
         -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00)
    d = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
         3.754408661907416e+00)
    u = np.asarray(u, dtype=float)
    x = np.array(u) if out is None else out
    if x is not u:
        np.copyto(x, u)
    lo, hi = 0.02425, 1.0 - 0.02425
    tail = x < lo
    tail |= x > hi
    t = x[tail]  # the temporaries of the tail fit span the tail rows only
    up = t > hi
    q = np.sqrt(-2.0 * np.log(np.where(up, 1.0 - t, t)))
    t = np.where(up, -1.0, 1.0) * (
        ((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / (
        (((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0
    )
    x -= 0.5  # q of the central fit; its denominator stays above 1e-4 on [0, 1]
    r = np.square(x)
    num = np.multiply(r, a[0])
    for coef in a[1:-1]:
        num += coef
        num *= r
    num += a[-1]
    num *= x
    np.multiply(r, b[0], out=x)  # the denominator, in place of q
    for coef in b[1:]:
        x += coef
        x *= r
    x += 1.0
    np.divide(num, x, out=x)
    x[tail] = t
    return x
def _stratified(rng: np.random.Generator, n: int) -> np.ndarray:
    """(i + U_i) / n for i = 0 .. n - 1: one uniform draw in each of n equal strata."""
    u = np.arange(n, dtype=float)
    u += rng.random(n)
    u /= n
    return u


def sample_atoms(spec: EnsembleSpec, cfg: NoiseConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Initial (n0, beta, kick_factor) arrays for one realization of the cloud.

    Stratified draws keep the ensemble average close to the distributional
    mean at small atom counts while every number stays a deterministic
    function of (master_seed, realization_index).  Every pass runs in place
    over at most two rows of one float per atom beside the outputs, so a
    thermal draw peaks at about 27 B per atom, the 24 B it returns included.
    """
    n = spec.n_atoms
    if spec.momenta is not None or spec.beta_mode == "thermal":
        if spec.momenta is not None:
            p = np.array(spec.momenta, dtype=float)
        else:
            rng = stream_rng(cfg.master_seed, cfg.realization_index, STREAM_ATOM_MOMENTA)
            p = _stratified(rng, n)
            _norm_ppf(p, out=p)
            p *= spec.sigma_p
        n0 = np.floor(p)
        # checked before the integer cast, which would wrap a huge index
        far = max(float(n0.max()), -float(n0.min()))
        if not far < 2.0**63:
            raise CutoffError(
                f"initial momenta reach |n0| = {far:g}, beyond the int64 range of a ladder index"
            )
        beta = np.subtract(p, n0, out=p)
        n0 = n0.astype(int)
    elif spec.beta_mode == "uniform":
        beta = _stratified(stream_rng(cfg.master_seed, cfg.realization_index, STREAM_ATOM_BETA), n)
        n0 = np.zeros(n, dtype=int)
    else:  # fixed
        beta = np.full(n, spec.beta_fixed)
        n0 = np.zeros(n, dtype=int)

    if spec.kick_spread > 0.0:
        rng = stream_rng(cfg.master_seed, cfg.realization_index, STREAM_KICK_SPREAD)
        g = rng.standard_normal(n)
        g *= spec.kick_spread
        g += 1.0
        while np.any(g <= 0.0):  # redraw the unphysical tail
            bad = g <= 0.0
            g[bad] = 1.0 + spec.kick_spread * rng.standard_normal(int(np.sum(bad)))
    else:
        g = np.ones(n)
    return n0, beta, g


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
    a: float, beta: np.ndarray, n_grid: np.ndarray, c: np.ndarray, tables: np.ndarray | None = None
) -> None:
    """Multiply each atom's row of c in place by exp(-i a (n + beta)^2).

    With n = n_min + B q + r (0 <= r < B, Q B = L, B the largest divisor of
    L up to sqrt L) the phase factors into a row exp(-i a n^2), a per-atom
    block exp(-i a beta (beta + 2 n_min)) z^(B q) and a per-atom power z^r
    of z = exp(-2i a beta).  The row costs L exponentials; both per-atom
    tables are running products of three (z, z^B and the block anchor), so
    a site costs three complex multiplies and no exponential.  The tables fill
    the first atoms (B + Q) entries of `tables`, or of a new array if shorter.
    """
    atoms, l_size = c.shape
    block = max(b for b in range(1, math.isqrt(l_size) + 1) if l_size % b == 0)
    if tables is None or tables.size < atoms * (block + l_size // block):
        tables = np.empty(atoms * (block + l_size // block), dtype=complex)
    w = -2.0 * a * beta  # arg z
    powers = tables[: atoms * block].reshape(atoms, block)
    powers[:, 0] = 1.0
    powers[:, 1:] = _cis(w)[:, None]
    blocks = tables[atoms * block : atoms * (block + l_size // block)].reshape(atoms, -1)
    blocks[:, 0] = _cis(-a * beta * (beta + 2.0 * n_grid[0]))
    blocks[:, 1:] = _cis(block * w)[:, None]
    np.multiply.accumulate(powers, axis=1, out=powers)
    np.multiply.accumulate(blocks, axis=1, out=blocks)
    v = c.view()
    v.shape = blocks.shape + (block,)  # raises where reshape would copy
    np.multiply(c, _cis(-a * n_grid**2), out=c)
    np.multiply(v, blocks[:, :, None], out=v)
    np.multiply(v, powers[:, None, :], out=v)


def _relay(flat: np.ndarray, held: np.ndarray, atoms: int, l_old: int, l_new: int) -> np.ndarray:
    """Re-lay the (atoms, l_old) rows at the start of `flat` as (atoms, l_new) rows.

    Site n stays site n: rows are padded with zeros (or cropped) about n = 0,
    the index L // 2, and move through `held`, a buffer of as many elements.
    Returns the (atoms, l_new) view of flat.
    """
    new = flat[: atoms * l_new].reshape(atoms, l_new)
    if l_new == l_old:
        return new
    old = held[: atoms * l_old].reshape(atoms, l_old)
    np.copyto(old, flat[: atoms * l_old].reshape(atoms, l_old))
    shift = l_new // 2 - l_old // 2
    if shift >= 0:
        new.fill(0.0)
        new[:, shift : shift + l_old] = old
    else:
        new[...] = old[:, -shift : l_new - shift]
    return new


def _evolve(
    c: np.ndarray,
    beta: np.ndarray,
    g: np.ndarray,
    params: ScaledParams,
    realization: NoiseRealization,
    se_events: np.ndarray | None,
    se_betas: np.ndarray | None,
    p_max: float | None,
    stages: tuple[tuple[int, int], ...] | None = None,
) -> np.ndarray:
    """The quantum stepper: drive a batch of atoms through the pulse train.

    c holds one amplitude row per atom (any ladder length L, C-contiguous)
    and beta their quasimomenta; both are evolved in place.  g holds the
    atoms' kick factors, se_events (True = swap beta after that kick) and
    se_betas (the betas swapped in) their (atoms, N) SE schedule, None
    without SE.  stages holds (first kick, length) pairs, from kick 0 with
    non-decreasing lengths up to L; None runs every kick on L.  The rows
    must vanish outside the first stage's ladder.  Returns the batch's
    windowed energy sum and weight per kick index 0..N (0 = before any
    kick) as the two rows of a (2, N + 1) array.

    Per kick: one in-place FFT pair around the kick phase, which is rebuilt
    only when k_eff changes (equal kick factors share one row); the free
    phase is built once for all-unit gaps and extended over each new
    stage's sites, and under period noise applied in place by
    `_jittered_free_phase`, its tables in the |c|^2 and scratch buffer
    (in a new array at a prime L, where they need one entry per atom more).
    Every per-site buffer is allocated at length L before the first kick; a
    stage of length l works on the contiguous (atoms, l) prefix of each,
    c's memory included, and `_relay` moves the amplitudes between stages.
    """
    n_kicks = params.kick_count
    atoms, l_last = c.shape
    if stages is None:
        stages = ((0, l_last),)
    hbar = params.hbar_eff
    intervals = free_evolution_intervals(realization.period_offsets[:n_kicks])
    common_kick = bool(np.all(g == g[0]))
    uniform_gaps = bool(np.all(intervals == 1.0))

    sites = c.size
    flat = c.view()
    flat.shape = (sites,)  # raises where reshape would copy
    work = np.empty(2 * sites)  # |c|^2 and scratch, what `_relay` moves, or tables
    held = work.view(complex)
    p2_buf = np.empty(sites)
    window_buf = None if p_max is None else np.empty(sites, dtype=bool)
    kick_buf = np.empty(l_last if common_kick else sites, dtype=complex)
    free_buf = np.empty(sites, dtype=complex) if uniform_gaps else None

    l_size = l_last  # the current stage's length

    def prefix(buf: np.ndarray, offset: int = 0) -> np.ndarray:
        return buf[offset : offset + atoms * l_size].reshape(atoms, l_size)

    sums = np.zeros((2, n_kicks + 1))
    ends = [first for first, _ in stages[1:]] + [n_kicks]
    for (first, l_new), end in zip(stages, ends):
        l_old, l_size = l_size, l_new
        c = _relay(flat, held, atoms, l_old, l_size)
        m = l_size // 2
        n_grid = _ladder(l_size)
        cos_phi = np.cos(2.0 * np.pi * np.arange(l_size) / l_size)
        # the tail guard's sites |n| > 0.9 M are the two ends of the ladder
        inner = np.flatnonzero(np.abs(n_grid) <= TAIL_FRACTION * m)
        left, right = inner[0], inner[-1] + 1
        prob, scratch = prefix(work), prefix(work, sites)
        p2 = prefix(p2_buf)
        np.square(np.add(n_grid[None, :], beta[:, None], out=p2), out=p2)
        window = None if p_max is None else np.less_equal(p2, p_max**2, out=prefix(window_buf))
        kick_phase = kick_buf[:l_size] if common_kick else prefix(kick_buf)
        free_unit = None
        if uniform_gaps and first == 0:
            free_unit = _cis(np.multiply(-0.5 * hbar, p2, out=scratch), out=prefix(free_buf))
        elif uniform_gaps:  # old sites keep their phases, and only the new ones are built
            free_unit = _relay(free_buf, held, atoms, l_old, l_size)
            shift = l_size // 2 - l_old // 2
            for new_sites in (slice(0, shift), slice(shift + l_old, l_size)):
                arg = np.multiply(-0.5 * hbar, p2[:, new_sites], out=scratch[:, new_sites])
                _cis(arg, out=free_unit[:, new_sites])
        if first == 0:
            np.square(np.abs(c, out=prob), out=prob)
            sums[:, 0] = _windowed_energy(prob, p2, window, scratch)

        k_built = None
        for s in range(first, end):
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

            if se_events is not None and se_events[:, s].any():
                hit = se_events[:, s]
                beta[hit] = se_betas[hit, s]
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
                    _jittered_free_phase(0.5 * hbar * intervals[s], beta, n_grid, c, held)
                else:
                    np.multiply(c, free_unit, out=c)
    return sums


def _tail_bound(k_total: float, d: float) -> float:
    """Bound on an atom's mass beyond |n| > d in its frame after kicks of strength k_total."""
    if d <= k_total:
        return 1.0
    if k_total == 0.0:
        return 0.0
    return 2.0 * math.exp(
        2.0 * (math.sqrt((d - k_total) * (d + k_total)) - d * math.acosh(d / k_total))
    )


def _bound_reach(k_total: float, tail: float = REACH_TAIL) -> float:
    """Smallest d with `_tail_bound(k_total, d)` <= tail (inf for a non-finite k_total)."""
    if k_total == 0.0:
        return 0.0
    if not math.isfinite(k_total):
        return math.inf
    # at hi even the t = 1 Chernoff bound 2 exp(2 (k sinh 1 - d)) is below tail
    lo, hi = k_total, 1.18 * k_total + 0.5 * math.log(2.0 / tail)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if _tail_bound(k_total, mid) <= tail:
            hi = mid
        else:
            lo = mid
    return hi


def _fast_length(sites: int, last: int) -> int:
    """The shortest fast ladder length of at least `sites` if below `last`, else `last`."""
    i = bisect.bisect_left(_LADDER_LENGTHS, sites)
    return min(_LADDER_LENGTHS[i], last) if i < len(_LADDER_LENGTHS) else last


def _ladder_length(reach: float, last: int) -> int:
    """The shortest ladder up to `last` whose tail guard's edge lies beyond `reach`, else `last`."""
    if reach > TAIL_FRACTION * AUTO_CUTOFF_CAP:  # no fast length (<= 1,025 sites) certifies it
        return last
    return _fast_length(2 * max(math.ceil(reach / TAIL_FRACTION), _MIN_CUTOFF) + 1, last)


def _stages(strengths: np.ndarray, last: int) -> tuple[tuple[int, int], ...]:
    """The (first kick, length) stages of a ladder ending on `last` sites (module docstring).

    strengths holds the summed strength K_s of kicks 0..s of every kick s but the last.
    """
    lengths = []  # of each kick before the last
    length = 0  # no stage yet: its edge, -0.9, certifies nothing
    for k in strengths:
        if length < last and _tail_bound(k, TAIL_FRACTION * ((length - 1) // 2)) > STAGE_TAIL:
            length = max(_ladder_length(_bound_reach(k, STAGE_TAIL), last),
                         _fast_length(2 * length, last))
        lengths.append(length)
    lengths.append(last)  # the last kick, or a train of no kicks
    return tuple((s, size) for s, size in enumerate(lengths) if s == 0 or size > lengths[s - 1])


def _cloud_energy(
    spec: EnsembleSpec, params: ScaledParams, realization: NoiseRealization
) -> np.ndarray:
    """Mean energy per kick index 0..N of the cloud in one noise realization.

    Every atom starts at site 0 of its own frame, with beta' = n0 + beta,
    and its SE swaps set beta' = n0 + beta_new (module docstring).  The
    cloud is evolved in blocks of max(1, _BLOCK_SITES // L) atoms, L the
    ladder's last length (2M + 1 for an explicit cutoff M), so only one
    block's amplitudes exist at a time; the blocks' energy sums and weights
    are added in block order before the cloud-wide normalization.  The
    ladder's stages are fixed before the first block, so every block shares
    them.

    Per-worker working set: one block of at most _BLOCK_SITES sites at
    length L (or one atom's L, if longer), at 73 B per site at most, whose
    shorter stages use prefixes of the same buffers: the amplitudes 16,
    |c|^2 8, scratch 8, p^2 8, the kick phase 16 (per atom under a kick
    spread), the all-unit-gap free phase 16 and the window 1, about 4.8 MB;
    plus the block's SE rows, 9 B per atom and kick, and the cloud's n0,
    beta and g at 24 B per atom.
    """
    cfg = realization.config
    n0s, betas, gs = sample_atoms(spec, cfg)
    betas += n0s  # the frames' offsets n0 + beta
    if cfg.se_probability > 0.0:  # each block draws its rows of the cloud's schedule
        event_rng = stream_rng(cfg.master_seed, cfg.realization_index, STREAM_SE_EVENTS)
        beta_rng = stream_rng(cfg.master_seed, cfg.realization_index, STREAM_SE_BETA)
    factors = np.abs(realization.amplitude_factors[: params.kick_count])
    k_unit, g_max = params.kick_strength / params.hbar_eff, float(np.max(gs))
    if spec.cutoff is not None:
        l_size = 2 * spec.cutoff + 1
        remedy = f"raise the cutoff above M = {spec.cutoff}"
    else:
        reach = _bound_reach(k_unit * float(np.sum(factors)) * g_max)
        l_size = _ladder_length(reach, 2 * AUTO_CUTOFF_CAP + 1)
        remedy = f"automatic ladder L = {l_size} for the reach bound D = {reach:.6g}"
        if reach > TAIL_FRACTION * AUTO_CUTOFF_CAP:
            remedy += f", beyond the cap; set an explicit cutoff above M = {AUTO_CUTOFF_CAP}"
    stages = _stages(k_unit * np.cumsum(factors[:-1]) * g_max, l_size)
    per_block = max(1, _BLOCK_SITES // l_size)
    sums = np.zeros((2, params.kick_count + 1))
    for lo in range(0, spec.n_atoms, per_block):
        rows = slice(lo, min(lo + per_block, spec.n_atoms))
        se_events = se_betas = None  # frees the last block's rows before the next draw
        if cfg.se_probability > 0.0:
            se_events = event_rng.random((rows.stop - lo, params.kick_count)) < cfg.se_probability
            se_betas = beta_rng.random((rows.stop - lo, params.kick_count))
            se_betas += n0s[rows, None]  # a swap keeps the atom's frame
        c = np.zeros((rows.stop - lo, l_size), dtype=complex)
        c[:, l_size // 2] = 1.0  # every atom starts at site 0 of its frame
        try:
            sums += _evolve(c, betas[rows], gs[rows], params, realization, se_events, se_betas,
                            spec.p_max, stages)
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
        return _cloud_energy(spec, params, sample_realization(rcfg, params.kick_count))

    return realization_mean(cfg, n_realizations, run)
