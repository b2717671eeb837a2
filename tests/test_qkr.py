"""Quantum ladder dynamics: single atoms, operator composition, ensembles."""

import hashlib
import itertools
import math
import re
import tracemalloc

import mpmath
import numpy as np
import pytest
import scipy.special
import scipy.stats
from hypothesis import given, settings, strategies as st

from aokr import qkr
from aokr.cli import build_spec, run_scan
from aokr.core import ScaledParams
from aokr.epsmap import EpsParams
from aokr.noise import (
    STREAM_SE_BETA,
    STREAM_SE_EVENTS,
    NoiseConfig,
    NoiseRealization,
    free_evolution_intervals,
    sample_realization,
    stream_rng,
)
from aokr.qkr import (
    CutoffError,
    EnsembleSpec,
    _norm_ppf,
    _tail_bound,
    ensemble_energy,
    sample_atoms,
)
from aokr.theory import bessel_j_row, kick_strength_from_energy

TWO_PI = 2.0 * math.pi
NAN = float("nan")
INF = float("inf")


# ---------------------------------------------------------------------------
# oracles, hand-built pulse trains and the one-atom route through the stepper
# ---------------------------------------------------------------------------

def _kick_kernel(k_eff, l_size):
    """Convolution kernel i^d J_d(k_eff), d = -D .. D, truncated below 1e-18."""
    d_max = min(int(abs(k_eff)) + 45, l_size - 1)
    row = bessel_j_row(d_max, abs(k_eff))
    keep = max(np.argmax(np.abs(row[::-1]) > 1e-18), 0)
    d_max -= keep
    row = row[: d_max + 1]
    d = np.arange(-d_max, d_max + 1)
    vals = row[np.abs(d)].astype(complex)
    if k_eff >= 0:
        vals[d < 0] *= (-1.0) ** np.abs(d[d < 0])  # J_{-d} = (-1)^d J_d
        return (1j) ** d * vals
    vals[d > 0] *= (-1.0) ** d[d > 0]  # J_d(-x) = (-1)^d J_d(x)
    return (1j) ** d * vals


def _oracle_kick(c, k_eff):
    """One kick exp(i k_eff cos phi) as a direct convolution with the Bessel kernel."""
    return np.convolve(c, _kick_kernel(k_eff, len(c)), mode="same")


def _oracle_atom(c, beta, g, params, realization, se_events=None, se_betas=None):
    """One atom through the pulse train by oracle kicks, explicit free phases
    and the SE beta swaps of its (N,) schedule rows se_events, se_betas (None
    without SE); returns (c, beta, energies with index 0 = before any kick)."""
    n_grid = np.arange(len(c)) - len(c) // 2
    intervals = free_evolution_intervals(realization.period_offsets[: params.kick_count])
    energies = [0.5 * np.sum(np.abs(c) ** 2 * (n_grid + beta) ** 2)]
    for s in range(params.kick_count):
        k_eff = g * params.kick_strength * realization.amplitude_factors[s] / params.hbar_eff
        c = _oracle_kick(c, k_eff)
        if se_events is not None and se_events[s]:
            beta = float(se_betas[s])
        energies.append(0.5 * np.sum(np.abs(c) ** 2 * (n_grid + beta) ** 2))
        if s < params.kick_count - 1:
            c = c * np.exp(-0.5j * params.hbar_eff * intervals[s] * (n_grid + beta) ** 2)
    return c, beta, np.array(energies)


def _direct_exp_stepper(c, beta, g, params, realization, se_events, se_betas, p_max):
    """Reference stepper: fresh np.exp phases at every kick and a fresh array
    per pass; the kick multiply puts the kick phase first, as `qkr._evolve`
    does, and SE swaps beta by the (atoms, N) schedule se_events, se_betas
    (None without SE).  Returns (c, beta, energy sums, weights)."""
    n_kicks = params.kick_count
    l_size = c.shape[1]
    n_grid = np.arange(l_size) - l_size // 2
    cos_phi = np.cos(2.0 * np.pi * np.arange(l_size) / l_size)
    hbar = params.hbar_eff
    intervals = free_evolution_intervals(realization.period_offsets[:n_kicks])
    common_kick = bool(np.all(g == g[0]))
    beta = beta.copy()
    p2 = (n_grid[None, :] + beta[:, None]) ** 2
    free_unit = np.exp(-0.5j * hbar * p2) if np.all(intervals == 1.0) else None

    def windowed(prob):
        if p_max is None:
            return np.sum(prob * p2) / 2.0, prob.shape[0]
        w = prob * (p2 <= p_max**2)
        return np.sum(w * p2) / 2.0, np.sum(w)

    sums = [windowed(np.abs(c) ** 2)]
    for s in range(n_kicks):
        k_eff = params.kick_strength * realization.amplitude_factors[s] / hbar
        if common_kick:
            kick_phase = np.exp(1j * (k_eff * g[0]) * cos_phi)
        else:
            kick_phase = np.exp(1j * (k_eff * g)[:, None] * cos_phi[None, :])
        c = np.fft.fft(np.multiply(kick_phase, np.fft.ifft(c, axis=1)), axis=1)
        if se_events is not None and se_events[:, s].any():
            hit = se_events[:, s]
            beta[hit] = se_betas[hit, s]
            p2[hit] = (n_grid[None, :] + beta[hit, None]) ** 2
            if free_unit is not None:
                free_unit[hit] = np.exp(-0.5j * hbar * p2[hit])
        sums.append(windowed(np.abs(c) ** 2))
        if s < n_kicks - 1:
            if free_unit is None:
                c = c * np.exp((-0.5j * hbar * intervals[s]) * p2)
            else:
                c = c * free_unit
    energy, weight = np.array(sums).T
    return c, beta, energy, weight


def _train(factors, offsets=None):
    """Pulse train with the given kick factors and period offsets."""
    return NoiseRealization(
        config=NoiseConfig(),
        amplitude_factors=np.asarray(factors, dtype=float),
        period_offsets=np.zeros(len(factors)) if offsets is None else np.asarray(offsets, float),
    )


def _se_schedule(cfg, n_atoms, n_kicks):
    """A cloud's whole SE schedule in one (n_atoms, n_kicks) draw of each SE
    stream: (events, betas), or (None, None) without SE."""
    if cfg.se_probability == 0.0:
        return None, None
    events = stream_rng(cfg.master_seed, cfg.realization_index, STREAM_SE_EVENTS)
    betas = stream_rng(cfg.master_seed, cfg.realization_index, STREAM_SE_BETA)
    shape = (n_atoms, n_kicks)
    return events.random(shape) < cfg.se_probability, betas.random(shape)


def _plane_wave(cutoff, n0=0):
    """Amplitudes of the momentum eigenstate |n0> on a ladder of half-width `cutoff`."""
    c = np.zeros(2 * cutoff + 1, dtype=complex)
    c[cutoff + n0] = 1.0
    return c


def _evolve_row(amplitudes, beta, params, realization, g=1.0, se_events=None, se_betas=None,
                stages=None):
    """One atom through the stepper as a (1, L) batch, with the (1, N) SE
    schedule se_events, se_betas (None without SE) and the ladder's stages
    (None: every kick on L).  Returns the amplitudes and beta that
    `qkr._evolve` evolved in place, and the energy after each kick (index 0
    = before any kick)."""
    c = np.array(amplitudes, dtype=complex)[None, :]
    b = np.array([beta], dtype=float)
    energy, weight = qkr._evolve(
        c, b, np.array([g], dtype=float), params, realization, se_events, se_betas, None, stages
    )
    return c[0], float(b[0]), energy / weight


def _kick(amplitudes, kappa_n, hbar_eff, beta=0.0):
    """Amplitudes after one kick exp(i k_eff cos phi), k_eff = kappa_n / hbar_eff."""
    params = ScaledParams(hbar_eff=hbar_eff, kick_strength=1.0, kick_count=1)
    return _evolve_row(amplitudes, beta, params, _train([kappa_n]))[0]


def _single_atom_history(beta, kick_ratio, hbar_eff, kick_count, cutoff):
    """Energy after each kick of one plane wave at n0 = 0, fixed beta, no noise."""
    spec = EnsembleSpec(n_atoms=1, beta_mode="fixed", beta_fixed=beta, cutoff=cutoff)
    params = ScaledParams(hbar_eff=hbar_eff, kick_strength=kick_ratio * hbar_eff,
                          kick_count=kick_count)
    return ensemble_energy(spec, params, NoiseConfig(master_seed=0))[0]


class _StepperSpy:
    """Keeps the amplitudes and beta that each `_evolve` call of the cloud
    evolves in place, one call per block of atoms, and the SE schedule rows
    it was handed, and records the ladder's last length L and its stages
    once per realization: at its first block, which every later block of
    the realization must share."""

    def __init__(self, monkeypatch):
        self.batches = []
        self.schedules = []
        self.lengths = []
        self.ladders = []
        self.sums = []
        self._realization = None  # held, so a new realization is a new object
        evolve = qkr._evolve

        def spy(c, beta, g, params, realization, se_events, se_betas, p_max, stages=None):
            stages = stages or ((0, c.shape[1]),)  # `_evolve`'s own default
            self.batches.append((c, beta))
            self.schedules.append((se_events, se_betas))
            if realization is not self._realization:
                self._realization = realization
                self.lengths.append(c.shape[1])
                self.ladders.append(stages)
            assert c.shape[1] == self.lengths[-1] == stages[-1][1]
            assert stages == self.ladders[-1]
            self.sums.append(
                evolve(c, beta, g, params, realization, se_events, se_betas, p_max, stages)
            )
            return self.sums[-1]

        monkeypatch.setattr(qkr, "_evolve", spy)


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "make, kwargs, field",
    [
        pytest.param(make, kwargs, field, id=f"{make.__name__}.{field.partition('[')[0]}")
        for make, kwargs, field in [
            (ScaledParams, dict(hbar_eff=NAN, kick_strength=1.0), "hbar_eff"),
            (ScaledParams, dict(hbar_eff=1.0, kick_strength=INF), "kick_strength"),
            (EnsembleSpec, dict(n_atoms=2, sigma_p=NAN), "sigma_p"),
            (EnsembleSpec, dict(n_atoms=2, beta_mode="fixed", beta_fixed=NAN), "beta_fixed"),
            (EnsembleSpec, dict(n_atoms=2, kick_spread=NAN), "kick_spread"),
            (EnsembleSpec, dict(n_atoms=2, p_max=NAN), "p_max"),
            (EnsembleSpec, dict(n_atoms=2, momenta=(INF, 0.0)), "momenta[0]"),
            (NoiseConfig, dict(amplitude_level=NAN), "amplitude_level"),
            (NoiseConfig, dict(period_level=NAN), "period_level"),
            (NoiseConfig, dict(se_probability=NAN), "se_probability"),
            (EpsParams, dict(epsilon=NAN, kick_ratio=1.0), "epsilon"),
            (EpsParams, dict(epsilon=0.01, kick_ratio=NAN), "kick_ratio"),
            (kick_strength_from_energy, dict(energy=NAN, n_kicks=20), "energy"),
        ]
    ],
)
def test_non_finite_fields_are_rejected(make, kwargs, field):
    with pytest.raises(ValueError, match=f"^{re.escape(field)} must be finite"):
        make(**kwargs)


@pytest.mark.parametrize("value", [2.5, True, np.int64(16)], ids=["float", "bool", "numpy"])
@pytest.mark.parametrize(
    "make, kwargs, field",
    [
        pytest.param(make, kwargs, field, id=f"{make.__name__}.{field}")
        for make, kwargs, field in [
            (EnsembleSpec, dict(), "n_atoms"),
            (EnsembleSpec, dict(n_atoms=2), "cutoff"),
            (ScaledParams, dict(hbar_eff=1.0, kick_strength=1.0), "kick_count"),
            (EpsParams, dict(epsilon=0.01, kick_ratio=1.0), "resonance_order"),
            (NoiseConfig, dict(), "master_seed"),
            (NoiseConfig, dict(), "realization_index"),
        ]
    ],
)
def test_counts_must_be_integers(make, kwargs, field, value):
    # a numpy integer is kept as int; a bool or a float is rejected by name
    if isinstance(value, np.integer):
        made = make(**kwargs, **{field: value})
        assert getattr(made, field) == 16 and type(getattr(made, field)) is int
    else:
        with pytest.raises(ValueError, match=f"^{field} must be an integer, got {value!r}$"):
            make(**kwargs, **{field: value})


def test_validate_flags_tail_mass():
    amps = np.zeros(33, dtype=complex)
    amps[1] = 1.0  # n = -15, beyond 0.9 * 16
    with pytest.raises(CutoffError):
        _kick(amps, 0.0, 1.0)


# ---------------------------------------------------------------------------
# single operators
# ---------------------------------------------------------------------------

def test_kick_zero_strength_is_identity():
    s = _plane_wave(16, n0=2)
    out = _kick(s, 0.0, TWO_PI, beta=0.3)
    assert np.max(np.abs(out - s)) < 1e-14


def test_kick_populations_match_bessel_squares():
    # one kick from vacuum populates sidebands with weight J_d(k_eff)^2
    k_eff = 3.77
    pops = np.abs(_kick(_plane_wave(64), k_eff, 1.0)) ** 2
    want = scipy.special.jn(np.arange(-64, 65), k_eff) ** 2
    assert np.max(np.abs(pops - want)) < 1e-14


def test_kick_methods_agree():
    # the FFT kick of the stepper against the Bessel-convolution oracle, on
    # an odd and an even ladder: the round trip is unitary at any length
    for l_size in (129, 128):
        rng = np.random.default_rng(11)
        amps = np.zeros(l_size, dtype=complex)
        amps[54:75] = rng.standard_normal(21) + 1j * rng.standard_normal(21)
        amps /= np.linalg.norm(amps)
        for kappa_n in (5.3, -2.7):
            a = _kick(amps, kappa_n, 1.7, beta=0.41)
            b = _oracle_kick(amps, kappa_n / 1.7)
            assert np.max(np.abs(a - b)) < 1e-12
            assert np.sum(np.abs(a) ** 2) == pytest.approx(1.0, abs=1e-13)


def test_free_evolution_phases_and_invariants():
    # two zero-strength kicks around one gap of 0.7 periods
    amps = np.zeros(17, dtype=complex)
    amps[8] = amps[9] = 1.0 / math.sqrt(2.0)  # n = 0 and n = 1
    p = ScaledParams(hbar_eff=1.9, kick_strength=0.0, kick_count=2)
    out, _, energies = _evolve_row(amps, 0.2, p, _train([1.0, 1.0], offsets=[0.0, -0.3]))
    assert np.allclose(np.abs(out), np.abs(amps))
    assert energies[-1] == pytest.approx(0.25 * (0.2**2 + 1.2**2))
    ratio = out[9] / amps[9] * np.conj(out[8] / amps[8])
    want = np.exp(-0.5j * 1.9 * 0.7 * (1.2**2 - 0.2**2))
    assert abs(ratio - want) < 1e-14


def test_reshuffle_swaps_beta_only():
    # an SE event right after the kick replaces beta and keeps the amplitudes
    p = ScaledParams(hbar_eff=1.0, kick_strength=2.0, kick_count=1)
    plain, plain_beta, _ = _evolve_row(_plane_wave(32), 0.1, p, _train([1.0]))
    swap = np.array([[True]]), np.array([[0.9]])
    out, out_beta, _ = _evolve_row(_plane_wave(32), 0.1, p, _train([1.0]), 1.0, *swap)
    assert plain_beta == 0.1 and out_beta == 0.9
    assert np.array_equal(out, plain)


@settings(max_examples=25, deadline=None)
@given(
    beta=st.floats(min_value=0.0, max_value=0.999),
    kappa_n=st.floats(min_value=-1.5, max_value=1.5),
)
def test_kick_is_unitary(beta, kappa_n):
    amps = np.zeros(33, dtype=complex)
    amps[14:19] = [0.5, -0.5j, 0.5, 0.3, 0.3j]
    amps /= np.linalg.norm(amps)
    out = _kick(amps, kappa_n, 1.3, beta=beta)
    assert abs(np.sum(np.abs(out) ** 2) - 1.0) < 1e-12


# ---------------------------------------------------------------------------
# resonant dynamics of a single atom
# ---------------------------------------------------------------------------

def test_antiresonance_returns_every_second_kick():
    # beta = 0 at hbar_eff = 2 pi: consecutive kicks cancel exactly
    hist = _single_atom_history(0.0, 3.77, TWO_PI, 12, 64)
    assert np.max(np.abs(hist[2::2] - hist[0])) < 1e-8


def test_ballistic_growth_at_half_integer_beta():
    # beta = 1/2 at hbar_eff = 2 pi: kicks add coherently,
    # E_N = (k N)^2 / 4 + beta^2 / 2 with k the kick ratio
    k = 3.77
    hist = _single_atom_history(0.5, k, TWO_PI, 6, 192)
    for n in range(1, 7):
        assert hist[n] == pytest.approx(0.25 * (k * n) ** 2 + 0.125, rel=1e-9)


def test_ladder_translation_symmetry_at_resonance():
    # at hbar_eff = 2 pi m the dynamics commute with ladder shifts up to a
    # global sign, so P(n | start s) = P(n - s | start 0)
    for hbar in (TWO_PI, 2 * TWO_PI):
        p = ScaledParams(hbar_eff=hbar, kick_strength=3.77 * hbar, kick_count=4)
        r = sample_realization(NoiseConfig(amplitude_level=1.0, master_seed=2), 4)
        base, _, _ = _evolve_row(_plane_wave(96, n0=0), 0.0, p, r)
        moved, _, _ = _evolve_row(_plane_wave(96, n0=5), 0.0, p, r)
        assert np.max(np.abs(np.roll(np.abs(base) ** 2, 5) - np.abs(moved) ** 2)) < 1e-12


# ---------------------------------------------------------------------------
# full pulse train against a dense matrix oracle
# ---------------------------------------------------------------------------

def _dense_step_matrices(n_grid, k_eff):
    d = np.subtract.outer(n_grid, n_grid)
    return (1j) ** d * scipy.special.jn(d, k_eff)


def test_evolve_atom_matches_matrix_composition():
    # independent route: truncated one-kick matrices composed by hand
    m = 24
    n_grid = np.arange(-m, m + 1)
    beta = 0.37
    hbar = 1.8
    p = ScaledParams(hbar_eff=hbar, kick_strength=1.3 * hbar, kick_count=4)
    cfg = NoiseConfig(amplitude_level=1.5, period_level=0.08, master_seed=5)
    r = sample_realization(cfg, p.kick_count)
    intervals = free_evolution_intervals(r.period_offsets)

    vec = np.zeros(2 * m + 1, dtype=complex)
    vec[m + 1] = 1.0  # n0 = 1
    start = _plane_wave(m, n0=1)
    for s in range(p.kick_count):
        k_eff = p.kick_strength * r.amplitude_factors[s] / hbar
        vec = _dense_step_matrices(n_grid, k_eff) @ vec
        if s < p.kick_count - 1:
            vec = vec * np.exp(-0.5j * hbar * intervals[s] * (n_grid + beta) ** 2)

    stepper, _, _ = _evolve_row(start, beta, p, r)
    oracle, _, _ = _oracle_atom(start, beta, 1.0, p, r)
    for out in (stepper, oracle):
        assert np.max(np.abs(out - vec)) < 1e-9


def _check_stepper_against_direct_exp(noise, kick_spread, se, p_max, cutoff):
    """`qkr._evolve` against `_direct_exp_stepper` for 60 atoms on the
    L = 2 cutoff + 1 ladder: bit for bit on uniform gaps, to 1e-12 under
    period noise; amplitudes relative to each atom's unit norm."""
    hbar = TWO_PI + 0.1
    p = ScaledParams(hbar_eff=hbar, kick_strength=3.63 * hbar, kick_count=6)
    spec = EnsembleSpec(n_atoms=60, kick_spread=kick_spread, p_max=p_max, cutoff=cutoff)
    levels = {"none": {}, "amplitude": {"amplitude_level": 1.0}, "period": {"period_level": 0.1}}
    cfg = NoiseConfig(se_probability=se, master_seed=5, **levels[noise])
    r = sample_realization(cfg, p.kick_count)
    events, se_betas = _se_schedule(cfg, spec.n_atoms, p.kick_count)
    assert (events is not None and events[:, :-1].sum() >= 4) == (se > 0.0)
    n0, beta, g = sample_atoms(spec, cfg)
    start = (qkr._ladder(2 * cutoff + 1) == n0[:, None]).astype(complex)
    c, new_beta = start.copy(), beta.copy()
    energy, weight = qkr._evolve(c, new_beta, g, p, r, events, se_betas, p_max)
    want_c, want_beta, want_energy, want_weight = _direct_exp_stepper(
        start, beta, g, p, r, events, se_betas, p_max
    )
    assert np.array_equal(new_beta, want_beta)
    if p_max is not None:
        assert weight[-1] < 0.99 * spec.n_atoms  # the window discards mass
    if noise != "period":
        for got, want in ((c, want_c), (energy, want_energy), (weight, want_weight)):
            assert got.tobytes() == want.tobytes()
    else:
        assert np.max(np.linalg.norm(c - want_c, axis=1)) <= 1e-12
        np.testing.assert_allclose(energy, want_energy, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(weight, want_weight, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize(
    "noise, kick_spread, se, p_max",
    list(itertools.product(
        ("none", "amplitude", "period"), (0.0, 0.05), (0.0, 0.025), (None, 7.5)
    )),
)
def test_stepper_matches_the_direct_exp_stepper(noise, kick_spread, se, p_max):
    # the buffered stepper against fresh np.exp phases at every kick: bit for
    # bit on uniform gaps (reused kick phases, cos + i sin, in-place
    # transforms), and to 1e-12 under period noise, whose free phase is
    # factored; L = 129 is viewed as Q = 43 blocks of B = 3 sites
    _check_stepper_against_direct_exp(noise, kick_spread, se, p_max, cutoff=64)


@pytest.mark.parametrize(
    "cutoff, kick_spread, se, p_max",
    list(itertools.product((48, 192), (0.0, 0.05), (0.0, 0.025), (None, 7.5))),
)
def test_period_noise_stepper_matches_the_direct_exp_stepper_on_other_ladders(
    cutoff, kick_spread, se, p_max
):
    # the factored free phase on a prime ladder (L = 97, blocks of B = 1
    # site) and on the peak-jitter ladder (L = 385, Q = 35 blocks of B = 11)
    _check_stepper_against_direct_exp("period", kick_spread, se, p_max, cutoff)


def _exact_free_phase(a, betas, n_grid):
    """exp(-i a (n + beta)^2) with the phase reduced mod 2 pi in 256-bit arithmetic."""
    with mpmath.workprec(256):
        exact = np.array([
            [float(mpmath.fmod(-mpmath.mpf(a) * (int(n) + mpmath.mpf(b)) ** 2, 2 * mpmath.pi))
             for n in n_grid]
            for b in betas
        ])
    return np.exp(1j * exact)


_FREE_PHASE_BETAS = np.array([0.0, 0.125, 0.3, 0.5, 0.77, 0.999, 1.0 - 2.0**-30])
_FREE_PHASE_TAUS = (1e-3, 0.25, 0.5, 1.0, 1.5, 1.75, 1.999)


def _free_phase_errors(l_size, tau):
    """Largest errors of the in-place free phase applied to rows of ones and
    of the direct np.exp, against the exact phase, on the L-site ladder."""
    a = 0.5 * (TWO_PI + 0.2) * tau
    n_grid = qkr._ladder(l_size)
    got = np.ones((_FREE_PHASE_BETAS.size, l_size), dtype=complex)
    qkr._jittered_free_phase(a, _FREE_PHASE_BETAS, n_grid, got)
    direct = np.exp(-1j * a * (n_grid[None, :] + _FREE_PHASE_BETAS[:, None]) ** 2)
    want = _exact_free_phase(a, _FREE_PHASE_BETAS, n_grid)
    return np.max(np.abs(got - want)), np.max(np.abs(direct - want))


def test_jittered_free_phase_against_mpmath():
    # the factored free phase exp(-i a (n + beta)^2) is no less accurate than
    # the direct np.exp of the full argument, for |n| <= 512 and every gap:
    # a = hbar tau / 2 with tau up to 1 + L_P at hbar = 2 pi + 0.2
    for tau in _FREE_PHASE_TAUS:
        got, direct = _free_phase_errors(1025, tau)
        assert got <= direct


@pytest.mark.parametrize("l_size", [97, 240, 385])
def test_jittered_free_phase_on_short_ladders_against_mpmath(l_size):
    # on short ladders the direct np.exp is off by a few ulp only, while the
    # running products of the factored phase chain up to Q + B roundings (98
    # on the prime L = 97, where B = 1): within max(direct error, 1e-13)
    for tau in _FREE_PHASE_TAUS:
        got, direct = _free_phase_errors(l_size, tau)
        assert got <= max(direct, 1e-13)


@pytest.mark.parametrize("l_size", [97, 385])
def test_jittered_free_phase_tables_in_a_buffer(l_size):
    # tables kept in a buffer of L entries per atom, as `_evolve` hands over
    # its |c|^2 and scratch buffer, give the bytes of fresh tables; at the
    # prime L = 97 (B + Q = L + 1) they do not fit and a new array takes them
    a, n_grid = 0.5 * (TWO_PI + 0.2) * 1.5, qkr._ladder(l_size)
    fresh = np.ones((_FREE_PHASE_BETAS.size, l_size), dtype=complex)
    qkr._jittered_free_phase(a, _FREE_PHASE_BETAS, n_grid, fresh)
    held = np.full(fresh.size, np.nan, dtype=complex)
    got = np.ones_like(fresh)
    qkr._jittered_free_phase(a, _FREE_PHASE_BETAS, n_grid, got, held)
    assert got.tobytes() == fresh.tobytes()
    assert np.isnan(held).all() == (l_size == 97)


def test_jittered_free_phase_evaluates_three_phases_per_atom(monkeypatch):
    # one exponential per site of the row exp(-i a n^2) and three per atom
    # for the block and power tables, none per atom and site: the phases that
    # `_cis` evaluates inside the one free phase of a two-kick train
    count = {"calls": 0, "inside": False, "phases": 0}
    cis, free_phase = qkr._cis, qkr._jittered_free_phase

    def cis_spy(x, out=None):
        if count["inside"]:
            count["phases"] += np.size(x) if out is None else out.size
        return cis(x, out)

    def free_phase_spy(*args):
        count["calls"] += 1
        count["inside"] = True
        try:
            return free_phase(*args)
        finally:
            count["inside"] = False

    monkeypatch.setattr(qkr, "_cis", cis_spy)
    monkeypatch.setattr(qkr, "_jittered_free_phase", free_phase_spy)
    atoms, cutoff = 50, 192
    p = ScaledParams(hbar_eff=TWO_PI + 0.1, kick_strength=TWO_PI, kick_count=2)
    r = sample_realization(NoiseConfig(period_level=0.1, master_seed=5), 2)
    c = np.zeros((atoms, 2 * cutoff + 1), dtype=complex)
    c[:, cutoff] = 1.0
    qkr._evolve(c, np.linspace(0.0, 0.99, atoms), np.ones(atoms), p, r, None, None, None)
    assert count["calls"] == 1
    assert 0 < count["phases"] <= 2 * cutoff + 1 + 3 * atoms


def test_evolve_atom_edge_cases():
    # a train of no kicks leaves the amplitudes and beta as they were
    p = ScaledParams(hbar_eff=TWO_PI, kick_strength=1.0, kick_count=0)
    r = sample_realization(NoiseConfig(master_seed=1), 3)
    c, beta, energies = _evolve_row(_plane_wave(8), 0.1, p, r)
    assert np.array_equal(c, _plane_wave(8)) and beta == 0.1
    assert energies.tolist() == [0.5 * 0.1**2]


def test_norm_survives_noisy_train():
    p = ScaledParams(hbar_eff=2.0, kick_strength=2.6, kick_count=20)
    cfg = NoiseConfig(
        amplitude_level=1.5, period_level=0.08, se_probability=0.3, master_seed=9
    )
    r = sample_realization(cfg, p.kick_count)
    out, _, _ = _evolve_row(_plane_wave(128), 0.33, p, r, 1.0, *_se_schedule(cfg, 1, 20))
    assert abs(np.sum(np.abs(out) ** 2) - 1.0) < 1e-12


# ---------------------------------------------------------------------------
# ensemble sampling
# ---------------------------------------------------------------------------

def test_ensemble_spec_validation():
    with pytest.raises(ValueError):
        EnsembleSpec(n_atoms=0)
    with pytest.raises(ValueError):
        EnsembleSpec(n_atoms=4, beta_mode="poisson")
    with pytest.raises(ValueError):
        EnsembleSpec(n_atoms=4, sigma_p=0.0)
    with pytest.raises(ValueError):
        EnsembleSpec(n_atoms=4, beta_mode="fixed", beta_fixed=1.0)
    with pytest.raises(ValueError):
        EnsembleSpec(n_atoms=4, kick_spread=-0.1)
    with pytest.raises(ValueError):
        EnsembleSpec(n_atoms=4, p_max=0.0)
    with pytest.raises(ValueError):
        EnsembleSpec(n_atoms=4, cutoff=4)
    with pytest.raises(ValueError):
        EnsembleSpec(n_atoms=4, momenta=(0.5, 1.5))


def test_norm_ppf_against_scipy():
    u = np.concatenate(
        [np.array([1e-9, 0.024, 0.0243, 0.5, 0.9757, 1 - 1e-9]), np.linspace(0.001, 0.999, 97)]
    )
    got = _norm_ppf(u)
    want = scipy.stats.norm.ppf(u)
    assert np.max(np.abs(got - want) / np.maximum(np.abs(want), 1.0)) < 1e-8


def test_norm_ppf_bytes_are_pinned():
    # the central region, both tails down to 1e-300 and up to 1 - 1e-16, and
    # each region boundary and its neighbouring floats on either side
    lo, hi = 0.02425, 1.0 - 0.02425
    u = np.concatenate([
        np.linspace(1e-6, 1.0 - 1e-6, 4001),
        np.geomspace(1e-300, lo, 300),
        1.0 - np.geomspace(1e-16, lo, 300),
        [np.nextafter(edge, to) for edge in (lo, hi) for to in (0.0, edge, 1.0)],
        [5e-324, 1.0 - 2.0**-53],
    ])
    assert (np.sum(u < lo), np.sum(u > hi)) == (398, 398)
    digest = hashlib.sha256(_norm_ppf(u).astype("<f8").tobytes()).hexdigest()
    assert digest == "1fd456cd0f0447909f18a98e52e6a8ddb46cb277be01fcee29ef5e302afdfa75"


def test_thermal_sampling_energy_and_determinism():
    spec = EnsembleSpec(n_atoms=2000, sigma_p=2.5, cutoff=64)
    cfg = NoiseConfig(master_seed=4)
    n0, beta, g = sample_atoms(spec, cfg)
    assert np.all((beta >= 0.0) & (beta < 1.0))
    assert np.array_equal(g, np.ones(2000))
    p = n0 + beta
    assert np.mean(p**2) / 2.0 == pytest.approx(2.5**2 / 2.0, rel=1e-3)
    assert abs(np.mean(p)) < 0.01
    again = sample_atoms(spec, cfg)
    assert np.array_equal(again[0], n0) and np.array_equal(again[1], beta)
    other = sample_atoms(spec, NoiseConfig(master_seed=5))
    assert not np.array_equal(other[1], beta)


def test_uniform_and_fixed_sampling():
    spec = EnsembleSpec(n_atoms=400, beta_mode="uniform", cutoff=32)
    n0, beta, _ = sample_atoms(spec, NoiseConfig(master_seed=1))
    assert np.array_equal(n0, np.zeros(400, dtype=int))
    # stratified: one beta per bin of width 1/400
    assert np.array_equal(np.floor(np.sort(beta) * 400).astype(int), np.arange(400))
    fixed = EnsembleSpec(n_atoms=5, beta_mode="fixed", beta_fixed=0.5, cutoff=32)
    _, fb, _ = sample_atoms(fixed, NoiseConfig(master_seed=1))
    assert np.array_equal(fb, np.full(5, 0.5))


def test_explicit_momenta_and_cutoff_guard():
    spec = EnsembleSpec(n_atoms=3, momenta=(-1.2, 0.0, 2.7), cutoff=16)
    n0, beta, _ = sample_atoms(spec, NoiseConfig(master_seed=0))
    assert np.array_equal(n0, [-2, 0, 2])
    assert np.allclose(n0 + beta, [-1.2, 0.0, 2.7])
    # every atom starts at site 0 of its own frame, so no ladder bounds |n0|:
    # a sigma_p = 400 cloud samples under a cutoff of 16 and under the
    # automatic ladder's cap alike
    for cutoff in (16, None):
        hot = EnsembleSpec(n_atoms=64, sigma_p=400.0, cutoff=cutoff)
        n0, _, _ = sample_atoms(hot, NoiseConfig(master_seed=0))
        assert np.max(np.abs(n0)) > 512
    assert sample_atoms(EnsembleSpec(n_atoms=1, momenta=(-256.5,)), NoiseConfig())[0] == [-257]
    # only an index whose integer cast would wrap is rejected
    edge = EnsembleSpec(n_atoms=1, momenta=(2.0**63 - 1024,))
    assert sample_atoms(edge, NoiseConfig())[0] == [2**63 - 1024]
    for cutoff in (16, None):
        for far in ((1e19,), (-1e300,), (-(2.0**63),)):  # beyond the int64 range of an index
            with pytest.raises(CutoffError, match="reach"):
                sample_atoms(EnsembleSpec(n_atoms=1, momenta=far, cutoff=cutoff), NoiseConfig())


def test_kick_spread_draws_positive_factors():
    spec = EnsembleSpec(n_atoms=3000, kick_spread=0.3, cutoff=32)
    _, _, g = sample_atoms(spec, NoiseConfig(master_seed=6))
    assert np.all(g > 0.0)
    assert np.mean(g) == pytest.approx(1.0, abs=0.02)
    assert np.std(g) == pytest.approx(0.3, rel=0.1)


@pytest.mark.parametrize("beta_mode", ["thermal", "uniform"])
def test_sampling_peaks_at_32_bytes_per_atom(beta_mode):
    # n0, beta and g are 24 B per atom; every other pass runs in place, so a
    # million atoms with a kick spread peak at 32 B per atom at most (a
    # thermal draw once peaked at 50 B, its u, p, x and masks alive at once)
    spec = EnsembleSpec(n_atoms=10**6, beta_mode=beta_mode, kick_spread=0.05, cutoff=32)
    tracemalloc.start()
    try:
        n0, beta, g = sample_atoms(spec, NoiseConfig(master_seed=3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert n0.nbytes + beta.nbytes + g.nbytes == 24 * spec.n_atoms
    assert peak <= 32 * spec.n_atoms


# ---------------------------------------------------------------------------
# ensemble evolution
# ---------------------------------------------------------------------------

def test_batch_engine_matches_single_atom_route(monkeypatch):
    # same atoms, same pulse train: the stepper, in blocks of two atoms and as
    # a batch of one, against a per-atom loop of oracle kicks, explicit free
    # phases and SE beta swaps; once with period noise (a free phase per gap)
    # and once with kick spread (a kick phase per atom).  Each atom starts at
    # site 0 of its frame, beta' = n0 + beta, and swaps to n0 + beta_new
    monkeypatch.setattr(qkr, "_BLOCK_SITES", 2 * 97)  # L = 97 at cutoff 48
    spy = _StepperSpy(monkeypatch)
    p = ScaledParams(hbar_eff=TWO_PI, kick_strength=2.2 * TWO_PI, kick_count=6)
    for period_level, kick_spread in ((0.06, 0.0), (0.0, 0.1)):
        spec = EnsembleSpec(
            n_atoms=3, beta_mode="thermal", sigma_p=1.5, kick_spread=kick_spread, cutoff=48
        )
        cfg = NoiseConfig(
            amplitude_level=1.2, period_level=period_level, se_probability=0.4, master_seed=14
        )
        r = sample_realization(cfg, p.kick_count)
        events, se_betas = _se_schedule(cfg, spec.n_atoms, p.kick_count)
        assert events[:, :-1].sum() >= 4
        spy.batches.clear()
        energies = qkr._cloud_energy(spec, p, r)
        assert len(spy.batches) == 2
        stages = spy.ladders[-1]  # the explicit cutoff's, which the batch of one takes
        assert len(stages) > 1
        final_c = np.concatenate([c for c, _ in spy.batches])
        final_beta = np.concatenate([beta for _, beta in spy.batches])

        n0s, betas, gs = sample_atoms(spec, cfg)
        frame_betas = se_betas + n0s[:, None]
        histories = []
        for a in range(3):
            start = _plane_wave(48)
            c, beta, history = _oracle_atom(
                start, float(n0s[a] + betas[a]), gs[a], p, r, events[a], frame_betas[a]
            )
            histories.append(history)
            one, one_beta, _ = _evolve_row(start, n0s[a] + betas[a], p, r, gs[a],
                                           events[a : a + 1], frame_betas[a : a + 1], stages)
            assert np.max(np.abs(final_c[a] - c)) < 1e-12
            assert np.max(np.abs(one - c)) < 1e-12
            assert final_beta[a] == one_beta == beta
        assert energies == pytest.approx(np.mean(histories, axis=0), rel=1e-12)


def test_batch_rows_match_a_batch_of_one(monkeypatch):
    # each row of a large batch is bitwise the same atom evolved alone, on
    # the same stages of the explicit ladder.  With
    # the kick phase a fresh temporary, numpy's temporary elision (arrays of
    # 256 KiB and up) swapped the operands of the kick multiply, and complex
    # multiplies with FMA are not bitwise commutative: no row matched.  The
    # cloud runs in blocks of 170 atoms, each of them at least 256 KiB; each
    # atom starts at site 0 of its frame
    hbar = TWO_PI + 0.1
    p = ScaledParams(hbar_eff=hbar, kick_strength=3.63 * hbar, kick_count=4)
    spec = EnsembleSpec(n_atoms=600, kick_spread=0.05, cutoff=192)
    cfg = NoiseConfig(period_level=0.1, se_probability=0.025, master_seed=4)
    r = sample_realization(cfg, p.kick_count)
    events, se_betas = _se_schedule(cfg, spec.n_atoms, p.kick_count)
    spy = _StepperSpy(monkeypatch)
    qkr._cloud_energy(spec, p, r)
    assert len(spy.batches) == 4
    assert all(c.nbytes >= 256 * 1024 for c, _ in spy.batches)
    c = np.concatenate([c for c, _ in spy.batches])
    beta = np.concatenate([beta for _, beta in spy.batches])
    n0s, betas, gs = sample_atoms(spec, cfg)
    for a in range(0, 600, 60):
        one, one_beta, _ = _evolve_row(
            _plane_wave(192), n0s[a] + betas[a], p, r, gs[a],
            events[a : a + 1], se_betas[a : a + 1] + n0s[a], spy.ladders[0],
        )
        assert one.tobytes() == c[a].tobytes()
        assert one_beta == beta[a]


@pytest.mark.parametrize("noise", ["none", "amplitude", "period"])
@pytest.mark.parametrize("se, p_max", [(0.05, None), (0.0, 6.0)], ids=["se", "window"])
def test_frame_matches_the_placed_start(monkeypatch, noise, se, p_max):
    # the cloud starts each atom at site 0 of its frame, beta' = n0 + beta,
    # and swaps to n0 + beta_new; here against the same atoms placed at n0
    # with beta, both on the fixed L = 513 ladder: 120 thermal atoms (|n0| up
    # to 7) with a kick spread, 20 kicks at hbar = 2 pi + 0.1, once with SE
    # and once with a window that discards mass.  The shift of n is exact and
    # only the rounding of n + beta differs: the energies agree to 1e-13
    # relative (3e-15 measured), each row shifted by n0 to 1e-10 in norm (2e-11
    # under period noise, where the free phase at |n| ~ 200 nears 1e5 rad),
    # and the final betas bit for bit
    hbar = TWO_PI + 0.1
    p = ScaledParams(hbar_eff=hbar, kick_strength=3.63 * hbar, kick_count=20)
    spec = EnsembleSpec(n_atoms=120, kick_spread=0.05, p_max=p_max, cutoff=256)
    levels = {"none": {}, "amplitude": {"amplitude_level": 2.0}, "period": {"period_level": 0.1}}
    cfg = NoiseConfig(se_probability=se, master_seed=7, **levels[noise])
    r = sample_realization(cfg, p.kick_count)
    events, se_betas = _se_schedule(cfg, spec.n_atoms, p.kick_count)
    n0, beta, g = sample_atoms(spec, cfg)
    assert np.max(np.abs(n0)) >= 5 and (se == 0.0 or events[:, :-1].sum() >= 50)
    placed = (qkr._ladder(513) == n0[:, None]).astype(complex)
    placed_beta = beta.copy()
    energy, weight = qkr._evolve(placed, placed_beta, g, p, r, events, se_betas, p_max)
    spy = _StepperSpy(monkeypatch)
    frame = qkr._cloud_energy(spec, p, r)
    [(c_frame, beta_frame)] = spy.batches
    if p_max is not None:
        assert weight[-1] < 0.9 * spec.n_atoms  # the window discards mass
    np.testing.assert_allclose(frame, energy / weight, rtol=1e-13, atol=0.0)
    assert beta_frame.tobytes() == (placed_beta + n0).tobytes()
    shifted = np.array([np.roll(row, -k) for row, k in zip(placed, n0)])
    assert np.max(np.linalg.norm(c_frame - shifted, axis=1)) <= 1e-10


def test_uniform_beta_resonance_slope():
    # flat quasimomentum at resonance: mean energy grows by k^2/4 per kick
    k = 3.77
    spec = EnsembleSpec(n_atoms=512, beta_mode="uniform", cutoff=192)
    p = ScaledParams(hbar_eff=TWO_PI, kick_strength=k * TWO_PI, kick_count=30)
    mean, sem = ensemble_energy(spec, p, NoiseConfig(master_seed=3))
    kicks = np.arange(10, 31)
    slope = np.polyfit(kicks, mean[10:31], 1)[0]
    assert slope == pytest.approx(0.25 * k**2, rel=0.01)
    assert np.array_equal(sem, np.zeros_like(mean))


def test_history_shape_reproducibility_and_seed_sensitivity():
    spec = EnsembleSpec(n_atoms=24, cutoff=48, sigma_p=1.0)
    p = ScaledParams(hbar_eff=TWO_PI, kick_strength=1.5 * TWO_PI, kick_count=5)
    cfg = NoiseConfig(amplitude_level=2.0, master_seed=8)
    mean, sem = ensemble_energy(spec, p, cfg, n_realizations=3)
    assert mean.shape == sem.shape == (6,)
    assert mean[0] == pytest.approx(0.5, rel=0.1)  # sigma_p^2 / 2
    assert np.all(sem[1:] > 0.0)
    mean2, sem2 = ensemble_energy(spec, p, cfg, n_realizations=3)
    assert np.array_equal(mean, mean2) and np.array_equal(sem, sem2)
    mean3, _ = ensemble_energy(spec, p, NoiseConfig(amplitude_level=2.0, master_seed=9), 3)
    assert not np.array_equal(mean, mean3)
    with pytest.raises(ValueError):
        ensemble_energy(spec, p, cfg, n_realizations=0)


def test_detection_window_reduces_energy():
    spec = EnsembleSpec(n_atoms=16, beta_mode="uniform", cutoff=96)
    seen = EnsembleSpec(n_atoms=16, beta_mode="uniform", cutoff=96, p_max=6.0)
    p = ScaledParams(hbar_eff=TWO_PI, kick_strength=3.0 * TWO_PI, kick_count=8)
    cfg = NoiseConfig(master_seed=2)
    e_all, _ = ensemble_energy(spec, p, cfg)
    e_win, _ = ensemble_energy(seen, p, cfg)
    assert e_win[-1] < e_all[-1]
    assert e_win[-1] <= 0.5 * 6.0**2
    # every atom starts at |p| = 1/2, outside a window at 0.1
    dark = EnsembleSpec(n_atoms=2, beta_mode="fixed", beta_fixed=0.5, cutoff=16, p_max=0.1)
    with pytest.raises(ValueError, match="^detection window discarded the entire cloud$"):
        ensemble_energy(dark, ScaledParams(hbar_eff=TWO_PI, kick_strength=0.0, kick_count=2), cfg)


# ---------------------------------------------------------------------------
# the automatic ladder
# ---------------------------------------------------------------------------

def _is_5_smooth(n):
    for prime in (2, 3, 5):
        while n % prime == 0:
            n //= prime
    return n == 1


_STARTS = {
    "thermal": dict(beta_mode="thermal", sigma_p=2.5),
    "uniform": dict(beta_mode="uniform"),
    "antiresonant": dict(beta_mode="fixed", beta_fixed=0.0),  # at hbar = 2 pi
    "hot": dict(beta_mode="thermal", sigma_p=30.0),  # |n0| up to ~70 widens the reach
}


@pytest.mark.parametrize("level, kick_spread, se", [(0.0, 0.0, 0.0), (2.0, 0.3, 0.05)])
@pytest.mark.parametrize(
    "hbar, start",
    [(h, start) for h in (TWO_PI, 2.0 * TWO_PI, 3.0) for start in ("thermal", "uniform")]
    + [(TWO_PI, "antiresonant"), (3.0, "hot")],
)
def test_automatic_ladder_matches_explicit_cutoff(monkeypatch, hbar, start, level, kick_spread, se):
    # the reach bound holds at every hbar (resonances m = 1, 2, off
    # resonance, antiresonance) and noise kind, with SE: the automatic ladder
    # gives the per-kick energies of the explicit M = 512 ladder, run here on
    # its 1025 sites from the first kick, on a 5-smooth L below them
    spy = _StepperSpy(monkeypatch)
    p = ScaledParams(hbar_eff=hbar, kick_strength=3.63 * hbar, kick_count=20)
    cfg = NoiseConfig(amplitude_level=level, se_probability=se, master_seed=21)
    auto = EnsembleSpec(n_atoms=64, kick_spread=kick_spread, **_STARTS[start])
    explicit = EnsembleSpec(n_atoms=64, kick_spread=kick_spread, cutoff=512, **_STARTS[start])
    got, got_sem = ensemble_energy(auto, p, cfg, n_realizations=2)
    monkeypatch.setattr(qkr, "_stages", lambda strengths, last: ((0, last),))
    want, want_sem = ensemble_energy(explicit, p, cfg, n_realizations=2)
    # the antiresonance returns to E = 0 every second kick: scale by the peak
    scale = np.max(want) if start == "antiresonant" else want
    assert np.all(np.abs(got - want) <= 1e-12 * scale)
    assert np.max(np.abs(got_sem - want_sem)) <= 1e-12 * np.max(want)
    assert spy.lengths[2:] == [1025, 1025]
    assert all(_is_5_smooth(n) and n < 1025 for n in spy.lengths[:2])


@pytest.mark.parametrize("hbar, level, ratio, kicks, cutoff", [
    (hbar, level, 3.63, 20, cutoff) for cutoff in (None, 192, 600)
    for hbar, level in ((TWO_PI + 0.1, 0.0), (TWO_PI + 0.1, 2.0), (TWO_PI, 2.0), (3.0, 1.0))
] + [(3.0, 0.0, 12.0, 40, cutoff) for cutoff in (None, 600)])
def test_ladder_grows_with_the_kicks(monkeypatch, cutoff, hbar, level, ratio, kicks):
    # the ladder's stages, (first kick, length) from kick 0: the lengths
    # rise and end on L, 2M + 1 for an explicit cutoff M and else the length
    # that the reach bound gives all N kicks at REACH_TAIL (or the cap's 1025
    # sites, for kick ratio 12 over 40 kicks).  Every kick of an earlier stage
    # runs on a 5-smooth length (or 1025) certified at the stricter STAGE_TAIL
    # for the summed strength K_s of the kicks so far, a stage starts where
    # the last length no longer certifies (or at the last kick), and it is at
    # least twice as long or L.  Past the cap (M = 600, L = 1201) a stage that
    # needs more than 1025 sites is L: at kick ratio 12, well before the last
    # kick.  The frames make the schedule blind to
    # the cloud's temperature: sigma_p = 2.5 and 40 (|n0| up to about 110) get
    # the same stages
    p = ScaledParams(hbar_eff=hbar, kick_strength=ratio * hbar, kick_count=kicks)
    cfg = NoiseConfig(amplitude_level=level, master_seed=4)
    r = sample_realization(cfg, p.kick_count)
    ladders = []
    for sigma_p in (2.5, 40.0):
        spy = _StepperSpy(monkeypatch)
        spec = EnsembleSpec(n_atoms=200, sigma_p=sigma_p, kick_spread=0.05, cutoff=cutoff)
        qkr._cloud_energy(spec, p, r)
        ladders.append(spy.ladders)
        monkeypatch.undo()
    assert ladders[0] == ladders[1]
    [stages] = ladders[0]
    firsts, lengths = zip(*stages)
    assert firsts[0] == 0 and list(firsts) == sorted(set(firsts))
    assert list(lengths) == sorted(set(lengths)) and len(stages) >= 3
    assert all(_is_5_smooth(n) or n == 1025 for n in lengths[:-1])
    assert max(lengths[:-1]) <= 1025

    factors = np.abs(r.amplitude_factors)
    g_max = np.max(sample_atoms(spec, cfg)[2])
    unit = p.kick_strength / p.hbar_eff
    if cutoff is None:
        reach = qkr._bound_reach(unit * float(np.sum(factors)) * g_max)
        need = 2 * math.ceil(reach / qkr.TAIL_FRACTION) + 1
        assert lengths[-1] == min([n for n in range(need, 1025) if _is_5_smooth(n)] + [1025])
    else:
        assert lengths[-1] == 2 * cutoff + 1
    k_s = unit * np.cumsum(factors) * g_max
    for (first, l_size), end in zip(stages[:-1], firsts[1:]):
        for s in range(first, end):
            assert _tail_bound(k_s[s], 0.9 * ((l_size - 1) // 2)) <= qkr.STAGE_TAIL
    for (_, short), (first, l_size) in zip(stages, stages[1:]):
        needed = _tail_bound(k_s[first], 0.9 * ((short - 1) // 2)) > qkr.STAGE_TAIL
        assert needed or (cutoff is not None and first == kicks - 1)
        assert l_size >= 2 * short or l_size == lengths[-1]
    if ratio == 12.0 and cutoff == 600:
        assert firsts[-1] < kicks - 5


def test_staged_explicit_cutoff_matches_one_stage(monkeypatch):
    # the peak-jitter physics (period noise 0.1, SE 0.025, kick spread 0.05,
    # cutoff 192) across the peak: the explicit ladder's stages give the
    # per-kick energies and s.e.m. of every kick on its L = 385 sites
    cfg = NoiseConfig(period_level=0.1, se_probability=0.025, master_seed=1)
    spec = EnsembleSpec(n_atoms=300, kick_spread=0.05, cutoff=192)
    for hbar in (TWO_PI - 0.1, TWO_PI, TWO_PI + 0.1):
        p = ScaledParams(hbar_eff=hbar, kick_strength=3.63 * hbar, kick_count=20)
        spy = _StepperSpy(monkeypatch)
        staged, staged_sem = ensemble_energy(spec, p, cfg, n_realizations=2)
        assert all(len(stages) >= 3 and stages[-1][1] == 385 for stages in spy.ladders)
        monkeypatch.setattr(qkr, "_stages", lambda strengths, last: ((0, last),))
        fixed, fixed_sem = ensemble_energy(spec, p, cfg, n_realizations=2)
        assert spy.ladders[2:] == [((0, 385),)] * 2
        np.testing.assert_allclose(staged, fixed, rtol=1e-13, atol=0.0)
        assert np.max(np.abs(staged_sem - fixed_sem)) <= 1e-13 * np.max(fixed)
        monkeypatch.undo()


def test_reach_bound_holds_on_the_exact_resonant_populations(monkeypatch):
    # hbar = 2 pi, beta = 1/2: the free phases are one global phase, so N
    # kicks of strength k act as one of strength K = k N and the populations
    # are exactly J_n(K)^2; the mass beyond any d stays below the bound, and
    # the stepper on its automatic ladder reproduces those populations
    k, n_kicks = 3.63, 20
    big_k = k * n_kicks
    n = np.arange(-400, 401)
    pops = scipy.special.jv(n, big_k) ** 2
    for d in np.arange(1.0, 140.0, 0.5):
        assert np.sum(pops[np.abs(n) > d]) <= _tail_bound(big_k, d)
    reach = qkr._bound_reach(big_k)
    assert big_k < reach < 1.18 * big_k + 12.0
    assert _tail_bound(big_k, reach) <= qkr.REACH_TAIL < _tail_bound(big_k, reach - 1.0)
    assert np.sum(pops[np.abs(n) > reach]) <= _tail_bound(big_k, reach)

    spec = EnsembleSpec(n_atoms=1, beta_mode="fixed", beta_fixed=0.5)
    p = ScaledParams(hbar_eff=TWO_PI, kick_strength=k * TWO_PI, kick_count=n_kicks)
    r = sample_realization(NoiseConfig(), n_kicks)
    spy = _StepperSpy(monkeypatch)
    qkr._cloud_energy(spec, p, r)
    [(c, _)] = spy.batches
    l_size = c.shape[1]
    assert l_size < 1025 and _is_5_smooth(l_size)
    ladder = np.arange(l_size) - l_size // 2
    want = scipy.special.jv(ladder, big_k) ** 2
    assert np.max(np.abs(np.abs(c[0]) ** 2 - want)) < 1e-12


def test_automatic_ladder_falls_back_to_the_cap(monkeypatch):
    # K = 12 * 40 = 480 > 0.9 * 512: the bound cannot certify the last
    # kicks under the cap, so the cell grows to the cap on the stages of the
    # explicit M = 512 ladder, bit for bit; off resonance the cloud spreads
    # diffusively and still fits it
    spy = _StepperSpy(monkeypatch)
    p = ScaledParams(hbar_eff=3.0, kick_strength=12.0 * 3.0, kick_count=40)
    cfg = NoiseConfig(master_seed=5)
    auto, _ = ensemble_energy(EnsembleSpec(n_atoms=8), p, cfg)
    explicit, _ = ensemble_energy(EnsembleSpec(n_atoms=8, cutoff=512), p, cfg)
    assert spy.lengths == [1025, 1025]
    assert spy.ladders[0] == spy.ladders[1] and len(spy.ladders[0]) >= 3
    assert np.array_equal(auto, explicit)


def test_automatic_ladder_guard_names_the_ladder_and_reach(monkeypatch):
    # resonant and ballistic out to K = 600: the fallback ladder cannot hold it
    p = ScaledParams(hbar_eff=TWO_PI, kick_strength=30.0 * TWO_PI, kick_count=20)
    spec = EnsembleSpec(n_atoms=1, beta_mode="fixed", beta_fixed=0.5)
    fallback = r"L = 1025 for the reach bound .* = 6\d\d\.\d*, beyond the cap"
    with pytest.raises(CutoffError, match=fallback) as exc:
        ensemble_energy(spec, p, NoiseConfig())
    assert "raise the cutoff" not in str(exc.value)
    # a reach cut short by hand: the guard trips on a ladder under the cap
    monkeypatch.setattr(qkr, "_bound_reach", lambda k_total, tail=qkr.REACH_TAIL: 0.5 * k_total)
    p = ScaledParams(hbar_eff=TWO_PI, kick_strength=3.0 * TWO_PI, kick_count=20)
    with pytest.raises(CutoffError, match=r"L = 72 for the reach bound D = 30$") as exc:
        ensemble_energy(spec, p, NoiseConfig())
    assert "raise the cutoff" not in str(exc.value)
    explicit = EnsembleSpec(n_atoms=1, beta_mode="fixed", beta_fixed=0.5, cutoff=16)
    with pytest.raises(CutoffError, match="raise the cutoff above M = 16"):
        ensemble_energy(explicit, p, NoiseConfig())


def test_peak_scan_runs_on_small_fast_ladders(monkeypatch):
    # the resonance-peak scan at seed 1 (1,000 thermal atoms, kick ratio 3.63,
    # 20 kicks, levels 0 and 2): every automatic ladder is 5-smooth and at
    # most 300 sites, against the 1,025 of an M = 512 ladder
    spy = _StepperSpy(monkeypatch)
    run_scan(build_spec(dict(
        engine="quantum", abscissa="hbar", lo=TWO_PI - 0.2, hi=TWO_PI + 0.2, step=0.1,
        kick_ratio=3.63, levels=[0.0, 2.0], kicks=20, atoms=1000, sigma_p=2.5,
        realizations=1, seed=1,
    )))
    assert len(spy.lengths) == 10
    assert all(_is_5_smooth(n) and n <= 300 for n in spy.lengths), spy.lengths


def test_small_cutoff_raises_cutoff_error():
    spec = EnsembleSpec(n_atoms=2, beta_mode="fixed", beta_fixed=0.5, cutoff=8)
    p = ScaledParams(hbar_eff=TWO_PI, kick_strength=3.77 * TWO_PI, kick_count=10)
    with pytest.raises(CutoffError):
        ensemble_energy(spec, p, NoiseConfig(master_seed=0))


@pytest.mark.parametrize("p_max", [None, 6.0])
def test_blocking_does_not_change_energies(monkeypatch, p_max):
    # five atoms in one block and in blocks of two give energies that differ
    # only by summation order; the cloud reaches |p| ~ 49, so the window at 6
    # discards mass.  Realizations 1 and 2 of seed 11 get automatic ladders
    # that end on 60 and then 64 sites, and their energies are those of the
    # explicit M = 512 ladder
    p = ScaledParams(hbar_eff=TWO_PI - 0.1, kick_strength=2.5 * (TWO_PI - 0.1), kick_count=6)
    histories = {}
    for cutoff, first in ((48, 0), (None, 1), (512, 1)):
        cfg = NoiseConfig(amplitude_level=1.0, master_seed=11, realization_index=first)
        spy = _StepperSpy(monkeypatch)
        spec = EnsembleSpec(n_atoms=5, sigma_p=1.5, cutoff=cutoff, p_max=p_max)
        whole, whole_sem = ensemble_energy(spec, p, cfg, n_realizations=2)
        assert len(spy.batches) == 2
        # two atoms per block on every ladder of the run
        monkeypatch.setattr(qkr, "_BLOCK_SITES", 2 * max(spy.lengths))
        spy.batches.clear()
        blocked, _ = ensemble_energy(spec, p, cfg, n_realizations=2)
        assert [len(c) for c, _ in spy.batches] == [2, 2, 1, 2, 2, 1]
        assert np.all(np.abs(blocked - whole) <= 1e-12 * whole)
        assert whole_sem[-1] > 0.0
        if cutoff is None:
            assert spy.lengths[0] < spy.lengths[-1]
        else:
            assert set(spy.lengths) == {2 * cutoff + 1}
        monkeypatch.undo()
        histories[cutoff] = whole
    auto, explicit = histories[None], histories[512]
    assert np.all(np.abs(auto - explicit) <= 1e-12 * explicit)


def test_blocks_of_any_size_give_the_same_atoms(monkeypatch):
    # a 40-atom cloud in blocks of 1, 2, 7 and all 40 atoms, with period
    # noise, kick spread, SE and a window that discards mass: the blocks'
    # SE rows, joined, are one whole-cloud draw of the two SE streams (its
    # betas in each atom's frame, n0 + beta_new), every final row and beta
    # is bitwise the same, and the per-kick energy sums and weights differ
    # only by summation order
    hbar = TWO_PI + 0.1
    p = ScaledParams(hbar_eff=hbar, kick_strength=3.63 * hbar, kick_count=20)
    spec = EnsembleSpec(n_atoms=40, kick_spread=0.05, p_max=12.0)
    cfg = NoiseConfig(period_level=0.1, se_probability=0.05, master_seed=9)
    r = sample_realization(cfg, p.kick_count)
    events, se_betas = _se_schedule(cfg, spec.n_atoms, p.kick_count)
    frame_betas = se_betas + sample_atoms(spec, cfg)[0][:, None]
    runs = {}
    for atoms in (40, 7, 2, 1):
        spy = _StepperSpy(monkeypatch)
        if atoms < 40:  # l_size: the automatic ladder of the whole-cloud run
            monkeypatch.setattr(qkr, "_BLOCK_SITES", atoms * l_size)
        energies = qkr._cloud_energy(spec, p, r)
        [l_size] = spy.lengths
        assert len(spy.batches[0][0]) == atoms
        for drawn, whole in zip(zip(*spy.schedules), (events, frame_betas)):
            assert np.concatenate(drawn).tobytes() == whole.tobytes()
        runs[atoms] = (
            np.concatenate([c for c, _ in spy.batches]),
            np.concatenate([beta for _, beta in spy.batches]),
            np.sum(spy.sums, axis=0),
            energies,
        )
        monkeypatch.undo()
    c, beta, sums, energies = runs[40]
    assert sums[1, -1] < spec.n_atoms - 10.0  # the window discards mass
    # the schedule: events at the SE rate, within 4 binomial s.d., and
    # replacement betas uniform on [0, 1)
    assert events[:, :-1].sum() >= 20
    assert abs(events.mean() - 0.05) <= 4.0 * math.sqrt(0.05 * 0.95 / events.size)
    assert se_betas.min() >= 0.0 and se_betas.max() < 1.0
    assert scipy.stats.kstest(se_betas.ravel(), "uniform").pvalue > 1e-3
    for atoms in (7, 2, 1):
        c_b, beta_b, sums_b, energies_b = runs[atoms]
        assert c_b.shape == c.shape
        assert all(row.tobytes() == row_b.tobytes() for row, row_b in zip(c, c_b))
        assert beta.tobytes() == beta_b.tobytes()
        assert np.all(np.abs(sums_b - sums) <= 1e-13 * sums)
        assert np.all(np.abs(energies_b - energies) <= 1e-13 * energies)


def test_cloud_memory_is_bounded_by_one_block():
    # one realization of the peak-jitter physics (L = 385) at 600 and 4,800
    # atoms: the blocks' arrays, their SE rows included, do not grow with
    # the atom count, so the tracemalloc peak grows by at most the per-atom
    # samples (n0, beta, g) of the 4,200 added atoms, and stays below one
    # block at the 73 B per site that `qkr._cloud_energy` lists, plus the
    # block's SE rows (a bool and a float per atom and kick) and those samples
    hbar = TWO_PI + 0.1
    p = ScaledParams(hbar_eff=hbar, kick_strength=3.63 * hbar, kick_count=20)
    cfg = NoiseConfig(period_level=0.1, se_probability=0.025, master_seed=1)
    block_se = 9 * (qkr._BLOCK_SITES // 385) * p.kick_count
    peaks = {}
    for atoms in (600, 4800):
        spec = EnsembleSpec(n_atoms=atoms, kick_spread=0.05, cutoff=192)
        r = sample_realization(cfg, p.kick_count)
        tracemalloc.start()
        try:
            qkr._cloud_energy(spec, p, r)
            peaks[atoms] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    # 1 KiB for the interpreter's own small objects: whether a float or a
    # tuple comes from a free list moves a traced peak by tens of bytes
    assert peaks[4800] - peaks[600] <= 4200 * 3 * 8 + 1024
    for atoms, peak in peaks.items():
        assert peak <= 73 * qkr._BLOCK_SITES + block_se + 3 * 8 * atoms, (atoms, peak)
