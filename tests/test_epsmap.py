"""Near-resonance map: stepping, limits, portraits, and the standard-map oracle."""

import functools
import itertools
import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from aokr import epsmap
from aokr.core import ScaledParams
from aokr.epsmap import (
    ANGLE_LIMIT,
    EpsilonZeroError,
    EpsParams,
    UnsupportedNoiseError,
    eps_energy,
    eps_step,
    phase_portrait,
)
from aokr.epsmap import (
    _SIN_POLY,
    _kick,
    _phase_advance,
    _resonant_limit_history,
    _scratch,
    _sin,
    _stratified_phases,
)
from aokr.noise import (
    STREAM_MAP_PHASE,
    NoiseConfig,
    realization_mean,
    sample_realization,
    stream_rng,
)
from aokr.qkr import EnsembleSpec, ensemble_energy, sample_atoms
from aokr.theory import diffusion_rate

from standard_map import classical_map_energy

TWO_PI = 2.0 * math.pi


def _eps_step_inverse(phi, rho, p, kick_factor=1.0, beta=0.0):
    """Exact inverse of `eps_step`: undo the kick, then the rotation."""
    rho = rho - abs(p.epsilon) * p.kick_ratio * np.asarray(kick_factor) * np.sin(phi)
    advance = math.pi * p.resonance_order + p.hbar_eff * np.asarray(beta, dtype=float)
    phi = np.mod(phi - np.sign(p.epsilon) * np.asarray(rho) - advance, TWO_PI)
    return phi, rho


def _fresh_sin(phi):
    """The kernel's sine on fresh arrays."""
    return _sin(phi, *_scratch(phi))


def _fresh_array_step(phi, rho, p, kick_factor=1.0, beta=0.0, sin=_fresh_sin):
    """The map step written as one expression: np.mod and fresh arrays every kick."""
    advance = math.pi * p.resonance_order + p.hbar_eff * np.asarray(beta, dtype=float)
    phi = np.mod(phi + np.sign(p.epsilon) * np.asarray(rho) + advance, TWO_PI)
    rho = rho + abs(p.epsilon) * p.kick_ratio * np.asarray(kick_factor) * sin(phi)
    return phi, rho


def _fresh_ladder_step(phi, n, p, kick_factor=1.0, beta=0.0):
    """The map step in ladder units as one expression, on fresh arrays."""
    advance = math.pi * p.resonance_order + p.hbar_eff * np.asarray(beta, dtype=float)
    phi = np.mod(phi + p.epsilon * np.asarray(n) + advance, TWO_PI)
    n = n + p.kick_ratio * np.asarray(kick_factor) * _fresh_sin(phi)
    return phi, n


def _fresh_array_history(p, n_kicks, spec, cfg, n_realizations, rho_form_sin=None):
    """Oracle for `eps_energy` at eps != 0: `_fresh_ladder_step` from n0, E = <n^2> / 2.

    Given rho_form_sin, it iterates `_fresh_array_step` on that sine
    instead, from rho = |eps| n0, with E = <rho^2> / (2 eps^2).
    """

    def run(rcfg):
        factors = sample_realization(rcfg, n_kicks).amplitude_factors
        n0s, betas, gains = sample_atoms(spec, rcfg)
        rng = stream_rng(rcfg.master_seed, rcfg.realization_index, STREAM_MAP_PHASE)
        phi = _stratified_phases(rng, spec.n_atoms)
        if rho_form_sin is None:
            x, step, scale = n0s.astype(float), _fresh_ladder_step, 0.5
        else:
            x, scale = abs(p.epsilon) * n0s.astype(float), 0.5 / p.epsilon**2
            step = functools.partial(_fresh_array_step, sin=rho_form_sin)
        history = [float(np.mean(x**2))]
        for n in range(n_kicks):
            kick_factor = factors[n] * gains
            phi, x = step(phi, x, p, kick_factor, betas)
            history.append(float(np.mean(x**2)))
        return np.array(history) * scale

    return realization_mean(cfg, n_realizations, run)


# ---------------------------------------------------------------------------
# parameters
# ---------------------------------------------------------------------------

def test_params_validation_and_hbar():
    p = EpsParams(epsilon=-0.04, kick_ratio=3.7, resonance_order=2)
    assert p.hbar_eff == pytest.approx(2 * TWO_PI - 0.04)
    with pytest.raises(ValueError):
        EpsParams(epsilon=0.02, kick_ratio=-1.0)
    with pytest.raises(ValueError):
        EpsParams(epsilon=0.02, kick_ratio=1.0, resonance_order=0)
    with pytest.warns(UserWarning) as caught:
        EpsParams(epsilon=0.6, kick_ratio=1.0)
    assert caught[0].filename == __file__  # the caller, not the dataclass __init__


# ---------------------------------------------------------------------------
# single steps
# ---------------------------------------------------------------------------

def test_step_fixed_point_at_resonance():
    # beta = 1/2 on the resonance: the pi + hbar*beta advance is a full turn
    p = EpsParams(epsilon=0.0, kick_ratio=3.7)
    phi, rho = eps_step(0.0, 0.0, p, beta=0.5)
    assert phi == pytest.approx(0.0, abs=1e-12)
    assert rho == 0.0


def test_step_resonant_growth_starts_at_quarter_turn():
    p0 = EpsParams(epsilon=0.0, kick_ratio=3.7)
    phi, rho = eps_step(math.pi / 2, 0.0, p0, beta=0.5)
    assert phi == pytest.approx(math.pi / 2, abs=1e-12)
    assert rho == 0.0  # kick term carries |eps|
    # off resonance the angle picks up eps/2 and the kick |eps| k sin(phi')
    p = EpsParams(epsilon=0.02, kick_ratio=3.7)
    phi, rho = eps_step(math.pi / 2, 0.0, p, beta=0.5)
    assert phi == pytest.approx(math.pi / 2 + 0.01, abs=1e-12)
    assert rho == pytest.approx(0.02 * 3.7 * math.sin(math.pi / 2 + 0.01), rel=1e-12)


def test_step_zero_amplitude_advances_angle_only():
    p = EpsParams(epsilon=-0.03, kick_ratio=3.7)
    phi, rho = eps_step(1.0, 0.7, p, kick_factor=0.0, beta=0.2)
    assert rho == 0.7
    want = (1.0 - 0.7 + math.pi + p.hbar_eff * 0.2) % TWO_PI
    assert phi == pytest.approx(want, abs=1e-12)


def test_step_accepts_arrays_with_per_trajectory_beta():
    p = EpsParams(epsilon=0.05, kick_ratio=2.0)
    phi0 = np.array([0.3, 1.1, 4.0])
    rho0 = np.array([0.0, -0.4, 0.9])
    beta = np.array([0.1, 0.5, 0.9])
    phi, rho = eps_step(phi0, rho0, p, beta=beta)
    assert phi.shape == rho.shape == (3,)
    assert np.all((phi >= 0.0) & (phi < TWO_PI))
    one = [eps_step(phi0[i], rho0[i], p, beta=beta[i]) for i in range(3)]
    assert np.allclose(phi, [o[0] for o in one])
    assert np.allclose(rho, [o[1] for o in one])


def test_many_step_reversibility():
    p = EpsParams(epsilon=0.04, kick_ratio=3.7)
    rng = np.random.default_rng(5)
    phi0 = TWO_PI * rng.random(64)
    rho0 = rng.standard_normal(64)
    factors = 1.0 + 0.5 * (rng.random(50) - 0.5)
    phi, rho = phi0.copy(), rho0.copy()
    for f in factors:
        phi, rho = eps_step(phi, rho, p, kick_factor=f, beta=0.3)
    for f in factors[::-1]:
        phi, rho = _eps_step_inverse(phi, rho, p, kick_factor=f, beta=0.3)
    assert np.max(np.abs(rho - rho0)) < 1e-9
    assert np.max(np.abs(np.mod(phi - phi0 + math.pi, TWO_PI) - math.pi)) < 1e-9


@settings(max_examples=60, deadline=None)
@given(
    phi=st.floats(min_value=0.0, max_value=6.28),
    rho=st.floats(min_value=-5.0, max_value=5.0),
    epsilon=st.floats(min_value=-0.4, max_value=0.4),
    beta=st.floats(min_value=0.0, max_value=0.99),
)
def test_single_step_round_trip(phi, rho, epsilon, beta):
    p = EpsParams(epsilon=epsilon, kick_ratio=3.7)
    phi1, rho1 = eps_step(phi, rho, p, kick_factor=1.3, beta=beta)
    phi2, rho2 = _eps_step_inverse(phi1, rho1, p, kick_factor=1.3, beta=beta)
    assert rho2 == pytest.approx(rho, abs=1e-12)
    assert math.cos(phi2 - phi) == pytest.approx(1.0, abs=1e-12)


def test_step_jacobian_is_area_preserving():
    h = 1e-6
    for eps in (0.03, -0.03):
        p = EpsParams(epsilon=eps, kick_ratio=3.7)
        for phi, rho in ((1.0, 0.7), (2.5, -1.3), (5.1, 0.2)):
            fp = lambda f, r: np.array(eps_step(f, r, p, beta=0.2))
            dphi = (fp(phi + h, rho) - fp(phi - h, rho)) / (2 * h)
            drho = (fp(phi, rho + h) - fp(phi, rho - h)) / (2 * h)
            det = dphi[0] * drho[1] - dphi[1] * drho[0]
            assert abs(det - 1.0) < 1e-8


def _reduced(x):
    """The kernel's angle reduction alone: no turn, no advance, no kick."""
    phi, rho = x.copy(), np.zeros_like(x)
    _kick(phi, rho, 0.0, 0.0, 0.0, _scratch(x))
    assert not np.any(rho)
    return phi


def test_reduction_is_np_mod_on_nonnegative_angles():
    rng = np.random.default_rng(12)
    x = np.concatenate([rng.uniform(0.0, 40.0, 200_000), TWO_PI * np.arange(7.0), [0.0]])
    assert np.array_equal(_reduced(x), np.mod(x, TWO_PI))


def test_reduction_stays_within_ulps_of_np_mod_on_negative_angles():
    # np.mod is exact up to its last 2pi shift; the floor form rounds q * 2pi
    # with |q| <= 16 on this range, half an ulp of 100 (8 ulps of 2pi), and
    # each form's last rounding adds half an ulp of 2pi
    rng = np.random.default_rng(13)
    x = rng.uniform(-100.0, 100.0, 400_000)
    got = _reduced(x)
    assert np.max(np.abs(got - np.mod(x, TWO_PI))) <= 9 * np.spacing(TWO_PI)
    assert np.all((got >= 0.0) & (got < TWO_PI))


def test_reduction_stays_in_the_sine_domain_up_to_the_angle_limit():
    # rounding phi / 2pi and q * 2pi at |phi| <= 2**50 moves the reduced angle
    # by under a quarter radian, well inside _sin's [-pi/2, 5pi/2], so every
    # kick is at most the kick strength; far past the limit it is not
    rng = np.random.default_rng(15)
    x = rng.uniform(-ANGLE_LIMIT, ANGLE_LIMIT, 400_000)
    x[:2] = -ANGLE_LIMIT, ANGLE_LIMIT
    got = _reduced(x)
    assert -0.25 < got.min() and got.max() < TWO_PI + 0.25
    for angles, bounded in ((x, True), (rng.uniform(0.0, 1e18, 400_000), False)):
        phi, n = angles.copy(), np.zeros_like(angles)
        _kick(phi, n, 0.0, 0.0, 1.0, _scratch(phi))
        assert (np.max(np.abs(n)) <= 1.0) == bounded


def test_angle_limit_is_checked_before_the_first_kick(monkeypatch):
    # fixed beta = 0, n0 = 0: the angle is at most 2pi + pi + |eps| k (kick factor sum),
    # and the portrait's rho starts below 2pi and counts the largest factor, 1 + level/2
    def refuse(*args):
        raise AssertionError("the map kicked")

    monkeypatch.setattr(epsmap, "_kick", refuse)
    spec = EnsembleSpec(n_atoms=4, beta_mode="fixed", cutoff=32)
    for eps, kicks in itertools.product((2.0**-10, -(2.0**-10)), (1, 4)):
        at_limit = ANGLE_LIMIT / (abs(eps) * kicks)  # |eps| k kicks = 2**50
        for ratio, cfg, rejected in (
            (at_limit, NoiseConfig(), True),
            (at_limit / 2, NoiseConfig(), False),
            (at_limit / 2, NoiseConfig(amplitude_level=2.0), True),  # portrait only
        ):
            p = EpsParams(epsilon=eps, kick_ratio=ratio)
            runs = [lambda: phase_portrait(p, n_phi=2, n_rho=2, n_iters=kicks, cfg=cfg)]
            if cfg.amplitude_level == 0.0:
                runs.append(lambda: eps_energy(p, kicks, spec, cfg))
            for run in runs:
                if rejected:
                    with pytest.raises(ValueError, match=r"past ANGLE_LIMIT = 2\*\*50"):
                        run()
                else:
                    with pytest.raises(AssertionError, match="the map kicked"):
                        run()


def _kernel_angles():
    """Angles the reduction returns: from uniform x in [-100, 100] and edges.

    The edges are the 64 floats on each side of every multiple of 2pi up to
    1000 (an angle the kernel meets once |rho| grows), where the reduction
    lands on 2pi exactly or just below 0, by up to 1.1e-13.
    """
    rng = np.random.default_rng(14)
    lo = hi = TWO_PI * np.arange(-160.0, 161.0)
    edges = [lo]
    for _ in range(64):
        lo, hi = np.nextafter(lo, -np.inf), np.nextafter(hi, np.inf)
        edges += [lo, hi]
    reduced = _reduced(np.concatenate([rng.uniform(-100.0, 100.0, 400_000), *edges]))
    assert reduced.min() < -1e-14 and reduced.max() == TWO_PI
    return reduced


def test_sine_is_np_sin_within_two_ulps_of_one():
    # near phi = 0 and 2pi the fold's y = pi - phi rounds, to half an ulp of
    # pi, and pi itself is 1.2e-16 short: 1.5 ulp(1) at worst on [0, 2pi);
    # just below 0 the fold's z = pi - y must come out negative
    grid = np.linspace(0.0, TWO_PI, 1_000_000, endpoint=False)
    marks = np.array([0.0, math.pi / 2, math.pi, 1.5 * math.pi, np.nextafter(TWO_PI, 0.0)])
    for phi in (grid, marks, _kernel_angles()):
        got = _fresh_sin(phi)
        assert np.max(np.abs(got - np.sin(phi))) <= 2 * np.spacing(1.0)
        assert np.max(np.abs(got)) <= 1.0


def _abs_min_copysign_fold(phi):
    """The fold as z = sign(y) min(|y|, pi - |y|), y = pi - phi: the clip form's oracle."""
    y = math.pi - phi
    return np.minimum(np.abs(y), math.pi - np.abs(y)) * np.copysign(1.0, y)


def _fold(phi):
    """The fold `_sin` computes, read from the scratch row that holds z."""
    out, w, z2 = _scratch(phi)
    _sin(phi, out, w, z2)
    return w


def test_fold_is_the_abs_min_copysign_fold_bit_for_bit():
    # z = 2 clip(y, -pi/2, pi/2) - y is y itself on the middle half and
    # +-pi - y beyond, the same roundings as sign(y) (pi - |y|); the one
    # difference is the sign of the zero at phi = 2pi exactly (y = -pi),
    # where pi - |y| = +0.0 takes y's sign and -pi - y gives +0.0
    rng = np.random.default_rng(15)
    marks = [0.0, math.pi / 2, math.pi, 1.5 * math.pi, TWO_PI,
             np.nextafter(TWO_PI, 0.0), np.nextafter(TWO_PI, np.inf), 2.5 * math.pi]
    below = -np.array([5e-324, 1e-300, 1e-16, 1e-14, 1.1e-13, 1e-3, math.pi / 2])
    phi = np.concatenate([rng.uniform(-math.pi / 2, 2.5 * math.pi, 1_000_000),
                          marks, below, _kernel_angles()])
    got, want = _fold(phi), _abs_min_copysign_fold(phi)
    differ = got.view(np.int64) != want.view(np.int64)
    assert np.all(phi[differ] == TWO_PI) and np.any(differ)
    assert np.all(got[differ] == 0.0) and not np.any(np.signbit(got[differ]))
    assert np.all(np.signbit(want[differ]))
    assert np.max(np.abs(got)) <= math.pi / 2


def _odd_poly_error(coefficients, n_points=2001):
    """max |z P(z^2) - sin z| over z in [0, pi/2], evaluated at 50 digits."""
    with mpmath.workdps(50):
        worst = mpmath.mpf(0)
        for z in mpmath.linspace(0, mpmath.pi / 2, n_points):
            value = mpmath.mpf(0)
            for c in coefficients[::-1]:
                value = value * z * z + mpmath.mpf(c)
            worst = max(worst, abs(value * z - mpmath.sin(z)))
        return float(worst)


def test_sine_coefficients_are_the_documented_chebyfit():
    # the literals are the fit rounded to float64, and the fit is within
    # 2.1e-19 of sin z (odd, so [0, pi/2] covers [-pi/2, pi/2]).  Rounding
    # costs more: it moves the z^3 coefficient by 4.3e-18 and the z^5 one by
    # 6.2e-19, 2.2e-17 in all at z = 1.57, so the literals are held to 3e-17
    # (0.14 ulp(1)) and the fit to 1e-18
    with mpmath.workdps(50):
        fit = mpmath.chebyfit(lambda t: mpmath.sin(mpmath.sqrt(t)) / mpmath.sqrt(t),
                              [0, (mpmath.pi / 2) ** 2], 9)[::-1]  # lowest power first
    assert list(_SIN_POLY) == [float(c) for c in fit]
    assert _odd_poly_error(fit) <= 1e-18
    assert _odd_poly_error(_SIN_POLY) <= 3e-17


def test_step_rejects_angles_past_the_limit():
    # the one-step API checks its unreduced angle phi + sign(eps) rho +
    # advance as `eps_energy` and the portrait do: phi uniform in [0, 1e18)
    # once returned |rho| up to 1.8e20 where one kick moves rho by 0.1 at most
    p = EpsParams(epsilon=0.1, kick_ratio=1.0)
    phi = np.random.default_rng(3).uniform(0.0, 1e18, 1000)
    with pytest.raises(ValueError, match="past ANGLE_LIMIT"):
        eps_step(phi, 0.0, p)
    for bad in ((0.0, -1e18), (float("nan"), 0.0), (0.0, float("inf"))):
        with pytest.raises(ValueError, match="past ANGLE_LIMIT"):
            eps_step(*bad, p)
    # below the limit the step runs and |rho| moves by the kick alone; an
    # empty batch is no error
    far = ANGLE_LIMIT / 4.0
    phi, rho = eps_step(np.array([far, -far]), np.array([far, 0.0]), p)
    assert np.all(np.abs(rho - [far, 0.0]) <= 0.1)
    assert eps_step(np.array([]), np.array([]), p)[1].size == 0


def test_step_leaves_its_inputs_unchanged():
    p = EpsParams(epsilon=-0.05, kick_ratio=2.0)
    phi0, rho0, beta = np.array([0.3, 5.9]), np.array([0.8, -0.4]), np.array([0.1, 0.7])
    phi, rho = eps_step(phi0, rho0, p, kick_factor=1.5, beta=beta)
    assert np.array_equal(phi0, [0.3, 5.9]) and np.array_equal(rho0, [0.8, -0.4])
    want = _fresh_array_step(phi0, rho0, p, kick_factor=1.5, beta=beta)
    assert np.array_equal(phi, want[0]) and np.array_equal(rho, want[1])


@pytest.mark.parametrize("order", [1, 2])
def test_step_at_zero_epsilon_turns_nothing(order):
    # the kernel turns by sign(0) rho = 0 and kicks by |0| k R = 0: phi is
    # the reduction of phi + advance and every nonzero rho comes back to the
    # bit.  -0.0 comes back as a zero (+0.0 wherever sin phi' >= 0, since
    # -0.0 + 0 sin phi' is +0.0 there, as it is at any eps)
    p = EpsParams(epsilon=0.0, kick_ratio=3.7, resonance_order=order)
    rng = np.random.default_rng(16)
    phi0, beta = TWO_PI * rng.random(300), rng.random(300)
    rho0 = np.concatenate([-rng.uniform(0.0, 50.0, 100), np.full(100, -0.0),
                           rng.uniform(0.0, 50.0, 100)])
    phi, rho = eps_step(phi0, rho0, p, kick_factor=1.5, beta=beta)
    assert phi.tobytes() == _reduced(phi0 + _phase_advance(p, beta)).tobytes()
    assert rho[rho0 != 0.0].tobytes() == rho0[rho0 != 0.0].tobytes()
    assert np.all(rho[rho0 == 0.0] == 0.0)


# ---------------------------------------------------------------------------
# ensemble energies
# ---------------------------------------------------------------------------

def test_resonant_limit_matches_tiny_epsilon_iteration():
    # fixed beta = 1/2, rho0 = 0: rescaled energy grows as (k n)^2 / 4
    spec = EnsembleSpec(n_atoms=512, beta_mode="fixed", beta_fixed=0.5, cutoff=32)
    k, n = 2.0, 10
    exact = eps_energy(
        EpsParams(epsilon=0.0, kick_ratio=k), n, spec, NoiseConfig(master_seed=3)
    )[0]
    want = 0.25 * k**2 * np.arange(n + 1) ** 2
    assert np.max(np.abs(exact - want)) < 1e-9
    tiny = eps_energy(
        EpsParams(epsilon=1e-6, kick_ratio=k), n, spec, NoiseConfig(master_seed=3)
    )[0]
    assert tiny[-1] == pytest.approx(exact[-1], rel=1e-3)


def _one_block_resonant_limit(p, n_kicks, betas, n0s, gains, factors):
    """The eps = 0 limit as one (atoms, kicks) block of phasor sums: the oracle."""
    a = _phase_advance(p, betas)
    steps = np.arange(1, n_kicks + 1)
    partial = np.cumsum(factors[None, :] * np.exp(1j * np.outer(a, steps)), axis=1)
    base = n0s.astype(float) ** 2 / 2.0
    growth = (gains * p.kick_ratio) ** 2 / 4.0
    out = np.empty(n_kicks + 1)
    out[0] = float(np.mean(base))
    out[1:] = np.mean(base[:, None] + growth[:, None] * np.abs(partial) ** 2, axis=0)
    return out


_LIMIT_KICKS = [1, 2, 3, 8, 15, 64, 65, 129, 1000]


def _limit_case(n_kicks):
    spec = EnsembleSpec(n_atoms=300, sigma_p=2.5, kick_spread=0.1)
    cfg = NoiseConfig(amplitude_level=2.0, master_seed=5)
    n0s, betas, gains = sample_atoms(spec, cfg)
    factors = sample_realization(cfg, n_kicks).amplitude_factors
    return betas, n0s, gains, factors


@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("n_kicks", _LIMIT_KICKS)
def test_resonant_limit_matches_the_one_block_sum(n_kicks, order):
    # each atom's sum carried kick by kick against the oracle's cumsum over
    # one (atoms, kicks) block: they differ only in rounding (the atom mean
    # is pairwise here and a column sum there)
    betas, n0s, gains, factors = _limit_case(n_kicks)
    p = EpsParams(epsilon=0.0, kick_ratio=3.7, resonance_order=order)
    got = _resonant_limit_history(p, n_kicks, betas, n0s, gains, factors)
    want = _one_block_resonant_limit(p, n_kicks, betas, n0s, gains, factors)
    np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("n_kicks", _LIMIT_KICKS)
def test_resonant_limit_per_atom_is_the_one_block_sum_bit_for_bit(n_kicks, order):
    # one atom at a time the atom mean is exact, so the running sum must be
    # the oracle's sequential cumsum bit for bit at every kick
    betas, n0s, gains, factors = _limit_case(n_kicks)
    p = EpsParams(epsilon=0.0, kick_ratio=3.7, resonance_order=order)
    for i in range(0, betas.size, 37):
        one = slice(i, i + 1)
        args = (p, n_kicks, betas[one], n0s[one], gains[one], factors)
        assert _resonant_limit_history(*args).tobytes() == _one_block_resonant_limit(*args).tobytes()


def test_resonant_limit_memory_does_not_grow_with_kicks():
    spec = EnsembleSpec(n_atoms=2000, beta_mode="uniform")
    p, cfg = EpsParams(epsilon=0.0, kick_ratio=3.7), NoiseConfig(amplitude_level=2.0)
    peaks = []
    tracemalloc.start()
    try:
        for n_kicks in (250, 1000):
            tracemalloc.reset_peak()
            eps_energy(p, n_kicks, spec, cfg)
            peaks.append(tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()
    assert peaks[1] <= 1.1 * peaks[0], peaks


@pytest.mark.parametrize("beta_mode", ["uniform", "fixed"])
@pytest.mark.parametrize("level", [0.0, 2.0])
@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("epsilon", [-0.2, -0.05, 0.05, 0.2])
def test_history_is_the_fresh_array_step_bit_for_bit(
    monkeypatch, epsilon, order, level, beta_mode
):
    # here the angle before reduction stays in [0, 40), where the in-place
    # reduction is np.mod exactly.  A kick spread hands the kernel the row
    # k (R g) in the order the oracle uses; without one every gain is 1.0
    # and the kernel gets the scalar k R, the same product
    shapes = []

    def spy(*args):  # records the shape of each kick the kernel gets
        shapes.append(np.shape(args[4]))
        _kick(*args)

    monkeypatch.setattr(epsmap, "_kick", spy)
    p = EpsParams(epsilon=epsilon, kick_ratio=3.7, resonance_order=order)
    cfg = NoiseConfig(amplitude_level=level, master_seed=5)
    for spread, shape in ((0.0, ()), (0.05, (1000,))):
        spec = EnsembleSpec(n_atoms=1000, beta_mode=beta_mode, beta_fixed=0.3, kick_spread=spread)
        shapes.clear()
        got = eps_energy(p, 30, spec, cfg, n_realizations=2)
        want = _fresh_array_history(p, 30, spec, cfg, n_realizations=2)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
        assert shapes == [shape] * 60


@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("epsilon", [-0.2, -0.05, 0.05, 0.2])
def test_history_tracks_the_np_sin_step(epsilon, order):
    # the rho-form step on np.sin, with E = <rho^2> / (2 eps^2): a second
    # form and a second sine.  The kernel's sine is within 1.5 ulp(1) of
    # np.sin; over the 32 cases of the bit-for-bit test above, with and
    # without a kick spread, 30 kicks apart the energies drifted by at most
    # 1.1e-12 relative and the s.e.m. by 1.1e-12 of the energy (chaos grows
    # the difference most at |eps| = 0.2)
    spec = EnsembleSpec(n_atoms=1000, beta_mode="uniform", kick_spread=0.05)
    p = EpsParams(epsilon=epsilon, kick_ratio=3.7, resonance_order=order)
    cfg = NoiseConfig(amplitude_level=2.0, master_seed=5)
    got = eps_energy(p, 30, spec, cfg, n_realizations=2)
    want = _fresh_array_history(p, 30, spec, cfg, n_realizations=2, rho_form_sin=np.sin)
    np.testing.assert_allclose(got[0], want[0], rtol=1e-11, atol=0.0)
    np.testing.assert_allclose(got[1], want[1], rtol=0.0, atol=1e-11 * np.max(want[0]))


def test_zero_kick_ratio_keeps_energy():
    spec = EnsembleSpec(n_atoms=256, sigma_p=2.5, cutoff=64)
    for eps in (0.02, 0.0):
        mean, _ = eps_energy(
            EpsParams(epsilon=eps, kick_ratio=0.0), 8, spec, NoiseConfig(master_seed=1)
        )
        assert np.max(np.abs(mean - mean[0])) < 1e-12


def test_epsilon_sign_symmetry_over_uniform_beta():
    spec = EnsembleSpec(n_atoms=4096, beta_mode="uniform", cutoff=32)
    cfg = NoiseConfig(master_seed=7)
    up, _ = eps_energy(EpsParams(epsilon=0.04, kick_ratio=3.7), 20, spec, cfg, 3)
    dn, _ = eps_energy(EpsParams(epsilon=-0.04, kick_ratio=3.7), 20, spec, cfg, 3)
    assert up[-1] == pytest.approx(dn[-1], rel=0.06)


def test_eps_energy_error_paths():
    spec = EnsembleSpec(n_atoms=16, cutoff=32)
    p = EpsParams(epsilon=0.0, kick_ratio=3.7)
    with pytest.raises(UnsupportedNoiseError):
        eps_energy(p, 5, spec, NoiseConfig(period_level=0.1))
    with pytest.raises(UnsupportedNoiseError):
        eps_energy(p, 5, spec, NoiseConfig(se_probability=0.1))
    with pytest.raises(ValueError):
        eps_energy(p, 5, EnsembleSpec(n_atoms=16, cutoff=32, p_max=10.0), NoiseConfig())
    with pytest.raises(ValueError):
        eps_energy(p, -1, spec, NoiseConfig())
    with pytest.raises(ValueError):
        eps_energy(p, 5, spec, NoiseConfig(), n_realizations=0)


def test_eps_energy_reproducible_and_noise_averaged():
    spec = EnsembleSpec(n_atoms=512, beta_mode="uniform", cutoff=32)
    p = EpsParams(epsilon=0.02, kick_ratio=3.7)
    cfg = NoiseConfig(amplitude_level=2.0, master_seed=4)
    a = eps_energy(p, 10, spec, cfg, n_realizations=4)
    b = eps_energy(p, 10, spec, cfg, n_realizations=4)
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
    assert np.all(a[1][1:] > 0.0)
    solo = eps_energy(p, 10, spec, cfg)
    assert np.array_equal(solo[1], np.zeros(11))


def test_cross_model_agreement_with_quantum_ladder():
    # the map reproduces the quantum resonance peak off-resonance
    k, n = 3.7, 10
    hbar = TWO_PI + 0.04
    qspec = EnsembleSpec(n_atoms=256, beta_mode="uniform", cutoff=192)
    qp = ScaledParams(hbar_eff=hbar, kick_strength=k * hbar, kick_count=n)
    quantum, _ = ensemble_energy(qspec, qp, NoiseConfig(master_seed=11))
    espec = EnsembleSpec(n_atoms=8192, beta_mode="uniform", cutoff=192)
    mapped, _ = eps_energy(EpsParams(epsilon=0.04, kick_ratio=k), n, espec, NoiseConfig(master_seed=11))
    assert mapped[-1] == pytest.approx(quantum[-1], rel=0.10)


# ---------------------------------------------------------------------------
# portraits
# ---------------------------------------------------------------------------

def test_portrait_grid_and_shape():
    p = EpsParams(epsilon=0.02, kick_ratio=3.7)
    pts = phase_portrait(p, n_phi=4, n_rho=3, n_iters=5, cfg=NoiseConfig(master_seed=0))
    assert pts.shape == (4 * 3 * 6, 2)
    assert np.all((pts >= 0.0) & (pts < TWO_PI))
    start = phase_portrait(p, n_phi=4, n_rho=3, n_iters=0, cfg=NoiseConfig(master_seed=0))
    assert start.shape == (12, 2)
    assert np.allclose(np.unique(start[:, 0]), TWO_PI * (np.arange(4) + 0.5) / 4)
    assert np.allclose(np.unique(start[:, 1]), TWO_PI * (np.arange(3) + 0.5) / 3)


def test_portrait_is_the_fresh_array_step_bit_for_bit():
    p = EpsParams(epsilon=-0.03, kick_ratio=3.7, resonance_order=2)
    cfg = NoiseConfig(amplitude_level=2.0, master_seed=2)
    pts = phase_portrait(p, n_phi=5, n_rho=4, n_iters=50, cfg=cfg)
    factors = sample_realization(cfg, 50).amplitude_factors
    phi, rho = pts[:20, 0], pts[:20, 1]
    for n in range(50):
        phi, rho = _fresh_array_step(phi, rho, p, kick_factor=factors[n])
        assert np.array_equal(pts[20 * (n + 1):20 * (n + 2), 0], phi)
        assert np.array_equal(pts[20 * (n + 1):20 * (n + 2), 1], np.mod(rho, TWO_PI))


def test_portrait_tracks_the_np_sin_step():
    # 50 iterations apart, every point stayed within 3.3e-13 of the np.sin
    # step on the circle (the same grid, parameters and noise as above)
    p = EpsParams(epsilon=-0.03, kick_ratio=3.7, resonance_order=2)
    cfg = NoiseConfig(amplitude_level=2.0, master_seed=2)
    pts = phase_portrait(p, n_phi=5, n_rho=4, n_iters=50, cfg=cfg)
    factors = sample_realization(cfg, 50).amplitude_factors
    phi, rho = pts[:20, 0], pts[:20, 1]
    for n in range(50):
        phi, rho = _fresh_array_step(phi, rho, p, kick_factor=factors[n], sin=np.sin)
        got = pts[20 * (n + 1):20 * (n + 2)]
        for col, want in ((0, phi), (1, rho)):
            gap = np.mod(got[:, col] - want + math.pi, TWO_PI) - math.pi
            assert np.max(np.abs(gap)) < 1e-12


def test_portrait_unkicked_rotor_keeps_momentum_lines():
    p = EpsParams(epsilon=0.02, kick_ratio=0.0)
    pts = phase_portrait(p, n_phi=3, n_rho=5, n_iters=40, cfg=NoiseConfig(master_seed=0))
    rho = pts[:, 1].reshape(41, 15)
    assert np.max(np.abs(rho - rho[0])) < 1e-12


def test_portrait_error_paths():
    with pytest.raises(EpsilonZeroError):
        phase_portrait(EpsParams(epsilon=0.0, kick_ratio=1.0))
    with pytest.raises(ValueError):
        phase_portrait(EpsParams(epsilon=0.02, kick_ratio=1.0), n_phi=0)
    with pytest.raises(ValueError):
        phase_portrait(EpsParams(epsilon=0.02, kick_ratio=1.0), n_iters=-1)
    with pytest.raises(UnsupportedNoiseError):
        phase_portrait(EpsParams(epsilon=0.02, kick_ratio=1.0), cfg=NoiseConfig(period_level=0.1))


# ---------------------------------------------------------------------------
# plain standard map as diffusion oracle
# ---------------------------------------------------------------------------

def test_map_energy_zero_strength():
    # energy stays constant; only least-squares roundoff remains
    slope, sem = classical_map_energy(0.0, TWO_PI, n_traj=1000)
    assert abs(slope) < 1e-12 and sem == 0.0


def test_map_energy_reaches_quasilinear_at_large_strength():
    kappa = 40.0
    slope, _ = classical_map_energy(kappa, TWO_PI, n_traj=40_000, cfg=NoiseConfig(master_seed=2))
    assert slope == pytest.approx(kappa**2 / (4.0 * TWO_PI**2), rel=0.03)


def test_map_energy_matches_correlation_formula():
    # reduced-size version of the brute-force check of the 4-term expansion
    kappa = 5.0
    want = diffusion_rate(kappa, TWO_PI, "classical")
    slope, _ = classical_map_energy(kappa, TWO_PI, n_traj=300_000, cfg=NoiseConfig(master_seed=1))
    assert slope == pytest.approx(want, rel=0.08)


def test_map_energy_determinism_and_validation():
    cfg = NoiseConfig(amplitude_level=2.0, master_seed=5)
    a = classical_map_energy(5.0, TWO_PI, n_traj=2000, cfg=cfg, n_realizations=3)
    b = classical_map_energy(5.0, TWO_PI, n_traj=2000, cfg=cfg, n_realizations=3)
    assert a == b
    assert a[1] > 0.0
    with pytest.raises(ValueError):
        classical_map_energy(-1.0, TWO_PI)
    with pytest.raises(ValueError):
        classical_map_energy(5.0, 0.0)
    with pytest.raises(ValueError):
        classical_map_energy(5.0, TWO_PI, n_traj=1)
    with pytest.raises(ValueError):
        classical_map_energy(5.0, TWO_PI, fit_range=(3, 3))
    with pytest.raises(ValueError):
        classical_map_energy(5.0, TWO_PI, fit_range=(0, 9))
    with pytest.raises(ValueError):
        classical_map_energy(5.0, TWO_PI, n_realizations=0)
    with pytest.raises(UnsupportedNoiseError):
        classical_map_energy(5.0, TWO_PI, cfg=NoiseConfig(se_probability=0.2))
