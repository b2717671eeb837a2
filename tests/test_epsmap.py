"""Near-resonance map: stepping, limits, portraits, and the standard-map oracle."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from aokr.core import ScaledParams
from aokr.epsmap import (
    EpsilonZeroError,
    EpsParams,
    UnsupportedNoiseError,
    eps_energy,
    eps_step,
    phase_portrait,
)
from aokr import epsmap
from aokr.epsmap import _kick, _phase_advance, _resonant_limit_history, _stratified_phases
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


def _fresh_array_step(phi, rho, p, kick_factor=1.0, beta=0.0):
    """The map step written as one expression: np.mod and fresh arrays every kick."""
    advance = math.pi * p.resonance_order + p.hbar_eff * np.asarray(beta, dtype=float)
    phi = np.mod(phi + np.sign(p.epsilon) * np.asarray(rho) + advance, TWO_PI)
    rho = rho + abs(p.epsilon) * p.kick_ratio * np.asarray(kick_factor) * np.sin(phi)
    return phi, rho


def _fresh_array_history(p, n_kicks, spec, cfg, n_realizations):
    """Oracle for `eps_energy` at eps != 0, iterating `_fresh_array_step`."""

    def run(rcfg):
        factors = sample_realization(rcfg, n_kicks, 1).amplitude_factors
        n0s, betas, gains = sample_atoms(spec, rcfg)
        rng = stream_rng(rcfg.master_seed, rcfg.realization_index, STREAM_MAP_PHASE)
        phi = _stratified_phases(rng, spec.n_atoms)
        rho = abs(p.epsilon) * n0s.astype(float)
        history = [float(np.mean(rho**2))]
        for n in range(n_kicks):
            kick_factor = factors[n] * gains
            phi, rho = _fresh_array_step(phi, rho, p, kick_factor=kick_factor, beta=betas)
            history.append(float(np.mean(rho**2)))
        return np.array(history) * (0.5 / p.epsilon**2)

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
    with pytest.warns(UserWarning):
        EpsParams(epsilon=0.6, kick_ratio=1.0)


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
    _kick(phi, rho, 0.0, 0.0, 0.0, np.empty_like(x))
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


def test_step_leaves_its_inputs_unchanged():
    p = EpsParams(epsilon=-0.05, kick_ratio=2.0)
    phi0, rho0, beta = np.array([0.3, 5.9]), np.array([0.8, -0.4]), np.array([0.1, 0.7])
    phi, rho = eps_step(phi0, rho0, p, kick_factor=1.5, beta=beta)
    assert np.array_equal(phi0, [0.3, 5.9]) and np.array_equal(rho0, [0.8, -0.4])
    want = _fresh_array_step(phi0, rho0, p, kick_factor=1.5, beta=beta)
    assert np.array_equal(phi, want[0]) and np.array_equal(rho, want[1])


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


@pytest.mark.parametrize("block", [2, 3, 7, 64])
@pytest.mark.parametrize("n_kicks", [1, 2, 3, 8, 15, 64, 65, 129])
def test_blocked_resonant_limit_is_the_one_block_sum_bit_for_bit(monkeypatch, block, n_kicks):
    # the last block absorbs a remainder of one kick, whose mean would sum pairwise
    spec = EnsembleSpec(n_atoms=300, sigma_p=2.5, kick_spread=0.1)
    cfg = NoiseConfig(amplitude_level=2.0, master_seed=5)
    n0s, betas, gains = sample_atoms(spec, cfg)
    factors = sample_realization(cfg, n_kicks, 1).amplitude_factors
    monkeypatch.setattr(epsmap, "_LIMIT_BLOCK", block * spec.n_atoms)
    for order in (1, 2):
        p = EpsParams(epsilon=0.0, kick_ratio=3.7, resonance_order=order)
        got = _resonant_limit_history(p, n_kicks, betas, n0s, gains, factors)
        want = _one_block_resonant_limit(p, n_kicks, betas, n0s, gains, factors)
        assert got.tobytes() == want.tobytes()


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
def test_history_is_the_fresh_array_step_bit_for_bit(epsilon, order, level, beta_mode):
    # here the angle before reduction stays in [0, 40), where the in-place
    # reduction is np.mod exactly; a kick spread checks the (|eps| k) (R g) order
    spec = EnsembleSpec(n_atoms=1000, beta_mode=beta_mode, beta_fixed=0.3, kick_spread=0.05)
    p = EpsParams(epsilon=epsilon, kick_ratio=3.7, resonance_order=order)
    cfg = NoiseConfig(amplitude_level=level, master_seed=5)
    got = eps_energy(p, 30, spec, cfg, n_realizations=2)
    want = _fresh_array_history(p, 30, spec, cfg, n_realizations=2)
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


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
    factors = sample_realization(cfg, 50, 1).amplitude_factors
    phi, rho = pts[:20, 0], pts[:20, 1]
    for n in range(50):
        phi, rho = _fresh_array_step(phi, rho, p, kick_factor=factors[n])
        assert np.array_equal(pts[20 * (n + 1):20 * (n + 2), 0], phi)
        assert np.array_equal(pts[20 * (n + 1):20 * (n + 2), 1], np.mod(rho, TWO_PI))


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
