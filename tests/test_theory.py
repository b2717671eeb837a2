"""Closed-form rates and the Bessel machinery behind them."""

import math
import time

import mpmath
import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings, strategies as st

from aokr import theory
from aokr.theory import (
    bessel_j_row,
    diffusion_rate,
    diffusion_rate_with_noise,
    kick_strength_from_energy,
    noise_averaged_bessel,
    quantum_kick_strength,
)
from test_acceptance import SERIES_BELOW, bessel_j123

TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------------------
# Bessel evaluation against an independent arbitrary-precision oracle
# ---------------------------------------------------------------------------

def test_bessel_row_against_mpmath():
    mpmath.mp.dps = 30
    for x in (0.0, 1e-8, 0.5, 1.0, 3.77, 10.0, 25.3, 60.0):
        row = bessel_j_row(12, x)
        want = [float(mpmath.besselj(n, x)) for n in range(13)]
        assert np.max(np.abs(row - np.array(want))) < 1e-12


def test_bessel_row_against_mpmath_up_to_the_argument_limit():
    # the scan accepts arguments up to ARGUMENT_MAX = 1e5; 42,336 is the
    # upper end of a level-2 average at K = 28,224
    mpmath.mp.dps = 30
    for x in (300.0, 4_000.0, 42_336.0, 99_999.5):
        row = bessel_j_row(5, x)
        want = [float(mpmath.besselj(n, x)) for n in range(6)]
        assert np.max(np.abs(row - np.array(want))) <= 1e-13, x


def test_bessel_scalar_signs():
    mpmath.mp.dps = 30
    for order in (-5, -2, -1, 0, 1, 3, 8):
        for x in (-7.3, -1.0, 0.0, 2.5, 11.0):
            want = float(mpmath.besselj(order, x))
            assert noise_averaged_bessel(order, x, 0.0) == pytest.approx(want, abs=1e-12)


def _scalar_row_oracle(n_max, x, rescales=None):
    """The scalar Miller recurrence, one element at a time, with its +30 retry.

    An independent restatement of the row `bessel_j_row` computes: the same
    IEEE operations in the same order, so rows must agree bitwise.  Each
    rescale at 1e250 appends x to `rescales` when that is a list.
    """
    if x < 1e-8:
        row = np.zeros(n_max + 1)
        term = 1.0
        for n in range(n_max + 1):
            row[n] = term
            term *= 0.5 * x / (n + 1)
            if term == 0.0:
                break
        return row

    def one_pass(start):
        row = np.zeros(n_max + 1)
        jp, jc = 0.0, 1e-30
        norm = 0.0
        for m in range(start, 0, -1):
            jm = (2.0 * m / x) * jc - jp
            jp, jc = jc, jm
            if m - 1 <= n_max:
                row[m - 1] = jm
            if (m - 1) % 2 == 0:
                norm += 2.0 * jm
            if abs(jc) > 1e250:
                jp *= 1e-250
                jc *= 1e-250
                norm *= 1e-250
                row *= 1e-250
                if rescales is not None:
                    rescales.append(x)
        norm -= jc
        return row / norm

    start = int(max(n_max, x)) + 20 + int(2.0 * math.sqrt(max(x, float(n_max))))
    prev = None
    while True:
        row = one_pass(start)
        assert np.all(np.isfinite(row))
        if prev is not None and np.max(np.abs(row - prev)) < 1e-14:
            return row
        prev = row
        start += 30


# x = 0, the series branch and its edge, the 1e250 rescale branch (tiny x
# at high order), ordinary and large arguments
ORACLE_X = np.concatenate([
    [0.0, 1e-300, 1e-12, 5e-9, np.nextafter(1e-8, 0.0), 1e-8, 1e-7, 2e-7, 1e-5, 1e-3],
    np.linspace(0.0, 250.0, 181),
    [7.0, 40.0, 249.999, 250.0],
])


def test_bessel_row_bitwise_equals_scalar_oracle():
    rescales = []
    for n_max in range(41):
        rows = bessel_j_row(n_max, ORACLE_X)
        assert rows.shape == (ORACLE_X.size, n_max + 1)
        for x, row in zip(ORACLE_X, rows):
            want = _scalar_row_oracle(n_max, float(x), rescales)
            assert np.array_equal(row, want), (n_max, x)
    assert 1e-7 in rescales  # the rescale branch was exercised
    assert np.array_equal(bessel_j_row(0, 0.0), [1.0])


def test_bessel_row_is_independent_of_batch_order_and_size():
    rng = np.random.default_rng(3)
    for n_max in (0, 3, 40):
        whole = bessel_j_row(n_max, ORACLE_X)
        perm = rng.permutation(ORACLE_X.size)
        assert np.array_equal(bessel_j_row(n_max, ORACLE_X[perm]), whole[perm])
        parts = np.array_split(np.arange(ORACLE_X.size), 7)
        split = np.concatenate([bessel_j_row(n_max, ORACLE_X[idx]) for idx in parts])
        assert np.array_equal(split, whole)
        for i in (0, 6, 50, ORACLE_X.size - 1):
            assert np.array_equal(bessel_j_row(n_max, ORACLE_X[i]), whole[i])


def test_bessel_row_shapes():
    assert bessel_j_row(3, 2.0).shape == (4,)
    assert bessel_j_row(3, np.float64(2.0)).shape == (4,)
    assert bessel_j_row(3, [2.0]).shape == (1, 4)
    assert bessel_j_row(3, np.array([0.0, 1e-9, 2.0, 30.0])).shape == (4, 4)
    assert bessel_j_row(0, np.array([])).shape == (0, 1)
    with pytest.raises(ValueError, match="1-D"):
        bessel_j_row(3, np.ones((2, 2)))
    with pytest.raises(ValueError, match="x >= 0"):
        bessel_j_row(3, np.array([1.0, -0.5]))
    with pytest.raises(ValueError, match="n_max"):
        bessel_j_row(-1, 1.0)
    # the recurrence runs about x steps: beyond ARGUMENT_MAX it is rejected
    with pytest.raises(ValueError, match=r"x <= 100000, got 1e\+19"):
        bessel_j_row(0, np.array([1.0, 1e19]))


@pytest.mark.parametrize(
    "call",
    [lambda: diffusion_rate(4e5, 1.0, "classical"), lambda: bessel_j_row(3, 1e9)],
    ids=["diffusion_rate", "bessel_j_row"],
)
def test_bessel_argument_limit_rejects_before_any_recurrence(monkeypatch, call):
    # once 3.2 s and an hours-long Miller loop; now rejected before any pass
    def forbidden(*args, **kwargs):
        raise AssertionError("the recurrence started before the argument was checked")

    monkeypatch.setattr(theory, "_scalar_row", forbidden)
    start = time.perf_counter()
    with pytest.raises(ValueError, match=r"x <= 100000"):
        call()
    assert time.perf_counter() - start < 0.1


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_bessel_rejects_non_finite_arguments(bad):
    name = repr(bad)  # 'nan', 'inf' or '-inf'
    with pytest.raises(ValueError, match=f"finite x, got {name}"):
        bessel_j_row(3, bad)
    with pytest.raises(ValueError, match=f"finite x, got {name}"):
        bessel_j_row(3, np.array([1.0, bad, 2.0]))
    with pytest.raises(ValueError, match=f"K must be finite, got {name}"):
        noise_averaged_bessel(2, bad, 0.0)


def test_bessel_row_against_scipy():
    x = 17.9
    row = bessel_j_row(40, x)
    want = scipy.special.jn(np.arange(41), x)
    assert np.max(np.abs(row - want)) < 1e-12


def test_monte_carlo_bessel_oracle_against_scipy():
    # c09's fast J1-J3 (j0/j1 + recurrence, power series near 0) over the
    # widest argument range c09 draws, [0, 2 * 5], both sides of the switch
    cut = SERIES_BELOW
    x = np.concatenate([
        [0.0, 1e-300, 1e-16, 1e-7, 1e-3, 0.05],
        [np.nextafter(cut, 0.0), cut, np.nextafter(cut, 1.0), cut * (1 + 1e-6)],
        np.linspace(0.0, 10.0, 20_001),
    ])
    for order, got in zip((1, 2, 3), bessel_j123(x)):
        want = scipy.special.jn(order, x)
        assert np.max(np.abs(got - want)) <= 1e-13
        assert got[0] == 0.0


def test_bessel_high_order_underflow_is_clean():
    row = bessel_j_row(200, 1.0)
    assert row[0] == pytest.approx(scipy.special.j0(1.0), abs=1e-13)
    assert np.all(np.isfinite(row))
    assert abs(row[200]) < 1e-300 or row[200] == 0.0


@settings(max_examples=50, deadline=None)
@given(x=st.floats(min_value=0.0, max_value=80.0))
def test_bessel_row_normalization(x):
    # J0 + 2 J2 + 2 J4 + ... = 1 for any argument
    row = bessel_j_row(int(x) + 40, x)
    total = row[0] + 2.0 * np.sum(row[2::2])
    assert total == pytest.approx(1.0, abs=1e-10)
    assert np.all(np.abs(row) <= 1.0 + 1e-12)


@settings(max_examples=40, deadline=None)
@given(
    order=st.integers(min_value=-10, max_value=10),
    x=st.floats(min_value=-30.0, max_value=30.0),
)
def test_bessel_parity_relations(order, x):
    direct = noise_averaged_bessel(order, x, 0.0)
    flipped = (-1.0) ** order * direct
    assert noise_averaged_bessel(-order, x, 0.0) == pytest.approx(flipped, abs=1e-12)
    assert noise_averaged_bessel(order, -x, 0.0) == pytest.approx(flipped, abs=1e-12)


# ---------------------------------------------------------------------------
# effective kick strength and diffusion rates
# ---------------------------------------------------------------------------

def test_quantum_kick_strength_zeroes_at_resonance():
    kappa = 3.7 * TWO_PI
    assert abs(quantum_kick_strength(kappa, TWO_PI)) < 1e-12
    assert abs(quantum_kick_strength(kappa, 2.0 * TWO_PI)) < 1e-12


def test_quantum_kick_strength_classical_limit():
    # kappa fixed, hbar -> 0: quantum value approaches the bare strength
    assert quantum_kick_strength(5.0, 1e-6) == pytest.approx(5.0, rel=1e-9)


def test_diffusion_rate_quasilinear_at_large_strength():
    # correlation corrections decay like K^(-1/2), about 6% at K = 300
    kappa, hbar = 300.0, 1.0
    quasi = kappa**2 / (4.0 * hbar**2)
    assert diffusion_rate(kappa, hbar, "classical") == pytest.approx(quasi, rel=0.10)


def test_diffusion_rate_classical_vs_direct_formula():
    kappa, hbar = 5.0, TWO_PI
    j1, j2, j3 = (scipy.special.jn(n, kappa) for n in (1, 2, 3))
    want = 0.5 * (kappa / hbar) ** 2 * (0.5 - j2 - j1**2 + j2**2 + j3**2)
    assert diffusion_rate(kappa, hbar, "classical") == pytest.approx(want, rel=1e-12)


def test_diffusion_rate_quantum_uses_effective_strength():
    kappa, hbar = 5.0, 2.0
    keff = quantum_kick_strength(kappa, hbar)
    j1, j2, j3 = (scipy.special.jn(n, keff) for n in (1, 2, 3))
    want = 0.5 * (kappa / hbar) ** 2 * (0.5 - j2 - j1**2 + j2**2 + j3**2)
    assert diffusion_rate(kappa, hbar, "quantum") == pytest.approx(want, rel=1e-12)


def test_noise_averaged_bessel_reduces_to_plain():
    for n in (1, 2, 3):
        assert noise_averaged_bessel(n, 2.0, 0.0) == pytest.approx(
            scipy.special.jn(n, 2.0), abs=1e-12
        )
    assert noise_averaged_bessel(0, 0.0, 2.0) == 1.0
    assert noise_averaged_bessel(2, 0.0, 2.0) == 0.0


def test_noise_averaged_bessel_against_dense_quadrature():
    # independent fixed-order Gauss-Legendre on the same average; K = 400
    # oscillates over [0, 800] and needs the denser rule
    for n, big_k, level, deg in (
        (1, 0.5, 1.0, 256), (2, 2.0, 2.0, 256), (3, 5.0, 2.0, 256), (2, -3.0, 1.0, 256),
        (3, 400.0, 2.0, 1024),
    ):
        nodes, weights = np.polynomial.legendre.leggauss(deg)
        vals = scipy.special.jn(n, big_k * (1.0 + 0.5 * level * nodes))
        want = float(np.sum(weights * vals) / 2.0)
        assert noise_averaged_bessel(n, big_k, level) == pytest.approx(want, abs=1e-9)


def test_noise_averaged_bessel_against_mpmath():
    # both branches (h = |K| level / 2 below and above 1e-3), negative K and
    # order, against arbitrary-precision quadrature of the defining average
    mpmath.mp.dps = 20
    worst = 0.0
    for order in range(-3, 4):
        for big_k in (1e-12, 1e-3, 0.7, -3.0, 27.3, 110.0):
            for level in (1e-9, 1e-6, 1e-4, 2e-3, 0.05, 1.0, 2.0):
                lo, hi = (big_k * (1.0 + s * mpmath.mpf(level) / 2) for s in (-1, 1))
                integral = mpmath.quad(lambda y: mpmath.besselj(order, y), [lo, hi])
                want = float(integral / (hi - lo))
                worst = max(worst, abs(noise_averaged_bessel(order, big_k, level) - want))
    assert worst <= 1e-12


def test_noise_averaged_bessel_at_large_argument():
    # K = 28,224 at level 2 averages J_n over [0, 2K]; for order one that is
    # (J0(0) - J0(2K)) / (2K), and every J_n integrates to 1 over [0, inf),
    # with a tail of order (2K)^(-1/2)
    big_k = 28_224.0
    for order in (1, 2, 3):
        t0 = time.perf_counter()
        got = noise_averaged_bessel(order, big_k, 2.0)
        assert time.perf_counter() - t0 < 2.0
        assert got == pytest.approx(1.0 / (2.0 * big_k), rel=1e-2)
        if order == 1:
            want = (scipy.special.j0(0.0) - scipy.special.j0(2.0 * big_k)) / (2.0 * big_k)
            assert got == pytest.approx(want, abs=1e-15)


def test_noise_averaged_bessel_closed_form_order_one():
    # d(-J0)/dx = J1, so the level-2 average at K has the exact value
    # [J0(K(1 - L/2)) - J0(K(1 + L/2))] / (K L)
    want = (scipy.special.j0(0.0) - scipy.special.j0(10.0)) / 10.0
    assert noise_averaged_bessel(1, 5.0, 2.0) == pytest.approx(want, abs=1e-9)
    # and averaging shrinks |J1| well below its pointwise value here
    assert abs(want) < abs(scipy.special.j1(5.0))


@pytest.mark.parametrize(
    "K, level, match",
    [
        (math.nan, 1e-10, "K must be finite, got nan"),
        (math.inf, 1e-10, "K must be finite, got inf"),
        (-math.inf, 1e-10, "K must be finite, got -inf"),
        (5.0, math.nan, "level must lie in"),
        (5.0, 2.5, "level must lie in"),
        (6.0e4, 2.0, r"\|K\| \(1 \+ level/2\) = 120000 exceeds 100000"),
        (-7.0e4, 1.0, r"= 105000 exceeds 100000"),
        (1e300, 2.0, "exceeds 100000"),
    ],
)
def test_noise_averaged_bessel_rejects_bad_input_before_any_work(monkeypatch, K, level, match):
    def forbidden(*args, **kwargs):
        raise AssertionError("work started before the input was checked")

    monkeypatch.setattr(theory, "bessel_j_row", forbidden)
    with pytest.raises(ValueError, match=match):
        noise_averaged_bessel(2, K, level)


def test_noisy_rate_identity_at_resonance():
    # at hbar = 2 pi the effective strength vanishes and only the
    # quasilinear-with-noise part survives: kappa^2 (1 + L^2/12) / (4 hbar^2)
    kappa = 3.7 * TWO_PI
    want = kappa**2 * (1.0 + 4.0 / 12.0) / (4.0 * TWO_PI**2)
    got = diffusion_rate_with_noise(kappa, TWO_PI, 2.0, "quantum")
    assert got == pytest.approx(want, abs=1e-12)
    assert got == pytest.approx(kappa**2 / (3.0 * TWO_PI**2), abs=1e-12)


def test_noisy_rate_reduces_to_clean_at_zero_level():
    kappa, hbar = 9.5, 3.1
    assert diffusion_rate_with_noise(kappa, hbar, 0.0, "classical") == pytest.approx(
        diffusion_rate(kappa, hbar, "classical"), rel=1e-12
    )


def test_rate_rejects_bad_inputs():
    with pytest.raises(ValueError):
        diffusion_rate(5.0, 0.0)
    with pytest.raises(ValueError):
        diffusion_rate(5.0, 1.0, "semiclassical")
    with pytest.raises(ValueError):
        diffusion_rate_with_noise(5.0, 1.0, 2.5)


NAN = math.nan


@pytest.mark.parametrize(
    "call, match",
    [
        pytest.param(lambda: quantum_kick_strength(1.0, NAN), "hbar_eff must be positive",
                     id="quantum_kick_strength-hbar"),
        pytest.param(lambda: diffusion_rate(3.0, NAN), "hbar_eff must be positive",
                     id="diffusion_rate-hbar"),
        pytest.param(lambda: diffusion_rate(NAN, 3.0), "kappa must be finite",
                     id="diffusion_rate-kappa"),
        pytest.param(lambda: diffusion_rate_with_noise(3.0, NAN, 1.0), "hbar_eff must be positive",
                     id="diffusion_rate_with_noise-hbar"),
        pytest.param(lambda: diffusion_rate_with_noise(NAN, 3.0, 1.0), "kappa must be finite",
                     id="diffusion_rate_with_noise-kappa"),
        pytest.param(lambda: diffusion_rate_with_noise(math.inf, 3.0, 0.0), "kappa must be finite",
                     id="diffusion_rate_with_noise-kappa-inf"),
        pytest.param(lambda: quantum_kick_strength(1.0, math.inf), "hbar_eff must be positive",
                     id="quantum_kick_strength-hbar-inf"),
        pytest.param(lambda: diffusion_rate(3.0, math.inf), "hbar_eff must be positive",
                     id="diffusion_rate-hbar-inf"),
        pytest.param(lambda: diffusion_rate(3.0, math.inf, "classical"),
                     "hbar_eff must be positive", id="diffusion_rate-classical-hbar-inf"),
        pytest.param(lambda: diffusion_rate_with_noise(3.0, math.inf, 2.0, "classical"),
                     "hbar_eff must be positive", id="diffusion_rate_with_noise-classical-hbar-inf"),
    ],
)
def test_rate_guards_reject_non_finite_arguments_by_name(call, match):
    with pytest.raises(ValueError, match=f"^{match}, got (nan|inf)$"):
        call()


# ---------------------------------------------------------------------------
# resonance peaks and inversion
# ---------------------------------------------------------------------------

def test_kick_strength_round_trip():
    # the peak heights at exact resonance: r^2 n / 4 without noise, r^2 n / 3 at level 2
    for mode, energy in (("quasilinear", 0.25 * 3.63**2 * 20),
                         ("resonant-max-noise", 3.63**2 * 20 / 3.0)):
        assert kick_strength_from_energy(energy, 20, mode) == pytest.approx(3.63, rel=1e-12)
    with pytest.raises(ValueError):
        kick_strength_from_energy(10.0, 0)
    with pytest.raises(ValueError):
        kick_strength_from_energy(10.0, 20, "other")
    for energy in (math.inf, -math.inf):
        with pytest.raises(ValueError, match="energy must be finite"):
            kick_strength_from_energy(energy, 20)


def test_kick_strength_is_bitwise_the_textbook_formula():
    # 2 sqrt(c E / n) with c = 1 or 3/4 is sqrt(4 E / n) or sqrt(3 E / n) bit
    # for bit wherever those do not overflow, and stays finite where they do
    rng = np.random.default_rng(12)
    energies = np.concatenate([[0.0, 94.8, 94.832, 1e-300], 10.0 ** rng.uniform(-300, 307, 2000)])
    for energy, n in zip(energies, rng.integers(1, 1000, len(energies))):
        energy, n = float(energy), int(n)
        assert kick_strength_from_energy(energy, n) == math.sqrt(4.0 * energy / n)
        assert kick_strength_from_energy(energy, n, "resonant") == math.sqrt(4.0 * energy / n)
        assert kick_strength_from_energy(energy, n, "resonant-max-noise") == math.sqrt(
            3.0 * energy / n
        )
    assert kick_strength_from_energy(1.7e308, 1) == pytest.approx(2.0 * math.sqrt(1.7e308))
