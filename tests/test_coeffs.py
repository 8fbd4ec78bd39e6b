import math
import random
from fractions import Fraction

import numpy as np
import pytest

from entrofun import coeffs as cf
from entrofun.asymptotics import K_MAX
from entrofun.closedforms import HyperTerm, hyper_terminating
from entrofun.functional import Functional
from entrofun.oracle import integrate_functional
from entrofun.orthopoly import laguerre_value
from entrofun.series import (Series, _double_factorial_odd, laplace_terms,
                             series_pow)
from series_reference import laplace_sum


# ---------------------------------------------------------------------------
# Taylor coefficients f_n and the degree-ordered g_n
# ---------------------------------------------------------------------------

def test_f_sequence_low_orders():
    assert cf.f_sequence(5, 30.0, 1) == [1.0, 5.0]
    # (m(m-1) - alpha)/2 at m=4, alpha=10
    assert cf.f_sequence(4, 10.0, 2)[2] == pytest.approx(1.0)
    # (m(m-1)(m-2) + 2 alpha - 3 m alpha)/6 at m=2, alpha=10
    assert cf.f_sequence(2, 10.0, 3)[3] == pytest.approx(-20.0 / 3.0)


def test_f_sequence_matches_kummer_route():
    # High-precision reference for the strict tolerance: the terminating
    # confluent sum suffers catastrophic cancellation in doubles once its
    # terms alternate at size ~alpha^n/n! against an O(1) result.
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 40
    for m in (0, 1, 3, 6):
        for alpha in (5.0, 20.0, 100.0):
            f = cf.f_sequence(m, alpha, 8)
            for n in range(0, 9):
                if alpha + m + 1 - n <= 0.5:
                    continue  # the confluent closed form has a pole here
                b = mp.mpf(alpha) + m + 1 - n
                t, tot = mp.mpf(1), mp.mpf(0)
                for j in range(n + 1):
                    tot += t
                    t *= (-n + j) * alpha / ((b + j) * (j + 1))
                ref = float(mp.binomial(alpha + m, n) * tot)
                assert f[n] == pytest.approx(ref, rel=1e-11, abs=1e-11)


def _poch(a: float, n: int) -> float:
    """Rising factorial (a)_n as a running float product."""
    out = 1.0
    for k in range(n):
        out *= a + k
    return out


def f_value_kummer(n: int, m: int, alpha: float) -> float:
    """f_n(m; alpha) from the Kummer representation: a cross-check route."""
    binom = _poch(alpha + m - n + 1.0, n) / math.factorial(n)
    f1 = hyper_terminating(HyperTerm(
        upper=(-float(n),),
        lower=(alpha + m + 1.0 - n,),
        argument=alpha,
    ))
    return binom * f1.to_float()


def test_f_value_kummer_double_route():
    # the double-precision route agrees up to its cancellation conditioning
    for m in (0, 2, 5):
        for alpha in (5.0, 20.0, 100.0):
            f = cf.f_sequence(m, alpha, 8)
            for n in range(0, 9):
                b = alpha + m + 1 - n
                if b <= 0.5:
                    continue
                t, tot, absd = 1.0, 0.0, 0.0
                for j in range(n + 1):
                    tot += t
                    absd += abs(t)
                    t *= (-n + j) * alpha / ((b + j) * (j + 1))
                cond = absd / max(abs(tot), 1e-300)
                ref = f_value_kummer(n, m, alpha)
                tol = 1e-12 * max(10.0, cond)
                assert f[n] == pytest.approx(ref, rel=tol, abs=tol)


def test_f_sequence_growth_order():
    # even entries grow like alpha^n: doubling alpha multiplies by <= 2.5^n
    # once alpha dominates m(m-1)
    m = 4
    for alpha in (50.0, 100.0, 200.0):
        f1 = cf.f_sequence(m, alpha, 2 * m)
        f2 = cf.f_sequence(m, 2.0 * alpha, 2 * m)
        for n in range(1, 4):
            assert abs(f2[2 * n]) / abs(f1[2 * n]) <= 2.5 ** n


def test_g_coeffs_values():
    assert cf.g_coeffs(3, 0.4)[0] == 1.0
    assert cf.g_coeffs(1, 0.0)[1] == pytest.approx(1.0)
    assert cf.g_coeffs(0, 0.7) == [1.0, 0.0, 0.0]
    with pytest.raises(ValueError):
        cf.g_coeffs(2, 1.0)


def test_g_coeffs_partial_sum_accuracy():
    # the three-term degree-ordered sum tracks the polynomial with an
    # O(alpha^(m-3)) error on the alpha^m scale
    m, t = 4, 0.4
    devs = []
    for alpha in (2.0 ** 10, 2.0 ** 11, 2.0 ** 12):
        g = cf.g_coeffs(m, t)
        head = (alpha ** m * (1 - t) ** m / math.factorial(m)
                * (g[0] + g[1] / alpha + g[2] / alpha ** 2))
        devs.append(abs(laguerre_value(m, alpha, alpha * t) - head) / alpha ** m)
    assert 6.0 <= devs[0] / devs[1] <= 10.0
    assert 6.0 <= devs[1] / devs[2] <= 10.0


# ---------------------------------------------------------------------------
# Watson ladder for the plain Laguerre integral
# ---------------------------------------------------------------------------

def test_lag_A_printed_forms():
    rng = random.Random(20260808)
    for _ in range(5):
        kappa = rng.uniform(0.3, 4.0)
        m = rng.randint(1, 6)
        alpha = rng.uniform(5.0, 500.0)
        A = cf.lag_A_coeffs(kappa, m, alpha, 2)
        f = cf.f_sequence(m, alpha, 2)
        assert A[0] == 1.0
        assert A[1] == pytest.approx(kappa * m * f[1], rel=1e-12)
        a2 = 0.5 * kappa * m * (2 * m * f[2] - 2 * f[2] - m * f[1] ** 2
                                + kappa * m * f[1] ** 2)
        assert A[2] == pytest.approx(a2, rel=1e-12)


def test_lag_A_zero_degree():
    A = cf.lag_A_coeffs(1.7, 0, 50.0, 5)
    assert A[0] == 1.0
    assert all(a == 0.0 for a in A[1:])


# Reference Watson moments, each entry from its own Pochhammer products: the
# ladder built from them costs O(k_max^3).

def _poch_deriv(a: float, da: float, n: int) -> float:
    """d(a)_n for a moving at rate da, by the product rule over the factors."""
    val, der = 1.0, 0.0
    for k in range(n):
        val, der = val * (a + k), der * (a + k) + val * da
    return der


def lag_B(j: int, n: int, mu: float, lam: float, kappa: float, m: int) -> float:
    """(mu)_n (j - kappa m)_n / (n! lam^n)."""
    return (_poch(mu, n) * _poch(j - kappa * m, n)
            / (math.factorial(n) * lam ** n))


def lag_B_dkappa(j: int, n: int, mu: float, lam: float, kappa: float,
                 m: int) -> float:
    """d lag_B / d kappa: (mu)_n d(j - kappa m)_n / (n! lam^n)."""
    return (_poch(mu, n) * _poch_deriv(j - kappa * m, -m, n)
            / (math.factorial(n) * lam ** n))


def _lag_B_entry(j, n, mu, lam, kappa, m, dkappa=False):
    B, dB = cf._lag_B_table(mu, lam, kappa, m, j + n, dkappa)
    return dB[j][n] if dkappa else B[j][n]


def test_lag_B_values():
    assert _lag_B_entry(3, 0, 2.0, 1.5, 2.0, 4) == 1.0
    mu, lam, kappa, m = 2.0, 1.5, 2.0, 4
    assert _lag_B_entry(0, 1, mu, lam, kappa, m) == pytest.approx(
        mu * (-kappa * m) / lam)
    assert _lag_B_entry(1, 2, 2.0, 1.0, 2.0, 1) == 0.0
    with pytest.raises(ValueError, match="mu > 0 and lam > 0"):
        cf.lag_C_ladder(2.0, 0.0, 2.0, 1, 100.0, 2)
    with pytest.raises(ValueError, match="mu > 0 and lam > 0"):
        cf.lag_C_ladder(-1.0, 1.0, 2.0, 1, 100.0, 2)


@pytest.mark.parametrize("m", [0, 1, 3, 8])
@pytest.mark.parametrize("kappa", [2.0, 2.5, 3.7])
def test_lag_C_ladder_matches_per_entry_moments(m, kappa):
    # the running-ratio table rounds exactly like the per-entry Pochhammer
    # quotients, so the ladder and its kappa-derivative are bitwise equal
    k_max = 2 * K_MAX
    for mu, lam, alpha in ((2.5, 1.5, 400.0), (0.7, 0.35, 250.0),
                           (5.8, 2.9, 1.0e4)):
        A, dA = cf.lag_A_coeffs(kappa, m, alpha, k_max, dkappa=True)
        values = tuple(math.fsum(A[j] * lag_B(j, k - j, mu, lam, kappa, m)
                                 for j in range(k + 1))
                       for k in range(k_max + 1))
        derivs = tuple(math.fsum(
            dA[j] * lag_B(j, k - j, mu, lam, kappa, m)
            + A[j] * lag_B_dkappa(j, k - j, mu, lam, kappa, m)
            for j in range(k + 1)) for k in range(k_max + 1))
        ladder = cf.lag_C_ladder(mu, lam, kappa, m, alpha, k_max, dkappa=True)
        assert ladder.values == values
        assert ladder.dkappa == derivs
        assert cf.lag_C_ladder(mu, lam, kappa, m, alpha, k_max).values == values


def test_lag_B_dkappa_through_a_zero_factor():
    # At kappa = 2 the factors j - 2m + i of (j - kappa m)_n pass through 0,
    # so the value vanishes but its derivative does not; the exact product
    # rule is the reference, and (x)_n sum 1/(x + i) would divide by zero.
    mu, lam = 2.5, 1.5
    hit = 0
    for j, m in ((1, 2), (0, 1), (3, 3), (2, 5)):
        x = Fraction(j - 2 * m)
        for n in range(8):
            factors = [x + i for i in range(n)]
            dpoch = -m * sum(math.prod(factors[:i] + factors[i + 1:])
                             for i in range(n))
            want = (math.prod(Fraction(mu) + i for i in range(n)) * dpoch
                    / (math.factorial(n) * Fraction(lam) ** n))
            got = _lag_B_entry(j, n, mu, lam, 2.0, m, dkappa=True)
            assert got == pytest.approx(float(want), rel=1e-14, abs=0.0)
            if 0 in factors:
                hit += 1
                assert _lag_B_entry(j, n, mu, lam, 2.0, m) == 0.0 and got != 0.0
    assert hit > 0


def test_lag_C_low_orders():
    mu, lam, kappa, m, alpha = 2.5, 1.5, 2.0, 3, 60.0
    ladder = cf.lag_C_ladder(mu, lam, kappa, m, alpha, 3)
    assert ladder.values[0] == 1.0
    assert ladder.values[1] == pytest.approx(
        mu * (-kappa * m) / lam + kappa * m * m, rel=1e-13)


def test_lag_C_zero_degree():
    ladder = cf.lag_C_ladder(2.0, 1.0, 2.0, 0, 50.0, 4)
    assert ladder.values[0] == 1.0
    assert all(v == 0.0 for v in ladder.values[1:])


def test_lag_C_order_property():
    # C_{2k}(alpha) = O(alpha^k): the alpha-normalised entries stay bounded
    mu, lam, kappa, m = 2.0, 1.0, 2.5, 4
    for k in (1, 2, 3):
        v1 = cf.lag_C_ladder(mu, lam, kappa, m, 400.0, 2 * k).values[2 * k]
        v2 = cf.lag_C_ladder(mu, lam, kappa, m, 800.0, 2 * k).values[2 * k]
        assert abs(v2) / 800.0 ** k <= 2.0 * max(abs(v1) / 400.0 ** k, 1e-8)


def _watson_D_from_engine(mu, lam, kappa, m, k_target):
    """Rearrange the alpha-dependent ladder into alpha-free coefficients.

    C_k(alpha) is a polynomial in alpha of degree floor(k/2); sampling on a
    small alpha grid and solving the Vandermonde system recovers its
    coefficients essentially exactly, and D_k collects the alpha^(j-k)
    diagonal.
    """
    needed = {}
    for j in range(k_target, 2 * k_target + 1):
        deg = j // 2
        alphas = [10.0 + 7.0 * i for i in range(deg + 1)]
        samples = [cf.lag_C_ladder(mu, lam, kappa, m, a, j).values[j]
                   for a in alphas]
        vand = np.vander(alphas, deg + 1, increasing=True)
        needed[j] = np.linalg.solve(vand, np.array(samples))
    total = 0.0
    for j, poly in needed.items():
        i = j - k_target
        if 0 <= i < len(poly):
            total += poly[i]
    return total


def test_watson_D_ladder_engine_vs_printed():
    rng = random.Random(20260809)
    for _ in range(5):
        mu = rng.uniform(0.5, 4.0)
        lam = rng.uniform(0.5, 3.0)
        kappa = rng.uniform(0.5, 3.5)
        m = rng.randint(1, 5)
        for k in (1, 2):
            engine = _watson_D_from_engine(mu, lam, kappa, m, k)
            printed = cf.lag_D(k, mu, lam, kappa, m)
            assert engine == pytest.approx(printed, rel=1e-10, abs=1e-10)


def test_lag_D_printed_values():
    assert cf.lag_D(0, 2.0, 1.0, 2.0, 3) == 1.0
    for m in (1, 2, 5):
        mu = 1.7
        assert cf.lag_D(1, mu, 1.0, 2.0, m) == pytest.approx(
            m * (1 + m - 2 * mu), rel=1e-13)
    with pytest.raises(ValueError):
        cf.lag_D(3, 2.0, 1.0, 2.0, 1)


def test_example_one_coherence():
    # the kappa=2, lam=1 second coefficient equals the one-sixth polynomial
    # derived from the hypergeometric special case, exactly
    for m in range(1, 6):
        for mu in (0.8, 2.0, 3.25):
            d2 = cf.lag_D(2, mu, 1.0, 2.0, m)
            ref = (m / 6.0) * (-1 + 6 * mu - 6 * mu ** 2 + 12 * mu ** 2 * m
                               - 12 * m ** 2 * mu + 4 * m ** 2 + 3 * m ** 3)
            assert d2 == pytest.approx(ref, rel=1e-12, abs=1e-12)


def test_lag_D_kappa_derivative():
    assert cf.lag_D_kappa_derivative(0, 2.0, 1.0, 2.0, 3) == 0.0
    mu, lam, m = 2.0, 1.5, 4
    assert cf.lag_D_kappa_derivative(1, mu, lam, 2.0, m) == pytest.approx(
        m * (-2 * mu + m * lam + lam) / (2 * lam), rel=1e-13)
    # central-difference cross-check with one Richardson level
    mu, lam, m, kappa = 2.5, 1.5, 3, 2.0
    for k in (1, 2):
        h = 1e-5
        def fd(step):
            return (cf.lag_D(k, mu, lam, kappa + step, m)
                    - cf.lag_D(k, mu, lam, kappa - step, m)) / (2 * step)
        est = (4 * fd(h) - fd(2 * h)) / 3
        assert cf.lag_D_kappa_derivative(k, mu, lam, kappa, m) == pytest.approx(
            est, rel=1e-7)


# ---------------------------------------------------------------------------
# Gegenbauer ladders
# ---------------------------------------------------------------------------

def test_geg_f_sequence():
    m, alpha = 5, 40.0
    f = cf.geg_f_sequence(m, alpha, 4)
    assert f[0] == 1.0
    assert f[1] == pytest.approx(-alpha * m * (m - 1) / (4 * (alpha + m - 1)),
                                 rel=1e-13)
    assert f[3] == 0.0 and f[4] == 0.0  # 2n > m
    # bounded as alpha grows
    f_big = cf.geg_f_sequence(m, 1e6, 2)
    assert abs(f_big[1]) <= abs(m * (m - 1) / 4) * 1.01


def test_geg_A_printed_forms():
    rng = random.Random(20260810)
    for _ in range(5):
        kappa = rng.uniform(0.5, 3.5)
        m = rng.randint(2, 6)
        alpha = rng.uniform(10.0, 300.0)
        A = cf.geg_A_coeffs(kappa, m, alpha, 2)
        f = cf.geg_f_sequence(m, alpha, 2)
        assert A[0] == 1.0
        assert A[1] == pytest.approx(kappa * f[1], rel=1e-12)
        a2 = 0.5 * kappa * (2 * f[2] - f[1] ** 2 + kappa * f[1] ** 2)
        assert A[2] == pytest.approx(a2, rel=1e-12, abs=1e-12)


def test_geg_A_degenerate_degrees():
    for m in (0, 1):
        A = cf.geg_A_coeffs(2.0, m, 30.0, 3)
        assert A[0] == 1.0
        assert all(a == 0.0 for a in A[1:])


def _printed_c0(j, a, b, c, d, kappa, m):
    a1 = 2 * math.sqrt(c * d / (c + d) ** 3)
    return (a1 * (2 * c / (c + d)) ** a * (2 * d / (c + d)) ** b
            * ((d - c) / (c + d)) ** (kappa * m - 2 * j))


def _printed_c1(j, a, b, c, d, kappa, m):
    a1 = 2 * math.sqrt(c * d / (c + d) ** 3)
    c0 = _printed_c0(j, a, b, c, d, kappa, m)
    return (c0 * a1 * (c + d)
            * (6 * c * d * (kappa * m - 2 * j)
               + (d - c) * (3 * b * c - 3 * a * d + 2 * c - 2 * d))
            / (6 * c * d * (d - c)))


def test_geg_laplace_c_first_coefficients():
    # spot value: a = b = 0, kappa m = 0 leaves only the Jacobian a_1
    amp = cf.geg_laplace_c(0, 0.0, 0.0, 1.0, 3.0, 2.0, 0, order=6)
    assert amp.coeffs[0] == pytest.approx(math.sqrt(3.0) / 4.0, rel=1e-13)
    cases = [(-0.5, 2 * 2 - 1.5, 1.0, 3.0, 2.0, 2, 0),
             (0.3, -0.4, 0.5, 2.0, 1.5, 3, 1),
             (1.0, 2.0, 2.0, 5.0, 2.5, 1, 0)]
    for (a, b, c, d, kappa, m, j) in cases:
        amp = cf.geg_laplace_c(j, a, b, c, d, kappa, m, order=8)
        assert amp.coeffs[0] == pytest.approx(
            _printed_c0(j, a, b, c, d, kappa, m), rel=1e-10)
        assert amp.coeffs[1] == pytest.approx(
            _printed_c1(j, a, b, c, d, kappa, m), rel=1e-10)


def test_geg_laplace_c_requires_ordered_weights():
    with pytest.raises(ValueError):
        cf.geg_laplace_c(0, 0.0, 0.0, 3.0, 1.0, 2.0, 1, order=16)
    with pytest.raises(ValueError):
        cf.geg_laplace_c(0, 0.0, 0.0, 1.0, 1.0, 2.0, 1, order=16)


def _geg_laplace_c_rebuilt(j, a, b, c, d, kappa, m, order):
    """geg_laplace_c with the saddle series built and reverted afresh for
    this one (j, kappa, order), with no shared frame."""
    x_m, s = cf.geg_saddle_x(c, d, order + 1)
    w = s.order
    w1 = (Series.constant(1.0 - x_m, w) - s) * (1.0 / (1.0 - x_m))
    w2 = (Series.constant(1.0 + x_m, w) + s) * (1.0 / (1.0 + x_m))
    wx = (Series.constant(x_m, w) + s) * (1.0 / x_m)
    amp = (series_pow(w1, a) * series_pow(w2, b)
           * series_pow(wx, kappa * m - 2.0 * j) * s.deriv())
    const = ((1.0 - x_m) ** a * (1.0 + x_m) ** b
             * x_m ** (kappa * m - 2.0 * j))
    return (amp * const).truncate(order)


def _geg_C_rebuilt(a, b, c, d, kappa, m, alpha, k_max):
    A = cf.geg_A_coeffs(kappa, m, alpha, k_max)
    amps = [_geg_laplace_c_rebuilt(j, a, b, c, d, kappa, m, 2 * (k_max - j))
            for j in range(k_max + 1)]
    return tuple(math.fsum(A[j] * amps[j].coeffs[2 * (k - j)]
                           * _double_factorial_odd(k - j) for j in range(k + 1))
                 for k in range(k_max + 1))


_H = 1e-4  # the Shannon central-difference step: kappa = 2 +- h, 2 +- 2h


@pytest.mark.parametrize("c, d, m, alpha, K, kappas", [
    (1.0, 3.0, 3, 200.0, 7, (2.0, 2 + _H, 2 - _H, 2 + 2 * _H, 2 - 2 * _H)),
    (0.4, 0.9, 5, 3000.0, 4, (0.7, 2.0, 3.3)),
    (2.5, 2.6, 1, 800.0, 0, (1.0, 2 + _H, 2 - 2 * _H)),
    (1.3, 7.0, 8, 1.0e4, 6, (2 + 2 * _H, 1.6)),
])
def test_geg_ladder_bitwise_matches_per_term_rebuild(c, d, m, alpha, K, kappas):
    # two (a, b) pairs on the same (c, d): the shared frame must key on both
    for a, b in ((-0.5, 4.5), (1.25, -0.75)):
        for kappa in kappas:
            got = cf.geg_C_ladder(a, b, c, d, kappa, m, alpha, K).values
            assert got == _geg_C_rebuilt(a, b, c, d, kappa, m, alpha, K)
            for j, order in ((0, 2 * K), (1, 2 * K), (K, 3), (2, 0)):
                assert (cf.geg_laplace_c(j, a, b, c, d, kappa, m, order).coeffs
                        == _geg_laplace_c_rebuilt(j, a, b, c, d, kappa, m,
                                                  order).coeffs)


def test_geg_ladder_builds_one_saddle_per_frame(monkeypatch):
    builds = []
    saddle = cf.geg_saddle_x

    def counting(*args):
        builds.append(args)
        return saddle(*args)

    monkeypatch.setattr(cf, "geg_saddle_x", counting)
    cf._geg_frame.cache_clear()
    args = (0.3, 1.1, 0.8, 2.9)
    for kappa in (2 + _H, 2 - _H, 2 + 2 * _H, 2 - 2 * _H):
        cf.geg_C_ladder(*args, kappa, 4, 500.0, 7)
    assert len(builds) == 1
    cf.geg_laplace_c(2, *args, 1.5, 4, order=14)   # same order: a hit
    assert len(builds) == 1
    cf.geg_laplace_c(2, *args, 1.5, 4, order=6)    # a new order: one build
    cf.geg_C_ladder(0.4, 1.1, 0.8, 2.9, 2.0, 4, 500.0, 7)  # new (a, b)
    assert len(builds) == 3


@pytest.mark.parametrize("build, param", [
    (cf.geg_saddle_x, (1.0, 3.0)),
    (cf.geg_saddle_x, (0.37, 5.2)),
    (cf.geg_saddle_x, (2.5, 2.6)),
    (cf.ext_saddle_x, (2.0,)),
    (cf.ext_saddle_x, (0.45,)),
])
def test_saddle_series_truncation_is_exact(build, param):
    # the shared Gegenbauer frame relies on this: coefficient k of the
    # reverted saddle series does not depend on the order it was built at
    top_x, top = build(*param, 18)
    for n in (0, 1, 2, 5, 11, 17):
        x, s = build(*param, n)
        assert x == top_x
        assert top.truncate(s.order).coeffs == s.coeffs


def test_geg_D0():
    assert cf.geg_D0(0.0, 0.0, 1.0, 3.0, 2.0, 0) == pytest.approx(
        math.sqrt(3.0) / 4.0, rel=1e-14)
    # leading factor of the hypergeometric special case: 3^(2m-1) 2^(-4m)
    for m in (1, 2, 3):
        d0 = cf.geg_D0(-0.5, 2 * m - 1.5, 1.0, 3.0, 2.0, m)
        assert d0 == pytest.approx(3.0 ** (2 * m - 1) * 2.0 ** (-4 * m),
                                   rel=1e-12)
    # a power of (d-c)/(c+d) < 1 decreases with kappa m
    assert cf.geg_D0(0.0, 0.0, 1.0, 3.0, 2.0, 3) < cf.geg_D0(
        0.0, 0.0, 1.0, 3.0, 2.0, 2)
    # engine route agrees with the printed leading coefficient
    rng = random.Random(20260811)
    for _ in range(5):
        a, b = rng.uniform(-1, 2), rng.uniform(-1, 2)
        c = rng.uniform(0.3, 2.0)
        d = c + rng.uniform(0.3, 2.0)
        kappa, m = rng.uniform(0.5, 3.0), rng.randint(0, 4)
        amp = cf.geg_laplace_c(0, a, b, c, d, kappa, m, order=4)
        assert amp.coeffs[0] == pytest.approx(
            cf.geg_D0(a, b, c, d, kappa, m), rel=1e-12)


def test_geg_sym_D1():
    for m in (0, 1, 2, 5):
        assert cf.geg_sym_D1(-0.5, -1.5, m) == pytest.approx(
            (2 * m * m - 2 * m + 3) / 8.0, rel=1e-14)
    assert cf.geg_sym_D1(0.0, 0.0, 0) == pytest.approx(-3.0 / 8.0)
    assert cf.geg_sym_D1(1.2, -0.7, 3) == cf.geg_sym_D1(-0.7, 1.2, 3)


def test_geg_sym_D1_against_oracle_extraction():
    # extract the first correction from the symmetric-case quadrature by
    # Richardson in alpha; extraction noise limits agreement to ~1e-5
    rng = random.Random(20260812)
    for _ in range(5):
        a = rng.uniform(-0.9, 1.5)
        b = rng.uniform(-0.9, 1.5)
        m = rng.randint(1, 3)
        es = []
        for alpha in (2000.0, 4000.0, 8000.0):
            F = Functional.geg_renyi(m, alpha, a, b, 1.0, 1.0, 2.0)
            lead_log = (0.5 * math.log(math.pi / alpha)
                        + m * math.log(2 * alpha) - math.lgamma(m + 1))
            q = integrate_functional(F, 1e-12)
            es.append(alpha * math.expm1(q.value.log_abs - lead_log))
        r1 = [2 * es[1] - es[0], 2 * es[2] - es[1]]
        extracted = 2 * r1[1] - r1[0]
        printed = cf.geg_sym_D1(a, b, m)
        assert extracted == pytest.approx(printed, rel=2e-4, abs=2e-4)


# ---------------------------------------------------------------------------
# Hermite-form coefficient pairs
# ---------------------------------------------------------------------------

def test_geg_hermite_coeffs():
    p, q = cf.geg_hermite_coeffs(4, 0.0)
    assert p[0] == 1.0 and q[0] == 0.0 and q[1] == 0.0
    for n in (1, 2, 3):
        p, _ = cf.geg_hermite_coeffs(2 * n, 0.0)
        assert p[1] == pytest.approx(n * (n - 1) / 2.0)
    p, q = cf.geg_hermite_coeffs(3, 1.1)
    assert q[0] == pytest.approx(1.1 * (2 * 1.1 ** 2 + 5) / 4)


def test_lag_hermite_coeffs():
    c, d = cf.lag_hermite_coeffs(3, 50.0, 1.0)
    assert c[0] == 1.0 and d[0] == 1.0
    assert c[1] == pytest.approx(-3.0)
    c, _ = cf.lag_hermite_coeffs(0, 50.0, 1.3)
    assert c[1] == 0.0
    c, _ = cf.lag_hermite_coeffs(2, 10.0, 1.3)
    assert c[1] == pytest.approx(2 * (10.0 * 0.3 - 1.0), rel=1e-13)


# ---------------------------------------------------------------------------
# extended-Laguerre ladder
# ---------------------------------------------------------------------------

def test_ext_lag_D_values():
    assert cf.ext_lag_D(0, 1.0, 2.0, 2.0, 3) == 1.0
    with pytest.raises(ValueError):
        cf.ext_lag_D(1, 1.0, 1.0, 2.0, 1)
    with pytest.raises(ValueError):
        cf.ext_lag_D(2, 1.0, 2.0, 2.0, 1)


def test_example_five_coherence():
    # at kappa=2, sigma=1 the general first correction must equal the form
    # derived from the hypergeometric special case, exactly
    for m in range(1, 6):
        for lam in (0.5, 2.0, 3.0):
            general = cf.ext_lag_D(1, 1.0, lam, 2.0, m)
            special = (24 * m * m + lam ** 2 - 2 * lam + 1
                       + 12 * m * m * lam ** 2 - 24 * m * m * lam
                       + 12 * m * lam ** 2 - 24 * m * lam + 12 * m) \
                / (12 * (lam - 1.0) ** 2)
            assert general == pytest.approx(special, rel=1e-12)


def test_ext_lag_D_against_engine_extraction():
    # Richardson extraction from the Laplace amplitude at large alpha; the
    # double-precision limit of the extraction is around 1e-6 relative
    rng = random.Random(20260813)
    for _ in range(5):
        sigma = rng.uniform(0.3, 2.5)
        lam = rng.choice([rng.uniform(0.3, 0.8), rng.uniform(1.3, 3.0)])
        kappa = rng.uniform(0.5, 3.0)
        m = rng.randint(0, 4)
        def excess(alpha):
            amp = cf.ext_lag_amplitude(sigma, lam, kappa, m, alpha, order=14)
            return alpha * (laplace_sum(amp, alpha, 7) - 1.0)
        es = [excess(2.0 ** 18 * 2 ** i) for i in range(3)]
        r1 = [2 * es[1] - es[0], 2 * es[2] - es[1]]
        extracted = 2 * r1[1] - r1[0]
        printed = cf.ext_lag_D(1, sigma, lam, kappa, m)
        assert extracted == pytest.approx(printed, rel=1e-5, abs=1e-5)


def test_ext_lag_D_kappa_derivative_fd():
    sigma, lam, m, kappa = 1.5, 2.5, 2, 2.0
    h = 1e-5
    def fd(step):
        return (cf.ext_lag_D(1, sigma, lam, kappa + step, m)
                - cf.ext_lag_D(1, sigma, lam, kappa - step, m)) / (2 * step)
    est = (4 * fd(h) - fd(2 * h)) / 3
    assert cf.ext_lag_D_kappa_derivative(1, sigma, lam, kappa, m) == \
        pytest.approx(est, rel=1e-8)


def test_ext_saddle_first_coefficients():
    lam = 2.0
    x0, s = cf.ext_saddle_x(lam, order=8)
    assert x0 == pytest.approx(0.5)
    expect = [1 / lam, 1 / (3 * lam), 1 / (36 * lam), -1 / (270 * lam),
              1 / (4320 * lam)]
    for k, want in enumerate(expect, start=1):
        assert s.coeffs[k] == pytest.approx(want, rel=1e-11)


def _ext_lag_amplitude_deep(sigma, lam, kappa, m, alpha, order):
    """ext_lag_amplitude with every series carried two orders past
    ``order`` and truncated at the end."""
    x0, s = cf.ext_saddle_x(lam, order + 1)
    w = s.order
    x_ratio = (Series.constant(x0, w) + s) * (1.0 / x0)
    wser = (Series.constant(1.0 - x0, w) - s) * (1.0 / (1.0 - x0))
    f = cf.f_sequence(m, alpha, m)
    inv = series_pow(wser, -1.0) * (1.0 / (alpha * (1.0 - x0)))
    t = Series.constant(1.0, w)
    inv_n = Series.constant(1.0, w)
    for n in range(1, m + 1):
        inv_n = inv_n * inv
        t = t + inv_n * (cf._falling(m, n) * f[n])
    amp = (series_pow(x_ratio, sigma - 1.0) * series_pow(wser, kappa * m)
           * series_pow(t, kappa) * s.deriv()) * (1.0 / x0)
    return amp.truncate(order)


def test_ext_lag_amplitude_bitwise_matches_deeper_build():
    # coefficient k of every series involved depends only on coefficients
    # 0..k of its inputs, so building at the output order changes no bit
    rng = random.Random(20261018)
    for _ in range(40):
        lam = rng.choice([rng.uniform(0.3, 0.9), rng.uniform(1.1, 3.0)])
        args = (rng.uniform(0.3, 2.5), lam, rng.uniform(0.5, 3.0),
                rng.randint(0, 8), 10.0 ** rng.uniform(2.5, 4.0))
        for order in (0, 2, 6, 14):
            assert (cf.ext_lag_amplitude(*args, order).coeffs
                    == _ext_lag_amplitude_deep(*args, order).coeffs)


def test_ext_amplitude_rejects_symmetric_lambda():
    with pytest.raises(ValueError):
        cf.ext_lag_amplitude(1.0, 1.0, 2.0, 1, 100.0, order=16)


# ---------------------------------------------------------------------------
# exact kappa-derivatives of the numeric ladders
# ---------------------------------------------------------------------------

_FD_STEP = 1e-4


def _fd_kappa_terms(terms_at, h: float = _FD_STEP):
    """(t_k, d t_k / d kappa) at kappa = 2 from the dimensionless term list
    ``terms_at(kappa)`` at kappa = 2 +- h and 2 +- 2h: the central difference
    with one Richardson level, and the matching O(h^4) value."""
    p1, m1 = terms_at(2.0 + h), terms_at(2.0 - h)
    p2, m2 = terms_at(2.0 + 2.0 * h), terms_at(2.0 - 2.0 * h)
    t = [(4.0 * (a + b) - (c + d)) / 6.0 for a, b, c, d in zip(p1, m1, p2, m2)]
    dt = [(8.0 * (a - b) - (c - d)) / (12.0 * h)
          for a, b, c, d in zip(p1, m1, p2, m2)]
    return t, dt


def _scaled(values, alpha):
    return [v / alpha ** k for k, v in enumerate(values)]


def _lag_terms(rng, K):
    mu, lam = rng.uniform(0.5, 3.0), rng.uniform(0.5, 3.0)
    m, alpha = rng.randint(1, 8), 10.0 ** rng.uniform(2.3, 4.0)

    def ladder(kappa, **kw):
        return cf.lag_C_ladder(mu, lam, kappa, m, alpha, 2 * K, **kw)
    exact = ladder(2.0, dkappa=True)
    return ((_scaled(exact.values, alpha), _scaled(exact.dkappa, alpha)),
            lambda kappa: _scaled(ladder(kappa).values, alpha))


def _geg_terms(rng, K):
    a, b = rng.uniform(-0.5, 1.5), rng.uniform(-0.5, 1.5)
    c = rng.uniform(0.5, 2.0)
    d = c * rng.uniform(1.5, 4.0)
    m, alpha = rng.randint(1, 8), 10.0 ** rng.uniform(2.3, 4.0)

    def ladder(kappa, **kw):
        return cf.geg_C_ladder(a, b, c, d, kappa, m, alpha, K, **kw)
    exact = ladder(2.0, dkappa=True)
    return ((_scaled(exact.values, alpha), _scaled(exact.dkappa, alpha)),
            lambda kappa: _scaled(ladder(kappa).values, alpha))


def _ext_terms(rng, K):
    sigma = rng.uniform(0.3, 2.5)
    lam = rng.choice([rng.uniform(0.3, 0.8), rng.uniform(1.3, 3.0)])
    m, alpha = rng.randint(1, 8), 10.0 ** rng.uniform(3.0, 4.0)

    def amp(kappa, **kw):
        return cf.ext_lag_amplitude(sigma, lam, kappa, m, alpha, 2 * K, **kw)
    a, da = amp(2.0, dkappa=True)
    return ((laplace_terms(a, alpha, K), laplace_terms(da, alpha, K)),
            lambda kappa: laplace_terms(amp(kappa), alpha, K))


@pytest.mark.parametrize("family", [_lag_terms, _geg_terms, _ext_terms],
                         ids=["lag", "geg", "ext"])
def test_ladder_dkappa_matches_richardson_difference(family):
    # The one-build (t, dt/dkappa) against the four-kappa Richardson
    # difference at h = 1e-4, per input relative to sum_k |t_k| + |dt_k|
    # (the scale of the Shannon sum).  On 60 seeded inputs per family the
    # difference's rounding floor in dt is at most 2.3e-12 on that scale
    # (1e-9 and worse per coefficient, on the smallest ones).  Dropping
    # log x_m or log t, or dividing by a zero Pochhammer factor, fails it.
    rng = random.Random(20261019)
    for _ in range(12):
        (t, dt), terms_at = family(rng, 7)
        t_fd, dt_fd = _fd_kappa_terms(terms_at)
        scale = math.fsum(abs(u) + abs(v) for u, v in zip(t, dt))
        assert max(abs(u - v) for u, v in zip(dt, dt_fd)) <= 1e-10 * scale
        assert max(abs(u - v) for u, v in zip(t, t_fd)) <= 1e-12 * scale


def test_ladder_dkappa_leaves_values_unchanged():
    # asking for the derivative changes no bit of the values
    args = (0.4, 1.1, 0.8, 2.9, 2.0, 4, 500.0, 7)
    assert (cf.geg_C_ladder(*args, dkappa=True).values
            == cf.geg_C_ladder(*args).values)
    assert cf.geg_C_ladder(*args).dkappa is None
    args = (2.5, 1.5, 2.0, 3, 400.0, 14)
    assert (cf.lag_C_ladder(*args, dkappa=True).values
            == cf.lag_C_ladder(*args).values)
    assert cf.lag_A_coeffs(2.0, 3, 400.0, 14, dkappa=True)[0] == \
        cf.lag_A_coeffs(2.0, 3, 400.0, 14)
    args = (1.3, 2.2, 2.0, 3, 1000.0, 14)
    assert (cf.ext_lag_amplitude(*args, dkappa=True)[0].coeffs
            == cf.ext_lag_amplitude(*args).coeffs)
