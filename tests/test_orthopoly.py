import math
import warnings
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import pytest

from entrofun import orthopoly
from entrofun.orthopoly import (MAX_DEGREE, _check_degree, _gegenbauer_pair,
                                _hermite_pair, _jacobi_roots, _laguerre_pair,
                                gegenbauer_value, hermite_value, hermite_zeros,
                                laguerre_value, polynomial_zeros, zero_range)
from orthopoly_reference import ref_gegenbauer_pair, ref_hermite_pair, ref_laguerre_pair


# ---------------------------------------------------------------------------
# value + derivative pairs and the explicit Gegenbauer sum (test references)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PolyEval:
    value: float
    derivative: float


def gegenbauer_explicit_sum(m: int, alpha: float, x: float) -> float:
    """C_m^(alpha)(x) from the explicit finite sum over (2x)^(m-2n)."""
    total = 0.0
    for n in range(m // 2 + 1):
        poch = 1.0
        for k in range(m - n):
            poch *= alpha + k
        total += (-1.0) ** n * poch / (math.factorial(n) * math.factorial(m - 2 * n)) \
            * (2.0 * x) ** (m - 2 * n)
    return total


def laguerre_eval(m: int, alpha: float, x: float) -> PolyEval:
    """Laguerre polynomial and its x-derivative, d/dx L_m = -L_{m-1}^(alpha+1)."""
    _check_degree(m)
    if alpha <= -1.0:
        raise ValueError(f"laguerre_eval requires alpha > -1, got {alpha}")
    value = laguerre_value(m, alpha, x)
    deriv = 0.0 if m == 0 else -laguerre_value(m - 1, alpha + 1.0, x)
    return PolyEval(value, deriv)


def gegenbauer_eval(m: int, alpha: float, x: float) -> PolyEval:
    """Gegenbauer polynomial and its x-derivative, d/dx C_m = 2 alpha C_{m-1}^(alpha+1)."""
    _check_degree(m)
    if alpha <= 0.0:
        raise ValueError(f"gegenbauer_eval requires alpha > 0, got {alpha}")
    value = gegenbauer_value(m, alpha, x)
    deriv = 0.0 if m == 0 else 2.0 * alpha * gegenbauer_value(m - 1, alpha + 1.0, x)
    return PolyEval(value, deriv)


def hermite_eval(m: int, x: float) -> PolyEval:
    """Hermite polynomial and its x-derivative, d/dx H_m = 2 m H_{m-1}."""
    _check_degree(m)
    value = hermite_value(m, x)
    deriv = 0.0 if m == 0 else 2.0 * m * hermite_value(m - 1, x)
    return PolyEval(value, deriv)


# ---------------------------------------------------------------------------
# point values
# ---------------------------------------------------------------------------

def test_laguerre_degree_zero_and_one():
    r = laguerre_eval(0, 3.7, 12.0)
    assert r.value == 1.0 and r.derivative == 0.0
    r = laguerre_eval(1, 3.7, 12.0)
    assert r.value == pytest.approx(3.7 + 1.0 - 12.0)


def test_laguerre_degree_two():
    # quadratic form x^2/2 - (alpha+2) x + (alpha+1)(alpha+2)/2 at (10, 5)
    assert laguerre_eval(2, 10.0, 5.0).value == pytest.approx(18.5)


def test_gegenbauer_low_degree():
    assert gegenbauer_eval(0, 2.0, 0.3).value == 1.0
    assert gegenbauer_eval(1, 2.0, 0.3).value == pytest.approx(2 * 2.0 * 0.3)
    # 2 a (a+1) x^2 - a at a=3, x=0.5
    assert gegenbauer_eval(2, 3.0, 0.5).value == pytest.approx(3.0)


def test_hermite_values():
    assert hermite_eval(2, 0.0).value == pytest.approx(-2.0)
    assert hermite_eval(3, 1.0).value == pytest.approx(-4.0)
    for n in (1, 2, 3, 4):
        expect = (-1) ** n * math.factorial(2 * n) / math.factorial(n)
        assert hermite_eval(2 * n, 0.0).value == pytest.approx(expect)


def test_degree_overflow_rejected():
    for fn in (lambda: laguerre_eval(61, 1.0, 1.0),
               lambda: gegenbauer_eval(61, 1.0, 0.5),
               lambda: hermite_eval(61, 0.0)):
        with pytest.raises(ValueError):
            fn()


def test_gegenbauer_matches_explicit_sum():
    for m in range(0, 11):
        for alpha in (0.7, 5.0, 60.0):
            for x in (-0.9, -0.2, 0.4, 0.95):
                ref = gegenbauer_explicit_sum(m, alpha, x)
                val = gegenbauer_eval(m, alpha, x).value
                assert val == pytest.approx(ref, rel=1e-12, abs=1e-12)


def test_gegenbauer_parity():
    for m in range(1, 9):
        for x in (0.13, 0.77):
            plus = gegenbauer_eval(m, 4.5, x).value
            minus = gegenbauer_eval(m, 4.5, -x).value
            assert minus == pytest.approx((-1) ** m * plus, rel=1e-13)


# ---------------------------------------------------------------------------
# derivatives
# ---------------------------------------------------------------------------

def test_derivative_finite_difference_consistency():
    cases = [
        (lambda x: laguerre_eval(4, 8.0, x), 6.5),
        (lambda x: gegenbauer_eval(5, 3.0, x), 0.4),
        (lambda x: hermite_eval(6, x), 1.2),
    ]
    for f, x in cases:
        h = 1e-6 * max(1.0, abs(x))
        fd = (f(x + h).value - f(x - h).value) / (2 * h)
        assert f(x).derivative == pytest.approx(fd, rel=1e-6)


def test_laguerre_derivative_relation():
    for m in (1, 3, 7, 10):
        for alpha in (5.0, 50.0, 500.0):
            for frac in (0.0, 0.4, 1.7, 3.0):
                x = frac * alpha
                d = laguerre_eval(m, alpha, x).derivative
                ref = -laguerre_eval(m - 1, alpha + 1.0, x).value
                assert d == pytest.approx(ref, rel=1e-12, abs=1e-300)


@pytest.mark.parametrize("m", [1, 2, 5, 30])
def test_newton_derivatives_from_one_recurrence(m):
    # the zero finder takes f' from the pair (p_m, p_(m-1)) of one
    # recurrence; each identity must reproduce the two-recurrence derivative
    for alpha in (0.5, 50.0, 1e3):
        for x in (0.3, 0.7 * alpha, 1.9 * alpha):
            p, q = _laguerre_pair(m, alpha, x)
            assert (p, q) == (laguerre_value(m, alpha, x), laguerre_value(m - 1, alpha, x))
            assert (m * p - (m + alpha) * q) / x == pytest.approx(
                laguerre_eval(m, alpha, x).derivative, rel=1e-10)
        for x in (-0.8, 0.1, 0.6):
            p, q = _gegenbauer_pair(m, alpha, x)
            assert (p, q) == (gegenbauer_value(m, alpha, x), gegenbauer_value(m - 1, alpha, x))
            assert ((m + 2 * alpha - 1) * q - m * x * p) / (1 - x * x) == pytest.approx(
                gegenbauer_eval(m, alpha, x).derivative, rel=1e-10)
    for x in (-1.3, 0.4, 2.2):
        p, q = _hermite_pair(m, x)
        assert (p, q) == (hermite_value(m, x), hermite_value(m - 1, x))
        assert 2 * m * q == hermite_eval(m, x).derivative


# ---------------------------------------------------------------------------
# large-parameter limits
# ---------------------------------------------------------------------------

def _halving_ratios(diffs):
    return [diffs[i] / diffs[i + 1] for i in range(len(diffs) - 1)]


@pytest.mark.parametrize("t", [0.2, 0.5, 2.0])
@pytest.mark.parametrize("m", [1, 3, 5])
def test_scaled_laguerre_limit(m, t):
    diffs = []
    for e in range(7, 14):
        alpha = 2.0 ** e
        lhs = alpha ** (-m) * laguerre_value(m, alpha, alpha * t)
        diffs.append(abs(lhs - (1.0 - t) ** m / math.factorial(m)))
    for r in _halving_ratios(diffs):
        assert 1.5 <= r <= 2.9


@pytest.mark.parametrize("x", [0.3, 0.9])
def test_scaled_gegenbauer_limit(x):
    m = 4
    diffs = []
    for e in range(7, 14):
        alpha = 2.0 ** e
        poch = math.prod(2 * alpha + k for k in range(m))
        diffs.append(abs(gegenbauer_value(m, alpha, x) / poch
                         - x ** m / math.factorial(m)))
    for r in _halving_ratios(diffs):
        assert 1.5 <= r <= 2.9


@pytest.mark.parametrize("x", [-2.0, -0.6, 1.1, 2.0])
def test_hermite_limit_of_gegenbauer(x):
    m = 3
    diffs = []
    for e in range(7, 14):
        alpha = 2.0 ** e
        lhs = alpha ** (-m / 2) * gegenbauer_value(m, alpha, x / math.sqrt(alpha))
        diffs.append(abs(lhs - hermite_value(m, x) / math.factorial(m)))
    for r in _halving_ratios(diffs):
        assert 1.5 <= r <= 2.9


def _shifted_laguerre_diff(m, x, alpha):
    lhs = (2.0 / alpha) ** (m / 2) * laguerre_value(
        m, alpha, math.sqrt(2.0 * alpha) * x + alpha)
    return abs(lhs - (-1) ** m * hermite_value(m, x) / math.factorial(m))


@pytest.mark.parametrize("x", [-1.5, 0.3, 1.8])
def test_hermite_limit_of_laguerre_generic_argument(x):
    # At generic fixed argument the first correction to this limit sits at
    # a half power of the parameter (it is proportional to
    # x^(m-1) m / (m-1)! / sqrt(alpha)), so one doubling shrinks the
    # difference by sqrt(2), not 2.
    m = 3
    diffs = [_shifted_laguerre_diff(m, x, 2.0 ** e) for e in range(7, 14)]
    for r in _halving_ratios(diffs):
        assert 1.28 <= r <= 1.55


@pytest.mark.parametrize("m", [2, 4])
def test_hermite_limit_of_laguerre_center(m):
    # At x = 0 with even degree every half-power level carries a positive
    # power of x and vanishes, so the classical factor-2 halving appears.
    diffs = [_shifted_laguerre_diff(m, 0.0, 2.0 ** e) for e in range(7, 14)]
    for r in _halving_ratios(diffs):
        assert 1.6 <= r <= 2.6


# ---------------------------------------------------------------------------
# array evaluation against the scalar path
# ---------------------------------------------------------------------------

_ARRAY_FAMILIES = {
    # value(m, x), the zeros, and points near the ends and far out
    "laguerre": (lambda m, x: laguerre_value(m, 37.5, x),
                 lambda m: polynomial_zeros("laguerre", m, 37.5).roots,
                 [0.0, 1e-300, 5e-324, 1e-12, 150.0, 1e3, 1e4, -3.0]),
    "gegenbauer": (lambda m, x: gegenbauer_value(m, 300.0, x),
                   lambda m: polynomial_zeros("gegenbauer", m, 300.0).roots,
                   [-1.0, 1.0, -1.0 + 1e-16, 1.0 - 1e-16, 1.0 - 1e-12, 0.0,
                    -3.0, 3.0]),
    "hermite": (lambda m, x: hermite_value(m, x),
                lambda m: hermite_zeros(m).roots,
                [0.0, -1e-300, 12.0, -30.0, 30.0]),
}


def _bits(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


@pytest.mark.parametrize("m", [0, 1, 2, 5, 30, 60])
@pytest.mark.parametrize("family", sorted(_ARRAY_FAMILIES))
def test_array_values_match_scalar_path_bitwise(family, m):
    value, zeros, extra = _ARRAY_FAMILIES[family]
    roots = zeros(m) if m else ()
    points = extra + [y for r in roots for y in
                      (r, np.nextafter(r, -np.inf), np.nextafter(r, np.inf),
                       r * (1.0 + 1e-9))]
    # the argument is a view into a larger array, none of which may change
    buf = np.array([7.0] + points + [7.0])
    before = buf.copy()
    out = value(m, buf[1:-1])
    assert out.shape == (len(points),)
    assert _bits(out) == _bits([value(m, float(xi)) for xi in points])
    assert _bits(buf) == _bits(before)


_REFERENCE = {
    # the one loop's pair and value, the reference loop, the alphas and the
    # points, none of whose values overflows
    "laguerre": (_laguerre_pair, laguerre_value, ref_laguerre_pair,
                 (-0.5, 0.0, 0.3, 7.5, 300.0, 1e4),
                 lambda alpha: (alpha + 60.0) * np.linspace(-0.1, 4.0, 81)),
    "gegenbauer": (_gegenbauer_pair, gegenbauer_value, ref_gegenbauer_pair,
                   (1e-10, 0.3, 1.0, 7.5, 300.0, 1e4),
                   lambda alpha: np.linspace(-1.2, 1.2, 81)),
    "hermite": (lambda m, alpha, x: _hermite_pair(m, x),
                lambda m, alpha, x: hermite_value(m, x),
                lambda m, alpha, x: ref_hermite_pair(m, x), (None,),
                lambda alpha: np.linspace(-12.0, 12.0, 81)),
}


@pytest.mark.parametrize("family", sorted(_REFERENCE))
def test_one_loop_matches_the_reference_recurrences_bitwise(family):
    # bit for bit, the signs of exact zeros included (+-0.0 are points too)
    pair, value, ref, alphas, points = _REFERENCE[family]

    def bits(values):
        return _bits(np.asarray(values, dtype=float))
    for alpha in alphas:
        xs = np.concatenate((points(alpha), [0.0, -0.0]))
        for m in range(MAX_DEGREE + 1):
            expect = [ref(m, alpha, float(x)) for x in xs]
            p, q = pair(m, alpha, xs)
            assert bits(p) == bits([e[0] for e in expect]), (alpha, m)
            assert bits(q) == bits([e[1] for e in expect]), (alpha, m)
            assert bits(value(m, alpha, xs)) == bits(p)
            for i in [*range(0, xs.size - 2, 16), -2, -1]:
                x = float(xs[i])
                assert bits(pair(m, alpha, x)) == bits(expect[i]), (alpha, m, x)
                assert bits(value(m, alpha, x)) == bits(expect[i][0])


@pytest.mark.parametrize("family", sorted(_ARRAY_FAMILIES))
def test_zero_dim_and_numpy_scalar_arguments(family):
    value = _ARRAY_FAMILIES[family][0]
    for m in (0, 1, 7):
        expect = value(m, 0.3)
        for x in (np.float64(0.3), np.array(0.3)):
            got = value(m, x)
            assert np.ndim(got) == 0
            assert _bits(got) == _bits(expect)


# ---------------------------------------------------------------------------
# zeros
# ---------------------------------------------------------------------------

def test_single_zeros():
    zs = polynomial_zeros("laguerre", 1, 7.0)
    assert zs.roots == pytest.approx((8.0,))
    zs = polynomial_zeros("gegenbauer", 1, 7.0)
    assert zs.roots == pytest.approx((0.0,), abs=1e-15)


def test_gegenbauer_zeros_reject_alpha_below_double_resolution():
    # below 1.1e-16, 1 + alpha rounds to 1
    for alpha in (1e-16, 5e-17):
        with pytest.raises(ValueError, match=r"1 \+ alpha > 1"):
            polynomial_zeros("gegenbauer", 3, alpha)
    zs = polynomial_zeros("gegenbauer", 3, 1.2e-16)
    assert zs.degree == 3 and len(zs.roots) == 3


def _gegenbauer_exact(m: int, alpha: float, x: float) -> Fraction:
    """C_m^(alpha)(x) in exact rational arithmetic, from the explicit sum."""
    a, x = Fraction(alpha), Fraction(x)
    total = Fraction(0)
    for n in range(m // 2 + 1):
        poch = Fraction(1)
        for i in range(m - n):
            poch *= a + i
        total += ((-1) ** n * poch * (2 * x) ** (m - 2 * n)
                  / (math.factorial(n) * math.factorial(m - 2 * n)))
    return total


SMALL_ALPHAS = (1e-6, 1e-10, 1e-13, 1e-15, 1.2e-16)


@pytest.mark.parametrize("m", [2, 3, 5])
def test_gegenbauer_value_keeps_small_alpha(m):
    # every recurrence coefficient carries alpha exactly: n - 2 + 2 alpha at
    # n = 2 would round 2 alpha away
    for alpha in SMALL_ALPHAS:
        for x in (0.5, 0.3, 0.9, -0.7):
            ref = _gegenbauer_exact(m, alpha, x)
            for val in (gegenbauer_value(m, alpha, x),
                        gegenbauer_value(m, alpha, np.array([x]))[0]):
                assert abs(Fraction(float(val)) / ref - 1) <= 1e-13, (alpha, x)


@pytest.mark.parametrize("m", [2, 3, 5])
def test_gegenbauer_zeros_approach_chebyshev_limit(m):
    # C_m^(alpha) / alpha -> (2/m) T_m as alpha -> 0
    limit = sorted(math.cos((2 * k - 1) * math.pi / (2 * m))
                   for k in range(1, m + 1))
    zs = polynomial_zeros("gegenbauer", m, 1e-15).roots
    assert max(abs(z - t) for z, t in zip(zs, limit)) <= 1e-12


def test_laguerre_quadratic_zeros():
    # roots of x^2 - 24 x + 132 at alpha = 10
    zs = polynomial_zeros("laguerre", 2, 10.0)
    assert zs.roots == pytest.approx((12.0 - math.sqrt(12.0),
                                      12.0 + math.sqrt(12.0)), rel=1e-13)


def _check_zero_set(zs, m, value, deriv, lo, hi):
    assert zs.degree == m and len(zs.roots) == m
    assert all(lo < r < hi for r in zs.roots)
    assert all(zs.roots[i] < zs.roots[i + 1] for i in range(m - 1))
    for r in zs.roots:
        local = abs(deriv(r)) * max(abs(r), 1e-3)
        assert abs(value(r)) <= 1e-10 * local
    # sign alternation between consecutive roots
    mids = [(zs.roots[i] + zs.roots[i + 1]) / 2 for i in range(m - 1)]
    signs = [math.copysign(1.0, value(x)) for x in mids]
    for i in range(len(signs) - 1):
        assert signs[i] != signs[i + 1]


@pytest.mark.parametrize("family,alpha,lo,hi", [
    ("laguerre", 0.3, 0.0, math.inf),
    ("laguerre", 5.0, 0.0, math.inf),
    ("laguerre", 800.0, 0.0, math.inf),
    ("laguerre", 1e4, 0.0, math.inf),
    ("gegenbauer", 0.3, -1.0, 1.0),
    ("gegenbauer", 5.0, -1.0, 1.0),
    ("gegenbauer", 800.0, -1.0, 1.0),
    ("gegenbauer", 1e4, -1.0, 1.0),
])
@pytest.mark.parametrize("m", [2, 5, 9, 60])
def test_zero_sets(family, alpha, lo, hi, m):
    zs = polynomial_zeros(family, m, alpha)
    value = {"laguerre": lambda x: laguerre_value(m, alpha, x),
             "gegenbauer": lambda x: gegenbauer_value(m, alpha, x)}[family]
    deriv = {"laguerre": lambda x: -laguerre_value(m - 1, alpha + 1.0, x),
             "gegenbauer": lambda x: 2 * alpha * gegenbauer_value(
                 m - 1, alpha + 1.0, x)}[family]
    _check_zero_set(zs, m, value, deriv, lo, hi)


def test_hermite_zeros():
    zs = hermite_zeros(4)
    expect = (math.sqrt((3 - math.sqrt(6.0)) / 2), math.sqrt((3 + math.sqrt(6.0)) / 2))
    assert zs.roots == pytest.approx((-expect[1], -expect[0], expect[0], expect[1]),
                                     rel=1e-13)


@pytest.mark.parametrize("m", [1, 7, 60])
def test_hermite_zero_sets(m):
    _check_zero_set(hermite_zeros(m), m, lambda x: hermite_value(m, x),
                    lambda x: 2 * m * hermite_value(m - 1, x), -math.inf, math.inf)


@pytest.mark.parametrize("family,m,alpha", [
    ("gegenbauer", 60, 1e4), ("laguerre", 60, 1e4), ("hermite", 60, None),
    # the corners of the single Newton step: small and huge alpha, the
    # degree-56 oracle case, and the tightest gaps relative to the norm
    ("laguerre", 56, 2.66054504612815), ("laguerre", 60, 1e-3), ("laguerre", 10, 0.5),
    ("laguerre", 60, 50.0), ("laguerre", 30, 1e6), ("laguerre", 60, 1e8),
    ("gegenbauer", 60, 0.6), ("gegenbauer", 31, 3.0), ("gegenbauer", 60, 50.0),
    ("gegenbauer", 60, 1e8), ("hermite", 7, None)])
def test_zeros_match_high_precision_eigenvalues(family, m, alpha):
    # The zeros are the eigenvalues of the symmetric tridiagonal Jacobi
    # matrix; at 40 digits its eigenvalues are exact to double precision.
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        J = mp.zeros(m, m)
        for i in range(m):
            k = mp.mpf(i + 1)
            if family == "laguerre":
                J[i, i] = 2 * i + mp.mpf(alpha) + 1
                off = mp.sqrt(k * (k + alpha))
            elif family == "gegenbauer":
                off = mp.sqrt(k * (k + 2 * mp.mpf(alpha) - 1)
                              / (4 * (k + alpha) * (k + alpha - 1)))
            else:
                off = mp.sqrt(k / 2)
            if i + 1 < m:
                J[i, i + 1] = J[i + 1, i] = off
        ref = sorted(float(e) for e in mp.eigsy(J, eigvals_only=True))
    zs = hermite_zeros(m) if family == "hermite" else polynomial_zeros(family, m, alpha)
    scale = max(abs(r) for r in ref)
    assert max(abs(r - e) for r, e in zip(zs.roots, ref)) <= 1e-15 * scale


def test_zeros_certificate_rejects_foreign_matrix():
    # Jacobi matrix of H_5 paired with L_5^(2): the midpoints between its
    # eigenvalues are not separated by sign changes of the polynomial
    m = 5
    with pytest.raises(RuntimeError):
        _jacobi_roots(np.zeros(m), np.sqrt(np.arange(1, m) / 2.0),
                      lambda x: _laguerre_pair(m, 2.0, x),
                      lambda x, p, q: x * p / (m * p - (m + 2.0) * q))


@pytest.mark.parametrize("m", [1, 2, 60])
@pytest.mark.parametrize("solve", [
    lambda m: polynomial_zeros("laguerre", m, 1e3),
    lambda m: polynomial_zeros("gegenbauer", m, 1e3),
    hermite_zeros], ids=["laguerre", "gegenbauer", "hermite"])
def test_zero_solve_runs_one_recurrence(monkeypatch, solve, m):
    # the Newton step and the certificate share one recurrence pass over the
    # eigenvalues and their midpoints
    calls = []
    three_term = orthopoly._three_term

    def counted(*args):
        calls.append(args[0])
        return three_term(*args)
    monkeypatch.setattr(orthopoly, "_three_term", counted)
    assert len(solve(m).roots) == m
    assert calls == [m]


def test_zero_degree_rejected():
    with pytest.raises(ValueError):
        polynomial_zeros("laguerre", 0, 1.0)
    with pytest.raises(ValueError):
        polynomial_zeros("chebyshev", 2, 1.0)


# zero_range gives every family's range from its Jacobi matrix; the tests
# below read its Laguerre floor, its Laguerre ceiling, its Gegenbauer and
# Hermite radius and its degree-one tightness

@pytest.mark.parametrize("alpha", [0.0, 0.3, 1.0, 5.0, 37.5, 300.0, 2000.0, 1e4])
def test_laguerre_zero_floor_lies_below_every_zero(alpha):
    for m in range(1, 61):
        floor = zero_range("laguerre", m, alpha)[0]
        assert floor < polynomial_zeros("laguerre", m, alpha).roots[0]


def test_laguerre_zero_floor_is_tight_at_degree_one():
    # a 1 x 1 Jacobi matrix is its own zero; the margin keeps the floor below
    for alpha in (0.0, 7.0, 1e4):
        floor = zero_range("laguerre", 1, alpha)[0]
        assert floor < alpha + 1.0 and floor >= (alpha + 1.0) * (1.0 - 2e-9)


@pytest.mark.parametrize("alpha", [0.0, 0.3, 1.0, 5.0, 37.5, 300.0, 2000.0, 1e4])
def test_laguerre_zero_ceiling_lies_above_every_zero(alpha):
    for m in range(1, 61):
        ceiling = zero_range("laguerre", m, alpha)[1]
        assert ceiling > polynomial_zeros("laguerre", m, alpha).roots[-1]
    assert alpha + 1.0 < zero_range("laguerre", 1, alpha)[1] <= (alpha + 1.0) * (1.0 + 2e-9)


def _check_symmetric_zero_range(m, zeros, lo, hi):
    # a zero diagonal gives a range symmetric about 0, of radius 0 at m = 1
    assert lo == -hi
    assert max(abs(z) for z in zeros) <= hi
    if m == 1:
        assert (lo, hi) == (0.0, 0.0)


@pytest.mark.parametrize("alpha", [0.1, 0.5, 1.0, 5.0, 37.5, 300.0, 2000.0, 1e4])
def test_gegenbauer_zero_radius_bounds_every_zero(alpha):
    for m in range(1, 61):
        _check_symmetric_zero_range(m, polynomial_zeros("gegenbauer", m, alpha).roots,
                                    *zero_range("gegenbauer", m, alpha))


def test_hermite_zero_radius_bounds_every_zero():
    for m in range(1, 61):
        _check_symmetric_zero_range(m, hermite_zeros(m).roots,
                                    *zero_range("hermite", m, None))


@pytest.mark.parametrize("family", ["laguerre", "gegenbauer"])
def test_overflowing_jacobi_matrix_raises(family):
    # k (k + alpha) overflows from alpha ~ 1.8e308 / k, and the Gegenbauer
    # denominator 4 (k + alpha) (k - 1 + alpha) from alpha ~ 1e154
    alpha = 1.7e308 if family == "laguerre" else 1e300
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(RuntimeError, match="Jacobi matrix of degree 3 overflows"):
            polynomial_zeros(family, 3, alpha)
        if family == "gegenbauer":
            with pytest.raises(RuntimeError, match="overflows"):
                zero_range("gegenbauer", 3, alpha)


@pytest.mark.parametrize("family", ["laguerre", "gegenbauer"])
def test_zero_certificate_rejects_non_finite_values(family):
    # at alpha = 1e12 and m = 60 the recurrence overflows between the zeros
    # and every midpoint value is NaN, whose sign np.sign leaves NaN: a bare
    # sign test would pass it
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(RuntimeError, match="not separated by finite sign changes"):
            polynomial_zeros(family, 60, 1e12)
