import math

import pytest
from hypothesis import example, given, settings, strategies as st

from entrofun.series import (Series, laplace_terms, saddle_series, series_log,
                             series_pow, series_revert)
from series_reference import laplace_sum, series_compose, series_exp


def coeffs_close(s: Series, expect, tol=1e-12):
    assert len(s.coeffs) == len(expect)
    scale = max(1.0, max(abs(e) for e in expect))
    for got, want in zip(s.coeffs, expect):
        assert got == pytest.approx(want, abs=tol * scale)


# ---------------------------------------------------------------------------
# ring operations
# ---------------------------------------------------------------------------

def test_mul_example():
    a = Series((1.0, 1.0, 0.0))
    b = Series((1.0, -1.0, 0.0))
    coeffs_close(a * b, [1.0, 0.0, -1.0])


def test_geometric_series():
    one = Series.constant(1.0, 3)
    den = Series((1.0, -1.0, 0.0, 0.0))
    coeffs_close(one / den, [1.0, 1.0, 1.0, 1.0])


def test_long_division():
    num = Series((1.0, 2.0, 1.0))
    den = Series((1.0, 1.0, 0.0))
    coeffs_close(num / den, [1.0, 1.0, 0.0])


def test_arith_dispatch():
    a = Series((1.0, 2.0))
    b = Series((3.0, -1.0))
    coeffs_close(a + b, [4.0, 1.0])
    coeffs_close(a - b, [-2.0, 3.0])
    coeffs_close(a * b, [3.0, 5.0])


def test_division_by_zero_constant_rejected():
    with pytest.raises(ValueError):
        Series((1.0, 0.0)) / Series((0.0, 1.0))


def test_min_order_truncation():
    a = Series((1.0, 2.0, 3.0, 4.0))
    b = Series((1.0, 1.0))
    assert (a + b).order == 1
    assert (a * b).order == 1


# ---------------------------------------------------------------------------
# composition and transcendental maps
# ---------------------------------------------------------------------------

def test_compose_square():
    f = Series((0.0, 0.0, 1.0, 0.0))
    g = Series((0.0, 1.0, 1.0, 0.0))
    coeffs_close(series_compose(f, g), [0.0, 0.0, 1.0, 2.0])


def test_compose_with_zero():
    expf = Series((1.0, 1.0, 0.5, 1 / 6))
    zero = Series.constant(0.0, 3)
    coeffs_close(series_compose(expf, zero), [1.0, 0.0, 0.0, 0.0])


def test_compose_rejects_nonzero_constant():
    with pytest.raises(ValueError):
        series_compose(Series((1.0, 1.0)), Series((0.5, 1.0)))


def test_log_of_exp_composition_is_identity():
    n = 4
    y = Series.identity(n)
    em1 = series_exp(y) - Series.constant(1.0, n)
    logf = series_log(Series.constant(1.0, n) + Series.identity(n))
    coeffs_close(series_compose(logf, em1), [0.0, 1.0, 0.0, 0.0, 0.0])


def test_pow_examples():
    one_plus_y = Series((1.0, 1.0, 0.0))
    coeffs_close(series_pow(one_plus_y, 2.0), [1.0, 2.0, 1.0])
    coeffs_close(series_pow(one_plus_y, 0.5), [1.0, 0.5, -0.125])


def test_log_example():
    coeffs_close(series_log(Series((1.0, 1.0, 0.0, 0.0))),
                 [0.0, 1.0, -0.5, 1 / 3])


def test_transcend_rejects_nonpositive_constant():
    with pytest.raises(ValueError):
        series_log(Series((0.0, 1.0)))
    with pytest.raises(ValueError):
        series_pow(Series((-1.0, 1.0)), 0.5)


# ---------------------------------------------------------------------------
# reversion
# ---------------------------------------------------------------------------

def test_revert_identity():
    coeffs_close(series_revert(Series.identity(4)), [0.0, 1.0, 0.0, 0.0, 0.0])


def test_revert_quadratic():
    # inverse of y + y^2 through third order, by Lagrange inversion by hand
    coeffs_close(series_revert(Series((0.0, 1.0, 1.0, 0.0))),
                 [0.0, 1.0, -1.0, 2.0])


def test_revert_rejects_bad_leading_terms():
    with pytest.raises(ValueError):
        series_revert(Series((1.0, 1.0)))
    with pytest.raises(ValueError):
        series_revert(Series((0.0, 0.0, 1.0)))


def test_revert_uses_one_product_per_coefficient(monkeypatch):
    # Lagrange inversion: one product of q = 1/h per new coefficient
    calls = []
    mul = Series.__mul__

    def counted(self, other):
        calls.append(other)
        return mul(self, other)
    monkeypatch.setattr(Series, "__mul__", counted)
    monkeypatch.setattr(Series, "__rmul__", counted)
    series_revert(Series.from_coeffs([0.0, 1.3, -0.7, 0.4, 0.9, -0.2], order=14))
    assert len(calls) <= 14


small = st.floats(min_value=-2.0, max_value=2.0,
                  allow_nan=False, allow_infinity=False)


@settings(max_examples=60, deadline=None)
@given(st.lists(small, min_size=4, max_size=13),
       st.floats(min_value=0.5, max_value=2.0).flatmap(
           lambda v: st.sampled_from([v, -v])))
def test_revert_compose_is_identity(tail, f1):
    f = Series.from_coeffs([0.0, f1] + tail)
    g = series_revert(f)
    ident = series_compose(f, g)
    scale = max(1.0, max(abs(c) for c in g.coeffs))
    for k, c in enumerate(ident.coeffs):
        want = 1.0 if k == 1 else 0.0
        assert c == pytest.approx(want, abs=1e-10 * scale)


@settings(max_examples=60, deadline=None)
@given(st.floats(min_value=0.3, max_value=3.0),
       st.lists(st.floats(min_value=-1.0, max_value=1.0,
                          allow_nan=False), min_size=1, max_size=10))
# log coefficients up to 3.5e4 here; the round trip misses by 1.4e-12
@example(a0=0.3046875, tail=[1.0, -1.0] + [0.0] * 7)
def test_exp_log_roundtrip(a0, tail):
    a = Series.from_coeffs([a0] + tail)
    log_a = series_log(a)
    back = series_exp(log_a)
    scale = max(1.0, max(abs(c) for c in a.coeffs + log_a.coeffs))
    for got, want in zip(back.coeffs, a.coeffs):
        assert got == pytest.approx(want, abs=1e-12 * scale)


@settings(max_examples=60, deadline=None)
@given(st.floats(min_value=0.3, max_value=3.0),
       st.lists(st.floats(min_value=-1.0, max_value=1.0,
                          allow_nan=False), min_size=1, max_size=8),
       st.floats(min_value=-2.5, max_value=2.5),
       st.floats(min_value=-2.5, max_value=2.5))
def test_pow_additivity(a0, tail, r1, r2):
    a = Series.from_coeffs([a0] + tail)
    lhs = series_pow(a, r1) * series_pow(a, r2)
    rhs = series_pow(a, r1 + r2)
    scale = max(1.0, max(abs(c) for c in rhs.coeffs))
    for got, want in zip(lhs.coeffs, rhs.coeffs):
        assert got == pytest.approx(want, abs=1e-11 * scale)


# ---------------------------------------------------------------------------
# quadratic phase normalisation
# ---------------------------------------------------------------------------

def _geg_phase(c, d, order):
    beta = (c + d) / (2 * c)
    gamma = (c + d) / (2 * d)
    return Series.from_coeffs(
        [0.0, 0.0] + [(c * beta ** k + d * (-gamma) ** k) / k
                      for k in range(2, order + 1)])


def _ext_phase(lam, order):
    return Series.from_coeffs(
        [0.0, 0.0] + [(-1.0) ** k * lam ** k / k for k in range(2, order + 1)])


@pytest.mark.parametrize("order", [14, 30])
@pytest.mark.parametrize("phase, param", [
    (_geg_phase, (1.0, 3.0)), (_geg_phase, (0.37, 5.2)),
    (_geg_phase, (2.5, 2.6)), (_geg_phase, (3.0, 1.2)),
    (_ext_phase, (2.0,)), (_ext_phase, (0.45,)),
    (_ext_phase, (1.3,)), (_ext_phase, (3.5,)),
])
def test_saddle_series_matches_mpmath_lagrange(phase, param, order):
    # 50-digit Lagrange inversion of y = s psi(s)^(1/2) from the same double
    # phase coefficients: [y^k] s = [s^(k-1)] q^k / k with q = psi^(-1/2).
    # Each coefficient's error is measured against the same sum taken with
    # |q|, the size of the terms the double computation adds up.
    mp = pytest.importorskip("mpmath")
    phi = phase(*param, order + 1)
    s = saddle_series(phi)
    assert s.order == order
    with mp.workdps(50):
        psi = [2 * mp.mpf(c) for c in phi.coeffs[2:]]
        q = [psi[0] ** mp.mpf(-0.5)]
        for k in range(1, order):
            q.append(mp.fsum((j / mp.mpf(2) - k) * psi[j] * q[k - j]
                             for j in range(1, k + 1)) / (k * psi[0]))

        def lagrange(q):
            out, q_k = [], [mp.mpf(1)] + [mp.mpf(0)] * (order - 1)
            for k in range(1, order + 1):
                q_k = [mp.fsum(q_k[i] * q[j - i] for i in range(j + 1))
                       for j in range(order)]
                out.append(q_k[k - 1] / k)
            return out
        ref = lagrange(q)
        env = lagrange([abs(c) for c in q])
        for k in range(1, order + 1):
            assert abs(s.coeffs[k] - ref[k - 1]) <= 1e-14 * env[k - 1]


def test_saddle_series_weighted_phase():
    c, d = 1.0, 3.0
    s = saddle_series(_geg_phase(c, d, 10))
    a1 = 2 * math.sqrt(c * d / (c + d) ** 3)
    a2 = 2 * (c - d) / (3 * (c + d) ** 2)
    a3 = (c * c - 11 * c * d + d * d) / (9 * a1 * (c + d) ** 4)
    assert s.coeffs[1] == pytest.approx(a1, rel=1e-13)
    assert s.coeffs[2] == pytest.approx(a2, rel=1e-13)
    assert s.coeffs[3] == pytest.approx(a3, rel=1e-12)


def test_saddle_series_symmetric_phase():
    s = saddle_series(_geg_phase(1.0, 1.0, 10))
    assert s.coeffs[1] == pytest.approx(math.sqrt(0.5), rel=1e-14)
    assert s.coeffs[2] == pytest.approx(0.0, abs=1e-14)


def test_saddle_series_exp_log_phase():
    # phase lam*s - log(1 + lam*s): inverse coefficients 1/lam, 1/(3 lam),
    # 1/(36 lam), -1/(270 lam), 1/(4320 lam)
    lam = 2.0
    phi = Series.from_coeffs(
        [0.0, 0.0] + [(-1.0) ** k * lam ** k / k for k in range(2, 9)])
    s = saddle_series(phi)
    expect = [1 / lam, 1 / (3 * lam), 1 / (36 * lam), -1 / (270 * lam),
              1 / (4320 * lam)]
    for k, want in enumerate(expect, start=1):
        assert s.coeffs[k] == pytest.approx(want, rel=1e-11)


def test_saddle_series_residual_invariant():
    phi = _geg_phase(1.0, 3.0, 14)
    s = saddle_series(phi)
    resid = series_compose(phi, s)
    for k, ck in enumerate(resid.coeffs):
        want = 0.5 if k == 2 else 0.0
        assert ck == pytest.approx(want, abs=1e-10)


def test_saddle_series_rejects_non_minimum():
    with pytest.raises(ValueError):
        saddle_series(Series((0.0, 0.0, -1.0, 0.5)))


# ---------------------------------------------------------------------------
# Gaussian-moment assembly
# ---------------------------------------------------------------------------

def test_laplace_sum_constant():
    amp = Series.constant(3.25, 8)
    assert laplace_sum(amp, 50.0, 4) == pytest.approx(3.25)


def test_laplace_sum_second_moment():
    amp = Series((0.0, 0.0, 1.0))
    assert laplace_sum(amp, 10.0, 1) == pytest.approx(0.1)


def test_laplace_terms_order_guard():
    with pytest.raises(ValueError):
        laplace_terms(Series((1.0, 0.0)), 10.0, 2)
