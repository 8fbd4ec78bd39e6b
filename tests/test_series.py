import math
import random
import struct

import pytest
from hypothesis import example, given, settings, strategies as st

from entrofun import coeffs as cf
from entrofun.series import (Series, _double_factorial_odd, laplace_terms,
                             series_log, series_pow)
from series_reference import (identity, laplace_sum, ref_double_factorial_odd,
                              ref_log, ref_mul, ref_pow, ref_truncate,
                              saddle_series, series_compose, series_div,
                              series_exp, series_revert)


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
    coeffs_close(series_div(one, den), [1.0, 1.0, 1.0, 1.0])


def test_long_division():
    num = Series((1.0, 2.0, 1.0))
    den = Series((1.0, 1.0, 0.0))
    coeffs_close(series_div(num, den), [1.0, 1.0, 0.0])


def test_arith_dispatch():
    a = Series((1.0, 2.0))
    b = Series((3.0, -1.0))
    coeffs_close(a + b, [4.0, 1.0])
    coeffs_close(a - b, [-2.0, 3.0])
    coeffs_close(a * b, [3.0, 5.0])


def test_division_by_zero_constant_rejected():
    with pytest.raises(ValueError):
        series_div(Series((1.0, 0.0)), Series((0.0, 1.0)))


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
    y = identity(n)
    em1 = series_exp(y) - Series.constant(1.0, n)
    logf = series_log(Series.constant(1.0, n) + identity(n))
    coeffs_close(series_compose(logf, em1), [0.0, 1.0, 0.0, 0.0, 0.0])


def test_pow_examples():
    one_plus_y = Series((1.0, 1.0, 0.0))
    coeffs_close(series_pow(one_plus_y, 2.0), [1.0, 2.0, 1.0])
    coeffs_close(series_pow(one_plus_y, 0.5), [1.0, 0.5, -0.125])


def test_log_example():
    coeffs_close(series_log(Series((1.0, 1.0, 0.0, 0.0))),
                 [0.0, 1.0, -0.5, 1 / 3])


@pytest.mark.parametrize("transcend", [series_log, lambda a: series_pow(a, 2.0)])
def test_transcend_reports_overflow(transcend):
    # products past the double range meet as inf - inf inside fsum
    with pytest.raises(OverflowError, match="series coefficients overflow"):
        transcend(Series((1.0, 1e160, 1e160, -1e300, 1e300)))


def test_transcend_rejects_nonpositive_constant():
    with pytest.raises(ValueError):
        series_log(Series((0.0, 1.0)))
    with pytest.raises(ValueError):
        series_pow(Series((-1.0, 1.0)), 0.5)


# ---------------------------------------------------------------------------
# reversion
# ---------------------------------------------------------------------------

def test_revert_identity():
    coeffs_close(series_revert(identity(4)), [0.0, 1.0, 0.0, 0.0, 0.0])


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
# saddle maps: coeffs builds x(y) from its ODE; Lagrange reversion of the
# phase expansion is the low-order cross-check
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


def _mp_saddle_ode(mp, phase, param):
    """(q, (r0, r1, r2)) of the saddle ODE q s s' = y (r0 + r1 s + r2 s^2),
    from the exact parameters."""
    if phase is _geg_phase:
        c, d = (mp.mpf(v) for v in param)
        x_m = (d - c) / (d + c)
        return c + d, (1 - x_m ** 2, -2 * x_m, mp.mpf(-1))
    lam = mp.mpf(param[0])
    return lam, (1 / lam, mp.mpf(1), mp.mpf(0))


@pytest.mark.parametrize("order", [14, 30])
@pytest.mark.parametrize("phase, param", [
    (_geg_phase, (1.0, 3.0)), (_geg_phase, (0.37, 5.2)),
    (_geg_phase, (2.5, 2.6)), (_geg_phase, (3.0, 1.2)),
    (_ext_phase, (2.0,)), (_ext_phase, (0.45,)),
    (_ext_phase, (1.3,)), (_ext_phase, (3.5,)),
])
def test_saddle_series_matches_mpmath_lagrange(phase, param, order):
    # Every coefficient of the double saddle map against a 50-digit solution
    # of its ODE, each to 1e-11 of itself.  No floor scaled by the largest
    # coefficient: they fall geometrically (to ~1e-19 at k = 30), and such a
    # floor would pass a map whose top coefficients are wrong in every digit.
    # Lagrange reversion of the double phase series checks the ODE to k = 6.
    mp = pytest.importorskip("mpmath")
    build = {_geg_phase: cf.geg_saddle_x, _ext_phase: cf.ext_saddle_x}[phase]
    _, s = build(*param, order - 1)
    assert s.order == order
    with mp.workdps(50):
        q, (r0, r1, r2) = _mp_saddle_ode(mp, phase, param)
        ref = [mp.mpf(0), mp.sqrt(r0 / q)]
        for k in range(2, order + 1):
            qk = q * (k + 1)
            ref.append((r1 * ref[k - 1]
                        + r2 * mp.fsum(ref[i] * ref[k - 1 - i]
                                       for i in range(1, k - 1))
                        - qk / 2 * mp.fsum(ref[i] * ref[k + 1 - i]
                                           for i in range(2, k)))
                       / (qk * ref[1]))
        for k in range(1, order + 1):
            assert abs(s.coeffs[k] - ref[k]) <= 1e-11 * abs(ref[k])
    low = saddle_series(phase(*param, 7))
    for k in range(1, 7):
        assert low.coeffs[k] == pytest.approx(s.coeffs[k], rel=1e-11, abs=0.0)


def test_saddle_series_weighted_phase():
    c, d = 1.0, 3.0
    _, s = cf.geg_saddle_x(c, d, 9)
    a1 = 2 * math.sqrt(c * d / (c + d) ** 3)
    a2 = 2 * (c - d) / (3 * (c + d) ** 2)
    a3 = (c * c - 11 * c * d + d * d) / (9 * a1 * (c + d) ** 4)
    assert s.coeffs[1] == pytest.approx(a1, rel=1e-13, abs=0.0)
    assert s.coeffs[2] == pytest.approx(a2, rel=1e-13, abs=0.0)
    assert s.coeffs[3] == pytest.approx(a3, rel=1e-12, abs=0.0)


def test_saddle_series_symmetric_phase():
    _, s = cf.geg_saddle_x(1.0, 1.0, 9)
    assert s.coeffs[1] == pytest.approx(math.sqrt(0.5), rel=1e-14)
    assert s.coeffs[2] == pytest.approx(0.0, abs=1e-14)


def test_saddle_series_exp_log_phase():
    # phase lam*s - log(1 + lam*s): inverse coefficients 1/lam, 1/(3 lam),
    # 1/(36 lam), -1/(270 lam), 1/(4320 lam)
    lam = 2.0
    _, s = cf.ext_saddle_x(lam, 7)
    expect = [1 / lam, 1 / (3 * lam), 1 / (36 * lam), -1 / (270 * lam),
              1 / (4320 * lam)]
    for k, want in enumerate(expect, start=1):
        assert s.coeffs[k] == pytest.approx(want, rel=1e-11, abs=0.0)


def test_saddle_series_residual_invariant():
    # the phase composed with its saddle map is y^2/2
    for phi, (_, s) in [(_geg_phase(1.0, 3.0, 14), cf.geg_saddle_x(1.0, 3.0, 13)),
                        (_ext_phase(2.0, 14), cf.ext_saddle_x(2.0, 13))]:
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


# ---------------------------------------------------------------------------
# the kernels against their reference loops, bit for bit
# ---------------------------------------------------------------------------

def _bits(s: Series) -> tuple[bytes, ...]:
    """The coefficients' IEEE bit patterns, so that -0.0 differs from 0.0."""
    return tuple(struct.pack("<d", c) for c in s.coeffs)


def _seeded_series(rng: random.Random, order: int, positive: bool) -> Series:
    """Coefficients spread over several decades, about a quarter of the
    non-constant ones exactly zero (and some of those -0.0)."""
    c = []
    for k in range(order + 1):
        if k > 0 and rng.random() < 0.25:
            c.append(rng.choice((0.0, -0.0)))
        else:
            c.append(rng.uniform(-1.0, 1.0) * 10.0 ** rng.uniform(-8.0, 4.0))
    if positive:
        c[0] = rng.uniform(0.05, 20.0)
    elif rng.random() < 0.3:
        c[0] = 0.0
    return Series(tuple(c))


def _seeded_pairs():
    rng = random.Random("series kernels")
    for order in range(31):
        for _ in range(3):
            yield (_seeded_series(rng, order, False),
                   _seeded_series(rng, rng.randint(0, 30), False))


def test_mul_is_bitwise_the_reference_loop():
    for a, b in _seeded_pairs():
        assert _bits(a * b) == _bits(ref_mul(a, b))
        assert _bits(b * a) == _bits(ref_mul(b, a))
        for scalar in (3, -0.75, 0.0):
            assert _bits(a * scalar) == _bits(ref_mul(a, scalar))
            assert _bits(scalar * a) == _bits(ref_mul(a, scalar))


_RHOS = (-7.3, -2.0, -1.0, -0.5, 0.0, 1.0 / 3.0, 0.5, 2.0, 2.7, 11.25)


def test_pow_and_log_are_bitwise_the_reference_loops():
    rng = random.Random("series transcendentals")
    for order in range(31):
        for _ in range(3):
            a = _seeded_series(rng, order, True)
            assert _bits(series_log(a)) == _bits(ref_log(a))
            for rho in _RHOS:
                assert _bits(series_pow(a, rho)) == _bits(ref_pow(a, rho))


def test_truncate_is_bitwise_the_reference():
    for a, _ in _seeded_pairs():
        for order in range(a.order + 3):
            assert _bits(a.truncate(order)) == _bits(ref_truncate(a, order))


def test_double_factorial_is_the_reference_loop():
    # the second pass reads the memo
    for _ in range(2):
        for k in range(60):
            assert _double_factorial_odd(k) == ref_double_factorial_odd(k)
