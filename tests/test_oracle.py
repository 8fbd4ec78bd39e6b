import math
import re
import warnings
from unittest import mock

import numpy as np
import pytest

import entrofun.oracle as oracle
from entrofun.closedforms import (geg22_value, geg31_value, lag24_value,
                                  log_gamma, more15_value, more24_value)
from entrofun.functional import Functional
from entrofun.logvalue import LogValue
from entrofun.oracle import (QuadratureError, hermite_power_integral,
                             integrate_functional, shannon_integrand_value)
from entrofun.orthopoly import MAX_DEGREE, hermite_zeros, polynomial_zeros, zero_range


def test_tolerance_range_enforced():
    F = Functional.lag_renyi(1, 20.0, 2.0, 1.0, 2.0)
    with pytest.raises(ValueError):
        integrate_functional(F, 1e-5)
    with pytest.raises(ValueError):
        integrate_functional(F, 1e-14)
    for tol in (1e-20, 0.9):
        with pytest.raises(ValueError):
            hermite_power_integral(2, 2.0, 50.0, tol)


def test_lag_renyi_m0_exact():
    F = Functional.lag_renyi(0, 30.0, 2.5, 1.5, 1.7)
    q = integrate_functional(F, 1e-12)
    expect = LogValue.from_log(log_gamma(2.5) - 2.5 * math.log(1.5))
    assert q.value.rel_diff(expect) <= 1e-12
    assert q.value.sign == 1


@pytest.mark.parametrize("m,alpha", [(1, 10.0), (3, 30.0), (4, 100.0)])
def test_lag_renyi_closed_form(m, alpha):
    mu = 2.5
    F = Functional.lag_renyi(m, alpha, mu, 1.0, 2.0)
    q = integrate_functional(F, 1e-11)
    assert q.value.rel_diff(lag24_value(m, alpha, mu)) <= 1e-11


def test_ext_closed_forms():
    for (m, alpha, lam) in [(2, 20.0, 2.0), (1, 50.0, 0.5)]:
        F = Functional.ext_renyi(m, alpha, 1.0, lam, 2.0)
        q = integrate_functional(F, 1e-11)
        assert q.value.rel_diff(more15_value(m, alpha, lam)) <= 1e-11
    F = Functional.ext_renyi(3, 40.0, 1.0, 1.0, 2.0)
    q = integrate_functional(F, 1e-11)
    assert q.value.rel_diff(more24_value(3, 40.0)) <= 1e-11


def test_geg_closed_forms():
    for (m, alpha) in [(1, 15.0), (3, 60.0)]:
        F = Functional.geg_renyi(m, alpha, -0.5, 2 * m - 1.5, 1.0, 3.0, 2.0)
        assert integrate_functional(F, 1e-11).value.rel_diff(
            geg22_value(m, alpha)) <= 1e-11
        F = Functional.geg_renyi(m, alpha, -0.5, -1.5, 1.0, 1.0, 2.0)
        assert integrate_functional(F, 1e-11).value.rel_diff(
            geg31_value(m, alpha)) <= 1e-11


def test_refinement_consistency():
    # halving the tolerance never moves the value more than the previous
    # error estimate
    F = Functional.geg_renyi(3, 50.0, 0.2, 1.3, 1.0, 2.0, 1.7)
    q1 = integrate_functional(F, 1e-8)
    q2 = integrate_functional(F, 5e-9)
    shift = (q1.value - q2.value)
    assert shift.is_zero or shift.log_abs <= q1.abs_err_log + 1e-9


def test_segments_cover_domain_and_roots():
    # the kept segments are contiguous, lie in the domain and hold the
    # weight's peak, and every zero inside their window is one of their
    # bounds: the peak split adds bounds but never drops a zero
    cases = [
        (Functional.lag_shannon(4, 30.0, 2.0, 1.0), "laguerre", 0.0),
        (Functional.geg_renyi(3, 1e4, -0.5, 4.5, 1.0, 3.0, 2.0), "gegenbauer", -1.0),
        (Functional.ext_shannon(4, 1e4, 1.5, 2.0), "laguerre", 0.0),
    ]
    for F, family, start in cases:
        segs = integrate_functional(F, 1e-10).segments
        assert segs[0][0] >= start
        assert segs[0][0] <= _peak_and_width(F)[0] <= segs[-1][1]
        for i in range(len(segs) - 1):
            assert segs[i][1] == segs[i + 1][0]
        boundaries = {b for seg in segs for b in seg}
        for root in polynomial_zeros(family, F.m, F.alpha).roots:
            if segs[0][0] < root < segs[-1][1]:
                assert root in boundaries


def _keep_every_segment(env, bounds, z_lo, z_hi):
    return bounds, -math.inf


def _untrimmed_bounds(F):
    """The bounds before the window drops any segment."""
    with mock.patch.object(oracle, "_trim", _keep_every_segment):
        return _bounds(F)


def _zero_bounds(F):
    """The bounds the zeros alone delimit: [-1, zeros, 1] for Gegenbauer,
    [0, zeros inside the window] (without the window's end) for Laguerre."""
    family = "gegenbauer" if F.kind.is_gegenbauer else "laguerre"
    zeros = polynomial_zeros(family, F.m, F.alpha).roots if F.m else ()
    if F.kind.is_gegenbauer:
        return [-1.0, *zeros, 1.0]
    x_hi = _untrimmed_bounds(F)[-1]
    return [0.0, *(z for z in zeros if z < x_hi)]


def _peak_and_width(F):
    if F.kind.is_gegenbauer:
        A, B = F.c * F.alpha + F.a, F.d * F.alpha + F.b
        S = A + B
        return (B - A) / S, 2.0 * math.sqrt(A / S) * math.sqrt(B / S) / math.sqrt(S)
    mu = F.alpha + F.sigma if F.mu is None else F.mu
    return (mu - 1.0) / F.lam, math.sqrt(mu - 1.0) / F.lam


def _build(F):
    """The one builder's (bounds, log scale, integrand, tail) for ``F``."""
    model = oracle._gegenbauer_model if F.kind.is_gegenbauer else oracle._laguerre_model
    return oracle._build(*model(F))


def _bounds(F):
    return _build(F)[0]


def _is_run(part, whole):
    """Whether ``part`` is a contiguous run of ``whole``."""
    i = whole.index(part[0]) if part[0] in whole else -1
    return i >= 0 and whole[i:i + len(part)] == part


@pytest.mark.parametrize("F", [
    Functional.geg_renyi(2, 1000.0, -0.5, 1.0, 1.0, 3.0, 2.0),
    Functional.geg_shannon(8, 2e4, 0.3, -0.2, 2.5, 0.9),
    Functional.geg_renyi(0, 500.0, 0.5, 0.5, 1.0, 1.0, 1.5),
    Functional.ext_renyi(3, 5000.0, 1.0, 2.0, 2.0),
    Functional.ext_shannon(5, 1e4, 2.5, 0.6),
    Functional.lag_renyi(8, 2e4, 2e4 + 0.5, 2.0, 2.0),
], ids=["geg_renyi", "geg_shannon", "geg_m0", "ext_renyi", "ext_shannon",
        "lag_renyi_large_mu"])
def test_peak_is_a_bound_off_symmetry(F):
    # away from c = d and lam = 1 the weight peaks O(1) (in units of alpha)
    # from the zero cluster; its segment is split at the peak and at fixed
    # multiples of the peak width either side, and the window keeps all
    # four; inside the window the bounds are the untrimmed ones
    peak, width = _peak_and_width(F)
    bounds, full = _bounds(F), _untrimmed_bounds(F)
    added = [peak + k * width for k in oracle._PEAK_STEPS]
    assert sorted(_zero_bounds(F) + added) == (full if F.kind.is_gegenbauer
                                               else full[:-1])
    assert set(added) <= set(bounds)
    assert bounds[1:-1] == [b for b in full if bounds[0] < b < bounds[-1]]


@pytest.mark.parametrize("m", [1, 2, 3, 8, 20])
@pytest.mark.parametrize("alpha", [200.0, 1e4])
def test_symmetric_inputs_keep_the_zero_bounds(m, alpha):
    # for c = d and lam = 1 the peak lies within a few widths of a zero, so
    # the bounds stay the zero-delimited ones, and the window keeps a run of
    # them; at alpha = 1e4, where the zeros crowd within O(alpha^-1/2) of
    # their centre, the asymmetric input of the same m gains the peak's
    # breakpoints, and its window keeps them
    added = len(oracle._PEAK_STEPS)
    for c, a, b in [(0.5, -0.5, 1.5), (1.0, 0.0, 0.0), (3.0, 1.5, -0.5)]:
        F = Functional.geg_shannon(m, alpha, a, b, c, c)
        assert _untrimmed_bounds(F) == _zero_bounds(F)
        assert _is_run(_bounds(F), _zero_bounds(F))
        F = Functional.geg_shannon(m, alpha, a, b, c, 3.0 * c)
        if alpha >= 1e4:
            assert len(_untrimmed_bounds(F)) == len(_zero_bounds(F)) + added
            peak, width = _peak_and_width(F)
            assert {peak + k * width for k in oracle._PEAK_STEPS} <= set(_bounds(F))
    for sigma in (0.5, 3.0):
        F = Functional.ext_renyi(m, alpha, sigma, 1.0, 1.7)
        assert _untrimmed_bounds(F)[:-1] == _zero_bounds(F)
        assert _is_run(_bounds(F), _untrimmed_bounds(F))
        F = Functional.ext_renyi(m, alpha, sigma, 2.0, 1.7)
        if alpha >= 1e4:
            assert len(_untrimmed_bounds(F)) == len(_zero_bounds(F)) + 1 + added
            peak, width = _peak_and_width(F)
            assert {peak + k * width for k in oracle._PEAK_STEPS} <= set(_bounds(F))


def test_peak_on_the_end_of_the_domain_splits_nothing():
    # A = 1.1e-16 against B = 3e4 rounds the weight's peak onto x = 1
    F = Functional.geg_renyi(2, 1.0, -(1.0 - 2.0 ** -53), 0.0, 1.0, 3e4, 2.0)
    assert _peak_and_width(F)[0] == 1.0
    assert _untrimmed_bounds(F) == _zero_bounds(F)
    # the window is trimmed against the zero range before any solve, so it
    # may start at the range's end, 0.5 + 5e-10 here, instead of the zero
    # 0.5; no bound is a peak breakpoint inside the domain
    peak, width = _peak_and_width(F)
    ends = zero_range("gegenbauer", F.m, F.alpha)
    bounds = _bounds(F)
    assert _is_run(bounds, sorted({*_zero_bounds(F), *ends}))
    assert not {peak + k * width for k in oracle._PEAK_STEPS} & set(bounds[:-1])
    assert oracle._split_at_peak([0.0, 0.5, 2.0], 2.0, 1e-3) == [0.0, 0.5, 2.0]


def _log_floor(log_abs: float) -> float:
    """A relative error of 8 units in the last place of log|I|: the rounding
    of the log-space arithmetic that the oracle and the closed forms share
    (one unit is 1.8e-12 at log|I| ~ 1e4 and 2.9e-11 at 1.5e5)."""
    return 8.0 * math.ulp(abs(log_abs))


@pytest.mark.parametrize("F,closed", [
    (Functional.geg_renyi(3, 2e4, -0.5, 4.5, 1.0, 3.0, 2.0),
     lambda: geg22_value(3, 2e4)),
    (Functional.ext_renyi(2, 2e4, 1.0, 2.0, 2.0),
     lambda: more15_value(2, 2e4, 2.0)),
], ids=["geg22", "more15"])
def test_closed_forms_at_large_alpha(F, closed):
    ref = closed()
    q = integrate_functional(F, 1e-12)
    assert q.value.rel_diff(ref) <= max(1e-11, _log_floor(ref.log_abs))


def _mp_log_value(F, mp):
    """(sign, log|I|) of a Gegenbauer or extended-Laguerre functional by
    mpmath's tanh-sinh at 40 digits, over 24 widths either side of the
    weight's peak (at those ends the integrands below have fallen by more
    than 90 orders of magnitude), split at the polynomial's zeros and at 0
    and 8 widths from the peak."""
    with mp.workdps(40):
        m, al = F.m, mp.mpf(F.alpha)
        kappa = mp.mpf(2.0 if F.kind.is_shannon else F.kappa)
        if F.kind.is_gegenbauer:
            A, B = F.c * al + F.a, F.d * al + F.b
            lo, hi, family = mp.mpf(-1), mp.mpf(1), "gegenbauer"
            peak = (B - A) / (A + B)
            width = 1 / mp.sqrt(A / (1 - peak) ** 2 + B / (1 + peak) ** 2)

            def log_weight(x):
                return A * mp.log(1 - x) + B * mp.log(1 + x)

            def poly(x):
                p_prev, p = mp.mpf(1), 2 * al * x
                for n in range(2, m + 1):
                    p_prev, p = p, (2 * (n - 1 + al) * x * p - (n - 2 + 2 * al) * p_prev) / n
                return p
        else:
            # x^(alpha + sigma - 1) e^(-lam x) |L_m^(alpha)(x)|^kappa over x > 0
            s, lam = mp.mpf(F.sigma), mp.mpf(F.lam)
            lo, hi, family = mp.mpf(0), mp.inf, "laguerre"
            peak = (al + s - 1) / lam
            width = mp.sqrt(al + s - 1) / lam

            def log_weight(x):
                return (al + s - 1) * mp.log(x) - lam * x

            def poly(x):
                p_prev, p = mp.mpf(1), al + 1 - x
                for n in range(1, m):
                    p_prev, p = p, ((2 * n + 1 + al - x) * p - (n + al) * p_prev) / (n + 1)
                return p
        shift = log_weight(peak)

        def f(x):
            p = poly(x)
            if p == 0:
                # both integrands' limit at a zero; a breakpoint can be one
                # exactly (L_1's zero alpha + 1 often is a double)
                return mp.mpf(0)
            log_p = mp.log(abs(p))
            v = mp.exp(log_weight(x) + kappa * log_p - shift)
            return 2 * log_p * v if F.kind.is_shannon else v
        a, b = max(lo, peak - 24 * width), min(hi, peak + 24 * width)
        points = sorted(p for p in {*map(mp.mpf, polynomial_zeros(family, m, F.alpha).roots),
                                    *(peak + k * width for k in (-8, 0, 8))}
                        if a < p < b)
        v = mp.quad(f, [a, *points, b])
        return (1 if v > 0 else -1), float(mp.log(abs(v)) + shift)


# asym_mixed inputs of seeds 1-2, decks 0-1 (bench/workloads.asym_deck):
# with its narrow peak inside one O(1) segment, none of them certifies 1e-12
# by the finest level
@pytest.mark.parametrize("F", [
    Functional.geg_shannon(2, 15087.153115432378, -0.1906223074572979,
                           -0.0031600896783623433, 3.6954830530541676,
                           1.540457877505757),
    Functional.ext_renyi(4, 16894.392418777377, 1.1153043249733448,
                         2.567366052303657, 1.1920663218021237),
    Functional.ext_renyi(5, 19079.70072383867, 2.4562214750084195,
                         0.6116929841480516, 1.1559698444998814),
    Functional.ext_shannon(2, 15772.63248215785, 1.2384745985796373,
                           0.6986620013992585),
], ids=["geg_shannon", "ext_renyi_m4", "ext_renyi_m5", "ext_shannon"])
def test_large_alpha_peaks_certify_at_1e_12(F):
    mp = pytest.importorskip("mpmath")
    q = integrate_functional(F, 1e-12)
    sign, log_abs = _mp_log_value(F, mp)
    assert q.value.sign == sign
    # log|I| reaches 1.8e5 here, where one unit in its last place is 2.9e-11,
    # so 1e-11 alone is below what a LogValue resolves
    assert abs(math.expm1(q.value.log_abs - log_abs)) <= max(1e-11, _log_floor(log_abs))


def test_positivity_of_power_integrands():
    for F in (Functional.lag_renyi(3, 25.0, 1.5, 0.7, 0.8),
              Functional.geg_renyi(2, 40.0, 0.1, 0.4, 0.8, 1.9, 2.6),
              Functional.ext_renyi(2, 35.0, 0.5, 1.4, 1.1)):
        assert integrate_functional(F, 1e-10).value.sign == 1


def test_error_estimate_certifies_tolerance():
    F = Functional.lag_renyi(2, 60.0, 2.0, 1.0, 2.0)
    tol = 1e-11
    q = integrate_functional(F, tol)
    assert q.abs_err_log <= q.value.log_abs + math.log(tol)


def test_shannon_zero_degree_is_zero():
    F = Functional.lag_shannon(0, 25.0, 2.0, 1.0)
    q = integrate_functional(F, 1e-10)
    assert q.value.is_zero


def test_shannon_oracle_positive_large_alpha():
    F = Functional.lag_shannon(2, 100.0, 2.0, 1.0)
    q = integrate_functional(F, 1e-10)
    assert q.value.sign == 1


def test_gegenbauer_weight_integrability_guard():
    with pytest.raises(ValueError):
        integrate_functional(Functional.geg_renyi(1, 0.2, -2.0, 0.0, 1.0,
                                                  2.0, 2.0), 1e-10)


def test_ext_lambda_near_one_matches_lambda_one():
    # the log scale must stay finite as lam -> 1; a scale of m log|1 - 1/lam|
    # overflowed the scaled integrand and certified an infinite value
    ref = integrate_functional(Functional.ext_renyi(8, 400.0, 1.0, 1.0, 4.0),
                               1e-10)
    for lam in (1.0 - 1e-12, 1.0 + 1e-12):
        q = integrate_functional(Functional.ext_renyi(8, 400.0, 1.0, lam, 4.0),
                                 1e-10)
        assert math.isfinite(q.value.log_abs)
        assert q.value.rel_diff(ref.value) <= 1e-9


@pytest.mark.parametrize("m,alpha,sigma,lam", [
    (3, 300.0, 1.5, 2.0),
    (8, 400.0, 1.0, 1.0),
    (4, 16894.392418777377, 1.1153043249733448, 2.567366052303657),
    (2, 1e4, 0.5, 0.7),
    (0, 50.0, 2.5, 1.3),
])
def test_extended_kinds_are_the_laguerre_integral_at_mu_alpha_plus_sigma(
        m, alpha, sigma, lam):
    # x^(alpha + sigma - 1) e^(-lam x) is the Laguerre weight at
    # mu = alpha + sigma, and the oracle integrates both the same way
    def result(F):
        q = integrate_functional(F, 1e-12)
        return q.value.sign, q.value.log_abs, q.abs_err_log, q.n_evals, q.segments
    mu = alpha + sigma
    assert (result(Functional.ext_renyi(m, alpha, sigma, lam, 1.7))
            == result(Functional.lag_renyi(m, alpha, mu, lam, 1.7)))
    assert (result(Functional.ext_shannon(m, alpha, sigma, lam))
            == result(Functional.lag_shannon(m, alpha, mu, lam)))


@pytest.mark.parametrize("fill", [math.inf, math.nan])
def test_non_finite_integrand_raises(fill):
    def integrand(x, lo, hi, dist_lo, dist_hi):
        return np.full(x.shape, fill)
    with pytest.raises(QuadratureError):
        oracle._quadrature([0.0, 0.5, 1.0], 0.0, integrand, 0.0, 1e-10,
                           signed=False, may_vanish=False)


@pytest.mark.parametrize("fill", [math.inf, math.nan])
def test_non_finite_integrand_stops_at_its_first_batch(fill):
    # one bad node in the first batch ends the quadrature: no later level
    # could make that segment's sum finite again
    calls = []

    def integrand(x, lo, hi, dist_lo, dist_hi):
        calls.append(x.size)
        vals = np.ones(x.shape)
        vals[x.size // 2] = fill
        return vals
    with pytest.raises(QuadratureError, match="non-finite integrand.* at A"):
        oracle._quadrature([0.0, 0.5, 1.0], 0.0, integrand, 0.0, 1e-10,
                           signed=False, may_vanish=False, where=" at A")
    assert len(calls) == 1


def test_overflowing_laguerre_integrand_raises_without_warnings():
    # at alpha = 1e300 the recurrence overflows: the first batch already
    # holds a non-finite value, and the error names alpha and m
    F = Functional.lag_renyi(2, 1e300, 2.5, 1.0, 2.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(QuadratureError,
                           match=r"alpha = 1e\+300, m = 2") as info:
            integrate_functional(F)
    n_evals = int(str(info.value).split(" after ")[1].split()[0])
    assert n_evals <= oracle._BATCH_NODES


# ---------------------------------------------------------------------------
# Batched level refinement against a segment-by-segment reference
# ---------------------------------------------------------------------------

def _reference_integrate_segment(f, lo, hi, tol_abs, min_level=3):
    """Tanh-sinh on one segment, every level from 0 up, until the first
    level >= min_level whose change is <= tol_abs."""
    half = 0.5 * (hi - lo)
    if half <= 0.0:
        return 0.0, 0.0, 0, True
    total = 0.0
    n_evals = 0
    prev = None
    err = math.inf
    for level in range(oracle._MAX_LEVEL + 1):
        u, one_m, one_p, w = oracle._ts_level_nodes(level)
        dist_lo = half * one_p
        dist_hi = half * one_m
        x = lo + dist_lo
        vals = f(x, dist_lo, dist_hi)
        n_evals += x.size
        contrib = half * float(np.dot(w, vals))
        total = contrib if level == 0 else 0.5 * total + contrib
        if level >= 1 and prev is not None:
            err = abs(total - prev)
            if level >= min_level and err <= tol_abs:
                return total, err, n_evals, True
        prev = total
    return total, err, n_evals, False


def _reference_refine_segments(integrand, bounds, tol_rel):
    """One segment at a time, each refinement restarting from level 0."""
    seg_funcs = []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        def f(x, dist_lo, dist_hi, lo=lo, hi=hi):
            return integrand(x, np.full(x.shape, lo), np.full(x.shape, hi),
                             dist_lo, dist_hi)
        seg_funcs.append((f, lo, hi))
    n_seg = len(seg_funcs)
    ests = []
    n_evals = 0
    for f, lo, hi in seg_funcs:
        v, e, n, _ = _reference_integrate_segment(f, lo, hi, math.inf, 3)
        ests.append([v, e])
        n_evals += n
    scale = max(max(abs(v) for v, _ in ests), 1e-290)
    for _ in range(4):
        total = math.fsum(v for v, _ in ests)
        target = 0.5 * tol_rel * max(abs(total), scale * 1e-4) / n_seg
        done = True
        for i, (f, lo, hi) in enumerate(seg_funcs):
            if ests[i][1] > target:
                v, e, n, ok = _reference_integrate_segment(f, lo, hi, target, 4)
                ests[i] = [v, e]
                n_evals += n
                done = done and ok
        if done and all(e <= target for _, e in ests):
            break
    total = math.fsum(v for v, _ in ests)
    err = math.fsum(e for _, e in ests)
    return total, err, n_evals


def _with_both_refinements(monkeypatch, compute):
    """compute() under the batched refinement and under the reference; each
    result is a QuadResult, or None when the tolerance is not certified."""
    def run():
        try:
            return compute()
        except QuadratureError:
            return None
    new = run()
    with monkeypatch.context() as mp:
        mp.setattr(oracle, "_refine_segments", _reference_refine_segments)
        ref = run()
    return new, ref


def _assert_same_result(new, ref):
    assert (new is None) == (ref is None)
    if new is not None:
        assert ((new.value.sign, new.value.log_abs, new.abs_err_log, new.segments)
                == (ref.value.sign, ref.value.log_abs, ref.abs_err_log,
                    ref.segments))
        assert new.n_evals <= ref.n_evals


_REFINE_CASES = {
    "lag_renyi": lambda m: Functional.lag_renyi(m, 300.0, 2.5, 1.3, 1.7),
    "lag_shannon": lambda m: Functional.lag_shannon(m, 300.0, 2.5, 0.8),
    "geg_renyi": lambda m: Functional.geg_renyi(m, 300.0, 0.2, 1.3, 1.0, 2.0, 1.7),
    "geg_shannon": lambda m: Functional.geg_shannon(m, 300.0, -0.5, -0.5, 1.0, 3.0),
    "ext_renyi": lambda m: Functional.ext_renyi(m, 300.0, 1.5, 2.0, 2.5),
    "ext_shannon": lambda m: Functional.ext_shannon(m, 300.0, 1.0, 0.7),
}


@pytest.mark.parametrize("tol", [1e-10, 1e-12])
@pytest.mark.parametrize("m", [0, 1, 5, 20, 60])
@pytest.mark.parametrize("kind", sorted(_REFINE_CASES))
def test_batched_refinement_matches_reference(monkeypatch, kind, m, tol):
    F = _REFINE_CASES[kind](m)
    _assert_same_result(*_with_both_refinements(
        monkeypatch, lambda: integrate_functional(F, tol)))


@pytest.mark.parametrize("tol", [1e-10, 1e-12])
@pytest.mark.parametrize("m,kappa", [(0, 1.3), (1, 2.0), (5, 0.7), (20, 2.0)])
def test_batched_refinement_matches_reference_hermite(monkeypatch, m, kappa, tol):
    _assert_same_result(*_with_both_refinements(
        monkeypatch, lambda: hermite_power_integral(m, kappa, 50.0, tol)))


@pytest.mark.parametrize("F", [
    Functional.geg_shannon(2, 15489.82852270537, 1.378472128709452,
                           1.0845884091541484, 1.1279678137420943,
                           1.8830462348676853),
    Functional.ext_shannon(3, 6008.539565318632, 1.1842641468601185,
                           0.6032288538205103),
])
def test_batched_refinement_settles_on_stored_levels(monkeypatch, F):
    # large-alpha inputs whose round targets grow between refinement rounds;
    # the stored-level search must give the from-scratch rerun's result
    # (the path below the finest level is pinned by the synthetic test next)
    _assert_same_result(*_with_both_refinements(
        monkeypatch, lambda: integrate_functional(F, 1e-12)))


def test_batched_refinement_settles_below_finest_level(monkeypatch):
    # [0, 1] carries a high-frequency ripple whose level differences never
    # fall below the first round's target, so it runs to the finest level;
    # [1, 2] holds a spike that levels 0-3 underrate, and resolving it
    # raises the total, so the next round's target admits a stored level
    # below the finest one: the stored sums must be searched from level 4,
    # not only the newest one
    def integrand(x, lo, hi, dist_lo, dist_hi):
        ripple = np.exp(-x) + 1e-8 * np.sin(1e7 * x)
        spike = 1e3 * np.exp(-((x - 1.53) / 0.01) ** 2)
        return np.where(hi <= 1.0, ripple, spike)
    below_finest = []
    settled = oracle._settled

    def watching_settled(sums, min_level, tol):
        r = settled(sums, min_level, tol)
        if r is not None and len(sums) == oracle._MAX_LEVEL + 1:
            level = next(i for i, s in enumerate(sums) if s is r[0])
            if level < oracle._MAX_LEVEL:
                below_finest.append(level)
        return r
    monkeypatch.setattr(oracle, "_settled", watching_settled)
    bounds = [0.0, 1.0, 2.0]
    total, err, n_evals = oracle._refine_segments(integrand, bounds, 1e-12)
    assert below_finest
    ref = _reference_refine_segments(integrand, bounds, 1e-12)
    assert (total, err) == ref[:2] and n_evals < ref[2]


def test_batched_refinement_evaluates_no_level_twice(monkeypatch):
    # a refinement round that reruns a segment from level 0 pays for its
    # low levels again; stored level sums make it strictly cheaper
    F = Functional.geg_shannon(20, 300.0, -0.5, -0.5, 1.0, 3.0)
    new, ref = _with_both_refinements(monkeypatch,
                                  lambda: integrate_functional(F, 1e-12))
    assert new.n_evals < ref.n_evals


def _closed_form_scale(xs, log_weight, log_lead, m, centroid, kappa):
    """The largest finite log w + kappa (log|lead| + m log|x - centroid|)
    over the points xs."""
    best = -math.inf
    for x in xs:
        try:
            v = log_weight(x) + kappa * (
                log_lead + (m * math.log(abs(x - centroid)) if m else 0.0))
        except ValueError:      # a log of 0: the weight or |p| vanishes there
            continue
        if math.isfinite(v):
            best = max(best, v)
    return best


def _steps(centre, unit, ks):
    return [centre + k * unit for k in ks]


def _expected_scale(F):
    """The scale rule, written out per family: the probes are the weight's
    mean and 0, 1, 2 sds either side, its peak and up to 3 widths either
    side, and for Laguerre the peak of w x^(kappa m) and 0, 1, 2 of its sds
    either side, kept in the domain."""
    m, alpha, kappa = F.m, F.alpha, F.kappa
    sds, widths = (-2, -1, 0, 1, 2), (-3, -2, -1, 0, 1, 2, 3)
    if F.kind.is_gegenbauer:
        A, B = F.c * alpha + F.a, F.d * alpha + F.b
        S = A + B
        xs = _steps((B - A) / (S + 2.0), 2.0 * math.sqrt((A + 1.0) * (B + 1.0) / (S + 3.0))
                    / (S + 2.0), sds)
        if A > 0.0 and B > 0.0:
            xs += _steps((B - A) / S, 2.0 * math.sqrt(A * B / S ** 3), widths)
        log_lead = (m * math.log(2.0) - math.lgamma(m + 1.0)
                    + sum(math.log(alpha + k) for k in range(m)))
        return _closed_form_scale([min(max(x, -1.0), 1.0) for x in xs],
                                  lambda x: A * math.log1p(-x) + B * math.log1p(x),
                                  log_lead, m, 0.0, kappa)
    mu = alpha + F.sigma if F.mu is None else F.mu
    lam, s = F.lam, max(mu - 1.0 + kappa * m, 0.0)
    xs = (_steps(mu / lam, math.sqrt(mu) / lam, sds)
          + _steps(s / lam, math.sqrt(s) / lam, sds)
          + (_steps((mu - 1.0) / lam, math.sqrt(mu - 1.0) / lam, widths) if mu >= 2.0
             else [(mu - 1.0) / lam]))
    return _closed_form_scale([max(x, 0.0) for x in xs],
                              lambda x: (mu - 1.0) * math.log(x) - lam * x,
                              -math.lgamma(m + 1.0), m, alpha + m, kappa)


def _largest_scaled_node(monkeypatch, compute):
    """compute() and the largest scaled integrand value it evaluated."""
    largest = [0.0]
    refine = oracle._refine_segments

    def watching(integrand, bounds, tol_rel):
        def recorded(*args):
            vals = integrand(*args)
            largest[0] = max(largest[0], float(np.max(np.abs(vals))))
            return vals
        return refine(recorded, bounds, tol_rel)
    with monkeypatch.context() as mp:
        mp.setattr(oracle, "_refine_segments", watching)
        result = compute()
    return result, largest[0]


_SCALE_CASES = [
    Functional.lag_renyi(5, 300.0, 2.5, 1.3, 1.7),
    Functional.lag_shannon(20, 50.0, 1.5, 0.8),
    Functional.lag_renyi(3, 0.7, 0.6, 1.2, 2.5),
    # kappa m >> mu at small alpha: w |L|^kappa peaks near (mu - 1 + kappa m) / lam
    Functional.lag_renyi(56, 2.66054504612815, 3.6506278331674706,
                         0.4210578701421136, 3.5138158559398067),
    Functional.ext_renyi(8, 2000.0, 1.0, 2.0, 2.0),
    Functional.ext_shannon(30, 1e4, 1.5, 1.0),
    Functional.geg_renyi(20, 300.0, 0.2, 1.3, 1.0, 2.0, 1.7),
    Functional.geg_shannon(3, 1e4, -0.5, -0.5, 1.0, 1.0),
    Functional.geg_renyi(60, 1e3, 0.0, 0.0, 1.0, 3.0, 2.0),
    # A = 0: the weight is not log-concave, and the domain is not windowed
    Functional.geg_renyi(4, 0.5, -0.5, 0.3, 1.0, 1.0, 2.0),
]


def test_scale_is_the_closed_form_rule(monkeypatch):
    # the scale is the closed-form rule, no polynomial evaluated, and no
    # node of the scaled integrand comes near overflow
    def no_value(*args):
        raise AssertionError("polynomial evaluated")
    for F in _SCALE_CASES:
        with monkeypatch.context() as mp:
            mp.setattr(oracle, "laguerre_value", no_value)
            mp.setattr(oracle, "gegenbauer_value", no_value)
            log_pref = _build(F)[1]
        assert log_pref == pytest.approx(_expected_scale(F), rel=1e-14, abs=1e-12)
        q, largest = _largest_scaled_node(monkeypatch, lambda: integrate_functional(F, 1e-10))
        assert 0.0 < largest <= math.exp(700.0)
    for m, kappa in [(0, 1.3), (5, 0.7), (20, 2.0), (60, 2.0)]:
        # e^(-t^2) has mean and peak 0, sd and width sqrt(1/2); e^(-t^2)
        # |t|^(kappa m) peaks at sqrt(kappa m / 2), where its sd is 1/2
        expect = _closed_form_scale(
            _steps(0.0, math.sqrt(0.5), (-3, -2, -1, 0, 1, 2, 3))
            + _steps(math.sqrt(0.5 * kappa * m), 0.5, (-2, -1, 0, 1, 2)),
            lambda t: -t * t, m * math.log(2.0), m, 0.0, kappa)
        assert oracle._build(*oracle._hermite_model(m, kappa))[1] == pytest.approx(
            expect, rel=1e-14, abs=1e-12)
        q, largest = _largest_scaled_node(
            monkeypatch, lambda: hermite_power_integral(m, kappa, 50.0))
        assert 0.0 < largest <= math.exp(700.0)


def test_batch_cap_is_one_finest_level():
    assert oracle._BATCH_NODES == oracle._ts_level_nodes(oracle._MAX_LEVEL)[0].size
    assert oracle._BATCH_NODES == 24986


def test_batches_of_deep_levels_stay_within_one_finest_level():
    # a kink inside every one of 40 segments drives all of them to deep
    # levels at once, where their pending nodes exceed one finest level
    cap = oracle._BATCH_NODES
    sizes = []

    def integrand(x, lo, hi, dist_lo, dist_hi):
        sizes.append(x.size)
        return np.sqrt(np.abs(x - 0.5 * (lo + hi)))
    bounds = [float(b) for b in np.linspace(0.0, 1.0, 41)]
    total, err, n_evals = oracle._refine_segments(integrand, bounds, 1e-12)
    assert max(sizes) <= cap
    assert sum(sizes) == n_evals
    assert 40 * oracle._ts_level_nodes(6)[0].size > cap
    ref = _reference_refine_segments(integrand, bounds, 1e-12)
    assert (total, err) == ref[:2] and n_evals <= ref[2]


def test_first_phase_evaluates_levels_0_to_3_in_one_call(monkeypatch):
    # no segment can settle before its level 3 exists, so the first pass
    # (which ends at the first settle test from level 4) makes one call
    events = []
    value, settled = oracle.laguerre_value, oracle._settled

    def counting_value(m, alpha, x):
        events.append("value")
        return value(m, alpha, x)

    def watching_settled(sums, min_level, tol):
        if min_level == 4:
            events.append("round")
        return settled(sums, min_level, tol)
    monkeypatch.setattr(oracle, "laguerre_value", counting_value)
    monkeypatch.setattr(oracle, "_settled", watching_settled)
    q = integrate_functional(Functional.lag_renyi(5, 300.0, 2.5, 1.3, 1.7))
    first = events.index("round") if "round" in events else len(events)
    assert events[:first].count("value") == 1
    assert q.n_evals >= len(q.segments) * sum(
        oracle._ts_level_nodes(level)[3].size for level in range(4))


def test_first_phase_batches_split_at_the_cap():
    # levels 0..3 of 200 segments exceed one finest level, so the first
    # pass needs two integrand calls, each within the cap
    cap = oracle._BATCH_NODES
    per_segment = sum(oracle._ts_level_nodes(level)[3].size for level in range(4))
    sizes = []

    def integrand(x, lo, hi, dist_lo, dist_hi):
        sizes.append(x.size)
        return np.exp(-x) * np.sqrt(np.abs(np.sin(40.0 * x)))
    bounds = [float(b) for b in np.linspace(0.0, 3.0, 201)]
    assert 200 * per_segment > cap
    total, err, n_evals = oracle._refine_segments(integrand, bounds, 1e-10)
    assert max(sizes) <= cap
    assert sum(sizes) == n_evals
    assert sum(sizes[:2]) == 200 * per_segment
    ref = _reference_refine_segments(integrand, bounds, 1e-10)
    assert (total, err) == ref[:2] and n_evals <= ref[2]


def test_laguerre_window_below_the_zeros_skips_the_zero_solve(monkeypatch):
    # in the Watson regime the integration window ends below the first zero
    F = Functional.lag_shannon(30, 2000.0, 2.5, 1.3)
    with monkeypatch.context() as mp:
        # a range reaching down to -inf puts the weight's peak inside it
        full = oracle.zero_range
        mp.setattr(oracle, "zero_range", lambda *args: (-math.inf, full(*args)[1]))
        solved = integrate_functional(F)

    def no_solve(*args):
        raise AssertionError("polynomial_zeros called")
    monkeypatch.setattr(oracle, "polynomial_zeros", no_solve)
    skipped = integrate_functional(F)
    assert len(skipped.segments) == 1
    assert ((skipped.value.sign, skipped.value.log_abs, skipped.abs_err_log,
             skipped.n_evals, skipped.segments)
            == (solved.value.sign, solved.value.log_abs, solved.abs_err_log,
                solved.n_evals, solved.segments))


@pytest.mark.parametrize("make", [
    lambda m: Functional.lag_renyi(m, 1e4, 2.5, 1.3, 1.7),
    lambda m: Functional.lag_shannon(m, 1e4, 2.5, 1.3),
], ids=["renyi", "shannon"])
def test_laguerre_window_below_the_zeros_still_checks_the_degree(monkeypatch, make):
    def no_solve(*args):
        raise AssertionError("polynomial_zeros called")
    with monkeypatch.context() as mp:
        mp.setattr(oracle, "polynomial_zeros", no_solve)
        integrate_functional(make(MAX_DEGREE))
    with pytest.raises(ValueError, match="exceeds supported maximum"):
        integrate_functional(make(MAX_DEGREE + 1))


# ---------------------------------------------------------------------------
# The window: segments that cannot reach the tolerance are dropped
# ---------------------------------------------------------------------------

_WINDOW_CASES = {
    "lag_renyi": lambda m, a: Functional.lag_renyi(m, a, 2.5, 1.3, 1.7),
    "lag_shannon": lambda m, a: Functional.lag_shannon(m, a, 2.5, 0.8),
    "geg_renyi": lambda m, a: Functional.geg_renyi(m, a, 0.2, 1.3, 1.0, 2.0, 1.7),
    "geg_shannon": lambda m, a: Functional.geg_shannon(m, a, -0.5, -0.5, 1.0, 3.0),
    "ext_renyi": lambda m, a: Functional.ext_renyi(m, a, 1.5, 2.0, 2.5),
    "ext_shannon": lambda m, a: Functional.ext_shannon(m, a, 1.0, 0.7),
}


def _outcome(F, tol):
    try:
        return integrate_functional(F, tol)
    except QuadratureError:
        return None


@pytest.mark.parametrize("tol", [1e-10, 1e-12])
@pytest.mark.parametrize("alpha", [50.0, 1e3, 2e4])
@pytest.mark.parametrize("m", [0, 1, 5, 20, 60])
@pytest.mark.parametrize("kind", sorted(_WINDOW_CASES))
def test_window_matches_the_untrimmed_segments(kind, m, alpha, tol):
    # dropping the segments that cannot reach the tolerance keeps the
    # certification outcome and moves the value by at most the tolerance
    # or the rounding of log|I|
    F = _WINDOW_CASES[kind](m, alpha)
    new = _outcome(F, tol)
    with mock.patch.object(oracle, "_trim", _keep_every_segment):
        ref = _outcome(F, tol)
    assert (new is None) == (ref is None)
    if new is not None and not ref.value.is_zero:
        assert new.value.sign == ref.value.sign
        assert abs(new.value.log_abs - ref.value.log_abs) <= max(
            tol, _log_floor(ref.value.log_abs))
        assert len(new.segments) <= len(ref.segments)


def _dropped_mass(F):
    """(log of the dropped segments' integral of |integrand|, log of the
    bound the window reports for them, log of the tail the builder
    reports), from the untrimmed bounds outside the kept window, split at
    the kept window's ends."""
    windows = []
    window = oracle._window

    def recording(*args):
        windows.append(window(*args))
        return windows[-1]
    with mock.patch.object(oracle, "_window", recording):
        bounds, log_pref, integrand, tail = _build(F)
    full = _untrimmed_bounds(F)
    lo, hi = bounds[0], bounds[-1]
    regions = [[b for b in full if b < lo] + [lo], [hi] + [b for b in full if b > hi]]
    total = 0.0
    for region in regions:
        if len(region) > 1:
            total += oracle._refine_segments(
                lambda *a: np.abs(integrand(*a)), region, 1e-8)[0]
    log_total = math.log(total) + log_pref if total > 0.0 else -math.inf
    log_tail = math.log(tail) + log_pref if tail > 0.0 else -math.inf
    return log_total, windows[0][1], log_tail


@pytest.mark.parametrize("alpha", [50.0, 200.0, 1e3])
@pytest.mark.parametrize("m", [1, 5, 20])
@pytest.mark.parametrize("kind", sorted(_WINDOW_CASES))
def test_dropped_segments_hold_less_than_their_bound(kind, m, alpha):
    # the dropped prefix and suffix, integrated, hold at most the bound the
    # window reports for them, and the reported tail carries that bound
    log_total, log_bound, log_tail = _dropped_mass(_WINDOW_CASES[kind](m, alpha))
    assert log_total <= log_bound + 1e-9
    assert log_bound <= log_tail + 1e-9


def test_dropped_segments_are_integrated_where_they_hold_mass():
    # the cases above drop segments whose integral is still a number, so
    # the comparison is not between two empty sums
    for kind in ("lag_shannon", "geg_shannon", "ext_renyi"):
        log_total, log_bound, _ = _dropped_mass(_WINDOW_CASES[kind](20, 200.0))
        assert -math.inf < log_total <= log_bound


@pytest.mark.parametrize("F", [
    Functional.geg_renyi(5, 2000.0, -0.5, 4.5, 1.0, 3.0, 2.0),
    Functional.geg_shannon(20, 1e4, 0.3, -0.2, 2.5, 0.9),
    Functional.ext_renyi(8, 2000.0, 1.0, 2.0, 2.0),
    Functional.ext_shannon(3, 5000.0, 1.5, 0.5),
], ids=["geg_renyi", "geg_shannon", "ext_renyi_lam2", "ext_shannon_lam05"])
def test_window_clear_of_the_zeros_skips_the_zero_solve(F):
    # the weight peaks O(alpha^-1/2) widths away from the zero cluster, so
    # the window trimmed with only the zeros' range holds no zero
    ref = integrate_functional(F, 1e-12)

    def no_solve(*args):
        raise AssertionError("polynomial_zeros called")
    with mock.patch.object(oracle, "polynomial_zeros", no_solve):
        q = integrate_functional(F, 1e-12)
    assert q.value.sign == ref.value.sign
    assert q.value.log_abs == ref.value.log_abs and q.segments == ref.segments
    with mock.patch.object(oracle, "_trim", _keep_every_segment):
        full = integrate_functional(F, 1e-12)
    assert abs(q.value.log_abs - full.value.log_abs) <= max(
        1e-12, _log_floor(full.value.log_abs))


@pytest.mark.parametrize("F", [
    Functional.geg_renyi(5, 2000.0, -0.5, -0.5, 1.0, 1.0, 2.0),
    Functional.geg_shannon(20, 1e4, 0.3, 0.3, 2.5, 2.5),
    Functional.ext_renyi(8, 2000.0, 1.0, 1.0, 2.0),
    Functional.lag_shannon(8, 2000.0, 2001.0, 1.0),
], ids=["geg_renyi_c_eq_d", "geg_shannon_c_eq_d", "ext_renyi_lam1", "lag_mu_alpha"])
def test_window_inside_the_zeros_still_solves(F):
    # for c = d and lam = 1 the weight peaks among the zeros
    def no_solve(*args):
        raise AssertionError("polynomial_zeros called")
    with mock.patch.object(oracle, "polynomial_zeros", no_solve):
        with pytest.raises(AssertionError, match="polynomial_zeros called"):
            integrate_functional(F, 1e-12)


@pytest.mark.parametrize("F", [
    Functional.geg_renyi(2, 1e300, 0.0, 0.0, 1.0, 3.0, 2.0),
    Functional.geg_shannon(3, 1e300, 0.0, 0.0, 1.0, 1.0),
    Functional.ext_renyi(2, 1e300, 1.0, 2.0, 2.0),
    Functional.ext_renyi(2, 1e300, 1.0, 1.0, 2.0),
    Functional.ext_shannon(4, 1e300, 1.0, 0.5),
    Functional.geg_renyi(60, 1e8, 0.0, 0.0, 1.0, 3.0, 2.0),
], ids=["geg_renyi", "geg_shannon", "ext_renyi_lam2", "ext_renyi_lam1", "ext_shannon",
        "geg_renyi_m60"])
def test_huge_alpha_raises_quadrature_error_without_warnings(F):
    # the Jacobi matrix, the zero certificate or the integrand overflows:
    # each ends as a QuadratureError that names alpha and m
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(QuadratureError,
                           match=re.escape(f"alpha = {F.alpha!r}, m = {F.m}")):
            integrate_functional(F)


@pytest.mark.parametrize("F,tol,log_abs", [
    (Functional.lag_renyi(56, 2.66054504612815, 3.6506278331674706,
                          0.4210578701421136, 3.5138158559398067), 2.3e-10,
     401.99297735549069077),
    (Functional.ext_renyi(60, 1.204043011291282, 2.020501470221429,
                          1.1366018769792712, 3.4896084429155665), 1.486e-11,
     156.63630707463290881),
    (Functional.ext_renyi(56, 1.0611079167111774, 1.8012827592096738,
                          1.4405525927780123, 3.6765592708232755), 1.706e-11,
     91.89534083790808826),
    (Functional.ext_renyi(50, 1.4292147448592225, 1.0098973752748388,
                          1.1219051210528146, 3.6985756922396393), 1.323e-9,
     152.79748735550040727),
    (Functional.lag_renyi(52, 7.715143754502432, 4.062779927332688,
                          0.5244973647950986, 3.6779770770410165), 8.99e-10,
     350.91965813660786264),
    (Functional.lag_renyi(44, 0.6199249174126475, 1.3851597656842933,
                          0.7027936224305941, 3.8686856270041585), 5.06e-10,
     250.95081290844229378),
    (Functional.lag_renyi(56, 0.5441703585917679, 0.7392194512499266,
                          0.8050534034547953, 3.1048255108798064), 1.08e-12,
     175.26369801720627943),
], ids=["lag_m56", "ext_m60", "ext_m56", "ext_m50", "lag_m52", "lag_m44", "lag_m56_tol1e-12"])
def test_high_degree_laguerre_at_small_alpha_certifies(F, tol, log_abs):
    # kappa m >> mu at alpha ~ 1: w |L|^kappa peaks near (mu - 1 + kappa m)
    # / lam, far above the weight's peak; the references are mpmath's
    # tanh-sinh at 40 digits, split at the zeros
    q = integrate_functional(F, tol)
    assert abs(q.value.log_abs - log_abs) <= max(tol, _log_floor(log_abs))


def _lag24_log_value(m, alpha, mp):
    """log of the integral of x^(3/2) e^(-x) L_m^(alpha)(x)^2: the exact
    finite sum sum_(i,j) c_i c_j Gamma(5/2 + i + j) over the power-basis
    coefficients c_k = (-1)^k C(m + alpha, m - k) / k!, at 60 digits."""
    with mp.workdps(60):
        al = mp.mpf(alpha)
        c = [(-1) ** k * mp.binomial(m + al, m - k) / mp.factorial(k) for k in range(m + 1)]
        return float(mp.log(mp.fsum(c[i] * c[j] * mp.gamma(mp.mpf(2.5) + i + j)
                                    for i in range(m + 1) for j in range(m + 1))))


@pytest.mark.parametrize("alpha", [1e12, 1e16, 1e18, 1e20, 1e30])
@pytest.mark.parametrize("m", [1, 2, 3, 10])
def test_huge_alpha_laguerre_matches_the_exact_sum(m, alpha):
    # the domain ends where the envelope bounds the tail, with no Taylor
    # coefficient bound whose lgamma differences lose their digits here; a
    # LogValue resolves log|I| only to its last place, so the certificate
    # is checked up to the same 8 units there
    mp = pytest.importorskip("mpmath")
    log_abs = _lag24_log_value(m, alpha, mp)
    q = integrate_functional(Functional.lag_renyi(m, alpha, 2.5, 1.0, 2.0), 1e-10)
    err = abs(q.value.log_abs - log_abs)
    assert err <= max(1e-10, _log_floor(log_abs))
    assert err <= math.exp(q.abs_err_log - q.value.log_abs) + _log_floor(log_abs)


@pytest.mark.parametrize("name,F", [
    # mu = alpha + 1 puts the weight's peak among the zeros, so the window
    # keeps many segments (at mu = 2.5 and lam = 0.8 it keeps one)
    ("laguerre_value", Functional.lag_shannon(60, 300.0, 301.0, 1.0)),
    ("gegenbauer_value", Functional.geg_shannon(60, 300.0, -0.5, -0.5, 1.0, 3.0)),
    ("laguerre_value", Functional.ext_renyi(60, 300.0, 1.5, 2.0, 2.5)),
])
def test_batched_integrand_calls_stay_within_one_finest_level(monkeypatch, name, F):
    cap = oracle._BATCH_NODES
    sizes = []
    value = getattr(oracle, name)

    def counting(m, alpha, x):
        sizes.append(np.size(x))
        return value(m, alpha, x)
    monkeypatch.setattr(oracle, name, counting)
    q = integrate_functional(F, 1e-12)
    n_calls = len(sizes)
    assert max(sizes) <= cap
    # one call per level of all pending segments, not one per segment
    assert n_calls < len(q.segments)


# ---------------------------------------------------------------------------
# Hermite power integral
# ---------------------------------------------------------------------------

def test_hermite_pieces_equal_a_fresh_computation():
    oracle._hermite_pieces.cache_clear()
    for _ in range(2):  # the first pass fills the cache, the second reads it
        for m in range(MAX_DEGREE + 1):
            zeros = oracle._hermite_pieces(m)
            assert zeros == (hermite_zeros(m).roots if m >= 1 else ())


@pytest.mark.parametrize("m, kappa", [(0, 1.3), (3, 1.5), (8, 2.7), (25, 0.9)])
def test_hermite_power_integral_repeats_exactly(m, kappa):
    oracle._hermite_pieces.cache_clear()
    first = hermite_power_integral(m, kappa, 200.0)  # fills the cache
    assert hermite_power_integral(m, kappa, 200.0) == first


def test_hermite_power_integral_checks_the_degree():
    for m in (-1, MAX_DEGREE + 1):
        with pytest.raises(ValueError, match="degree"):
            hermite_power_integral(m, 2.0, 50.0)


def test_hermite_power_m0_gaussian():
    for alpha in (10.0, 300.0):
        q = hermite_power_integral(0, 1.3, alpha)
        expect = LogValue.from_log(0.5 * math.log(2.0 * math.pi / alpha))
        assert q.value.rel_diff(expect) <= 1e-11


@pytest.mark.parametrize("m", [1, 2, 4])
def test_hermite_power_orthogonality(m):
    alpha = 50.0
    q = hermite_power_integral(m, 2.0, alpha)
    expect = LogValue.from_log(
        0.5 * (math.log(2.0) - math.log(alpha)) + m * math.log(2.0)
        + math.lgamma(m + 1.0) + 0.5 * math.log(math.pi))
    assert q.value.rel_diff(expect) <= 1e-11


def test_hermite_mixed_moment_normalisation():
    # direct quadrature decides the overall constant of the odd mixed
    # moment: it supports the half-power normalisation
    # 2^(m-1) m! sqrt(pi), not 2^m (m+1)! sqrt(pi)
    from entrofun.orthopoly import hermite_value
    import numpy as np
    for m in (1, 2, 3):
        ts = np.linspace(-10.0, 10.0, 40001)
        vals = np.exp(-ts * ts) * ts * hermite_value(m, ts) * hermite_value(m - 1, ts)
        integral = float(np.trapezoid(vals, ts))
        assert integral == pytest.approx(
            2.0 ** (m - 1) * math.factorial(m) * math.sqrt(math.pi), rel=1e-8)


def test_hermite_power_fractional_kappa_between_bounds():
    # for kappa between 1 and 2 the value sits between those of the
    # integer cases (log-convexity in kappa of the integrand family)
    m, alpha = 2, 40.0
    v1 = hermite_power_integral(m, 1.0, alpha).value.log_abs
    v15 = hermite_power_integral(m, 1.5, alpha).value.log_abs
    v2 = hermite_power_integral(m, 2.0, alpha).value.log_abs
    assert min(v1, v2) <= v15 <= max(v1, v2)


# ---------------------------------------------------------------------------
# Shannon integrand point values
# ---------------------------------------------------------------------------

def test_shannon_integrand_at_root_is_zero():
    m, alpha = 3, 12.0
    F = Functional.lag_shannon(m, alpha, 2.0, 1.0)
    root = polynomial_zeros("laguerre", m, alpha).roots[1]
    assert shannon_integrand_value(F, root) == pytest.approx(0.0, abs=1e-8)


def test_shannon_integrand_m0():
    F = Functional.lag_shannon(0, 12.0, 2.0, 1.0)
    for x in (0.3, 4.0, 25.0):
        assert shannon_integrand_value(F, x) == 0.0


def test_shannon_integrand_hand_value():
    F = Functional.lag_shannon(1, 2.0, 2.0, 1.0)
    assert shannon_integrand_value(F, 1.0) == pytest.approx(
        4.0 * math.log(4.0), rel=1e-14)


def test_shannon_integrand_rejects_power_kinds():
    with pytest.raises(ValueError):
        shannon_integrand_value(Functional.lag_renyi(1, 2.0, 2.0, 1.0, 2.0), 1.0)
