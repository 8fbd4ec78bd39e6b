import importlib.util
import inspect
import math
import re
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from entrofun import coeffs
from entrofun.asymptotics import (_EVALUATORS, K_MAX, ExpansionResult,
                                  closed_form_value, evaluate_asymptotic,
                                  hermite_type_gegenbauer,
                                  hermite_type_laguerre, optimal_truncation)
from entrofun.closedforms import (geg31_value, lag24_value, log_gamma,
                                  more15_value, more24_value, pochhammer)
from entrofun.coeffs import ext_lag_D, lag_D
from entrofun.functional import Functional
from entrofun.logvalue import LogValue
from entrofun.oracle import (TOL_MAX, TOL_MIN, QuadratureError,
                             integrate_functional)
from entrofun.orthopoly import gegenbauer_value, laguerre_value
from entrofun.series import laplace_terms


def test_optimal_truncation():
    assert optimal_truncation([1.0, 0.1, 0.01, 0.5]) == 3
    assert optimal_truncation([1.0]) == 1
    assert optimal_truncation([8.0, 4.0, 2.0, 1.0]) == 4
    with pytest.raises(ValueError):
        optimal_truncation([])


def test_partial_sum_invariant():
    F = Functional.lag_renyi(2, 150.0, 2.0, 1.5, 2.5)
    res = evaluate_asymptotic(F, K=4)
    for k in range(len(res.terms)):
        expect = res.prefactor.scaled(math.fsum(res.terms[:k + 1]))
        assert res.partial_sums[k].rel_diff(expect) <= 1e-14
    assert res.truncation_used <= len(res.terms)


# ---------------------------------------------------------------------------
# plain Laguerre family
# ---------------------------------------------------------------------------

def test_renyi_laguerre_m0_prefactor_exact():
    F = Functional.lag_renyi(0, 77.0, 2.3, 1.4, 1.9)
    res = evaluate_asymptotic(F)
    expect = LogValue.from_log(log_gamma(2.3) - 2.3 * math.log(1.4))
    assert res.prefactor.rel_diff(expect) <= 1e-13
    assert all(t == 0.0 for t in res.terms[1:])
    assert res.value.rel_diff(expect) <= 1e-13


def test_renyi_laguerre_two_terms_vs_closed():
    F = Functional.lag_renyi(2, 200.0, 2.5, 1.0, 2.0)
    res = evaluate_asymptotic(F, K=2)
    assert res.value.rel_diff(lag24_value(2, 200.0, 2.5)) <= 5e-5
    assert res.branch == "watson"


def test_renyi_laguerre_term_matches_printed_ladder():
    # the first grouped term approaches D_1/alpha as alpha grows
    m, kappa, lam, mu = 2, 2.5, 1.3, 1.8
    d1 = lag_D(1, mu, lam, kappa, m)
    for alpha in (1e5, 2e5):
        F = Functional.lag_renyi(m, alpha, mu, lam, kappa)
        res = evaluate_asymptotic(F, K=1)
        assert res.terms[1] * alpha == pytest.approx(d1, rel=2e-4)


def test_shannon_laguerre_m0_zero():
    F = Functional.lag_shannon(0, 120.0, 2.0, 1.0)
    res = evaluate_asymptotic(F)
    assert res.value.is_zero


def test_shannon_laguerre_routes_agree():
    # the ladder's Shannon terms against the same construction from the
    # printed coefficients D_k and their analytic kappa-derivatives
    alpha = 500.0
    for (m, lam, mu) in [(1, 1.0, 2.0), (2, 2.0, 1.5)]:
        F = Functional.lag_shannon(m, alpha, mu, lam)
        res = evaluate_asymptotic(F, K=2)
        ell = 2 * m * math.log(alpha) - 2 * math.lgamma(m + 1)
        printed = math.fsum(
            (ell * lag_D(k, mu, lam, 2.0, m)
             + 2.0 * coeffs.lag_D_kappa_derivative(k, mu, lam, 2.0, m))
            / alpha ** k for k in range(3))
        assert res.value.rel_diff(res.prefactor.scaled(printed)) <= 1e-6


def test_shannon_laguerre_log_factor_structure():
    # leading term is log(alpha^(2m)/(m!)^2) times the unit coefficient
    m, alpha = 2, 400.0
    F = Functional.lag_shannon(m, alpha, 2.0, 1.0)
    res = evaluate_asymptotic(F, K=0)
    ell = 2 * m * math.log(alpha) - 2 * math.lgamma(m + 1)
    assert res.terms[0] == pytest.approx(ell, rel=1e-13)


def test_shannon_laguerre_error_decreases():
    m, lam, mu = 1, 1.0, 2.0
    errs = []
    for alpha in (200.0, 400.0, 800.0):
        F = Functional.lag_shannon(m, alpha, mu, lam)
        est = evaluate_asymptotic(F, K=2).value
        ref = integrate_functional(F, 1e-11).value
        errs.append(est.rel_diff(ref))
    assert errs[0] > errs[1] > errs[2]


@pytest.mark.parametrize("F", [
    Functional.lag_shannon(3, 400.0, 2.5, 1.0),
    Functional.lag_shannon(8, 281.68546342305837, 5.842821892872799,
                           0.48887485293988353),
], ids=["m3_a400", "m8_a282"])
def test_shannon_laguerre_default_matches_oracle(F):
    # the default sums K_MAX ladder terms; the printed K = 2 coefficients
    # were 1.6e-6 and 3.0e-2 off here while the result read "ok"
    res = evaluate_asymptotic(F)
    assert res.status == "ok"
    ref = integrate_functional(F, 1e-12).value
    assert res.value.rel_diff(ref) <= 1e-10


@settings(derandomize=True, deadline=None, max_examples=30)
@given(m=st.integers(1, 8),
       log_alpha=st.floats(math.log(200.0), math.log(2.0e4)),
       mu=st.floats(0.5, 6.0), lam=st.floats(0.3, 3.0))
def test_shannon_laguerre_ok_agrees_with_oracle(m, log_alpha, mu, lam):
    F = Functional.lag_shannon(m, math.exp(log_alpha), mu, lam)
    res = evaluate_asymptotic(F)
    if res.status == "ok":
        ref = integrate_functional(F, 1e-12).value
        assert res.value.rel_diff(ref) <= 1e-9


# ---------------------------------------------------------------------------
# Gegenbauer family
# ---------------------------------------------------------------------------

def test_renyi_gegenbauer_m0_matches_beta_integral():
    F = Functional.geg_renyi(0, 400.0, 0.3, -0.2, 1.0, 2.5, 2.0)
    exact = closed_form_value(F)
    res = evaluate_asymptotic(F, K=3)
    assert res.value.rel_diff(exact) <= 1e-8
    dev_lead = evaluate_asymptotic(F, K=0).value.rel_diff(exact)
    F2 = Functional.geg_renyi(0, 800.0, 0.3, -0.2, 1.0, 2.5, 2.0)
    dev_lead_2 = evaluate_asymptotic(F2, K=0).value.rel_diff(
        closed_form_value(F2))
    assert 1.6 <= dev_lead / dev_lead_2 <= 2.5


def test_renyi_gegenbauer_leading_order_special_case():
    # the first-order value for the weighted special case, including the
    # extra sqrt(2) relative to the misprinted reduction
    m, alpha = 2, 300.0
    F = Functional.geg_renyi(m, alpha, -0.5, 2 * m - 1.5, 1.0, 3.0, 2.0)
    lead = evaluate_asymptotic(F, K=0).value
    poch = math.fsum(math.log(alpha + k) for k in range(m))
    printed_form = ((3 * alpha + 2 * m - 1) * math.log(3.0)
                    + 0.5 * (math.log(math.pi) - math.log(alpha))
                    - (4 * alpha + 2 * m) * math.log(2.0)
                    - 2 * math.lgamma(m + 1) + 2 * m * math.log(alpha))
    corrected = LogValue.from_log(printed_form + 0.5 * math.log(2.0)
                                  + 2 * poch - 2 * m * math.log(alpha))
    assert lead.rel_diff(corrected) <= 1e-12


def test_renyi_gegenbauer_swap_branch():
    F1 = Functional.geg_renyi(2, 120.0, 0.3, -0.4, 0.9, 2.0, 1.6)
    F2 = Functional.geg_renyi(2, 120.0, -0.4, 0.3, 2.0, 0.9, 1.6)
    r1 = evaluate_asymptotic(F1, K=3)
    r2 = evaluate_asymptotic(F2, K=3)
    assert r1.value.rel_diff(r2.value) <= 1e-13
    assert r2.branch == "laplace_swapped"


def test_renyi_gegenbauer_symmetric_two_term():
    for m in (1, 3):
        for alpha in (150.0, 300.0):
            F = Functional.geg_renyi(m, alpha, -0.5, -1.5, 1.0, 1.0, 2.0)
            res = evaluate_asymptotic(F, K=1)
            assert res.branch == "symmetric_kappa2"
            assert res.value.rel_diff(geg31_value(m, alpha)) <= 40.0 / alpha ** 2


def test_renyi_gegenbauer_symmetric_general_kappa():
    F = Functional.geg_renyi(2, 200.0, -0.5, -1.5, 1.0, 1.0, 3.0)
    res = evaluate_asymptotic(F)
    assert res.branch == "symmetric_hermite_leading"
    ref = integrate_functional(F, 1e-10).value
    assert res.value.rel_diff(ref) <= 10.0 / 200.0


def test_renyi_gegenbauer_rejects_general_symmetric_weights():
    F = Functional.geg_renyi(1, 100.0, 0.0, 0.0, 2.0, 2.0, 2.0)
    with pytest.raises(ValueError):
        evaluate_asymptotic(F)


def test_shannon_gegenbauer_no_expansion_routing():
    F = Functional.gegenbauer_weight_shannon(2, 80.0)
    res = evaluate_asymptotic(F, tol_rel=1e-10)
    assert res.status == "no_expansion"
    assert res.oracle_fallback is not None
    ref = integrate_functional(F, 1e-11).value
    assert res.value.rel_diff(ref) <= 1e-9


def test_shannon_gegenbauer_m0_zero():
    F = Functional.geg_shannon(0, 100.0, 0.1, 0.2, 1.0, 2.0)
    assert evaluate_asymptotic(F).value.is_zero


def test_shannon_gegenbauer_fd_matches_analytic_leading():
    # the ladder's leading Shannon term against the printed leading
    # coefficient D_0 and its kappa-derivative D_0 m log((d - c)/(c + d))
    m, alpha, a, b, c, d = 1, 500.0, 0.2, -0.3, 1.0, 3.0
    F = Functional.geg_shannon(m, alpha, a, b, c, d)
    fd = evaluate_asymptotic(F, K=0)
    d0 = coeffs.geg_D0(a, b, c, d, 2.0, m)
    d0_prime = d0 * m * math.log((d - c) / (c + d))
    ell = (2 * m * math.log(2.0) + 2.0 * math.log(alpha)
           - 2.0 * math.lgamma(m + 1))
    printed = fd.prefactor.scaled(ell * d0 + 2.0 * d0_prime)
    assert fd.value.rel_diff(printed) <= 1e-6


# ---------------------------------------------------------------------------
# extended Laguerre family
# ---------------------------------------------------------------------------

def test_ext_renyi_m0_matches_stirling():
    F = Functional.ext_renyi(0, 500.0, 1.3, 2.0, 2.0)
    exact = LogValue.from_log(log_gamma(500.0 + 1.3)
                              - (500.0 + 1.3) * math.log(2.0))
    res = evaluate_asymptotic(F, K=3)
    assert res.value.rel_diff(exact) <= 1e-11


def test_ext_renyi_one_term_vs_closed():
    F = Functional.ext_renyi(1, 300.0, 1.0, 2.0, 2.0)
    res = evaluate_asymptotic(F, K=1)
    assert res.value.rel_diff(more15_value(1, 300.0, 2.0)) <= 1e-3
    assert res.branch == "laplace_lambda_ne1"


def test_ext_renyi_lambda1_ratio_to_closed():
    devs = []
    for alpha in (400.0, 800.0):
        F = Functional.ext_renyi(1, alpha, 1.0, 1.0, 2.0)
        lead = evaluate_asymptotic(F).value
        devs.append(abs(more24_value(1, alpha).rel_diff(lead)))
    assert 1.6 <= devs[0] / devs[1] <= 2.5


def test_ext_renyi_lambda1_general_kappa_vs_oracle():
    F = Functional.ext_renyi(2, 150.0, 0.7, 1.0, 1.5)
    res = evaluate_asymptotic(F)
    assert res.branch == "hermite_limit_power"
    ref = integrate_functional(F, 1e-9).value
    assert res.value.rel_diff(ref) <= 15.0 / 150.0


def test_ext_shannon_m0_zero():
    F = Functional.ext_shannon(0, 200.0, 1.0, 2.0)
    assert evaluate_asymptotic(F).value.is_zero


def test_ext_shannon_lambda1_no_expansion():
    F = Functional.ext_shannon(1, 60.0, 1.0, 1.0)
    res = evaluate_asymptotic(F, tol_rel=1e-10)
    assert res.status == "no_expansion"
    ref = integrate_functional(F, 1e-11).value
    assert res.value.rel_diff(ref) <= 1e-9


def test_ext_shannon_routes_agree():
    # The analytic derivative must match a central difference in kappa of
    # the same truncated ladder object to finite-difference accuracy; the
    # full numeric-ladder route differs additionally by the content of the
    # incompletely assembled next order.
    m, alpha, sigma, lam = 1, 400.0, 1.0, 2.0
    F = Functional.ext_shannon(m, alpha, sigma, lam)
    an = evaluate_asymptotic(F, K=1)
    assert an.branch == "laplace_shannon_analytic"

    def renyi_d_truncated(kappa):
        pref = ((alpha + sigma) * math.log(alpha) - alpha
                - (alpha + sigma + kappa * m) * math.log(lam)
                + kappa * m * math.log(abs(lam - 1.0))
                + 0.5 * math.log(2.0 * math.pi / alpha)
                + kappa * m * math.log(alpha) - kappa * math.lgamma(m + 1))
        body = 1.0 + ext_lag_D(1, sigma, lam, kappa, m) / alpha
        return LogValue.from_log(pref).scaled(body)

    h = 1e-4
    fd_ref = (renyi_d_truncated(2.0 + h)
              - renyi_d_truncated(2.0 - h)) * LogValue.from_float(1.0 / h)
    assert an.value.rel_diff(fd_ref) <= 1e-7

    # the numeric amplitude at the same order, assembled as the K >= 2 route
    # assembles it
    ell = 2 * (math.log(400.0) + math.log(1.0) - math.log(2.0))
    amp, damp = coeffs.ext_lag_amplitude(sigma, lam, 2.0, m, alpha, order=2,
                                         dkappa=True)
    t, dt = laplace_terms(amp, alpha, 1), laplace_terms(damp, alpha, 1)
    fd = an.prefactor.scaled(math.fsum(ell * u + 2.0 * v
                                       for u, v in zip(t, dt)))
    assert an.value.rel_diff(fd) <= 5e-5
    assert an.terms[0] == pytest.approx(ell, rel=1e-12)


def test_ext_shannon_error_decreases():
    errs = []
    for alpha in (200.0, 400.0, 800.0):
        F = Functional.ext_shannon(2, alpha, 1.0, 2.0)
        est = evaluate_asymptotic(F, K=1).value
        ref = integrate_functional(F, 1e-11).value
        errs.append(est.rel_diff(ref))
    assert errs[0] > errs[1] > errs[2]


def _ext_fd(F):
    return evaluate_asymptotic(F, K=7)


@pytest.mark.parametrize("F, evaluate, branch", [
    (Functional.geg_shannon(4, 2000.0, -0.5, -0.5, 1.0, 3.0),
     evaluate_asymptotic, "laplace_shannon_fd"),
    (Functional.ext_shannon(3, 1000.0, 1.0, 0.5), _ext_fd,
     "laplace_shannon_fd"),
    (Functional.lag_shannon(3, 400.0, 2.5, 1.5), evaluate_asymptotic,
     "watson_shannon_fd"),
    (Functional.geg_shannon(3, 1500.0, 0.3, 1.2, 3.0, 1.0),
     evaluate_asymptotic, "laplace_swapped_shannon"),
    (Functional.ext_shannon(3, 1000.0, 1.0, 2.0), _ext_fd,
     "laplace_shannon_fd"),
], ids=["geg", "ext", "lag", "geg_swapped", "ext_lam_gt1"])
def test_shannon_fd_route_matches_oracle(F, evaluate, branch):
    # The fd routes take the exact kappa-derivative of the dimensionless
    # terms; the prefactor's kappa-slope enters exactly as well, so the full
    # ladders reach the 1e-12 oracle.
    res = evaluate(F)
    assert res.branch == branch
    ref = integrate_functional(F, 1e-12).value
    assert res.value.rel_diff(ref) <= 2e-12


@pytest.mark.parametrize("target, F, evaluate", [
    ("ext_saddle_x", Functional.ext_shannon(3, 1000.0, 1.0, 0.5), _ext_fd),
    ("geg_C_ladder", Functional.geg_shannon(4, 2000.0, -0.5, -0.5, 1.0, 3.0),
     evaluate_asymptotic),
    ("geg_C_ladder", Functional.geg_shannon(3, 1500.0, 0.3, 1.2, 3.0, 1.0),
     evaluate_asymptotic),
    ("lag_C_ladder", Functional.lag_shannon(3, 400.0, 2.5, 1.5),
     evaluate_asymptotic),
], ids=["ext_saddle", "geg_ladder", "geg_swapped_ladder", "lag_ladder"])
def test_shannon_fd_route_builds_once(monkeypatch, target, F, evaluate):
    # the kappa-derivative comes from the same build as the values, so a
    # Shannon call builds its ladder (and the extended saddle) once
    built = getattr(coeffs, target)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return built(*args, **kwargs)

    monkeypatch.setattr(coeffs, target, counted)
    evaluate(F)
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# routing, status flags, dispatch
# ---------------------------------------------------------------------------

def test_low_confidence_flag():
    # ok iff the error estimate is at most tol_rel: one result read at three
    # tolerances
    F = Functional.lag_shannon(3, 400.0, 2.5, 1.5)
    res = evaluate_asymptotic(F, 3)
    assert 1e-10 < res.error_estimate < 1e-6
    assert res.status == "low_confidence"
    assert evaluate_asymptotic(F, 3, tol_rel=1e-6).status == "ok"
    assert evaluate_asymptotic(F, 3, tol_rel=res.error_estimate).status == "ok"
    # a one-term result has no estimate, so no tolerance makes it ok
    F = Functional.ext_renyi(1, 400.0, 1.0, 1.0, 2.0)
    res = evaluate_asymptotic(F, tol_rel=TOL_MAX)
    assert res.error_estimate is None and res.status == "low_confidence"


def test_near_symmetric_flag():
    F = Functional.geg_renyi(1, 50.0, 0.0, 0.0, 1.0, 1.02, 2.0)
    assert evaluate_asymptotic(F).status == "low_confidence"


def test_evaluate_asymptotic_dispatch():
    cases = [
        Functional.lag_renyi(1, 100.0, 2.0, 1.0, 2.0),
        Functional.lag_shannon(1, 100.0, 2.0, 1.0),
        Functional.geg_renyi(1, 100.0, 0.0, 0.0, 1.0, 2.0, 2.0),
        Functional.geg_shannon(1, 100.0, 0.0, 0.0, 1.0, 2.0),
        Functional.ext_renyi(1, 100.0, 1.0, 2.0, 2.0),
        Functional.ext_shannon(1, 100.0, 1.0, 2.0),
    ]
    for F in cases:
        res = evaluate_asymptotic(F)
        assert isinstance(res, ExpansionResult)
        assert res.value.sign != 0


def test_evaluators_share_one_signature():
    # one evaluator per family serves both of its kinds
    families = set(_EVALUATORS.values())
    assert len(families) == 3
    for fn in families:
        params = list(inspect.signature(fn).parameters.values())
        assert [p.name for p in params] == ["F", "K"], fn
        assert params[1].default is None, fn


# The three ladder prefactors as the evaluators once wrote them, kappa spread
# through each sum, and each family's ell = 2 d log P / d kappa written out
# by hand.  The evaluators now give log P as log_rest + kappa slope, with
# ell = 2 slope.
def _ref_lag_prefactor_log(F):
    m, alpha, kappa = F.m, F.alpha, F.kappa
    return (kappa * m * math.log(alpha) + math.lgamma(F.mu)
            - F.mu * math.log(F.lam) - kappa * math.lgamma(m + 1))


def _ref_geg_prefactor_log(F):
    m, alpha, c, d, kappa = F.m, F.alpha, F.c, F.d, F.kappa
    phase_min = (-c * math.log(2.0 * c / (c + d))
                 - d * math.log(2.0 * d / (c + d)))
    return (-alpha * phase_min + 0.5 * math.log(2.0 * math.pi / alpha)
            + kappa * m * math.log(2.0) + kappa * pochhammer(alpha, m).log_abs
            - kappa * math.lgamma(m + 1))


def _ref_ext_prefactor_log(F):
    m, alpha, sigma, lam, kappa = F.m, F.alpha, F.sigma, F.lam, F.kappa
    return ((alpha + sigma) * math.log(alpha) - alpha
            - (alpha + sigma + kappa * m) * math.log(lam)
            + kappa * m * math.log(abs(lam - 1.0))
            + 0.5 * math.log(2.0 * math.pi / alpha)
            + kappa * m * math.log(alpha) - kappa * math.lgamma(m + 1))


def _ref_lag_ell(F):
    return 2 * F.m * math.log(F.alpha) - 2.0 * math.lgamma(F.m + 1)


_PREFACTORS = {
    "lag_renyi": (lambda m, alpha, kappa:
                  Functional.lag_renyi(m, alpha, 2.5, 1.5, kappa),
                  _ref_lag_prefactor_log, _ref_lag_ell),
    "geg_renyi": (lambda m, alpha, kappa:
                  Functional.geg_renyi(m, alpha, -0.5, 0.5, 1.0, 3.0, kappa),
                  _ref_geg_prefactor_log,
                  lambda F: (2 * F.m * math.log(2.0)
                             + 2.0 * pochhammer(F.alpha, F.m).log_abs
                             - 2.0 * math.lgamma(F.m + 1))),
    "ext_renyi": (lambda m, alpha, kappa:
                  Functional.ext_renyi(m, alpha, 1.0, 2.0, kappa),
                  _ref_ext_prefactor_log,
                  lambda F: (2.0 * F.m * (math.log(F.alpha)
                                          + math.log(abs(F.lam - 1.0))
                                          - math.log(F.lam))
                             - 2.0 * math.lgamma(F.m + 1))),
}


@pytest.mark.parametrize("alpha", [200.0, 2e4])
@pytest.mark.parametrize("m", [1, 3, 8])
@pytest.mark.parametrize("family", sorted(_PREFACTORS))
def test_ladder_prefactor_is_linear_in_kappa(family, m, alpha):
    # log P(kappa) is today's prefactor to rounding, and its kappa-slope is
    # ell / 2, the factor the Shannon terms take
    make, ref_log, ref_ell = _PREFACTORS[family]
    logs = {}
    for kappa in (0.5, 2.0, 3.7):
        F = make(m, alpha, kappa)
        logs[kappa] = evaluate_asymptotic(F, 0).prefactor.log_abs
        want = ref_log(F)
        assert abs(logs[kappa] - want) <= 4 * math.ulp(max(abs(want), 1.0))
    slope = (logs[3.7] - logs[0.5]) / 3.2
    assert slope == pytest.approx(ref_ell(F) / 2, rel=1e-12, abs=0)


@pytest.mark.parametrize("alpha", [200.0, 2e4])
@pytest.mark.parametrize("m", [1, 3, 8])
def test_laguerre_shannon_leading_term_is_ell(m, alpha):
    # C_0 = 1 with dC_0/dkappa = 0, so the K = 0 Shannon term is ell itself
    F = Functional.lag_shannon(m, alpha, 2.5, 1.5)
    assert evaluate_asymptotic(F, 0).terms == (_ref_lag_ell(F),)


def test_explicit_K_keeps_every_term():
    # K = None truncates the Renyi ladders optimally; an explicit K keeps
    # K + 1 terms, through the evaluator and the front door alike
    F = Functional.lag_renyi(2, 150.0, 1.5, 2.0, 3.0)
    evaluate = _EVALUATORS[F.kind]
    for K in (0, 3, K_MAX):
        res = evaluate(F, K)
        assert res.truncation_used == len(res.terms) == K + 1
        assert evaluate_asymptotic(F, K) == res
    assert evaluate_asymptotic(F) == evaluate(F)


def _bench_workloads():
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_error_estimate_is_first_dropped_term_over_kept_sum():
    # on asym deck 0 of seed 1 of the benchmark (all six kinds, every
    # branch): the first dropped term over the kept sum, else the last kept
    # term over it; 0 when every kept term is 0, None on a one-term result
    seen = dict.fromkeys(("dropped", "last_kept", "zero", "one_term"), 0)
    for _, F in _bench_workloads().asym_deck(1, 0):
        res = evaluate_asymptotic(F)
        used, terms = res.truncation_used, res.terms
        kept = terms[:used]
        if not any(kept):
            case, want = "zero", 0.0
        elif used < len(terms):
            case, want = "dropped", abs(terms[used] / math.fsum(kept))
        elif used >= 2:
            case, want = "last_kept", abs(kept[-1] / math.fsum(kept))
        else:
            case, want = "one_term", None
        assert res.error_estimate == want, F
        seen[case] += 1
    assert all(seen.values()), seen


@pytest.mark.parametrize("F", [
    Functional.lag_renyi(2, 400.0, 2.5, 1.0, 2.0),
    Functional.gegenbauer_weight_shannon(2, 80.0),  # the oracle fallback
], ids=["watson", "oracle_only"])
@pytest.mark.parametrize("tol", [1e-3, TOL_MIN / 2, math.nan])
def test_evaluate_asymptotic_validates_tol(F, tol):
    with pytest.raises(ValueError, match="tol_rel must lie in"):
        evaluate_asymptotic(F, tol_rel=tol)


@pytest.mark.parametrize("F", [
    Functional.lag_renyi(2, 400.0, 2.5, 1.0, 2.0),
    Functional.gegenbauer_weight_shannon(2, 80.0),  # the oracle fallback
], ids=["watson", "oracle_only"])
@pytest.mark.parametrize("K", [-3, K_MAX + 1, 99])
def test_evaluate_asymptotic_validates_K(F, K):
    with pytest.raises(ValueError, match=rf"K must lie in \[0, {K_MAX}\], got {K}"):
        evaluate_asymptotic(F, K)


@pytest.mark.parametrize("F", [
    # log Gamma(mu) is past double range
    Functional.lag_renyi(2, 1e308, 1e308, 1.0, 2.0),
    Functional.lag_shannon(2, 1e308, 1e308, 1.5),
    Functional.lag_renyi(20, 1e200, 1e308, 1.0, 2.0),
    # the weight peaks at e^(686 alpha) for c = 1, d = 1000
    Functional.geg_renyi(2, 1e308, 0.0, 0.0, 1.0, 1000.0, 2.0),
    # log Gamma(alpha + sigma) is past double range, on the ladder and on the
    # lambda = 1 Hermite limit: a named error, not an infinite log|I|
    Functional.ext_renyi(2, 1e308, 1.0, 2.0, 2.0),
    Functional.ext_renyi(2, 1e307, 1.0, 1.0, 2.0),
], ids=["lag_renyi", "lag_shannon", "lag_renyi_m20", "geg_renyi", "ext_renyi",
        "ext_renyi_lam1"])
def test_overflow_names_alpha_and_m(F):
    # each input's log|I| overflows double precision
    where = re.escape(f"alpha = {F.alpha!r}, m = {F.m}")
    with pytest.raises(OverflowError, match=f"overflows double precision at {where}"):
        evaluate_asymptotic(F)


_HUGE_ALPHA_GRID = [10.0 ** k for k in range(2, 301, 2)] + [1e308, 1e23]


def _huge_alpha_inputs(m, alpha):
    """One asymmetric input of each kind (c != d, lambda != 1 on the
    extended family); the Renyi ones are the lag24, geg22 and more15
    closed-form choices."""
    return (Functional.lag_renyi(m, alpha, 2.5, 1.0, 2.0),
            Functional.lag_shannon(m, alpha, 2.5, 1.5),
            Functional.geg_renyi(m, alpha, -0.5, 2 * m - 1.5, 1.0, 3.0, 2.0),
            Functional.geg_shannon(m, alpha, -0.5, 4.5, 1.0, 3.0),
            Functional.ext_renyi(m, alpha, 1.0, 2.0, 2.0),
            Functional.ext_shannon(m, alpha, 1.0, 2.0))


def _mp_closed_log(mp, F):
    """log|I| of the lag24, geg22 or more15 closed form in mpmath."""
    m, a, half = F.m, mp.mpf(F.alpha), mp.mpf(1) / 2
    if F.kind.name == "LAG_RENYI":
        mu = mp.mpf(F.mu)
        h = mp.hyper([-m, mu, mu - a], [a + 1, mu - a - m], 1)
        return mp.log(abs(mp.gamma(mu) * mp.rf(a + 1, m) * mp.rf(a + 1 - mu, m)
                          * h)) - 2 * mp.log(mp.factorial(m))
    if F.kind.name == "GEG_RENYI":
        return (mp.log(mp.pi) / 2 + mp.loggamma(a + 2 * m + half)
                + mp.loggamma(3 * a + 2 * m - half) - mp.loggamma(2 * a)
                - mp.loggamma(2 * a + 2 * m + half)
                - 2 * (m * mp.log(2) + mp.log(mp.factorial(m)))
                + mp.log(mp.rf(2 * a, 2 * m)) - 2 * mp.log(mp.rf(a + half, m)))
    lam = mp.mpf(F.lam)
    h = mp.hyper([-m, -m], [a + 1], 1 / (lam - 1) ** 2)
    return (mp.loggamma(a + 1) + 2 * m * mp.log(abs(lam - 1))
            - (2 * m + a + 1) * mp.log(lam) - 2 * mp.log(mp.factorial(m))
            + 2 * mp.log(mp.rf(a + 1, m)) + mp.log(h))


@pytest.mark.parametrize("alpha", _HUGE_ALPHA_GRID)
@pytest.mark.parametrize("m", [0, 1, 2, 3, 10, 20])
def test_watson_ladder_past_the_overflow_of_alpha_powers(m, alpha):
    # Every ladder is built in units of alpha, so alpha^k (past double
    # precision from k = 14 at alpha = 1e23) is never formed and no input
    # whose log|I| is finite overflows, up to alpha = 1e308.  Only the
    # extended families reach an infinite log|I| on this grid: their
    # log Gamma(alpha + sigma) ~ alpha log alpha passes double range, and
    # that is the named OverflowError.  The one other refusal is the
    # extended ladder's small-alpha one (ROADMAP item 6).  From alpha = 1e4
    # the lag24, geg22 and more15 values are ok and within 4 ulps of log|I|
    # (of 1 below |log|I|| = 1) of the closed form in mpmath, whose working
    # precision must exceed log10(alpha) + 60 digits or alpha + 1 rounds
    # away.
    mp = pytest.importorskip("mpmath")
    for F in _huge_alpha_inputs(m, alpha):
        past_range = (F.kind.name.startswith("EXT")
                      and math.isinf(alpha * math.log(alpha))
                      and not (F.kind.is_shannon and m == 0))
        if past_range:
            where = re.escape(f"alpha = {alpha!r}, m = {m}")
            with pytest.raises(OverflowError,
                               match=f"overflows double precision at {where}"):
                evaluate_asymptotic(F)
            continue
        try:
            res = evaluate_asymptotic(F)
        except ValueError as exc:
            assert alpha <= 1e2 and "is too small" in str(exc), F
            continue
        value = res.value
        assert value.is_zero or math.isfinite(value.log_abs), F
        if F.kind.is_shannon or alpha < 1e4:
            continue
        with mp.workdps(int(math.log10(alpha)) + 60):
            ref = float(_mp_closed_log(mp, F))
        assert res.status == "ok", F
        assert abs(value.log_abs - ref) <= 4 * math.ulp(max(abs(ref), 1.0)), F


@pytest.mark.parametrize("F", [
    Functional.geg_renyi(3, 1e50, -0.5, 4.5, 1.0, 3.0, 2.0),
    Functional.geg_shannon(3, 1e50, -0.5, 4.5, 1.0, 3.0),
    Functional.ext_renyi(3, 1e50, 1.0, 2.0, 2.0),
], ids=["geg_renyi", "geg_shannon", "ext_renyi"])
def test_laplace_ladders_past_the_overflow_of_alpha_powers(F):
    # every term past k = 1 is below 1e-99 of the first, so the full ladder
    # is its own K = 1 truncation
    full, one = evaluate_asymptotic(F), evaluate_asymptotic(F, K=1)
    assert full.status == "ok"
    assert full.value.rel_diff(one.value) <= 1e-15


@pytest.mark.parametrize("F", [
    *_bench_workloads().ROADMAP_ITEM4,
    # a K_MAX Watson ladder 4.3e-2 and 5.2e-3 off the oracle
    Functional.lag_renyi(8, 314.27, 3.588, 0.741, 3.739),
    Functional.lag_renyi(5, 288.45, 1.577, 0.474, 3.520),
], ids=["ext_renyi_lam1.1", "ext_shannon_lam_near1", "geg_shannon_cd_near1",
        "watson_m8_a314", "watson_m5_a288"])
def test_pinned_low_confidence(F):
    # results far off their reference; tests/test_routing.py pins the
    # one-term results (no estimate) as low_confidence too
    assert evaluate_asymptotic(F).status == "low_confidence"


def _often(draw, special, general):
    """``special`` one draw in four, else a draw from ``general``."""
    return special if draw(st.integers(0, 3)) == 0 else draw(general)


@st.composite
def _functionals(draw):
    """Any kind, m <= 8, alpha in [50, 1e4]; kappa = 2, lam = 1 and
    c = d = 1 come up often enough to reach every branch."""
    m = draw(st.integers(0, 8))
    alpha = math.exp(draw(st.floats(math.log(50.0), math.log(1.0e4))))
    kappa = _often(draw, 2.0, st.floats(0.5, 4.0))
    lam = _often(draw, 1.0, st.floats(0.3, 3.0))
    c, d = _often(draw, (1.0, 1.0),
                  st.tuples(st.floats(0.5, 3.0), st.floats(0.5, 3.0)))
    a, b = draw(st.floats(-0.5, 1.5)), draw(st.floats(-0.5, 1.5))
    mu, sigma = draw(st.floats(0.5, 6.0)), draw(st.floats(0.5, 3.0))
    return draw(st.sampled_from((
        Functional.lag_renyi(m, alpha, mu, lam, kappa),
        Functional.lag_shannon(m, alpha, mu, lam),
        Functional.geg_renyi(m, alpha, a, b, c, d, kappa),
        Functional.geg_shannon(m, alpha, a, b, c, d),
        Functional.ext_renyi(m, alpha, sigma, lam, kappa),
        Functional.ext_shannon(m, alpha, sigma, lam))))


@settings(derandomize=True, deadline=None, max_examples=300)
@given(F=_functionals(), tol=st.sampled_from((1e-6, 1e-8, 1e-10)))
def test_ok_agrees_with_reference(F, tol):
    # the status contract: an ok result is within 10 tol_rel of the closed
    # form or the 1e-12 oracle
    try:
        res = evaluate_asymptotic(F, tol_rel=tol)
    except ValueError:  # no expansion applies (lam near 1, or c = d != 1)
        return
    if res.status != "ok":
        return
    try:
        ref = closed_form_value(F)
    except ValueError:
        try:
            ref = integrate_functional(F, 1e-12).value
        except QuadratureError:
            return
    assert res.value.rel_diff(ref) <= 10 * tol


def test_geg_order_of_accuracy():
    # K-term partial sums of the interior-saddle ladder gain one power per
    # retained term: the error ratio per doubling sits in [2^(K+0.1), 2^(K+1.9)]
    for K in (1, 2):
        rs = []
        for alpha in (200.0, 400.0):
            F = Functional.geg_renyi(2, alpha, -0.5, 2.5, 1.0, 3.0, 2.0)
            est = evaluate_asymptotic(F, K=K).value
            ref = integrate_functional(F, 1e-12).value
            rs.append(est.rel_diff(ref))
        assert 2.0 ** (K + 0.1) <= rs[0] / rs[1] <= 2.0 ** (K + 1.9), (K, rs)


def test_partial_sums_monotone_refinement():
    F = Functional.lag_renyi(2, 150.0, 1.5, 2.0, 3.0)
    res = evaluate_asymptotic(F, K=4)
    ref = integrate_functional(F, 1e-12).value
    devs = [ps.rel_diff(ref) for ps in res.partial_sums[:res.truncation_used]]
    for i in range(len(devs) - 1):
        assert devs[i + 1] <= devs[i] * 1.0001


# ---------------------------------------------------------------------------
# Hermite-form polynomial evaluations
# ---------------------------------------------------------------------------

def test_hermite_type_gegenbauer_m0():
    assert hermite_type_gegenbauer(0, 1e4, 1.0) == 1.0


def test_hermite_type_gegenbauer_center_even():
    # the even-degree value at the origin reproduces the rising-factorial
    # ratio prod(1 + j/alpha) through two terms
    alpha = 1e6
    for n in (1, 2, 3):
        approx = hermite_type_gegenbauer(2 * n, alpha, 0.0, orders=1)
        exact_ratio = math.prod(1.0 + j / alpha for j in range(n))
        h0 = (-1.0) ** n * math.factorial(2 * n) / math.factorial(n)
        expect = alpha ** n / math.factorial(2 * n) * h0 * exact_ratio
        assert approx == pytest.approx(expect, rel=1e-10)


def test_hermite_type_gegenbauer_decay():
    m, x = 3, 1.0
    errs = []
    for alpha in (1e4, 2e4):
        approx = hermite_type_gegenbauer(m, alpha, x, orders=1)
        exact = gegenbauer_value(m, alpha, x / math.sqrt(alpha))
        errs.append(abs(approx / exact - 1.0))
    assert errs[0] <= 1e-6
    assert 3.0 <= errs[0] / errs[1] <= 5.0


def test_hermite_type_laguerre_values():
    assert hermite_type_laguerre(0, 1e4, 1.001) == 1.0
    # degree one at the scaling center is exact: L_1^(a)(a) = 1
    assert hermite_type_laguerre(1, 1e4, 1.0, orders=1) == pytest.approx(1.0)


def test_hermite_type_laguerre_decay():
    m, x = 2, 1.01
    errs = []
    for alpha in (1e4, 2e4):
        approx = hermite_type_laguerre(m, alpha, x, orders=1)
        exact = laguerre_value(m, alpha, alpha * x)
        errs.append(abs(approx / exact - 1.0))
    assert errs[0] <= 1e-5


def test_hermite_type_laguerre_bounded_argument_guard():
    with pytest.raises(ValueError):
        hermite_type_laguerre(2, 1e4, 1.2)
    with pytest.raises(ValueError):
        hermite_type_gegenbauer(2, 1e4, 5.0)


# ---------------------------------------------------------------------------
# closed-form dispatch
# ---------------------------------------------------------------------------

def test_closed_form_dispatch():
    F = Functional.ext_renyi(1, 100.0, 1.0, 1.0, 2.0)
    v = closed_form_value(F)
    assert v.log_abs == pytest.approx(log_gamma(102.0), rel=1e-15)
    with pytest.raises(ValueError):
        closed_form_value(Functional.lag_renyi(1, 100.0, 2.0, 1.5, 2.0))
    assert closed_form_value(Functional.lag_shannon(0, 9.0, 1.0, 1.0)).is_zero
