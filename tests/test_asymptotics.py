import math

import pytest

from entrofun.asymptotics import (ExpansionResult, closed_form_value,
                                  evaluate_asymptotic, ext_renyi_laguerre_asym,
                                  ext_shannon_laguerre_asym,
                                  hermite_type_gegenbauer,
                                  hermite_type_laguerre, optimal_truncation,
                                  renyi_gegenbauer_asym, renyi_laguerre_asym,
                                  shannon_gegenbauer_asym,
                                  shannon_laguerre_asym)
from entrofun.closedforms import (geg31_value, lag24_value, log_gamma,
                                  more15_value, more24_value)
from entrofun.coeffs import ext_lag_D, lag_D
from entrofun.functional import Functional
from entrofun.logvalue import LogValue
from entrofun.oracle import integrate_functional
from entrofun.orthopoly import gegenbauer_value, laguerre_value


def test_optimal_truncation():
    assert optimal_truncation([1.0, 0.1, 0.01, 0.5]) == 3
    assert optimal_truncation([1.0]) == 1
    assert optimal_truncation([8.0, 4.0, 2.0, 1.0]) == 4
    with pytest.raises(ValueError):
        optimal_truncation([])


def test_partial_sum_invariant():
    F = Functional.lag_renyi(2, 150.0, 2.0, 1.5, 2.5)
    res = renyi_laguerre_asym(F, K=4)
    for k in range(len(res.terms)):
        expect = res.prefactor.scaled(math.fsum(res.terms[:k + 1]))
        assert res.partial_sums[k].rel_diff(expect) <= 1e-14
    assert res.truncation_used <= len(res.terms)


# ---------------------------------------------------------------------------
# plain Laguerre family
# ---------------------------------------------------------------------------

def test_renyi_laguerre_m0_prefactor_exact():
    F = Functional.lag_renyi(0, 77.0, 2.3, 1.4, 1.9)
    res = renyi_laguerre_asym(F)
    expect = LogValue.from_log(log_gamma(2.3) - 2.3 * math.log(1.4))
    assert res.prefactor.rel_diff(expect) <= 1e-13
    assert all(t == 0.0 for t in res.terms[1:])
    assert res.value.rel_diff(expect) <= 1e-13


def test_renyi_laguerre_two_terms_vs_closed():
    F = Functional.lag_renyi(2, 200.0, 2.5, 1.0, 2.0)
    res = renyi_laguerre_asym(F, K=2, force_truncation=True)
    assert res.value.rel_diff(lag24_value(2, 200.0, 2.5)) <= 5e-5
    assert res.branch == "watson"


def test_renyi_laguerre_term_matches_printed_ladder():
    # the first grouped term approaches D_1/alpha as alpha grows
    m, kappa, lam, mu = 2, 2.5, 1.3, 1.8
    d1 = lag_D(1, mu, lam, kappa, m)
    for alpha in (1e5, 2e5):
        F = Functional.lag_renyi(m, alpha, mu, lam, kappa)
        res = renyi_laguerre_asym(F, K=1)
        assert res.terms[1] * alpha == pytest.approx(d1, rel=2e-4)


def test_shannon_laguerre_m0_zero():
    F = Functional.lag_shannon(0, 120.0, 2.0, 1.0)
    res = shannon_laguerre_asym(F)
    assert res.value.is_zero


def test_shannon_laguerre_routes_agree():
    for (m, lam, mu) in [(1, 1.0, 2.0), (2, 2.0, 1.5)]:
        F = Functional.lag_shannon(m, 500.0, mu, lam)
        a = shannon_laguerre_asym(F, K=2, route="analytic")
        b = shannon_laguerre_asym(F, K=2, route="fd")
        assert a.value.rel_diff(b.value) <= 1e-6


def test_shannon_laguerre_log_factor_structure():
    # leading term is log(alpha^(2m)/(m!)^2) times the unit coefficient
    m, alpha = 2, 400.0
    F = Functional.lag_shannon(m, alpha, 2.0, 1.0)
    res = shannon_laguerre_asym(F, K=0, route="analytic")
    ell = 2 * m * math.log(alpha) - 2 * math.lgamma(m + 1)
    assert res.terms[0] == pytest.approx(ell, rel=1e-13)


def test_shannon_laguerre_error_decreases():
    m, lam, mu = 1, 1.0, 2.0
    errs = []
    for alpha in (200.0, 400.0, 800.0):
        F = Functional.lag_shannon(m, alpha, mu, lam)
        est = shannon_laguerre_asym(F, K=2).value
        ref = integrate_functional(F, 1e-11).value
        errs.append(est.rel_diff(ref))
    assert errs[0] > errs[1] > errs[2]


# ---------------------------------------------------------------------------
# Gegenbauer family
# ---------------------------------------------------------------------------

def test_renyi_gegenbauer_m0_matches_beta_integral():
    F = Functional.geg_renyi(0, 400.0, 0.3, -0.2, 1.0, 2.5, 2.0)
    exact = closed_form_value(F)
    res = renyi_gegenbauer_asym(F, K=3)
    assert res.value.rel_diff(exact) <= 1e-8
    dev_lead = renyi_gegenbauer_asym(F, K=0).value.rel_diff(exact)
    F2 = Functional.geg_renyi(0, 800.0, 0.3, -0.2, 1.0, 2.5, 2.0)
    dev_lead_2 = renyi_gegenbauer_asym(F2, K=0).value.rel_diff(
        closed_form_value(F2))
    assert 1.6 <= dev_lead / dev_lead_2 <= 2.5


def test_renyi_gegenbauer_leading_order_special_case():
    # the first-order value for the weighted special case, including the
    # extra sqrt(2) relative to the misprinted reduction
    m, alpha = 2, 300.0
    F = Functional.geg_renyi(m, alpha, -0.5, 2 * m - 1.5, 1.0, 3.0, 2.0)
    lead = renyi_gegenbauer_asym(F, K=0).value
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
    r1 = renyi_gegenbauer_asym(F1, K=3)
    r2 = renyi_gegenbauer_asym(F2, K=3)
    assert r1.value.rel_diff(r2.value) <= 1e-13
    assert r2.branch == "laplace_swapped"


def test_renyi_gegenbauer_symmetric_two_term():
    for m in (1, 3):
        for alpha in (150.0, 300.0):
            F = Functional.geg_renyi(m, alpha, -0.5, -1.5, 1.0, 1.0, 2.0)
            res = renyi_gegenbauer_asym(F, K=1, force_truncation=True)
            assert res.branch == "symmetric_kappa2"
            assert res.value.rel_diff(geg31_value(m, alpha)) <= 40.0 / alpha ** 2


def test_renyi_gegenbauer_symmetric_general_kappa():
    F = Functional.geg_renyi(2, 200.0, -0.5, -1.5, 1.0, 1.0, 3.0)
    res = renyi_gegenbauer_asym(F)
    assert res.branch == "symmetric_hermite_leading"
    ref = integrate_functional(F, 1e-10).value
    assert res.value.rel_diff(ref) <= 10.0 / 200.0


def test_renyi_gegenbauer_rejects_general_symmetric_weights():
    F = Functional.geg_renyi(1, 100.0, 0.0, 0.0, 2.0, 2.0, 2.0)
    with pytest.raises(ValueError):
        renyi_gegenbauer_asym(F)


def test_shannon_gegenbauer_no_expansion_routing():
    F = Functional.gegenbauer_weight_shannon(2, 80.0)
    res = shannon_gegenbauer_asym(F, tol_rel=1e-10)
    assert res.status == "no_expansion"
    assert res.oracle_fallback is not None
    ref = integrate_functional(F, 1e-11).value
    assert res.value.rel_diff(ref) <= 1e-9


def test_shannon_gegenbauer_m0_zero():
    F = Functional.geg_shannon(0, 100.0, 0.1, 0.2, 1.0, 2.0)
    assert shannon_gegenbauer_asym(F).value.is_zero


def test_shannon_gegenbauer_fd_matches_analytic_leading():
    F = Functional.geg_shannon(1, 500.0, 0.2, -0.3, 1.0, 3.0)
    fd = shannon_gegenbauer_asym(F, K=0, route="fd")
    an = shannon_gegenbauer_asym(F, K=0, route="analytic")
    assert fd.value.rel_diff(an.value) <= 1e-6


def test_shannon_gegenbauer_analytic_rejects_positive_K():
    # the printed route has the leading term only
    F = Functional.geg_shannon(1, 500.0, 0.2, -0.3, 1.0, 3.0)
    with pytest.raises(ValueError, match=r"\[0, 0\]"):
        shannon_gegenbauer_asym(F, K=1, route="analytic")


# ---------------------------------------------------------------------------
# extended Laguerre family
# ---------------------------------------------------------------------------

def test_ext_renyi_m0_matches_stirling():
    F = Functional.ext_renyi(0, 500.0, 1.3, 2.0, 2.0)
    exact = LogValue.from_log(log_gamma(500.0 + 1.3)
                              - (500.0 + 1.3) * math.log(2.0))
    res = ext_renyi_laguerre_asym(F, K=3)
    assert res.value.rel_diff(exact) <= 1e-11


def test_ext_renyi_one_term_vs_closed():
    F = Functional.ext_renyi(1, 300.0, 1.0, 2.0, 2.0)
    res = ext_renyi_laguerre_asym(F, K=1, force_truncation=True)
    assert res.value.rel_diff(more15_value(1, 300.0, 2.0)) <= 1e-3
    assert res.branch == "laplace_lambda_ne1"


def test_ext_renyi_lambda1_ratio_to_closed():
    devs = []
    for alpha in (400.0, 800.0):
        F = Functional.ext_renyi(1, alpha, 1.0, 1.0, 2.0)
        lead = ext_renyi_laguerre_asym(F).value
        devs.append(abs(more24_value(1, alpha).rel_diff(lead)))
    assert 1.6 <= devs[0] / devs[1] <= 2.5


def test_ext_renyi_lambda1_general_kappa_vs_oracle():
    F = Functional.ext_renyi(2, 150.0, 0.7, 1.0, 1.5)
    res = ext_renyi_laguerre_asym(F)
    assert res.branch == "hermite_limit_power"
    ref = integrate_functional(F, 1e-9).value
    assert res.value.rel_diff(ref) <= 15.0 / 150.0


def test_ext_shannon_m0_zero():
    F = Functional.ext_shannon(0, 200.0, 1.0, 2.0)
    assert ext_shannon_laguerre_asym(F).value.is_zero


def test_ext_shannon_lambda1_no_expansion():
    F = Functional.ext_shannon(1, 60.0, 1.0, 1.0)
    res = ext_shannon_laguerre_asym(F, tol_rel=1e-10)
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
    an = ext_shannon_laguerre_asym(F, K=1, route="analytic")

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

    fd = ext_shannon_laguerre_asym(F, K=1, route="fd")
    assert an.value.rel_diff(fd.value) <= 5e-5
    ell = 2 * (math.log(400.0) + math.log(1.0) - math.log(2.0))
    assert an.terms[0] == pytest.approx(ell, rel=1e-12)


def test_ext_shannon_error_decreases():
    errs = []
    for alpha in (200.0, 400.0, 800.0):
        F = Functional.ext_shannon(2, alpha, 1.0, 2.0)
        est = ext_shannon_laguerre_asym(F, K=1).value
        ref = integrate_functional(F, 1e-11).value
        errs.append(est.rel_diff(ref))
    assert errs[0] > errs[1] > errs[2]


@pytest.mark.parametrize("F, evaluate", [
    (Functional.geg_shannon(4, 2000.0, -0.5, -0.5, 1.0, 3.0),
     evaluate_asymptotic),
    (Functional.ext_shannon(3, 1000.0, 1.0, 0.5),
     lambda F: ext_shannon_laguerre_asym(F, K=7, route="fd")),
    (Functional.lag_shannon(3, 400.0, 2.5, 1.5),
     lambda F: shannon_laguerre_asym(F, K=7, route="fd")),
], ids=["geg", "ext", "lag"])
def test_shannon_fd_route_matches_oracle(F, evaluate):
    # The fd routes difference only the dimensionless terms in kappa; the
    # prefactor's kappa-slope enters exactly, so no differencing error of
    # the exponential prefactor is left and the full ladders reach the
    # 1e-12 oracle.
    res = evaluate(F)
    assert res.branch.endswith("_fd")
    ref = integrate_functional(F, 1e-12).value
    assert res.value.rel_diff(ref) <= 2e-12


# ---------------------------------------------------------------------------
# routing, status flags, dispatch
# ---------------------------------------------------------------------------

def test_low_confidence_flag():
    F = Functional.lag_renyi(3, 15.0, 2.0, 1.0, 2.0)  # alpha < 10 kappa m
    assert renyi_laguerre_asym(F).status == "low_confidence"
    F = Functional.lag_renyi(3, 100.0, 2.0, 1.0, 2.0)
    assert renyi_laguerre_asym(F).status == "ok"


def test_near_symmetric_flag():
    F = Functional.geg_renyi(1, 50.0, 0.0, 0.0, 1.0, 1.02, 2.0)
    assert renyi_gegenbauer_asym(F).status == "low_confidence"


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


def test_geg_order_of_accuracy():
    # K-term partial sums of the interior-saddle ladder gain one power per
    # retained term: the error ratio per doubling sits in [2^(K+0.1), 2^(K+1.9)]
    for K in (1, 2):
        rs = []
        for alpha in (200.0, 400.0):
            F = Functional.geg_renyi(2, alpha, -0.5, 2.5, 1.0, 3.0, 2.0)
            est = renyi_gegenbauer_asym(F, K=K, force_truncation=True).value
            ref = integrate_functional(F, 1e-12).value
            rs.append(est.rel_diff(ref))
        assert 2.0 ** (K + 0.1) <= rs[0] / rs[1] <= 2.0 ** (K + 1.9), (K, rs)


def test_partial_sums_monotone_refinement():
    F = Functional.lag_renyi(2, 150.0, 1.5, 2.0, 3.0)
    res = renyi_laguerre_asym(F, K=4)
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
