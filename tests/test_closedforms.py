import math

import pytest

from entrofun.closedforms import (HyperTerm, geg22_value, geg31_value,
                                  hyper_terminating, lag24_value, log_gamma,
                                  more15_value, more24_value, pochhammer)
from entrofun.logvalue import LogValue


def test_log_gamma_basic():
    assert log_gamma(1.0) == 0.0
    assert log_gamma(5.0) == pytest.approx(math.log(24.0))
    with pytest.raises(ValueError):
        log_gamma(0.0)


def test_pochhammer_values():
    assert pochhammer(3.7, 0).to_float() == 1.0
    assert pochhammer(-3.0, 5).is_zero
    assert pochhammer(20.0, 2).to_float() == pytest.approx(420.0)
    # negative start, no zero crossing: (-2.5)(-1.5)(-0.5) = -1.875
    v = pochhammer(-2.5, 3)
    assert v.sign == -1
    assert v.to_float() == pytest.approx(-1.875)


def test_pochhammer_recurrence():
    a = 7.3
    for n in range(0, 40):
        lhs = pochhammer(a, n + 1)
        rhs = pochhammer(a, n).scaled(a + n)
        assert lhs.rel_diff(rhs) <= 1e-14


def test_hyper_degenerate_numerator():
    v = hyper_terminating(HyperTerm((0.0, 2.0), (3.0,), 0.7))
    assert v.to_float() == 1.0


def test_hyper_two_term():
    # 2F1(-m, -m; alpha+1; z) at m=1 is 1 + z/(alpha+1)
    alpha, z = 10.0, 0.4
    v = hyper_terminating(HyperTerm((-1.0, -1.0), (alpha + 1.0,), z))
    assert v.to_float() == pytest.approx(1.0 + z / (alpha + 1.0), rel=1e-15)


def test_hyper_parameter_permutation_invariance():
    h1 = HyperTerm((-3.0, 2.5, 1.25), (4.0, 7.5), 0.9)
    h2 = HyperTerm((2.5, -3.0, 1.25), (7.5, 4.0), 0.9)
    assert hyper_terminating(h1).rel_diff(hyper_terminating(h2)) <= 1e-15


def test_hyper_nonterminating_rejected():
    with pytest.raises(ValueError):
        hyper_terminating(HyperTerm((0.5, 2.0), (3.0,), 1.0))


def test_hyper_lower_pole_rejected():
    with pytest.raises(ValueError):
        hyper_terminating(HyperTerm((-5.0,), (-2.0,), 1.0))


# ---------------------------------------------------------------------------
# integral closed forms
# ---------------------------------------------------------------------------

def test_lag24_m0():
    for mu in (1.0, 2.0, 3.5):
        assert lag24_value(0, 30.0, mu).rel_diff(
            LogValue.from_log(log_gamma(mu))) <= 1e-14


def test_lag24_hand_expanded_m1():
    # m=1, mu=2, alpha=10: Gamma(2)(11)(9)[1 + (-1)(2)(-8)/(11*(-9))]
    m, alpha, mu = 1, 10.0, 2.0
    f = 1.0 + (-1.0) * mu * (mu - alpha) / ((alpha + 1.0) * (mu - alpha - m))
    expect = (alpha + 1.0) * (alpha + 1.0 - mu) * f
    assert lag24_value(m, alpha, mu).to_float() == pytest.approx(expect, rel=1e-14)


def test_lag24_degenerate_rejected():
    # mu - alpha - m = -1 hits the pole inside the m+2-term reach
    with pytest.raises(ValueError):
        lag24_value(3, 2.0, 4.0)


def test_lag24_overflowing_terms_raise():
    # the 3F2 term ratio is inf / -inf at alpha = 1e308: a named overflow,
    # not a NaN handed to LogValue
    with pytest.raises(OverflowError, match="terminating series term"):
        lag24_value(2, 1e308, 2.5)


def test_more24_m0():
    assert more24_value(0, 17.0).rel_diff(
        LogValue.from_log(log_gamma(18.0))) <= 1e-15


def test_geg31_form():
    m, alpha = 3, 25.0
    poch = pochhammer(2 * alpha, m)
    expect = poch.scaled(math.sqrt(math.pi) / math.factorial(m)) \
        * LogValue.from_log(log_gamma(alpha - 0.5) - log_gamma(alpha))
    assert geg31_value(m, alpha).rel_diff(expect) <= 1e-14
    with pytest.raises(ValueError):
        geg31_value(1, 0.4)


def test_geg22_m0_is_beta_integral():
    # reduces to 2^(4a-1) B(a+1/2, 3a-1/2) by the duplication formula
    alpha = 12.0
    log_beta = (log_gamma(alpha + 0.5) + log_gamma(3 * alpha - 0.5)
                - log_gamma(4 * alpha))
    expect = LogValue.from_log((4 * alpha - 1.0) * math.log(2.0) + log_beta)
    assert geg22_value(0, alpha).rel_diff(expect) <= 1e-13


def test_more15_lambda_one_rejected():
    with pytest.raises(ValueError):
        more15_value(2, 10.0, 1.0)


def test_more15_rejects_lambda_at_the_routing_tolerance_of_1():
    # lambda within 1e-12 of 1 routes to more24_value; here the 2F0
    # argument would be 1 / (lambda - 1)^2 ~ 1e28
    with pytest.raises(ValueError, match="lambda != 1"):
        more15_value(2, 10.0, 1.0 + 1e-14)


def test_more15_m0():
    alpha, lam = 20.0, 2.0
    expect = LogValue.from_log(log_gamma(alpha + 1.0)
                               - (alpha + 1.0) * math.log(lam))
    assert more15_value(0, alpha, lam).rel_diff(expect) <= 1e-14
