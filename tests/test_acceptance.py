"""Acceptance suite: one test per exit criterion, each printing a pass/fail
line (run with ``pytest tests/test_acceptance.py -v -s`` to see the lines).

Every tolerance is fixed here; nothing is calibrated at runtime.
"""

import functools
import math

import numpy as np
import pytest

from entrofun import coeffs as cf
from entrofun.asymptotics import (K_MAX, evaluate_asymptotic,
                                  hermite_type_gegenbauer,
                                  hermite_type_laguerre)
from entrofun.closedforms import (geg22_value, geg31_value, lag24_value,
                                  more15_value, more24_value)
from entrofun.functional import Functional
from entrofun.logvalue import LogValue
from entrofun.oracle import integrate_functional
from entrofun.orthopoly import (gegenbauer_value, hermite_value,
                                laguerre_value)
from entrofun.series import Series
from series_reference import series_compose, series_revert


def criterion(num, desc):
    def wrap(fn):
        @functools.wraps(fn)
        def run():
            try:
                fn()
            except BaseException:
                print(f"criterion {num:02d} FAIL: {desc}")
                raise
            print(f"criterion {num:02d} PASS: {desc}")
        return run
    return wrap


def _rel(value: LogValue, ref: LogValue) -> float:
    return value.rel_diff(ref)


@criterion(1, "oracle quadrature matches every closed form to 1e-10")
def test_criterion_01_closed_form_agreement():
    checked = 0
    for m in range(5):
        for alpha in (10.0, 30.0, 100.0):
            pairs = [
                (Functional.lag_renyi(m, alpha, 2.5, 1.0, 2.0),
                 lag24_value(m, alpha, 2.5)),
                (Functional.geg_renyi(m, alpha, -0.5, 2 * m - 1.5, 1.0, 3.0, 2.0),
                 geg22_value(m, alpha)),
                (Functional.geg_renyi(m, alpha, -0.5, -1.5, 1.0, 1.0, 2.0),
                 geg31_value(m, alpha)),
                (Functional.ext_renyi(m, alpha, 1.0, 0.5, 2.0),
                 more15_value(m, alpha, 0.5)),
                (Functional.ext_renyi(m, alpha, 1.0, 2.0, 2.0),
                 more15_value(m, alpha, 2.0)),
                (Functional.ext_renyi(m, alpha, 1.0, 1.0, 2.0),
                 more24_value(m, alpha)),
            ]
            for F, ref in pairs:
                q = integrate_functional(F, 1e-10)
                assert _rel(q.value, ref) <= 1e-10, (F.params_dict(),
                                                     _rel(q.value, ref))
                checked += 1
    assert checked == 90


@criterion(2, "two-correction Watson sums gain a cubic order per doubling")
def test_criterion_02_watson_order():
    for (m, kappa, lam, mu) in [(1, 2.0, 1.0, 2.5), (2, 3.0, 2.0, 1.5),
                                (3, 0.5, 1.0, 3.0)]:
        rs = []
        for alpha in (400.0, 800.0):
            F = Functional.lag_renyi(m, alpha, mu, lam, kappa)
            est = evaluate_asymptotic(F, K=2).value
            ref = integrate_functional(F, 1e-12).value
            rs.append(_rel(est, ref))
        if max(rs) < 1e-11:
            # integer kappa*m makes the ladder terminate: the truncated sum
            # is exact and the decay ratio is below quadrature noise
            continue
        assert 4.3 <= rs[0] / rs[1] <= 14.0, (m, kappa, lam, mu, rs)


@criterion(3, "Richardson extraction recovers the first ladder coefficient "
              "within 1%")
def test_criterion_03_d1_extraction():
    for (m, kappa, lam, mu) in [(1, 2.0, 1.0, 2.5), (2, 3.0, 2.0, 1.5),
                                (3, 0.5, 1.0, 3.0)]:
        es = []
        for alpha in (400.0, 800.0):
            F = Functional.lag_renyi(m, alpha, mu, lam, kappa)
            lead = evaluate_asymptotic(F, K=0).value
            ref = integrate_functional(F, 1e-12).value
            es.append(alpha * ((ref / lead).to_float() - 1.0))
        extracted = 2 * es[1] - es[0]
        printed = cf.lag_D(1, mu, lam, kappa, m)
        assert abs(extracted - printed) <= 0.01 * abs(printed)


@criterion(4, "both printed second-coefficient forms agree exactly")
def test_criterion_04_example_one_coherence():
    for m in range(1, 6):
        for mu in (0.7, 1.8, 2.5, 3.4):
            general = cf.lag_D(2, mu, 1.0, 2.0, m)
            special = (m / 6.0) * (-1 + 6 * mu - 6 * mu ** 2
                                   + 12 * mu ** 2 * m - 12 * m ** 2 * mu
                                   + 4 * m ** 2 + 3 * m ** 3)
            assert abs(general - special) <= 1e-12 * max(1.0, abs(special))


@criterion(5, "weighted-case leading order approaches the closed form at "
              "rate 1/alpha")
def test_criterion_05_interior_saddle_leading():
    for m in (1, 2, 3):
        devs = []
        for alpha in (200.0, 400.0):
            F = Functional.geg_renyi(m, alpha, -0.5, 2 * m - 1.5, 1.0, 3.0, 2.0)
            lead = evaluate_asymptotic(F, K=0).value
            devs.append(_rel(geg22_value(m, alpha), lead))
        assert devs[0] <= 0.2
        assert 1.6 <= devs[0] / devs[1] <= 2.5, (m, devs)


@criterion(6, "symmetric two-term value deviates by at most 30/alpha^2")
def test_criterion_06_symmetric_two_term():
    for m in (1, 2, 3):
        for alpha in (100.0, 200.0, 400.0):
            F = Functional.geg_renyi(m, alpha, -0.5, -1.5, 1.0, 1.0, 2.0)
            est = evaluate_asymptotic(F, K=1).value
            dev = _rel(geg31_value(m, alpha), est)
            assert dev <= 30.0 / alpha ** 2, (m, alpha, dev)


@criterion(7, "one-correction extended-weight sums gain a square order per "
              "doubling")
def test_criterion_07_ext_order():
    for m in (1, 2):
        for lam in (0.5, 2.0):
            rs = []
            for alpha in (200.0, 400.0, 800.0):
                F = Functional.ext_renyi(m, alpha, 1.0, lam, 2.0)
                est = evaluate_asymptotic(F, K=1).value
                rs.append(_rel(est, more15_value(m, alpha, lam)))
            for i in (0, 1):
                assert 3.2 <= rs[i] / rs[i + 1] <= 5.0, (m, lam, rs)


@criterion(8, "Hermite-limit leading value approaches the Gamma closed form "
              "at rate 1/alpha")
def test_criterion_08_ext_lambda_one():
    for m in (1, 2, 3):
        devs = []
        for alpha in (400.0, 800.0):
            F = Functional.ext_renyi(m, alpha, 1.0, 1.0, 2.0)
            lead = evaluate_asymptotic(F).value
            devs.append(_rel(more24_value(m, alpha), lead))
        assert devs[0] <= 0.1
        assert 1.6 <= devs[0] / devs[1] <= 2.5, (m, devs)


_HERMITE_GRID = [-1.9, -1.45, -0.95, -0.35, 0.15, 0.65, 1.05, 1.55, 1.95]


@criterion(9, "one-correction Hermite-form evaluations shrink by ~4x per "
              "doubling; origin check holds to 1e-10")
def test_criterion_09_hermite_type():
    # grid in the (bounded) Hermite argument for both families
    for m in (2, 3, 4):
        worst_geg, worst_lag = [], []
        for alpha in (1e3, 2e3, 4e3):
            eg, el = [], []
            for s in _HERMITE_GRID:
                scale = alpha ** (m / 2) / math.factorial(m) \
                    * (1 + abs(hermite_value(m, s)))
                approx = hermite_type_gegenbauer(m, alpha, s, orders=1)
                exact = gegenbauer_value(m, alpha, s / math.sqrt(alpha))
                eg.append(abs(approx - exact) / scale)
                x = 1 + s * math.sqrt(2.0 / alpha)
                scale = (alpha / 2) ** (m / 2) / math.factorial(m) \
                    * (1 + abs(hermite_value(m, s)))
                approx = hermite_type_laguerre(m, alpha, x, orders=1)
                exact = laguerre_value(m, alpha, alpha * x)
                el.append(abs(approx - exact) / scale)
            worst_geg.append(max(eg))
            worst_lag.append(max(el))
        for worst in (worst_geg, worst_lag):
            if max(worst) < 1e-12:
                continue  # truncation is exact at this degree
            for i in (0, 1):
                assert 3.0 <= worst[i] / worst[i + 1] <= 5.0, (m, worst)
    # origin check for even degree: the two-term head reproduces the
    # rising-factorial ratio
    alpha = 1e6
    for n in (1, 2, 3):
        p, _ = cf.geg_hermite_coeffs(2 * n, 0.0)
        head = p[0] + p[1] / alpha
        ratio = math.prod(1.0 + j / alpha for j in range(n))
        assert abs(head - ratio) <= 1e-10


def _ext_D1_engine_exact(sigma, lam, kappa, m):
    """Alpha-free first coefficient from the Laplace amplitude.

    For integer kappa the amplitude ladder entries are polynomials in
    1/alpha, so a small Vandermonde solve recovers their coefficients to
    machine accuracy.
    """
    deg = int(kappa) * m + 2
    betas = np.array([1.0 / (30.0 + 10.0 * i) for i in range(deg + 1)])
    c0s, c2s = [], []
    for b in betas:
        amp = cf.ext_lag_amplitude(sigma, lam, kappa, m, 1.0 / b, order=4)
        c0s.append(amp.coeffs[0])
        c2s.append(amp.coeffs[2])
    vand = np.vander(betas, deg + 1, increasing=True)
    c0_poly = np.linalg.solve(vand, np.array(c0s))
    c2_poly = np.linalg.solve(vand, np.array(c2s))
    return c0_poly[1] + c2_poly[0]


@criterion(10, "series engine reproduces the printed saddle and ladder "
               "coefficients to 1e-10")
def test_criterion_10_series_engine():
    # reversion and composition residuals
    f = Series.from_coeffs([0.0, 1.3, -0.7, 0.4, 0.9, -0.2], order=12)
    g = series_revert(f)
    ident = series_compose(f, g)
    for k, c in enumerate(ident.coeffs):
        assert abs(c - (1.0 if k == 1 else 0.0)) <= 1e-12 * max(
            1.0, max(abs(v) for v in g.coeffs))
    # saddle coefficients of the weighted phase at (c, d) = (1, 3)
    _, s = cf.geg_saddle_x(1.0, 3.0, order=8)
    a1 = math.sqrt(3.0) / 4.0
    assert abs(s.coeffs[1] - a1) <= 1e-10
    assert abs(s.coeffs[2] - (-1.0 / 12.0)) <= 1e-10
    a3 = (1 - 33 + 9) / (9 * a1 * 4 ** 4)
    assert abs(s.coeffs[3] - a3) <= 1e-10
    # amplitude head coefficients against their closed forms
    for (a, b, c, d, kappa, m, j) in [(-0.5, 2.5, 1.0, 3.0, 2.0, 2, 0),
                                      (0.4, -0.3, 0.7, 2.1, 1.6, 1, 1)]:
        amp = cf.geg_laplace_c(j, a, b, c, d, kappa, m, order=6)
        a1 = 2 * math.sqrt(c * d / (c + d) ** 3)
        c0 = (a1 * (2 * c / (c + d)) ** a * (2 * d / (c + d)) ** b
              * ((d - c) / (c + d)) ** (kappa * m - 2 * j))
        c1 = (c0 * a1 * (c + d)
              * (6 * c * d * (kappa * m - 2 * j)
                 + (d - c) * (3 * b * c - 3 * a * d + 2 * c - 2 * d))
              / (6 * c * d * (d - c)))
        assert abs(amp.coeffs[0] - c0) <= 1e-10 * abs(c0)
        assert abs(amp.coeffs[1] - c1) <= 1e-10 * abs(c1)
    # exp-log phase saddle-map coefficients
    for lam in (0.5, 2.0):
        _, s = cf.ext_saddle_x(lam, order=8)
        expect = [1 / lam, 1 / (3 * lam), 1 / (36 * lam), -1 / (270 * lam),
                  1 / (4320 * lam)]
        for k, want in enumerate(expect, start=1):
            assert abs(s.coeffs[k] - want) <= 1e-10 * abs(want)
    # first extended-ladder coefficient, engine vs closed form
    for (sigma, lam, kappa, m) in [(1.0, 2.0, 2.0, 1), (0.5, 0.5, 2.0, 2),
                                   (2.0, 3.0, 1.0, 3), (1.5, 2.0, 3.0, 1)]:
        engine = _ext_D1_engine_exact(sigma, lam, kappa, m)
        printed = cf.ext_lag_D(1, sigma, lam, kappa, m)
        assert abs(engine - printed) <= 1e-10 * max(1.0, abs(printed))


@criterion(11, "Shannon evaluations match the kappa-difference construction "
               "at 1e-6 and converge to the oracle")
def test_criterion_11_shannon():
    h = 1e-4
    alpha = 500.0
    for m in (1, 2):
        # plain Laguerre family
        mu, lam = 2.0, 1.5
        F = Functional.lag_shannon(m, alpha, mu, lam)
        for K in (2, K_MAX):
            ladder = evaluate_asymptotic(F, K=K).value

            def renyi_trunc(kappa):
                return evaluate_asymptotic(
                    Functional.lag_renyi(m, alpha, mu, lam, kappa), K=K).value

            fd = (renyi_trunc(2.0 + h) - renyi_trunc(2.0 - h)) \
                * LogValue.from_float(1.0 / h)
            assert ladder.rel_diff(fd) <= 1e-6

        # extended family
        sigma, lam2 = 1.0, 2.0
        F5 = Functional.ext_shannon(m, alpha, sigma, lam2)
        analytic5 = evaluate_asymptotic(F5, K=1).value

        def ext_trunc(kappa):
            pref = ((alpha + sigma) * math.log(alpha) - alpha
                    - (alpha + sigma + kappa * m) * math.log(lam2)
                    + kappa * m * math.log(abs(lam2 - 1.0))
                    + 0.5 * math.log(2.0 * math.pi / alpha)
                    + kappa * m * math.log(alpha) - kappa * math.lgamma(m + 1))
            body = 1.0 + cf.ext_lag_D(1, sigma, lam2, kappa, m) / alpha
            return LogValue.from_log(pref).scaled(body)

        fd5 = (ext_trunc(2.0 + h) - ext_trunc(2.0 - h)) \
            * LogValue.from_float(1.0 / h)
        assert analytic5.rel_diff(fd5) <= 1e-6

    for m in (1, 2):
        errs_lag, errs_ext = [], []
        for a in (200.0, 400.0, 800.0):
            F = Functional.lag_shannon(m, a, 2.0, 1.5)
            est = evaluate_asymptotic(F, K=2).value
            errs_lag.append(_rel(est, integrate_functional(F, 1e-11).value))
            F5 = Functional.ext_shannon(m, a, 1.0, 2.0)
            est5 = evaluate_asymptotic(F5, K=1).value
            errs_ext.append(_rel(est5, integrate_functional(F5, 1e-11).value))
        assert errs_lag[0] > errs_lag[1] > errs_lag[2], (m, errs_lag)
        assert errs_ext[0] > errs_ext[1] > errs_ext[2], (m, errs_ext)


@criterion(12, "scaled polynomial limits halve per doubling of the parameter")
def test_criterion_12_limit_suite():
    alphas = [2.0 ** e for e in range(7, 14)]

    def ratios(diff_fn):
        diffs = [diff_fn(a) for a in alphas]
        return [diffs[i] / diffs[i + 1] for i in range(len(diffs) - 1)]

    for m in (1, 3, 5):
        for t in (0.2, 0.5, 2.0):
            for r in ratios(lambda a: abs(
                    a ** (-m) * laguerre_value(m, a, a * t)
                    - (1 - t) ** m / math.factorial(m))):
                assert 1.6 <= r <= 2.6, ("laguerre", m, t, r)
    for x in (0.3, 0.9):
        m = 4
        for r in ratios(lambda a: abs(
                gegenbauer_value(m, a, x)
                / math.prod(2 * a + k for k in range(m))
                - x ** m / math.factorial(m))):
            assert 1.6 <= r <= 2.6, ("gegenbauer", x, r)
    for x in (-2.0, -0.5, 1.0, 2.0):
        m = 3
        for r in ratios(lambda a: abs(
                a ** (-m / 2) * gegenbauer_value(m, a, x / math.sqrt(a))
                - hermite_value(m, x) / math.factorial(m))):
            assert 1.6 <= r <= 2.6, ("geg-hermite", x, r)
    # For the shifted Laguerre limit the factor-2 halving holds at the
    # scaling centre with even degree, where no half-power level survives;
    # at generic arguments the approach is O(1/sqrt(alpha)) (see the unit
    # suite), so the centre is where this rate statement is well posed.
    for m in (2, 4):
        for r in ratios(lambda a: abs(
                (2.0 / a) ** (m / 2) * laguerre_value(m, a, a)
                - (-1) ** m * hermite_value(m, 0.0) / math.factorial(m))):
            assert 1.6 <= r <= 2.6, ("lag-hermite", m, r)


@criterion(13, "no-expansion inputs return oracle values matching a "
               "brute-force reference to 1e-8")
def test_criterion_13_no_expansion_routing():
    from scipy.integrate import quad
    from entrofun.orthopoly import polynomial_zeros

    # symmetric-weight Shannon integral
    m, alpha = 2, 80.0
    F = Functional.gegenbauer_weight_shannon(m, alpha)
    res = evaluate_asymptotic(F, tol_rel=1e-10)
    assert res.status == "no_expansion"
    scale = res.value.log_abs

    def f(x):
        p = gegenbauer_value(m, alpha, x)
        if p == 0.0 or abs(x) >= 1.0:
            return 0.0
        return math.exp((alpha - 0.5) * math.log1p(-x * x)
                        + 2 * math.log(abs(p)) - scale) * 2 * math.log(abs(p))

    pts = list(polynomial_zeros("gegenbauer", m, alpha).roots)
    ref, _ = quad(f, -1, 1, points=pts, limit=400, epsabs=1e-13, epsrel=1e-12)
    assert abs(math.exp(res.value.log_abs - scale) * res.value.sign - ref) \
        <= 1e-8 * abs(ref)

    # extended-weight Shannon integral at the symmetric exponent
    m, alpha = 1, 60.0
    F5 = Functional.ext_shannon(m, alpha, 1.0, 1.0)
    res5 = evaluate_asymptotic(F5, tol_rel=1e-10)
    assert res5.status == "no_expansion"
    scale5 = res5.value.log_abs

    def g(x):
        p = laguerre_value(m, alpha, x)
        if p == 0.0 or x <= 0.0:
            return 0.0
        return math.exp(alpha * math.log(x) - x + 2 * math.log(abs(p))
                        - scale5) * 2 * math.log(abs(p))

    zs = [z for z in polynomial_zeros("laguerre", m, alpha).roots]
    ref5, _ = quad(g, 0, 400, points=zs + [alpha], limit=400,
                   epsabs=1e-13, epsrel=1e-12)
    assert abs(math.exp(res5.value.log_abs - scale5) * res5.value.sign - ref5) \
        <= 1e-8 * abs(ref5)
