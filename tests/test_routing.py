"""The routing table of the asymptotic front door, and the package's import
surface.

One input per branch tag that ``evaluate_asymptotic`` returns, each at the
default ``K = None`` and at a forced K: an explicit K keeps K + 1 terms
wherever the ladder has that many, and the c > d swap forwards it.
"""

import pytest

import entrofun
from entrofun import Functional as Fn
from entrofun import evaluate_asymptotic

# functional, then (K, branch, status, truncation_used, len(terms)) per K
LC = "low_confidence"
ROUTES = [
    (Fn.lag_renyi(2, 400.0, 2.5, 1.0, 2.0),
     (None, "watson", "ok", 8, 8),
     (3, "watson", "ok", 4, 4)),
    (Fn.lag_renyi(3, 15.0, 2.0, 1.0, 2.0),
     (None, "watson", LC, 8, 8),
     (3, "watson", LC, 4, 4)),
    (Fn.lag_shannon(0, 120.0, 2.0, 1.0),
     (None, "watson_shannon_zero", "ok", 8, 8),
     (3, "watson_shannon_zero", "ok", 4, 4)),
    (Fn.lag_shannon(3, 400.0, 2.5, 1.5),
     (None, "watson_shannon_fd", "ok", 8, 8),
     (3, "watson_shannon_fd", "ok", 4, 4)),
    (Fn.geg_renyi(3, 200.0, -0.5, 4.5, 1.0, 3.0, 2.0),
     (None, "laplace_cd", LC, 8, 8),
     (3, "laplace_cd", LC, 4, 4)),
    (Fn.geg_renyi(3, 200.0, 4.5, -0.5, 3.0, 1.0, 2.0),
     (None, "laplace_swapped", LC, 8, 8),
     (3, "laplace_swapped", LC, 4, 4)),
    (Fn.geg_shannon(3, 1500.0, 0.3, 1.2, 3.0, 1.0),
     (None, "laplace_swapped_shannon", "ok", 8, 8),
     (3, "laplace_swapped_shannon", "ok", 4, 4)),
    (Fn.geg_shannon(4, 2000.0, -0.5, -0.5, 1.0, 3.0),
     (None, "laplace_shannon_fd", "ok", 8, 8),
     (3, "laplace_shannon_fd", "ok", 4, 4)),
    (Fn.geg_shannon(0, 100.0, 0.1, 0.2, 1.0, 2.0),
     (None, "laplace_shannon_zero", "ok", 8, 8),
     (3, "laplace_shannon_zero", "ok", 4, 4)),
    (Fn.geg_renyi(2, 300.0, -0.5, -1.5, 1.0, 1.0, 2.0),
     (None, "symmetric_kappa2", "ok", 2, 2),
     (0, "symmetric_kappa2", "ok", 1, 1),
     (3, "symmetric_kappa2", "ok", 2, 2)),
    (Fn.geg_renyi(2, 200.0, -0.5, -1.5, 1.0, 1.0, 3.0),
     (None, "symmetric_hermite_leading", "ok", 1, 1),
     (3, "symmetric_hermite_leading", "ok", 1, 1)),
    (Fn.gegenbauer_weight_shannon(2, 80.0),
     (None, "oracle_only", "no_expansion", 1, 1),
     (3, "oracle_only", "no_expansion", 1, 1)),
    (Fn.ext_renyi(2, 400.0, 1.0, 2.0, 2.0),
     (None, "laplace_lambda_ne1", "ok", 8, 8),
     (3, "laplace_lambda_ne1", "ok", 4, 4)),
    (Fn.ext_renyi(2, 400.0, 1.0, 1.1, 2.0),
     (None, "laplace_lambda_ne1", "ok", 1, 8),
     (3, "laplace_lambda_ne1", "ok", 4, 4)),
    (Fn.ext_renyi(1, 400.0, 1.0, 1.0, 2.0),
     (None, "hermite_limit_kappa2", "ok", 1, 1),
     (3, "hermite_limit_kappa2", "ok", 1, 1)),
    (Fn.ext_renyi(2, 150.0, 0.7, 1.0, 1.5),
     (None, "hermite_limit_power", "ok", 1, 1),
     (3, "hermite_limit_power", "ok", 1, 1)),
    (Fn.ext_shannon(2, 400.0, 1.0, 2.0),
     (None, "laplace_shannon_analytic", "ok", 2, 2),
     (0, "laplace_shannon_analytic", "ok", 1, 1),
     (3, "laplace_shannon_fd", "ok", 4, 4)),
    (Fn.ext_shannon(0, 200.0, 1.0, 2.0),
     (None, "laplace_shannon_zero", "ok", 2, 2),
     (3, "laplace_shannon_zero", "ok", 4, 4)),
    (Fn.ext_shannon(1, 60.0, 1.0, 1.0),
     (None, "oracle_only", "no_expansion", 1, 1),
     (3, "oracle_only", "no_expansion", 1, 1)),
]
CASES = [(F, *exp) for F, *exps in ROUTES for exp in exps]
IDS = [f"{row}-{exp[1]}-K{exp[0]}" for row, (_, *exps) in enumerate(ROUTES)
       for exp in exps]


@pytest.mark.parametrize("F, K, branch, status, used, n_terms", CASES,
                         ids=IDS)
def test_route_table(F, K, branch, status, used, n_terms):
    res = evaluate_asymptotic(F, K)
    assert (res.branch, res.status, res.truncation_used, len(res.terms)) == (
        branch, status, used, n_terms)


def test_route_table_covers_every_tag():
    assert len({c[2] for c in CASES}) == 15


def test_public_names_resolve():
    # a star import raises AttributeError on a listed name that is missing
    namespace = {}
    exec("from entrofun import *", namespace)
    assert set(entrofun.__all__) <= set(namespace)
