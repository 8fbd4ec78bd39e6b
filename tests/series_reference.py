"""Reference series operations that only the tests use.

``series_compose`` is Horner composition; the reversion round-trip tests
check ``series_revert`` against it.  ``series_exp`` inverts ``series_log``
in a round-trip test, and ``laplace_sum`` folds the Gaussian-moment terms
into the Laplace bracket.
"""

import math

from entrofun.series import Series, laplace_terms


def series_compose(f: Series, g: Series) -> Series:
    """f(g(y)) truncated at min(f.order, g.order); g must have g(0) = 0."""
    if g.coeffs[0] != 0.0:
        raise ValueError("composition requires the inner series to vanish at 0")
    n = min(f.order, g.order)
    gt = g.truncate(n)
    res = Series.constant(f.coeff(n), n)
    for k in range(n - 1, -1, -1):
        res = res * gt
        res = Series((res.coeffs[0] + f.coeffs[k],) + res.coeffs[1:])
    return res


def series_exp(a: Series) -> Series:
    n = a.order
    out = [0.0] * (n + 1)
    out[0] = math.exp(a.coeffs[0])
    for k in range(1, n + 1):
        out[k] = math.fsum(j * a.coeffs[j] * out[k - j] for j in range(1, k + 1)) / k
    return Series(tuple(out))


def laplace_sum(amplitude: Series, alpha: float, K: int) -> float:
    """The dimensionless Laplace bracket; the caller applies sqrt(2 pi/alpha)
    and the exponential prefactor in log space."""
    return math.fsum(laplace_terms(amplitude, alpha, K))
