"""Scalar special functions and terminating hypergeometric closed forms.

These are the exact reference values the asymptotic machinery is tested
against: log-Gamma, signed Pochhammer symbols, terminating pFq sums, and the
handful of product-of-Gammas closed forms known for special parameter
choices of the integral families.

All Gamma products are assembled as sums of log-Gammas with a separate sign
accumulator; ratios are never formed in linear space.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .functional import _close
from .logvalue import LogValue

_INT_TOL = 1e-9


def log_gamma(x: float) -> float:
    """log Gamma(x) for x > 0."""
    if x <= 0:
        raise ValueError(f"log_gamma requires x > 0, got {x}")
    return math.lgamma(x)


def log_factorial(m: int) -> float:
    return math.lgamma(m + 1)


def pochhammer(a: float, n: int) -> LogValue:
    """Rising factorial (a)_n = a (a+1) ... (a+n-1), sign tracked."""
    if n < 0:
        raise ValueError("pochhammer requires n >= 0")
    sign = 1
    log_abs = 0.0
    for k in range(n):
        f = a + k
        if f == 0.0:
            return LogValue.zero()
        if f < 0:
            sign = -sign
        log_abs += math.log(abs(f))
    return LogValue(sign, log_abs)


def _nonpositive_int(x: float) -> int | None:
    r = round(x)
    if x <= _INT_TOL and abs(x - r) < _INT_TOL and r <= 0:
        return int(r)
    return None


@dataclass(frozen=True)
class HyperTerm:
    """A terminating hypergeometric series pFq(upper; lower; argument).

    At least one upper parameter must be a nonpositive integer; the series
    is summed exactly over its finitely many terms.
    """

    upper: tuple[float, ...]
    lower: tuple[float, ...]
    argument: float


def hyper_terminating(h: HyperTerm) -> LogValue:
    """Exact finite sum of a terminating pFq, compensated summation."""
    stops = [-r for u in h.upper if (r := _nonpositive_int(u)) is not None]
    if not stops:
        raise ValueError("series does not terminate: no nonpositive-integer "
                         f"upper parameter in {h.upper}")
    n_stop = min(stops)
    for low in h.lower:
        r = _nonpositive_int(low)
        if r is not None and -r < n_stop:
            raise ValueError(f"lower parameter {low} hits a pole before the "
                             f"series terminates at index {n_stop}")
    terms = []
    t = 1.0
    for j in range(n_stop + 1):
        if not math.isfinite(t):
            raise OverflowError("terminating series term overflows double "
                                "precision")
        terms.append(t)
        num = 1.0
        for u in h.upper:
            num *= u + j
        den = float(j + 1)
        for low in h.lower:
            den *= low + j
        t = t * num / den * h.argument
    return LogValue.from_float(math.fsum(terms))


# ---------------------------------------------------------------------------
# Closed forms for special parameter choices of the integral families.
# ---------------------------------------------------------------------------

def lag24_value(m: int, alpha: float, mu: float) -> LogValue:
    """Laguerre Renyi-type integral for kappa=2, lambda=1.

    Gamma(mu) (alpha+1)_m (alpha+1-mu)_m / (m!)^2 times a terminating 3F2
    at unit argument.
    """
    if mu <= 0:
        raise ValueError("lag24_value requires mu > 0")
    low = mu - alpha - m
    r = _nonpositive_int(low)
    if r is not None and -r < m:
        raise ValueError(f"degenerate lower 3F2 parameter mu-alpha-m = {low}")
    f = hyper_terminating(HyperTerm(
        upper=(-float(m), mu, mu - alpha),
        lower=(alpha + 1.0, mu - alpha - m),
        argument=1.0,
    ))
    pref = (pochhammer(alpha + 1.0, m)
            * pochhammer(alpha + 1.0 - mu, m)
            * LogValue.from_log(log_gamma(mu))
            / LogValue.from_log(2.0 * log_factorial(m)))
    return pref * f


def geg22_value(m: int, alpha: float) -> LogValue:
    """Gegenbauer Renyi-type integral for kappa=2, a=-1/2, b=2m-3/2, c=1, d=3."""
    if 3.0 * alpha + 2 * m - 0.5 <= 0 or 2.0 * alpha <= 0:
        raise ValueError("geg22_value: Gamma argument out of range")
    log_abs = (0.5 * math.log(math.pi)
               + log_gamma(alpha + 2 * m + 0.5)
               + log_gamma(3.0 * alpha + 2 * m - 0.5)
               - log_gamma(2.0 * alpha)
               - log_gamma(2.0 * alpha + 2 * m + 0.5)
               - 2.0 * (m * math.log(2.0) + log_factorial(m)))
    num = pochhammer(2.0 * alpha, 2 * m)
    den = pochhammer(alpha + 0.5, m).powf(2.0)
    return LogValue.from_log(log_abs) * num / den


def geg31_value(m: int, alpha: float) -> LogValue:
    """Gegenbauer Renyi-type integral for kappa=2, a=-1/2, b=-3/2, c=d=1."""
    if alpha <= 0.5:
        raise ValueError("geg31_value requires alpha > 1/2")
    log_abs = (0.5 * math.log(math.pi)
               + log_gamma(alpha - 0.5) - log_gamma(alpha)
               - log_factorial(m))
    return LogValue.from_log(log_abs) * pochhammer(2.0 * alpha, m)


def more15_value(m: int, alpha: float, lam: float) -> LogValue:
    """Extended Laguerre Renyi-type integral for kappa=2, sigma=1, lambda != 1."""
    if lam <= 0:
        raise ValueError("more15_value requires lambda > 0")
    if _close(lam, 1.0):
        raise ValueError("more15_value requires lambda != 1 (use more24_value)")
    z = 1.0 / (lam - 1.0) ** 2
    f = hyper_terminating(HyperTerm(
        upper=(-float(m), -float(m)),
        lower=(alpha + 1.0,),
        argument=z,
    ))
    log_abs = (log_gamma(alpha + 1.0)
               + 2 * m * math.log(abs(lam - 1.0))
               - (2 * m + alpha + 1.0) * math.log(lam)
               - 2.0 * log_factorial(m))
    return (LogValue.from_log(log_abs)
            * pochhammer(alpha + 1.0, m).powf(2.0)
            * f)


def more24_value(m: int, alpha: float) -> LogValue:
    """Extended Laguerre Renyi-type integral for kappa=2, sigma=1, lambda=1."""
    return LogValue.from_log(log_gamma(m + alpha + 1.0) - log_factorial(m))
