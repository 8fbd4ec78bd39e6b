"""Truncated power-series arithmetic.

This is the engine that regenerates the saddle-point and Watson's-lemma
coefficient ladders to arbitrary order: Cauchy products, logarithms and real
powers, and the Gaussian-moment terms of a Laplace amplitude.  The saddle
maps themselves come from their ODE in :mod:`entrofun.coeffs`.
``_over_powers`` turns every ladder's coefficients into its terms
c_k / alpha^k; a coefficient that is not finite, or a sum that meets
inf - inf, raises the one named series overflow error.

A :class:`Series` is a plain tuple of double coefficients with an explicit
truncation order; operations never silently extend the order, results carry
the minimum of the operand orders.

Coefficient k of every operation depends only on coefficients 0..k of its
operands and is summed in a fixed order, so a truncated build equals a deeper
one bit for bit; the ladder builders in :mod:`entrofun.coeffs` rely on this.
The kernels keep their operands in locals and hand ``math.fsum`` lists, and
the tests pin them bit for bit to plain reference loops.  Products accumulate
``out[i + j] += a * b`` explicitly: builtin ``sum`` compensates float sums
from Python 3.12 on, so it would round differently across interpreter
versions, and ``np.convolve`` does not sum coefficient k in the same order
for every operand length.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterable


@dataclass(frozen=True)
class Series:
    """coeffs[k] multiplies y**k; order == len(coeffs) - 1."""

    coeffs: tuple[float, ...]

    def __post_init__(self):
        if len(self.coeffs) < 1:
            raise ValueError("a Series needs at least the constant coefficient")

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __getitem__(self, k: int) -> float:
        return self.coeffs[k]

    @staticmethod
    def from_coeffs(seq: Iterable[float], order: int | None = None) -> "Series":
        c = [float(v) for v in seq]
        if order is not None:
            c = c[:order + 1] + [0.0] * (order + 1 - len(c))
        return Series(tuple(c))

    @staticmethod
    def constant(value: float, order: int) -> "Series":
        return Series((float(value),) + (0.0,) * order)

    def truncate(self, order: int) -> "Series":
        if order <= self.order:
            return Series(self.coeffs[:order + 1])
        return Series.from_coeffs(self.coeffs, order)

    # -- ring operations (min-order truncation) -----------------------------

    def __add__(self, other: "Series") -> "Series":
        n = min(self.order, other.order)
        return Series(tuple(self.coeffs[k] + other.coeffs[k] for k in range(n + 1)))

    def __sub__(self, other: "Series") -> "Series":
        n = min(self.order, other.order)
        return Series(tuple(self.coeffs[k] - other.coeffs[k] for k in range(n + 1)))

    def __mul__(self, other) -> "Series":
        x = self.coeffs
        if isinstance(other, (int, float)):
            return Series(tuple([c * other for c in x]))
        y = other.coeffs
        n = min(len(x), len(y))
        out = [0.0] * n
        for i in range(n):
            a = x[i]
            if a == 0.0:
                continue
            for j in range(n - i):
                out[i + j] += a * y[j]
        return Series(tuple(out))

    __rmul__ = __mul__

    def deriv(self) -> "Series":
        """Coefficientwise derivative; order drops by one."""
        if self.order == 0:
            return Series((0.0,))
        return Series(tuple(k * self.coeffs[k] for k in range(1, self.order + 1)))


def series_log(a: Series) -> Series:
    c = a.coeffs
    if c[0] <= 0.0:
        raise ValueError("series log requires a positive constant term")
    n = len(c) - 1
    out = [0.0] * (n + 1)
    out[0] = math.log(c[0])
    try:
        for k in range(1, n + 1):
            acc = k * c[k]
            acc -= math.fsum([j * out[j] * c[k - j] for j in range(1, k)])
            out[k] = acc / (k * c[0])
    except ValueError:
        raise _overflow() from None
    return Series(tuple(out))


def series_pow(a: Series, rho: float) -> Series:
    """a(y)**rho for real rho; requires a positive constant term."""
    c = a.coeffs
    if c[0] <= 0.0:
        raise ValueError("series pow requires a positive constant term")
    n = len(c) - 1
    rho1 = rho + 1.0
    out = [0.0] * (n + 1)
    out[0] = c[0] ** rho
    try:
        for k in range(1, n + 1):
            acc = math.fsum([(rho1 * j - k) * c[j] * out[k - j]
                             for j in range(1, k + 1)])
            out[k] = acc / (k * c[0])
    except ValueError:
        raise _overflow() from None
    return Series(tuple(out))


def _overflow() -> OverflowError:
    # fsum raises ValueError on inf - inf, which only products that
    # overflowed can produce
    return OverflowError("series coefficients overflow double precision")


# room for every k whose value is finite: (2k-1)!! overflows from k = 151
@functools.lru_cache(maxsize=256)
def _double_factorial_odd(k: int) -> float:
    """(2k-1)!! = 2^k (1/2)_k; equals 1 for k = 0."""
    out = 1.0
    for j in range(1, 2 * k, 2):
        out *= j
    return out


def _over_powers(values, alpha: float) -> list[float]:
    """The ladder terms c_k / alpha^k, k = 0, 1, ..., for alpha > 1; a term
    whose alpha^k overflows double precision is 0, since it is then below
    |c_k| 6e-309.  A coefficient that is not finite raises the series
    overflow error."""
    out = []
    for k, c in enumerate(values):
        if not math.isfinite(c):
            raise _overflow()
        try:
            out.append(c / alpha ** k)
        except OverflowError:
            out.append(0.0)
    return out


def laplace_terms(amplitude: Series, alpha: float, K: int) -> list[float]:
    """Gaussian-moment terms c_{2k} (2k-1)!! / alpha^k for k = 0..K."""
    if amplitude.order < 2 * K:
        raise ValueError(f"amplitude order {amplitude.order} is insufficient "
                         f"for K={K} (need >= {2 * K})")
    return _over_powers([amplitude.coeffs[2 * k] * _double_factorial_odd(k)
                         for k in range(K + 1)], alpha)
