"""Truncated power-series arithmetic.

This is the engine that regenerates the saddle-point and Watson's-lemma
coefficient ladders to arbitrary order: Cauchy products and quotients,
logarithms and real powers, compositional reversion by Lagrange inversion,
and the quadratic change of variable that normalises a phase function to
y^2/2.  There is no composition engine: reversion needs only products and
one quotient.

A :class:`Series` is a plain tuple of double coefficients with an explicit
truncation order; operations never silently extend the order, results carry
the minimum of the operand orders.
"""

from __future__ import annotations

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
        object.__setattr__(self, "coeffs", tuple(float(c) for c in self.coeffs))

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __getitem__(self, k: int) -> float:
        return self.coeffs[k]

    def coeff(self, k: int) -> float:
        """coeffs[k], reading past the truncation order as 0."""
        return self.coeffs[k] if k <= self.order else 0.0

    @staticmethod
    def from_coeffs(seq: Iterable[float], order: int | None = None) -> "Series":
        c = [float(v) for v in seq]
        if order is not None:
            c = c[:order + 1] + [0.0] * (order + 1 - len(c))
        return Series(tuple(c))

    @staticmethod
    def constant(value: float, order: int) -> "Series":
        return Series((float(value),) + (0.0,) * order)

    @staticmethod
    def identity(order: int) -> "Series":
        if order < 1:
            raise ValueError("identity series needs order >= 1")
        return Series((0.0, 1.0) + (0.0,) * (order - 1))

    def truncate(self, order: int) -> "Series":
        return Series.from_coeffs(self.coeffs, order)

    # -- ring operations (min-order truncation) -----------------------------

    def __add__(self, other: "Series") -> "Series":
        n = min(self.order, other.order)
        return Series(tuple(self.coeffs[k] + other.coeffs[k] for k in range(n + 1)))

    def __sub__(self, other: "Series") -> "Series":
        n = min(self.order, other.order)
        return Series(tuple(self.coeffs[k] - other.coeffs[k] for k in range(n + 1)))

    def __mul__(self, other) -> "Series":
        if isinstance(other, (int, float)):
            return Series(tuple(c * other for c in self.coeffs))
        n = min(self.order, other.order)
        out = [0.0] * (n + 1)
        for i in range(min(self.order, n) + 1):
            a = self.coeffs[i]
            if a == 0.0:
                continue
            for j in range(min(other.order, n - i) + 1):
                out[i + j] += a * other.coeffs[j]
        return Series(tuple(out))

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Series":
        if isinstance(other, (int, float)):
            return self * (1.0 / other)
        if other.coeffs[0] == 0.0:
            raise ValueError("division by a series with zero constant term")
        n = min(self.order, other.order)
        out = [0.0] * (n + 1)
        for k in range(n + 1):
            acc = self.coeff(k)
            for i in range(1, min(k, other.order) + 1):
                acc -= other.coeffs[i] * out[k - i]
            out[k] = acc / other.coeffs[0]
        return Series(tuple(out))

    def deriv(self) -> "Series":
        """Coefficientwise derivative; order drops by one."""
        if self.order == 0:
            return Series((0.0,))
        return Series(tuple(k * self.coeffs[k] for k in range(1, self.order + 1)))

    def shifted_up(self) -> "Series":
        """Multiply by y, keeping every known coefficient (order grows by one)."""
        return Series((0.0,) + self.coeffs)


def series_log(a: Series) -> Series:
    if a.coeffs[0] <= 0.0:
        raise ValueError("series log requires a positive constant term")
    n = a.order
    out = [0.0] * (n + 1)
    out[0] = math.log(a.coeffs[0])
    for k in range(1, n + 1):
        acc = k * a.coeffs[k]
        acc -= math.fsum(j * out[j] * a.coeffs[k - j] for j in range(1, k))
        out[k] = acc / (k * a.coeffs[0])
    return Series(tuple(out))


def series_pow(a: Series, rho: float) -> Series:
    """a(y)**rho for real rho; requires a positive constant term."""
    if a.coeffs[0] <= 0.0:
        raise ValueError("series pow requires a positive constant term")
    n = a.order
    out = [0.0] * (n + 1)
    out[0] = a.coeffs[0] ** rho
    for k in range(1, n + 1):
        acc = math.fsum(((rho + 1.0) * j - k) * a.coeffs[j] * out[k - j]
                        for j in range(1, k + 1))
        out[k] = acc / (k * a.coeffs[0])
    return Series(tuple(out))


def series_revert(f: Series) -> Series:
    """Compositional inverse g with f(g(y)) = y to the truncation order.

    By Lagrange inversion, writing f(s) = s h(s) with h(0) = f_1 != 0,

        [y^k] g = (1/k) [s^(k-1)] q(s)^k,   q = 1/h,   k = 1..n,

    so one series division and n - 1 running products of q give every
    coefficient.  Coefficient k depends only on f_1..f_k.
    """
    if f.coeffs[0] != 0.0:
        raise ValueError("reversion requires a zero constant term")
    if f.coeffs[1] == 0.0:
        raise ValueError("reversion requires a nonzero linear coefficient")
    n = f.order
    q = Series.constant(1.0, n - 1) / Series(f.coeffs[1:])
    g = [0.0, q[0]]
    q_k = q
    for k in range(2, n + 1):
        q_k = q_k * q
        g.append(q_k[k - 1] / k)
    return Series(tuple(g))


def saddle_series(phi_coeffs: Series) -> Series:
    """Solve phi(x_m + s) - phi(x_m) = y^2/2 for s as a series in y.

    ``phi_coeffs`` is the expansion of the phase about its interior minimum
    (constant and linear coefficients zero, quadratic coefficient positive).
    The branch has sign(y) = sign(s); the leading coefficient is
    1/sqrt(phi'').
    """
    if phi_coeffs.order < 2:
        raise ValueError("phase series must carry at least the quadratic term")
    if phi_coeffs.coeffs[0] != 0.0 or phi_coeffs.coeffs[1] != 0.0:
        raise ValueError("phase series must vanish to second order at the saddle")
    if phi_coeffs.coeffs[2] <= 0.0:
        raise ValueError("phase must have a positive quadratic coefficient "
                         "(not a minimum)")
    psi = Series(tuple(2.0 * phi_coeffs.coeffs[k + 2]
                       for k in range(phi_coeffs.order - 1)))
    return series_revert(series_pow(psi, 0.5).shifted_up())


def _double_factorial_odd(k: int) -> float:
    """(2k-1)!! = 2^k (1/2)_k; equals 1 for k = 0."""
    out = 1.0
    for j in range(1, 2 * k, 2):
        out *= j
    return out


def laplace_terms(amplitude: Series, alpha: float, K: int) -> list[float]:
    """Gaussian-moment terms c_{2k} (2k-1)!! / alpha^k for k = 0..K."""
    if amplitude.order < 2 * K:
        raise ValueError(f"amplitude order {amplitude.order} is insufficient "
                         f"for K={K} (need >= {2 * K})")
    return [amplitude.coeffs[2 * k] * _double_factorial_odd(k) / alpha ** k
            for k in range(K + 1)]
