"""Reference series operations that only the tests use.

``series_compose`` is Horner composition; the reversion round-trip tests
check ``series_revert`` against it.  ``series_div`` is the series quotient
that reversion needs.  ``saddle_series`` normalises a phase to y^2/2 by
Lagrange reversion, the low-order cross-check of the saddle maps that
``entrofun.coeffs`` builds from their ODE.  ``series_exp`` inverts
``series_log`` in a round-trip test, and ``laplace_sum`` folds the
Gaussian-moment terms into the Laplace bracket.

``ref_mul``, ``ref_pow``, ``ref_log``, ``ref_truncate`` and
``ref_double_factorial_odd`` are the plain loops that the kernels of
``entrofun.series`` must match bit for bit: the kernels bind their operands
to locals and hand ``math.fsum`` lists, but every coefficient is the same
sum of the same products.
"""

import math

from entrofun.series import Series, laplace_terms, series_pow


def identity(order: int) -> Series:
    """The series y to ``order``."""
    if order < 1:
        raise ValueError("identity series needs order >= 1")
    return Series((0.0, 1.0) + (0.0,) * (order - 1))


def series_div(a: Series, b: Series) -> Series:
    """a / b truncated at min(a.order, b.order); b needs a nonzero constant."""
    if b.coeffs[0] == 0.0:
        raise ValueError("division by a series with zero constant term")
    n = min(a.order, b.order)
    out = [0.0] * (n + 1)
    for k in range(n + 1):
        acc = a.coeffs[k]
        for i in range(1, k + 1):
            acc -= b.coeffs[i] * out[k - i]
        out[k] = acc / b.coeffs[0]
    return Series(tuple(out))


def series_compose(f: Series, g: Series) -> Series:
    """f(g(y)) truncated at min(f.order, g.order); g must have g(0) = 0."""
    if g.coeffs[0] != 0.0:
        raise ValueError("composition requires the inner series to vanish at 0")
    n = min(f.order, g.order)
    gt = g.truncate(n)
    res = Series.constant(f.coeffs[n], n)
    for k in range(n - 1, -1, -1):
        res = res * gt
        res = Series((res.coeffs[0] + f.coeffs[k],) + res.coeffs[1:])
    return res


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
    q = series_div(Series.constant(1.0, n - 1), Series(f.coeffs[1:]))
    g = [0.0, q.coeffs[0]]
    q_k = q
    for k in range(2, n + 1):
        q_k = q_k * q
        g.append(q_k.coeffs[k - 1] / k)
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
    return series_revert(Series((0.0,) + series_pow(psi, 0.5).coeffs))


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


def ref_mul(x: Series, other) -> Series:
    """x * other, the scalar or the Cauchy product truncated at the lower
    order, accumulated term by term in increasing i."""
    if isinstance(other, (int, float)):
        return Series(tuple(c * other for c in x.coeffs))
    n = min(x.order, other.order)
    out = [0.0] * (n + 1)
    for i in range(min(x.order, n) + 1):
        a = x.coeffs[i]
        if a == 0.0:
            continue
        for j in range(min(other.order, n - i) + 1):
            out[i + j] += a * other.coeffs[j]
    return Series(tuple(out))


def ref_log(a: Series) -> Series:
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


def ref_pow(a: Series, rho: float) -> Series:
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


def ref_truncate(a: Series, order: int) -> Series:
    """a cut, or padded with zeros, to ``order``."""
    return Series.from_coeffs(a.coeffs, order)


def ref_double_factorial_odd(k: int) -> float:
    out = 1.0
    for j in range(1, 2 * k, 2):
        out *= j
    return out
