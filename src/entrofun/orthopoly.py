"""Laguerre, Gegenbauer and Hermite polynomials: values and zeros.

Evaluation is by upward three-term recurrence in double precision, which is
well conditioned for the modest degrees (m <= 60) and large parameters this
package works in.  The value-only evaluators accept either a float or a
numpy array for the argument.  On an array the Laguerre and Gegenbauer
evaluators run the recurrence in preallocated buffers with in-place ufuncs,
which perform the same IEEE operations in the same order as the scalar
expression, so each element is bitwise the scalar value; the argument itself
is never written.

The m zeros of each family are the eigenvalues of the m x m symmetric
tridiagonal Jacobi matrix of its orthonormal recurrence (Golub and Welsch,
Math. Comp. 23, 1969).  numpy's ``eigvalsh`` gives them to about machine
precision times the matrix norm; a few Newton steps on the recurrence, each
kept between the midpoints to the neighbouring eigenvalues, bring every
zero to within rounding of the polynomial's own values.  The result is
certified by a sign change of the polynomial between consecutive zeros.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

MAX_DEGREE = 60


@dataclass(frozen=True)
class ZeroSet:
    roots: tuple[float, ...]
    degree: int


def _check_degree(m: int) -> None:
    if not isinstance(m, int) or m < 0:
        raise ValueError(f"degree must be a nonnegative integer, got {m}")
    if m > MAX_DEGREE:
        raise ValueError(f"degree {m} exceeds supported maximum {MAX_DEGREE}")


# ---------------------------------------------------------------------------
# Value-only evaluators (float or numpy array argument)
# ---------------------------------------------------------------------------

def laguerre_value(m: int, alpha: float, x):
    """L_m^(alpha)(x) by the three-term recurrence."""
    p_prev = x * 0.0 + 1.0
    if m == 0:
        return p_prev
    p = alpha + 1.0 - x
    if not isinstance(p, np.ndarray):
        for n in range(1, m):
            p, p_prev = ((2 * n + 1 + alpha - x) * p - (n + alpha) * p_prev) / (n + 1.0), p
        return p
    tmp = np.empty_like(p)
    for n in range(1, m):
        np.subtract(2 * n + 1 + alpha, x, out=tmp)
        tmp *= p
        p_prev *= n + alpha
        tmp -= p_prev
        tmp /= n + 1.0
        p, p_prev, tmp = tmp, p, p_prev
    return p


def gegenbauer_value(m: int, alpha: float, x):
    """C_m^(alpha)(x) by the three-term recurrence."""
    p_prev = x * 0.0 + 1.0
    if m == 0:
        return p_prev
    p = 2.0 * alpha * x
    if not isinstance(p, np.ndarray):
        for n in range(2, m + 1):
            p, p_prev = (2.0 * (n - 1 + alpha) * x * p - ((n - 2) + 2 * alpha) * p_prev) / n, p
        return p
    tmp = np.empty_like(p)
    for n in range(2, m + 1):
        np.multiply(2.0 * (n - 1 + alpha), x, out=tmp)
        tmp *= p
        p_prev *= (n - 2) + 2 * alpha
        tmp -= p_prev
        tmp /= n
        p, p_prev, tmp = tmp, p, p_prev
    return p


def hermite_value(m: int, x):
    """H_m(x) by the three-term recurrence."""
    p_prev = x * 0.0 + 1.0
    if m == 0:
        return p_prev
    p = 2.0 * x
    for n in range(1, m):
        p, p_prev = 2.0 * x * p - 2.0 * n * p_prev, p
    return p


# ---------------------------------------------------------------------------
# Real zeros
# ---------------------------------------------------------------------------

def _jacobi_roots(diag, off, f, fp) -> tuple[float, ...]:
    """The zeros of an orthogonal polynomial ``f`` (derivative ``fp``), in
    increasing order, from its Jacobi matrix.

    ``diag`` and ``off`` are the diagonal and off-diagonal of the symmetric
    tridiagonal Jacobi matrix, whose eigenvalues are the zeros (Golub and
    Welsch, Math. Comp. 23, 1969).  Each eigenvalue is polished by Newton
    steps that stay between the midpoints to its neighbouring eigenvalues.
    A root stops when its step falls to 4e-16 relative or stops shrinking:
    near large-parameter zeros the rounding noise of the recurrence keeps
    the step from ever reaching 4e-16.  The result is certified: the roots
    must be strictly increasing and ``f`` must alternate in sign across the
    midpoints between consecutive roots.
    """
    x = np.linalg.eigvalsh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    mid = 0.5 * (x[:-1] + x[1:])
    lo = np.concatenate(([-np.inf], mid))
    hi = np.concatenate((mid, [np.inf]))
    step = np.full(x.shape, np.inf)
    active = np.arange(x.size)
    for _ in range(50):     # a backstop; the certificate below judges the result
        xa = x[active]
        with np.errstate(divide="ignore", invalid="ignore"):
            new = xa - f(xa) / fp(xa)
        new_step = np.abs(new - xa)
        take = (lo[active] < new) & (new < hi[active]) & (new_step < step[active])
        x[active[take]] = new[take]
        step[active[take]] = new_step[take]
        active = active[take & (new_step > 4e-16 * np.maximum(1.0, np.abs(new)))]
        if active.size == 0:
            break

    signs = np.sign(f(0.5 * (x[:-1] + x[1:])))
    if not (np.all(np.diff(x) > 0.0) and np.all(signs != 0.0)
            and np.all(signs[:-1] != signs[1:])):
        raise RuntimeError(f"polished zeros {x.tolist()} are not separated by "
                           f"sign changes")
    return tuple(float(r) for r in x)


def _laguerre_jacobi(m: int, alpha: float):
    """Diagonal and off-diagonal of the Jacobi matrix of L_m^(alpha)."""
    k = np.arange(1, m, dtype=float)
    return 2.0 * np.arange(m) + alpha + 1.0, np.sqrt(k * (k + alpha))


def _laguerre_zero_floor(m: int, alpha: float) -> float:
    """A lower bound on every zero of L_m^(alpha), m >= 1.

    The zeros are the eigenvalues of the Jacobi matrix, so none lies below
    its lowest Gershgorin disc, min_i(diag_i - off_(i-1) - off_i).  The
    bound is lowered by 1e-9 of its size to cover the rounding of the disc
    edges and of the computed zeros; at m = 1 it is the zero itself.
    """
    _check_degree(m)
    diag, off = _laguerre_jacobi(m, alpha)
    edge = float(np.min(diag - np.concatenate(([0.0], off))
                        - np.concatenate((off, [0.0]))))
    return edge - 1e-9 * abs(edge)


def polynomial_zeros(family: str, m: int, alpha: float) -> ZeroSet:
    """All m real zeros of the degree-m Laguerre or Gegenbauer polynomial."""
    _check_degree(m)
    if m < 1:
        raise ValueError("polynomial_zeros requires m >= 1")
    if family == "laguerre":
        if alpha <= -1.0:
            raise ValueError("laguerre zeros require alpha > -1")
        diag, off = _laguerre_jacobi(m, alpha)
        f = lambda x: laguerre_value(m, alpha, x)
        fp = lambda x: -laguerre_value(m - 1, alpha + 1.0, x)
    elif family == "gegenbauer":
        if alpha <= 0.0:
            raise ValueError("gegenbauer zeros require alpha > 0")
        if (1.0 + alpha) - 1.0 == 0.0:
            # the lower end of the supported range: 1 + alpha rounds to 1
            raise ValueError(f"gegenbauer zeros require 1 + alpha > 1 in "
                             f"double precision, got alpha = {alpha!r}")
        k = np.arange(1, m, dtype=float)
        diag = np.zeros(m)
        off = np.sqrt(k * ((k - 1.0) + 2.0 * alpha)
                      / (4.0 * (k + alpha) * ((k - 1.0) + alpha)))
        f = lambda x: gegenbauer_value(m, alpha, x)
        fp = lambda x: 2.0 * alpha * gegenbauer_value(m - 1, alpha + 1.0, x)
    else:
        raise ValueError(f"unknown polynomial family {family!r}")
    return ZeroSet(_jacobi_roots(diag, off, f, fp), m)


def hermite_zeros(m: int) -> ZeroSet:
    """All m real zeros of the Hermite polynomial H_m."""
    _check_degree(m)
    if m < 1:
        raise ValueError("hermite_zeros requires m >= 1")
    off = np.sqrt(np.arange(1, m) / 2.0)
    return ZeroSet(_jacobi_roots(np.zeros(m), off, lambda x: hermite_value(m, x),
                                 lambda x: 2.0 * m * hermite_value(m - 1, x)), m)
