"""Laguerre, Gegenbauer and Hermite polynomials: values and zeros.

Evaluation is by upward three-term recurrence in double precision, which is
well conditioned for the modest degrees (m <= 60) and large parameters this
package works in.  One loop, p_(n+1) = (a_n(x) p_n - w_n p_(n-1)) / d_n,
serves every family, which gives only a_n, w_n and d_n.  Floats and numpy
arrays take the same loop, in preallocated buffers with in-place ufuncs; a
float comes back 0-d, and the argument is never written.

The m zeros of each family are the eigenvalues of the m x m symmetric
tridiagonal Jacobi matrix of its orthonormal recurrence (Golub and Welsch,
Math. Comp. 23, 1969), made by one builder.  numpy's ``eigvalsh`` gives them
to about machine precision times the matrix norm; a few Newton steps, each
taking f / f' from the pair (p_m, p_(m-1)) of one recurrence through the
family's derivative identity, bring every zero to within rounding of the
polynomial's own values.  The result is certified by finite sign changes of
the polynomial between consecutive zeros; a failed certificate, or a Jacobi
matrix whose entries overflow double precision, raises ``RuntimeError``.
``zero_range`` bounds the zeros without a solve: one Gershgorin range.
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
# Values (float or numpy array argument)
# ---------------------------------------------------------------------------

def _three_term(m: int, x, step):
    """(p_m(x), p_(m-1)(x)) from p_0 = 1 and p_(-1) = 0 by
    p_(n+1) = (a_n(x) p_n - w_n p_(n-1)) / d_n; the second is 0 at m = 0.
    ``step(n, x, out)`` writes a_n(x) into ``out`` and returns (w_n, d_n).
    A float or a 0-d array comes back 0-d."""
    x = np.asarray(x, dtype=float)
    p, p_prev, tmp = np.ones(x.shape), np.zeros(x.shape), np.empty(x.shape)
    for n in range(m):
        w, d = step(n, x, tmp)
        if n:   # p_1 is a_0 itself: every family has d_0 = 1
            tmp *= p
            p_prev *= w
            tmp -= p_prev
            tmp /= d
        p, p_prev, tmp = tmp, p, p_prev
    return p[()], p_prev[()]


def laguerre_value(m: int, alpha: float, x):
    """L_m^(alpha)(x) by the three-term recurrence."""
    return _laguerre_pair(m, alpha, x)[0]


def _laguerre_pair(m: int, alpha: float, x):
    """(L_m^(alpha)(x), L_(m-1)^(alpha)(x)) from one recurrence."""
    def step(n, x, out):
        np.subtract(2 * n + 1 + alpha, x, out=out)
        return n + alpha, n + 1.0
    return _three_term(m, x, step)


def gegenbauer_value(m: int, alpha: float, x):
    """C_m^(alpha)(x) by the three-term recurrence."""
    return _gegenbauer_pair(m, alpha, x)[0]


def _gegenbauer_pair(m: int, alpha: float, x):
    """(C_m^(alpha)(x), C_(m-1)^(alpha)(x)) from one recurrence; w_1 is 2 alpha
    exactly."""
    def step(n, x, out):
        np.multiply(2 * (n + alpha), x, out=out)
        return (n - 1) + 2 * alpha, n + 1.0
    return _three_term(m, x, step)


def hermite_value(m: int, x):
    """H_m(x) by the three-term recurrence."""
    return _hermite_pair(m, x)[0]


def _hermite_pair(m: int, x):
    """(H_m(x), H_(m-1)(x)) from one recurrence."""
    def step(n, x, out):
        np.multiply(2.0, x, out=out)
        return 2.0 * n, 1.0
    return _three_term(m, x, step)


# ---------------------------------------------------------------------------
# Real zeros
# ---------------------------------------------------------------------------

def _jacobi(family: str, m: int, alpha: float | None):
    """Diagonal and off-diagonal of the Jacobi matrix of the degree-m
    polynomial of ``family``; ``RuntimeError`` where an entry overflows."""
    k = np.arange(1, m, dtype=float)
    with np.errstate(over="ignore"):
        if family == "laguerre":
            diag, num, den = 2.0 * np.arange(m) + alpha + 1.0, k * (k + alpha), 1.0
        elif family == "gegenbauer":
            diag, num = np.zeros(m), k * ((k - 1.0) + 2.0 * alpha)
            den = 4.0 * (k + alpha) * ((k - 1.0) + alpha)
        else:
            diag, num, den = np.zeros(m), k, 2.0
    if not (np.isfinite(num).all() and np.isfinite(den).all()):
        raise RuntimeError(f"the {family} Jacobi matrix of degree {m} "
                           f"overflows double precision")
    return diag, np.sqrt(num / den)


def zero_range(family: str, m: int, alpha: float) -> tuple[float, float]:
    """(lo, hi) holding every zero of the degree-m ``family`` polynomial,
    m >= 1: the ends of the Jacobi matrix's Gershgorin discs,
    min_i(diag_i - off_(i-1) - off_i) and max_i(diag_i + off_(i-1) + off_i),
    each moved out by 1e-9 of its size to cover the rounding of the disc
    edges and of the computed zeros; at m = 1 both are the zero itself."""
    _check_degree(m)
    diag, off = _jacobi(family, m, alpha)
    left, right = np.concatenate(([0.0], off)), np.concatenate((off, [0.0]))
    lo = float(((diag - left) - right).min())
    hi = float(((diag + left) + right).max())
    return lo - 1e-9 * abs(lo), hi + 1e-9 * abs(hi)


def _jacobi_roots(diag, off, f, ratio) -> tuple[float, ...]:
    """The zeros of an orthogonal polynomial ``f``, in increasing order,
    from its Jacobi matrix's diagonal ``diag`` and off-diagonal ``off``.

    Each eigenvalue is polished by Newton steps ``ratio(x) = f(x) / f'(x)``
    that stay between the midpoints to its neighbouring eigenvalues.  A root
    stops when its step falls to 4e-16 relative or stops shrinking: near
    large-parameter zeros the rounding noise of the recurrence keeps the
    step from ever reaching 4e-16.  numpy's floating-point warnings are off;
    the certificate judges: the roots must be strictly increasing and ``f``
    finite and alternating in sign across the midpoints between them.
    """
    with np.errstate(all="ignore"):
        x = np.linalg.eigvalsh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
        mid = 0.5 * (x[:-1] + x[1:])
        lo = np.concatenate(([-np.inf], mid))
        hi = np.concatenate((mid, [np.inf]))
        step = np.full(x.shape, np.inf)
        active = np.arange(x.size)
        for _ in range(50):     # a backstop; the certificate below judges the result
            xa = x[active]
            new = xa - ratio(xa)
            new_step = np.abs(new - xa)
            take = (lo[active] < new) & (new < hi[active]) & (new_step < step[active])
            x[active[take]] = new[take]
            step[active[take]] = new_step[take]
            active = active[take & (new_step > 4e-16 * np.maximum(1.0, np.abs(new)))]
            if active.size == 0:
                break
        vals = f(0.5 * (x[:-1] + x[1:]))
    signs = np.sign(vals)
    if not ((np.diff(x) > 0.0).all() and (np.isfinite(vals) & (signs != 0.0)).all()
            and (signs[:-1] != signs[1:]).all()):
        raise RuntimeError(f"polished zeros {x.tolist()} are not separated by "
                           f"finite sign changes")
    return tuple(float(r) for r in x)


def _zeros(family: str, m: int, alpha: float | None) -> ZeroSet:
    """The m zeros of the degree-m ``family`` polynomial; callers check inputs."""
    pair = {"laguerre": lambda x: _laguerre_pair(m, alpha, x),
            "gegenbauer": lambda x: _gegenbauer_pair(m, alpha, x),
            "hermite": lambda x: _hermite_pair(m, x)}[family]

    def ratio(x):
        p, q = pair(x)
        if family == "laguerre":
            # x L_m' = m L_m - (m + alpha) L_(m-1)
            return x * p / (m * p - (m + alpha) * q)
        if family == "gegenbauer":
            # (1 - x^2) C_m' = (m + 2 alpha - 1) C_(m-1) - m x C_m
            return (1.0 - x) * (1.0 + x) * p / ((m + 2.0 * alpha - 1.0) * q - m * x * p)
        # H_m' = 2 m H_(m-1)
        return p / (2.0 * m * q)
    return ZeroSet(_jacobi_roots(*_jacobi(family, m, alpha), lambda x: pair(x)[0],
                                 ratio), m)


def polynomial_zeros(family: str, m: int, alpha: float) -> ZeroSet:
    """All m real zeros of the degree-m Laguerre or Gegenbauer polynomial."""
    _check_degree(m)
    if m < 1:
        raise ValueError("polynomial_zeros requires m >= 1")
    if family == "laguerre":
        if alpha <= -1.0:
            raise ValueError("laguerre zeros require alpha > -1")
    elif family == "gegenbauer":
        if alpha <= 0.0:
            raise ValueError("gegenbauer zeros require alpha > 0")
        if (1.0 + alpha) - 1.0 == 0.0:
            # the lower end of the supported range: 1 + alpha rounds to 1
            raise ValueError(f"gegenbauer zeros require 1 + alpha > 1 in "
                             f"double precision, got alpha = {alpha!r}")
    else:
        raise ValueError(f"unknown polynomial family {family!r}")
    return _zeros(family, m, alpha)


def hermite_zeros(m: int) -> ZeroSet:
    """All m real zeros of the Hermite polynomial H_m."""
    _check_degree(m)
    if m < 1:
        raise ValueError("hermite_zeros requires m >= 1")
    return _zeros("hermite", m, None)
