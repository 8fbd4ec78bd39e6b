"""Coefficient ladders for the large-parameter expansions.

Each ladder exists in two forms wherever a closed form is known: the printed
low-order polynomial in the parameters, and the generic series-engine route
that extends it to arbitrary order.  The tests cross-validate the two.

Notation used throughout: ``m`` is the polynomial degree, ``alpha`` the large
parameter, ``kappa`` the power of the polynomial in the integrand, ``mu``
and ``lam`` the weight parameters of the Laguerre-type integrals, ``sigma``
the shift in the extended (mu = alpha + sigma) family, and ``a, b, c, d``
the exponent parameters of the Gegenbauer-type integrals.

Every ladder expands in inverse powers of alpha (DLMF §2.1(iii)): each
sequence is stored over the power of alpha it is expanded in, and each moment
(the Watson table, ``series.laplace_terms``) takes its 1/alpha per order as a
power of 1/alpha, so the ladders give their terms c_k / alpha^k directly.

Both Laplace-type families, the Gegenbauer integral and the extended
Laguerre one, have a logarithmic phase, so each saddle map x(y), defined by
phi(x) - phi(x_m) = y^2/2, solves a first-order ODE with a quadratic right
side; one O(order^2) recurrence on that ODE builds both maps.  The j- and
kappa-free part of the Gegenbauer saddle amplitude (saddle point, saddle
series and weight factors) is built once per (a, b, c, d, order) in a
bounded LRU cache and shared by every ladder term and kappa.

With ``dkappa=True`` the numeric ladders (``lag_C_ladder``, ``geg_C_ladder``,
``ext_lag_amplitude``) also return the exact kappa-derivative of their output
from the same build, the input of the Shannon-type routes.  kappa enters in
three places, each differentiated in closed form (forward mode, Griewank and
Walther, *Evaluating Derivatives*, 2008):

- a power series_pow(b, kappa) of the A-coefficients or of the extended
  bracket series, whose derivative is the power times series_log(b);
- a power series_pow(w, kappa m - 2j) x^(kappa m - 2j) of a saddle factor,
  whose derivative is the power times m (series_log(w) + log x);
- the Pochhammer (j - kappa m)_n of the Watson moments, by the product rule
  over its factors, since at kappa = 2 one of them can be exactly zero.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from .functional import _close
from .series import Series, laplace_terms, series_log, series_pow


@dataclass(frozen=True)
class CoeffLadder:
    """A k-indexed ladder: the terms c_k / alpha^k of the expansion."""

    values: tuple[float, ...]
    dkappa: tuple[float, ...] | None = None  # d values / d kappa, if asked


def _falling(m: int, n: int) -> float:
    """m! / (m-n)! as a float; zero when n > m."""
    if n > m:
        return 0.0
    out = 1.0
    for k in range(n):
        out *= m - k
    return out


# ---------------------------------------------------------------------------
# Laguerre Taylor coefficients f_n(m; alpha) and the degree-ordered g_n
# ---------------------------------------------------------------------------

def f_sequence(m: int, alpha: float, n_max: int) -> list[float]:
    """f_n(m; alpha) / alpha^n, where f_n = L_n^(alpha+m-n)(alpha) =
    O(alpha^floor(n/2)), via the three-term recurrence
    (n+1) alpha f_{n+1} = (m-n) f_n - f_{n-1} on the stored values, seeded
    f_0 = 1, f_1 = m / alpha."""
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    f = [1.0]
    if n_max >= 1:
        f.append(m / alpha)
    for n in range(1, n_max):
        f.append(((m - n) * f[n] - f[n - 1]) / ((n + 1.0) * alpha))
    return f


def g_coeffs(m: int, t: float) -> list[float]:
    """First three coefficients of the degree-ordered rearrangement of
    L_m^(alpha)(alpha t) about its leading term alpha^m (1-t)^m / m!."""
    if t == 1.0:
        raise ValueError("g_coeffs is singular at t = 1")
    if m == 0:
        return [1.0, 0.0, 0.0]
    one_mt = 1.0 - t
    g1 = m * (m + 1.0 - 2.0 * m * t) / (2.0 * one_mt ** 2)
    g2 = (m * (m - 1.0)
          * (3.0 * m * m * (1.0 - 2.0 * t) ** 2
             - m * (12.0 * t * t + 8.0 * t - 5.0)
             + 16.0 * t + 2.0)
          / (24.0 * one_mt ** 4))
    return [1.0, g1, g2]


# ---------------------------------------------------------------------------
# Watson's-lemma ladder for the plain Laguerre integral
# ---------------------------------------------------------------------------

def _pow_dkappa(base: Series, kappa: float, dkappa: bool):
    """base**kappa, and with ``dkappa`` the pair (power, d power / d kappa)."""
    power = series_pow(base, kappa)
    if not dkappa:
        return list(power.coeffs)
    return list(power.coeffs), list((power * series_log(base)).coeffs)


def lag_A_coeffs(kappa: float, m: int, alpha: float, j_max: int,
                 dkappa: bool = False):
    """A_j / alpha^j: coefficients of the kappa-th power of the bracketed
    Taylor series of L_m^(alpha)(alpha t), expanded in 1/(alpha (1-t)); with
    ``dkappa`` the pair (A_j, dA_j/dkappa), both over alpha^j."""
    if kappa <= 0:
        raise ValueError("kappa must be positive")
    f = f_sequence(m, alpha, min(m, j_max))
    base = [(_falling(m, n) * f[n]) if n <= m else 0.0 for n in range(j_max + 1)]
    return _pow_dkappa(Series.from_coeffs(base, j_max), kappa, dkappa)


def _lag_B_table(mu: float, lam: float, kappa: float, m: int, alpha: float,
                 k_max: int, dkappa: bool):
    """Watson moments B_{j,n} = (mu)_n (j - kappa m)_n / (n! lam^n) for
    j + n <= k_max, each times (1/alpha)^n, and with ``dkappa`` their
    kappa-derivatives in the same units.

    Each moment is walked along n by its running ratio (mu + n)(x + n) /
    ((n + 1) lam), x = j - kappa m, kept as running numerator products over
    the shared n! lam^n: the table costs O(k_max^2) and rounds exactly like
    the direct Pochhammer quotient.  d(x)_n / dkappa follows the product rule
    one factor at a time, d(x)_{n+1} = d(x)_n (x + n) - m (x)_n: at kappa = 2
    a factor x + n can be exactly zero, and this never divides by it."""
    if lam <= 0 or mu <= 0:
        raise ValueError("the Watson moments require mu > 0 and lam > 0")
    poch_mu = [1.0]
    denom = [1.0]
    for n in range(k_max):
        poch_mu.append(poch_mu[n] * (mu + n))
        denom.append(math.factorial(n + 1) * lam ** (n + 1))
    inv = 1.0 / alpha
    inv_n = [inv ** n for n in range(k_max + 1)]
    B, dB = [], []
    for j in range(k_max + 1):
        x = j - kappa * m
        poch_x, dpoch_x = 1.0, 0.0
        b, db = [1.0], [0.0]
        for n in range(1, k_max + 1 - j):
            factor = x + (n - 1)
            poch_x, dpoch_x = poch_x * factor, dpoch_x * factor - m * poch_x
            b.append(poch_mu[n] * poch_x / denom[n] * inv_n[n])
            if dkappa:
                db.append(poch_mu[n] * dpoch_x / denom[n] * inv_n[n])
        B.append(b)
        dB.append(db)
    return B, dB


def lag_C_ladder(mu: float, lam: float, kappa: float, m: int, alpha: float,
                 k_max: int, dkappa: bool = False) -> CoeffLadder:
    """The terms C_k(alpha) / alpha^k of the alpha-dependent ladder C_k =
    sum_{j<=k} A_j B_{j,k-j}, each product taken in the units of its
    factors.  With ``dkappa`` the ladder also carries dC_k/dkappa / alpha^k."""
    A = lag_A_coeffs(kappa, m, alpha, k_max, dkappa)
    if dkappa:
        A, dA = A
    B, dB = _lag_B_table(mu, lam, kappa, m, alpha, k_max, dkappa)
    values = tuple(math.fsum([A[j] * B[j][k - j] for j in range(k + 1)])
                   for k in range(k_max + 1))
    derivs = None
    if dkappa:
        derivs = tuple(math.fsum([dA[j] * B[j][k - j] + A[j] * dB[j][k - j]
                                  for j in range(k + 1)])
                       for k in range(k_max + 1))
    return CoeffLadder(values, dkappa=derivs)


def lag_D(k: int, mu: float, lam: float, kappa: float, m: int) -> float:
    """Printed closed forms of the alpha-free ladder, available for k <= 2."""
    if k < 0 or k > 2:
        raise ValueError("closed forms are printed for k <= 2 only; use the "
                         "numeric C-ladder route for higher order")
    if k == 0:
        return 1.0
    if k == 1:
        return kappa * m * (-2.0 * mu + m * lam + lam) / (2.0 * lam)
    ka, kb = _lag_D2_split(mu, lam, m)
    return kappa * m * (kappa * ka + kb) / (24.0 * lam ** 2)


def _lag_D2_split(mu: float, lam: float, m: int) -> tuple[float, float]:
    """D_2 = kappa m (kappa * ka + kb) / (24 lam^2), split by kappa power."""
    ka = (-12.0 * mu * lam * m * m - 12.0 * mu * lam * m
          + 3.0 * m ** 3 * lam ** 2 + 12.0 * mu ** 2 * m + 12.0 * mu * m
          + 6.0 * lam ** 2 * m * m + 3.0 * lam ** 2 * m)
    kb = (24.0 * mu * lam - 4.0 * m * m * lam ** 2 - 6.0 * m * lam ** 2
          - 12.0 * mu ** 2 - 12.0 * mu - 2.0 * lam ** 2)
    return ka, kb


def lag_D_kappa_derivative(k: int, mu: float, lam: float, kappa: float,
                           m: int) -> float:
    """Analytic d/d(kappa) of the printed lag_D ladder, k <= 2."""
    if k < 0 or k > 2:
        raise ValueError("analytic kappa-derivatives available for k <= 2 only")
    if k == 0:
        return 0.0
    if k == 1:
        return m * (-2.0 * mu + m * lam + lam) / (2.0 * lam)
    ka, kb = _lag_D2_split(mu, lam, m)
    return m * (2.0 * kappa * ka + kb) / (24.0 * lam ** 2)


# ---------------------------------------------------------------------------
# Gegenbauer ladders (asymmetric saddle, c != d)
# ---------------------------------------------------------------------------

def geg_f_sequence(m: int, alpha: float, n_max: int) -> list[float]:
    """f_n / alpha^n for the O(1) coefficients f_n of the inverse-square
    reordering of the explicit Gegenbauer sum: f_n / alpha^n = (-1)^n m! /
    (4^n n! (m-2n)! prod_{k=m-n..m-1} (alpha + k)); zero once 2n exceeds m."""
    return [(-1.0) ** n * math.factorial(m)
            / (4.0 ** n * math.factorial(n) * math.factorial(m - 2 * n))
            / math.prod([alpha + k for k in range(m - n, m)])
            if 2 * n <= m else 0.0 for n in range(n_max + 1)]


def geg_A_coeffs(kappa: float, m: int, alpha: float, j_max: int,
                 dkappa: bool = False):
    """A_j / alpha^j for the Gegenbauer integrand power: the kappa-th power of
    the inverse-square series, expanded in 1/(alpha x^2); with ``dkappa`` the
    pair (A_j, dA_j/dkappa), both over alpha^j."""
    if kappa <= 0:
        raise ValueError("kappa must be positive")
    base = Series.from_coeffs(geg_f_sequence(m, alpha, j_max), j_max)
    return _pow_dkappa(base, kappa, dkappa)


def _log_phase_saddle(q: float, r: tuple[float, float, float],
                      order: int) -> Series:
    """The saddle map s(y), s(0) = 0, of q s s' = y (r0 + r1 s + r2 s^2), to
    y^order (order >= 1).

    A logarithmic phase with phi'(x) = q (x - x_m) / R(x), R quadratic,
    gives this ODE for s = x - x_m under phi(x) - phi(x_m) = y^2/2.  Matching
    powers of y gives s_1 = sqrt(r0 / q), and for k >= 2

        q (k+1) s_1 s_k = r1 s_(k-1) + r2 sum_(i=1..k-2) s_i s_(k-1-i)
                          - q (k+1)/2 sum_(i=2..k-1) s_i s_(k+1-i),

    O(order^2) in all (Temme, *Asymptotic Methods for Integrals*, 2015).
    s_k depends only on s_1..s_(k-1), so a truncated build equals a deeper
    one bit for bit.  The branch has sign(s) = sign(y).
    """
    r0, r1, r2 = r
    s = [0.0, math.sqrt(r0 / q)]
    for k in range(2, order + 1):
        qk = q * (k + 1)
        acc = (r1 * s[k - 1]
               + r2 * math.fsum([s[i] * s[k - 1 - i] for i in range(1, k - 1)])
               - 0.5 * qk * math.fsum([s[i] * s[k + 1 - i] for i in range(2, k)]))
        s.append(acc / (qk * s[1]))
    return Series(tuple(s))


def geg_saddle_x(c: float, d: float, order: int):
    """Saddle x_m = (d-c)/(d+c) of the phase -c log(1-x) - d log(1+x) and the
    series s(y) = x(y) - x_m to y^(order+1), from (c + d) s s' =
    y (1 - x^2)."""
    if c <= 0 or d <= 0:
        raise ValueError("c and d must be positive")
    x_m = (d - c) / (d + c)
    return x_m, _log_phase_saddle(c + d, (1.0 - x_m * x_m, -2.0 * x_m, -1.0),
                                  order + 1)


@functools.lru_cache(maxsize=256)
def _geg_frame(a: float, b: float, c: float, d: float, order: int):
    """The j- and kappa-free factors of the geg_laplace_c amplitude to
    ``order``: x_m, (1-x_m)^a (1+x_m)^b, the series (1-x)^a (1+x)^b / that
    constant, x / x_m and dx/dy.

    Coefficient k of the saddle series, and of a powered or multiplied
    series, depends only on coefficients 0..k of its inputs, so a frame
    built at the ladder's top order and truncated gives the same numbers bit
    for bit as one built at the lower order.
    """
    if not (0.0 < c < d):
        raise ValueError("geg_laplace_c requires 0 < c < d; the c > d case "
                         "follows from swapping (a, c) with (b, d)")
    x_m, s = geg_saddle_x(c, d, order)  # s.order == order + 1, for dx/dy
    dxdy = s.deriv()
    s = s.truncate(order)
    w1 = (Series.constant(1.0 - x_m, order) - s) * (1.0 / (1.0 - x_m))
    w2 = (Series.constant(1.0 + x_m, order) + s) * (1.0 / (1.0 + x_m))
    wx = (Series.constant(x_m, order) + s) * (1.0 / x_m)
    return (x_m, (1.0 - x_m) ** a * (1.0 + x_m) ** b,
            series_pow(w1, a) * series_pow(w2, b), wx, dxdy)


def _geg_amplitude(frame, j: int, kappa: float, m: int, order: int) -> Series:
    """geg_laplace_c from a frame of order >= ``order``."""
    x_m, const_ab, w_ab, wx, dxdy = frame
    rho = kappa * m - 2.0 * j
    amp = (w_ab.truncate(order) * series_pow(wx.truncate(order), rho)
           * dxdy.truncate(order))
    return amp * (const_ab * x_m ** rho)


def geg_laplace_c(j: int, a: float, b: float, c: float, d: float,
                  kappa: float, m: int, order: int) -> Series:
    """Amplitude series (1-x)^a (1+x)^b x^(kappa m - 2j) dx/dy in powers of y,
    about the interior saddle; requires 0 < c < d."""
    return _geg_amplitude(_geg_frame(a, b, c, d, order), j, kappa, m, order)


def _gaussian_moments(A, amps, alpha: float, k_max: int) -> tuple[float, ...]:
    """sum_{j<=k} A_j t_(k-j)(amp_j) for k = 0..k_max, where t_n(amp) =
    [y^(2n)] amp (2n-1)!! / alpha^n is the n-th ``laplace_terms`` term."""
    moments = [laplace_terms(amp, alpha, k_max - j) for j, amp in enumerate(amps)]
    return tuple(math.fsum([A[j] * moments[j][k - j] for j in range(k + 1)])
                 for k in range(k_max + 1))


def geg_C_ladder(a: float, b: float, c: float, d: float, kappa: float, m: int,
                 alpha: float, k_max: int, dkappa: bool = False) -> CoeffLadder:
    """The terms C_k(alpha) / alpha^k: Gaussian-moment assembly of the per-j
    amplitudes weighted by the A_j ladder.  With ``dkappa`` the ladder also
    carries dC_k/dkappa / alpha^k, where d amp_j / d kappa =
    amp_j m (log(x / x_m) + log x_m)."""
    A = geg_A_coeffs(kappa, m, alpha, k_max, dkappa)
    frame = _geg_frame(a, b, c, d, 2 * k_max)
    amps = [_geg_amplitude(frame, j, kappa, m, 2 * (k_max - j))
            for j in range(k_max + 1)]
    derivs = None
    if dkappa:
        A, dA = A
        x_m, wx = frame[0], frame[3]
        log_x = series_log(wx) + Series.constant(math.log(x_m), 2 * k_max)
        damps = [amp * log_x.truncate(amp.order) * m for amp in amps]
        derivs = tuple(u + v for u, v in
                       zip(_gaussian_moments(dA, amps, alpha, k_max),
                           _gaussian_moments(A, damps, alpha, k_max)))
    return CoeffLadder(_gaussian_moments(A, amps, alpha, k_max), dkappa=derivs)


def geg_D0(a: float, b: float, c: float, d: float, kappa: float, m: int) -> float:
    """Leading alpha-free coefficient of the asymmetric Gegenbauer expansion."""
    if not (0.0 < c < d):
        raise ValueError("geg_D0 requires 0 < c < d")
    a1 = 2.0 * math.sqrt(c * d / (c + d) ** 3)
    return (a1 * (2.0 * c / (c + d)) ** a * (2.0 * d / (c + d)) ** b
            * ((d - c) / (c + d)) ** (kappa * m))


def geg_sym_D1(a: float, b: float, m: int) -> float:
    """First correction of the symmetric (c = d = 1, kappa = 2) expansion."""
    return (2.0 * (2 * m + 1) * ((a - b) ** 2 - (a + b))
            + 2.0 * m * m - 14.0 * m - 3.0) / 8.0


# ---------------------------------------------------------------------------
# Hermite-type expansion coefficients
# ---------------------------------------------------------------------------

def geg_hermite_coeffs(m: int, x: float) -> tuple[list[float], list[float]]:
    """(p_k, q_k) for k = 0..1 of the Hermite-form representation of
    C_m^(alpha)(x / sqrt(alpha)); coefficients are alpha-free."""
    p0 = 1.0
    q0 = x * (2.0 * x * x + 2.0 * m - 1.0) / 4.0
    p1 = m * (m - 2.0 * x * x - 2.0) / 8.0
    q1 = x * (3.0 + 24.0 * m - 42.0 * m * m + 12.0 * m ** 3
              + (400.0 * m - 48.0 * m * m - 640.0) * x * x
              + (1280.0 - 384.0 * m) * x ** 4) / 192.0
    return [p0, p1], [q0, q1]


def lag_hermite_coeffs(m: int, alpha: float, x: float) -> tuple[list[float], list[float]]:
    """(c_k, d_k) for k = 0..1 of the Hermite-form representation of
    L_m^(alpha)(alpha x); these retain alpha dependence."""
    c0 = 1.0
    d0 = 1.0
    c1 = m * (alpha * (x - 1.0) - 1.0)
    d1 = (3.0 + 7.0 * alpha - 3.0 * m - 9.0 * alpha * x
          + 3.0 * (alpha * (x - 1.0)) ** 2 - 4.0 * alpha * m
          + 6.0 * alpha * x * m) / 3.0
    return [c0, c1], [d0, d1]


# ---------------------------------------------------------------------------
# Extended Laguerre (mu = alpha + sigma) ladder, lambda != 1
# ---------------------------------------------------------------------------

def ext_saddle_x(lam: float, order: int):
    """Saddle x_0 = 1/lam of lam*x - log x - 1 and the series x(y) - x_0 to
    y^(order+1), from lam s s' = y (1/lam + s)."""
    if lam <= 0:
        raise ValueError("lam must be positive")
    return 1.0 / lam, _log_phase_saddle(lam, (1.0 / lam, 1.0, 0.0), order + 1)


def ext_lag_amplitude(sigma: float, lam: float, kappa: float, m: int,
                      alpha: float, order: int,
                      dkappa: bool = False):
    """Normalised Laplace amplitude of the extended Laguerre integral.

    The full amplitude is x^sigma y/(lam x - 1) |L|^kappa; this routine
    strips the constant prefactor x_0^sigma |1-x_0|^(kappa m)
    alpha^(kappa m)/(m!)^kappa so that the returned constant term is the
    alpha-dependent C_0(alpha) = 1 + O(1/alpha).

    With ``dkappa`` it returns the pair (amp, d amp / d kappa), where
    d amp / d kappa = amp (m log wser + log t) for the normalised factor
    wser^(kappa m) and the bracket series t^kappa.
    """
    if lam <= 0:
        raise ValueError("lam must be positive")
    if _close(lam, 1.0):
        raise ValueError("lambda = 1 is the symmetric branch; no Laplace "
                         "amplitude of this form exists there")
    x0, s = ext_saddle_x(lam, order)  # s.order == order + 1, for dx/dy
    dxdy = s.deriv()
    s = s.truncate(order)
    x_ratio = (Series.constant(x0, order) + s) * (1.0 / x0)
    wser = (Series.constant(1.0 - x0, order) - s) * (1.0 / (1.0 - x0))
    f = f_sequence(m, alpha, m)  # f_n / alpha^n carries the 1/alpha^n of inv^n
    inv = series_pow(wser, -1.0) * (1.0 / (1.0 - x0))
    t = Series.constant(1.0, order)
    inv_n = Series.constant(1.0, order)
    for n in range(1, m + 1):
        inv_n = inv_n * inv
        t = t + inv_n * (_falling(m, n) * f[n])
    if t.coeffs[0] <= 0.0:
        raise ValueError(f"alpha = {alpha} is too small for the lambda != 1 "
                         f"expansion at m={m} (bracket series not positive)")
    amp = (series_pow(x_ratio, sigma - 1.0) * series_pow(wser, kappa * m)
           * series_pow(t, kappa) * dxdy) * (1.0 / x0)
    if not dkappa:
        return amp
    return amp, amp * (series_log(wser) * m + series_log(t))


def ext_lag_D(k: int, sigma: float, lam: float, kappa: float, m: int) -> float:
    """Closed forms of the extended-Laguerre ladder, k <= 1.

    The first correction, grouped by powers of kappa*m, is

        D_1 = [ (6 sigma^2 - 6 sigma + 1)(lam-1)^2
                + kappa m (6 lam^2 - 12 sigma lam + 12 sigma - 6)
                + 6 (kappa m)^2 + 6 kappa m^2 lam (lam - 2) ] / (12 (lam-1)^2).

    At kappa=2, sigma=1 this reduces to the hypergeometric special case
    (24 m^2 + lam^2 - 2 lam + 1 + 12 m^2 lam^2 - 24 m^2 lam + 12 m lam^2
    - 24 m lam + 12 m) / (12 (lam-1)^2), and it agrees with the numeric
    Laplace pipeline for general parameters.
    """
    if _close(lam, 1.0):
        raise ValueError("the lambda = 1 case has no ladder of this form")
    if k < 0 or k > 1:
        raise ValueError("closed forms are available for k <= 1 only")
    if k == 0:
        return 1.0
    km = kappa * m
    num = ((6.0 * sigma ** 2 - 6.0 * sigma + 1.0) * (lam - 1.0) ** 2
           + km * (6.0 * lam ** 2 - 12.0 * sigma * lam + 12.0 * sigma - 6.0)
           + 6.0 * km ** 2
           + 6.0 * kappa * m * m * lam * (lam - 2.0))
    return num / (12.0 * (lam - 1.0) ** 2)


def ext_lag_D_kappa_derivative(k: int, sigma: float, lam: float, kappa: float,
                               m: int) -> float:
    """Analytic d/d(kappa) of the extended-Laguerre ladder, k <= 1."""
    if _close(lam, 1.0):
        raise ValueError("the lambda = 1 case has no ladder of this form")
    if k < 0 or k > 1:
        raise ValueError("analytic kappa-derivatives available for k <= 1 only")
    if k == 0:
        return 0.0
    num = (m * (6.0 * lam ** 2 - 12.0 * sigma * lam + 12.0 * sigma - 6.0)
           + 12.0 * kappa * m * m
           + 6.0 * m * m * lam * (lam - 2.0))
    return num / (12.0 * (lam - 1.0) ** 2)
