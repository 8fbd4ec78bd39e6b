"""Assembly of the large-parameter expansions for the integral families.

Every evaluator returns an :class:`ExpansionResult`: a log-space prefactor,
dimensionless correction terms, the running partial sums, and a branch tag
recording how the input was routed (Watson ladder, interior-saddle Laplace,
symmetric case, Hermite limit, or oracle-only fallback where no expansion
exists).

Shannon-type integrals are 2 d/dkappa of the power-type ones at kappa = 2.
In every family the log-prefactor is linear in kappa with slope ell / 2, so
the k-th Shannon term is ell t_k + 2 dt_k/dkappa, with ell exact and t_k the
dimensionless power-type term; ``_shannon_terms`` builds it on every route.
The "analytic" route takes (t_k, dt_k/dkappa) from the printed low-order
coefficients and their kappa-derivatives; the "fd" route takes them from the
full numeric ladders built at four kappa values around 2 (central difference
with one Richardson level).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from . import coeffs, oracle
from .closedforms import log_factorial, log_gamma, pochhammer
from .functional import Functional, Kind
from .logvalue import LogValue
from .orthopoly import hermite_value
from .series import laplace_terms

K_MAX = 7
_SYMMETRIC_REL_TOL = 1e-12
_FD_STEP = 1e-4


@dataclass(frozen=True)
class ExpansionResult:
    prefactor: LogValue
    terms: tuple[float, ...]
    partial_sums: tuple[LogValue, ...]
    truncation_used: int
    branch: str
    status: str = "ok"
    oracle_fallback: oracle.QuadResult | None = None

    @property
    def value(self) -> LogValue:
        return self.partial_sums[self.truncation_used - 1]


def optimal_truncation(terms) -> int:
    """Number of terms to keep: stop just before the first increase in
    magnitude; keep everything if the magnitudes decrease monotonically."""
    terms = list(terms)
    if not terms:
        raise ValueError("optimal_truncation requires a nonempty term list")
    for k in range(1, len(terms)):
        if abs(terms[k]) > abs(terms[k - 1]):
            return k
    return len(terms)


def _assemble(prefactor: LogValue, terms, branch: str, status: str = "ok",
              force_truncation: bool = False,
              fallback: oracle.QuadResult | None = None) -> ExpansionResult:
    terms = tuple(float(t) for t in terms)
    sums = []
    running = []
    for t in terms:
        running.append(t)
        sums.append(prefactor.scaled(math.fsum(running)))
    used = len(terms) if force_truncation else optimal_truncation(terms)
    return ExpansionResult(prefactor, terms, tuple(sums), used, branch,
                           status, fallback)


def _low_confidence(F: Functional) -> bool:
    return F.alpha < 10.0 * max(1.0, F.kappa * F.m)


def _check_K(K: int, cap: int = K_MAX) -> None:
    if not 0 <= K <= cap:
        raise ValueError(f"K must lie in [0, {cap}], got {K}")


def _shannon_terms(ell: float, t, dt) -> list[float]:
    """Shannon terms from the Renyi terms t_k and their kappa-derivatives:
    2 d/dkappa [P(kappa) t_k(kappa)] / P(2), where log P is linear in kappa
    with slope ell / 2."""
    return [ell * a + 2.0 * b for a, b in zip(t, dt)]


def _fd_kappa_terms(terms_at, h: float = _FD_STEP
                    ) -> tuple[list[float], list[float]]:
    """(t_k, d t_k / d kappa) at kappa = 2 from the dimensionless term list
    ``terms_at(kappa)`` at kappa = 2 +- h and 2 +- 2h: the central difference
    with one Richardson level, and the matching O(h^4) value."""
    p1, m1 = terms_at(2.0 + h), terms_at(2.0 - h)
    p2, m2 = terms_at(2.0 + 2.0 * h), terms_at(2.0 - 2.0 * h)
    t = [(4.0 * (a + b) - (c + d)) / 6.0 for a, b, c, d in zip(p1, m1, p2, m2)]
    dt = [(8.0 * (a - b) - (c - d)) / (12.0 * h)
          for a, b, c, d in zip(p1, m1, p2, m2)]
    return t, dt


# ---------------------------------------------------------------------------
# plain Laguerre family (Watson's-lemma ladder)
# ---------------------------------------------------------------------------

def _lag_prefactor_log(m: int, alpha: float, mu: float, lam: float,
                       kappa: float) -> float:
    return (kappa * m * math.log(alpha) + log_gamma(mu)
            - mu * math.log(lam) - kappa * log_factorial(m))


def _lag_grouped_terms(F: Functional, K: int, kappa: float) -> list[float]:
    """Terms grouped so the k-th entry carries the alpha^(-k) content:
    the ladder coefficients come in pairs C_{2k-1}, C_{2k} of equal order."""
    ladder = coeffs.lag_C_ladder(F.mu, F.lam, kappa, F.m, F.alpha, 2 * K)
    c = ladder.values
    alpha = F.alpha
    terms = [c[0]]
    for k in range(1, K + 1):
        terms.append(c[2 * k - 1] / alpha ** (2 * k - 1)
                     + c[2 * k] / alpha ** (2 * k))
    return terms


def renyi_laguerre_asym(F: Functional, K: int = K_MAX,
                        force_truncation: bool = False) -> ExpansionResult:
    """Power-type Laguerre integral: prefactor alpha^(kappa m) Gamma(mu) /
    (lam^mu (m!)^kappa) times the rearranged Watson ladder."""
    if F.kind is not Kind.LAG_RENYI:
        raise ValueError(f"expected a {Kind.LAG_RENYI.value} functional")
    _check_K(K)
    pref = LogValue.from_log(_lag_prefactor_log(F.m, F.alpha, F.mu, F.lam,
                                                F.kappa))
    status = "low_confidence" if _low_confidence(F) else "ok"
    terms = _lag_grouped_terms(F, K, F.kappa)
    return _assemble(pref, terms, "watson", status, force_truncation)


def shannon_laguerre_asym(F: Functional, K: int = 2,
                          route: str = "auto") -> ExpansionResult:
    """Shannon-type Laguerre integral via the kappa-derivative at kappa = 2."""
    if F.kind is not Kind.LAG_SHANNON:
        raise ValueError(f"expected a {Kind.LAG_SHANNON.value} functional")
    if route == "auto":
        route = "analytic" if K <= 2 else "fd"
    if F.m == 0:
        pref = LogValue.from_log(_lag_prefactor_log(0, F.alpha, F.mu, F.lam, 2.0))
        return _assemble(pref, [0.0] * (K + 1), "watson_shannon_zero",
                         force_truncation=True)
    pref = LogValue.from_log(_lag_prefactor_log(F.m, F.alpha, F.mu, F.lam, 2.0))
    status = "low_confidence" if _low_confidence(F) else "ok"
    ell = 2 * F.m * math.log(F.alpha) - 2.0 * log_factorial(F.m)
    if route == "analytic":
        _check_K(K, 2)
        d = [coeffs.lag_D(k, F.mu, F.lam, 2.0, F.m) for k in range(K + 1)]
        dp = [coeffs.lag_D_kappa_derivative(k, F.mu, F.lam, 2.0, F.m)
              for k in range(K + 1)]
        terms = [s / F.alpha ** k
                 for k, s in enumerate(_shannon_terms(ell, d, dp))]
        return _assemble(pref, terms, "watson_shannon_analytic", status,
                         force_truncation=True)
    if route != "fd":
        raise ValueError(f"unknown route {route!r}")
    _check_K(K)
    t, dt = _fd_kappa_terms(lambda kappa: _lag_grouped_terms(F, K, kappa))
    return _assemble(pref, _shannon_terms(ell, t, dt), "watson_shannon_fd",
                     status, force_truncation=True)


# ---------------------------------------------------------------------------
# Gegenbauer family
# ---------------------------------------------------------------------------

def _geg_phase_min(c: float, d: float) -> float:
    return (-c * math.log(2.0 * c / (c + d)) - d * math.log(2.0 * d / (c + d)))


def _geg_prefactor_log(m: int, alpha: float, c: float, d: float,
                       kappa: float) -> float:
    poch = pochhammer(alpha, m)
    return (-alpha * _geg_phase_min(c, d)
            + 0.5 * math.log(2.0 * math.pi / alpha)
            + kappa * m * math.log(2.0) + kappa * poch.log_abs
            - kappa * log_factorial(m))


def _is_symmetric(c: float, d: float) -> bool:
    return abs(c - d) <= _SYMMETRIC_REL_TOL * max(c, d)


def renyi_gegenbauer_asym(F: Functional, K: int = K_MAX,
                          force_truncation: bool = False) -> ExpansionResult:
    """Power-type Gegenbauer integral.

    Routes: interior-saddle Laplace ladder for c < d (c > d by the
    (a, c) <-> (b, d) swap), the symmetric c = d = 1 expansion for kappa = 2,
    and the Hermite power-integral leading term for symmetric general kappa.
    """
    if F.kind is not Kind.GEG_RENYI:
        raise ValueError(f"expected a {Kind.GEG_RENYI.value} functional")
    _check_K(K)
    m, alpha, kappa = F.m, F.alpha, F.kappa
    if _is_symmetric(F.c, F.d):
        if abs(F.c - 1.0) > _SYMMETRIC_REL_TOL:
            raise ValueError("the symmetric branch supports c = d = 1 only; "
                             "general equal weights rescale the polynomial "
                             "parameter and have no expansion of this form")
        status = "low_confidence" if _low_confidence(F) else "ok"
        if kappa == 2.0:
            pref = LogValue.from_log(0.5 * math.log(math.pi / alpha)
                                     + m * math.log(2.0 * alpha)
                                     - log_factorial(m))
            terms = [1.0]
            if K >= 1:
                terms.append(coeffs.geg_sym_D1(F.a, F.b, m) / alpha)
            return _assemble(pref, terms, "symmetric_kappa2", status,
                             force_truncation)
        q = oracle.hermite_power_integral(m, kappa, alpha)
        pref = LogValue.from_log(0.5 * kappa * m * math.log(alpha)
                                 - 0.5 * math.log(2.0)
                                 - kappa * log_factorial(m)) * q.value
        return _assemble(pref, [1.0], "symmetric_hermite_leading", status,
                         force_truncation=True)
    if F.c > F.d:
        res = renyi_gegenbauer_asym(Functional.geg_renyi(
            m, alpha, F.b, F.a, F.d, F.c, kappa), K, force_truncation)
        return replace(res, branch="laplace_swapped")
    status = "ok"
    if _low_confidence(F):
        status = "low_confidence"
    elif alpha * _geg_phase_min(F.c, F.d) < 5.0:
        status = "low_confidence"
    pref = LogValue.from_log(_geg_prefactor_log(m, alpha, F.c, F.d, kappa))
    ladder = coeffs.geg_C_ladder(F.a, F.b, F.c, F.d, kappa, m, alpha, K)
    terms = [v / alpha ** k for k, v in enumerate(ladder.values)]
    return _assemble(pref, terms, "laplace_cd", status, force_truncation)


def shannon_gegenbauer_asym(F: Functional, K: int = K_MAX,
                            route: str = "fd",
                            tol_rel: float = 1e-10) -> ExpansionResult:
    """Shannon-type Gegenbauer integral.

    For c != d this is the kappa-derivative of the power-type expansion.
    For c = d no expansion exists; the oracle value is returned with status
    ``no_expansion``.
    """
    if F.kind is not Kind.GEG_SHANNON:
        raise ValueError(f"expected a {Kind.GEG_SHANNON.value} functional")
    if _is_symmetric(F.c, F.d):
        q = oracle.integrate_functional(F, tol_rel)
        return ExpansionResult(q.value, (1.0,), (q.value,), 1,
                               "oracle_only", "no_expansion", q)
    if F.m == 0:
        return _assemble(LogValue.zero(), [0.0] * (K + 1),
                         "laplace_shannon_zero", force_truncation=True)
    if F.c > F.d:
        res = shannon_gegenbauer_asym(Functional.geg_shannon(
            F.m, F.alpha, F.b, F.a, F.d, F.c), K, route, tol_rel)
        return replace(res, branch="laplace_swapped_shannon")
    m, alpha = F.m, F.alpha
    pref = LogValue.from_log(_geg_prefactor_log(m, alpha, F.c, F.d, 2.0))
    status = "low_confidence" if _low_confidence(F) else "ok"
    ell = (2 * m * math.log(2.0) + 2.0 * pochhammer(alpha, m).log_abs
           - 2.0 * log_factorial(m))
    if route == "analytic":
        _check_K(K, 0)
        d0 = coeffs.geg_D0(F.a, F.b, F.c, F.d, 2.0, m)
        d0_prime = d0 * m * math.log((F.d - F.c) / (F.c + F.d))
        return _assemble(pref, _shannon_terms(ell, [d0], [d0_prime]),
                         "laplace_shannon_analytic", status,
                         force_truncation=True)
    if route != "fd":
        raise ValueError(f"unknown route {route!r}")
    _check_K(K)

    def terms_at(kappa):
        ladder = coeffs.geg_C_ladder(F.a, F.b, F.c, F.d, kappa, m, alpha, K)
        return [v / alpha ** k for k, v in enumerate(ladder.values)]

    t, dt = _fd_kappa_terms(terms_at)
    return _assemble(pref, _shannon_terms(ell, t, dt), "laplace_shannon_fd",
                     status, force_truncation=True)


# ---------------------------------------------------------------------------
# extended Laguerre family (mu = alpha + sigma)
# ---------------------------------------------------------------------------

def _ext_prefactor_log(m: int, alpha: float, sigma: float, lam: float,
                       kappa: float) -> float:
    return ((alpha + sigma) * math.log(alpha) - alpha
            - (alpha + sigma + kappa * m) * math.log(lam)
            + kappa * m * math.log(abs(lam - 1.0))
            + 0.5 * math.log(2.0 * math.pi / alpha)
            + kappa * m * math.log(alpha) - kappa * log_factorial(m))


def ext_renyi_laguerre_asym(F: Functional, K: int = K_MAX,
                            force_truncation: bool = False) -> ExpansionResult:
    """Power-type extended Laguerre integral (weight x^(alpha+sigma-1)).

    lambda != 1 uses the interior-saddle Laplace ladder; lambda = 1 uses the
    Hermite limit (closed leading value for kappa = 2, the Hermite power
    integral otherwise).
    """
    if F.kind is not Kind.EXT_LAG_RENYI:
        raise ValueError(f"expected a {Kind.EXT_LAG_RENYI.value} functional")
    _check_K(K)
    m, alpha, sigma, lam, kappa = F.m, F.alpha, F.sigma, F.lam, F.kappa
    status = "low_confidence" if _low_confidence(F) else "ok"
    if lam == 1.0:
        if kappa == 2.0:
            pref = LogValue.from_log((alpha + sigma + m) * math.log(alpha)
                                     - alpha + 0.5 * math.log(2.0 * math.pi / alpha)
                                     - log_factorial(m))
            return _assemble(pref, [1.0], "hermite_limit_kappa2", status,
                             force_truncation=True)
        q = oracle.hermite_power_integral(m, kappa, alpha)
        pref = LogValue.from_log((alpha + sigma) * math.log(alpha) - alpha
                                 + 0.5 * kappa * m * math.log(0.5 * alpha)
                                 - kappa * log_factorial(m)) * q.value
        return _assemble(pref, [1.0], "hermite_limit_power", status,
                         force_truncation=True)
    pref = LogValue.from_log(_ext_prefactor_log(m, alpha, sigma, lam, kappa))
    amp = coeffs.ext_lag_amplitude(sigma, lam, kappa, m, alpha, order=2 * K)
    terms = laplace_terms(amp, alpha, K)
    return _assemble(pref, terms, "laplace_lambda_ne1", status,
                     force_truncation)


def ext_shannon_laguerre_asym(F: Functional, K: int = 1, route: str = "auto",
                              tol_rel: float = 1e-10) -> ExpansionResult:
    """Shannon-type extended Laguerre integral.

    lambda = 1 has no expansion (oracle fallback with status
    ``no_expansion``); otherwise the kappa-derivative structure applies.
    """
    if F.kind is not Kind.EXT_LAG_SHANNON:
        raise ValueError(f"expected a {Kind.EXT_LAG_SHANNON.value} functional")
    m, alpha, sigma, lam = F.m, F.alpha, F.sigma, F.lam
    if lam == 1.0:
        q = oracle.integrate_functional(F, tol_rel)
        return ExpansionResult(q.value, (1.0,), (q.value,), 1,
                               "oracle_only", "no_expansion", q)
    if route == "auto":
        route = "analytic" if K <= 1 else "fd"
    if F.m == 0:
        pref = LogValue.from_log(_ext_prefactor_log(0, alpha, sigma, lam, 2.0))
        return _assemble(pref, [0.0] * (K + 1), "laplace_shannon_zero",
                         force_truncation=True)
    pref = LogValue.from_log(_ext_prefactor_log(m, alpha, sigma, lam, 2.0))
    status = "low_confidence" if _low_confidence(F) else "ok"
    ell = (2.0 * m * (math.log(alpha) + math.log(abs(lam - 1.0))
                      - math.log(lam)) - 2.0 * log_factorial(m))
    if route == "analytic":
        _check_K(K, 1)
        d = [coeffs.ext_lag_D(k, sigma, lam, 2.0, m) for k in range(K + 1)]
        dp = [coeffs.ext_lag_D_kappa_derivative(k, sigma, lam, 2.0, m)
              for k in range(K + 1)]
        terms = [s / alpha ** k
                 for k, s in enumerate(_shannon_terms(ell, d, dp))]
        return _assemble(pref, terms, "laplace_shannon_analytic", status,
                         force_truncation=True)
    if route != "fd":
        raise ValueError(f"unknown route {route!r}")
    _check_K(K)

    def terms_at(kappa):
        amp = coeffs.ext_lag_amplitude(sigma, lam, kappa, m, alpha, order=2 * K)
        return laplace_terms(amp, alpha, K)

    t, dt = _fd_kappa_terms(terms_at)
    return _assemble(pref, _shannon_terms(ell, t, dt), "laplace_shannon_fd",
                     status, force_truncation=True)


# ---------------------------------------------------------------------------
# Hermite-type polynomial evaluations
# ---------------------------------------------------------------------------

def hermite_type_gegenbauer(m: int, alpha: float, x: float,
                            orders: int = 1) -> float:
    """Approximate C_m^(alpha)(x / sqrt(alpha)) through the Hermite-form
    expansion with alpha-free coefficients; orders in {0, 1}."""
    if orders not in (0, 1):
        raise ValueError("orders must be 0 or 1")
    if abs(x) > 4.0:
        raise ValueError("the Hermite-form expansion is valid for bounded "
                         "arguments; |x| <= 4 required")
    if m == 0:
        return 1.0
    p, q = coeffs.geg_hermite_coeffs(m, x)
    ps = math.fsum(p[k] / alpha ** k for k in range(orders + 1))
    qs = math.fsum(q[k] / alpha ** k for k in range(orders + 1))
    return (alpha ** (0.5 * m) / math.factorial(m)
            * (hermite_value(m, x) * ps
               + (m / alpha) * hermite_value(m - 1, x) * qs))


def _laguerre_taylor_alpha_coeffs(m: int) -> list[list[float]]:
    """f_n(m; alpha) as exact coefficient lists in powers of alpha,
    from the recurrence (n+1) f_{n+1} = (m-n) f_n - alpha f_{n-1}."""
    fs = [[1.0], [float(m)]]
    for n in range(1, m + 1):
        prev, prev2 = fs[n], fs[n - 1]
        width = max(len(prev), len(prev2) + 1)
        new = []
        for j in range(width):
            val = (m - n) * (prev[j] if j < len(prev) else 0.0)
            if 1 <= j <= len(prev2):
                val -= prev2[j - 1]
            new.append(val / (n + 1.0))
        fs.append(new)
    return fs[:m + 1]


def hermite_type_laguerre(m: int, alpha: float, x: float,
                          orders: int = 1) -> float:
    """Approximate L_m^(alpha)(alpha x) through its Hermite-form expansion.

    The exact Taylor representation about x = 1 is a finite sum over
    half-integer powers of 1/alpha once the Hermite argument
    s = sqrt(alpha/2) (x - 1) is held fixed; ``orders = K`` keeps all levels
    through alpha^(-(2K+1)/2), so the first neglected level is O(alpha^-(K+1)).
    This regrouping carries the same content as the two-channel
    Hermite-coefficient form, whose printed low-order entries mix adjacent
    levels.
    """
    if orders not in (0, 1):
        raise ValueError("orders must be 0 or 1")
    s = math.sqrt(alpha / 2.0) * (x - 1.0)
    if abs(s) > 4.0:
        raise ValueError("the Hermite-form expansion is valid for bounded "
                         "arguments; |sqrt(alpha/2)(x-1)| <= 4 required")
    if m == 0:
        return 1.0
    fs = _laguerre_taylor_alpha_coeffs(m)
    lev_max = 2 * orders + 1
    total = 0.0
    for n in range(m + 1):
        for j, fnj in enumerate(fs[n]):
            lev = n - 2 * j
            if 0 <= lev <= lev_max and fnj != 0.0:
                total += ((-1.0) ** n * math.factorial(m) / math.factorial(m - n)
                          * 2.0 ** (m - 0.5 * n) * fnj
                          * s ** (m - n) * alpha ** (j - 0.5 * n))
    return (alpha / 2.0) ** (0.5 * m) * (-1.0) ** m / math.factorial(m) * total


# ---------------------------------------------------------------------------
# dispatch helpers
# ---------------------------------------------------------------------------

_EVALUATORS = {
    Kind.LAG_RENYI: renyi_laguerre_asym,
    Kind.GEG_RENYI: renyi_gegenbauer_asym,
    Kind.EXT_LAG_RENYI: ext_renyi_laguerre_asym,
}


def evaluate_asymptotic(F: Functional, K: int | None = None,
                        tol_rel: float = 1e-10) -> ExpansionResult:
    """Evaluate any functional by its asymptotic route.

    ``K = None`` computes the full term budget and truncates optimally;
    an explicit K forces that truncation depth.
    """
    force = K is not None
    if F.kind is Kind.LAG_SHANNON:
        k = 2 if K is None else K
        return shannon_laguerre_asym(F, k, route="auto")
    if F.kind is Kind.GEG_SHANNON:
        if _is_symmetric(F.c, F.d):
            return shannon_gegenbauer_asym(F, tol_rel=tol_rel)
        k = K_MAX if K is None else K
        return shannon_gegenbauer_asym(F, k, route="fd")
    if F.kind is Kind.EXT_LAG_SHANNON:
        if F.lam == 1.0:
            return ext_shannon_laguerre_asym(F, tol_rel=tol_rel)
        k = 1 if K is None else K
        return ext_shannon_laguerre_asym(F, k, route="auto")
    k = K_MAX if K is None else K
    res = _EVALUATORS[F.kind](F, k, force_truncation=force)
    return res


def closed_form_value(F: Functional) -> LogValue:
    """Exact closed-form value, where one is known for the parameter choice."""
    from . import closedforms as cf

    def close(u, v):
        return u is not None and abs(u - v) <= 1e-12 * max(1.0, abs(v))

    m, alpha = F.m, F.alpha
    if F.kind is Kind.LAG_RENYI:
        if m == 0:
            return LogValue.from_log(log_gamma(F.mu) - F.mu * math.log(F.lam))
        if close(F.kappa, 2.0) and close(F.lam, 1.0):
            return cf.lag24_value(m, alpha, F.mu)
    elif F.kind is Kind.GEG_RENYI:
        if m == 0:
            log_val = ((F.c + F.d) * alpha + F.a + F.b + 1.0) * math.log(2.0) \
                + log_gamma(F.c * alpha + F.a + 1.0) \
                + log_gamma(F.d * alpha + F.b + 1.0) \
                - log_gamma((F.c + F.d) * alpha + F.a + F.b + 2.0)
            return LogValue.from_log(log_val)
        if (close(F.kappa, 2.0) and close(F.a, -0.5)
                and close(F.b, 2 * m - 1.5) and close(F.c, 1.0)
                and close(F.d, 3.0)):
            return cf.geg22_value(m, alpha)
        if (close(F.kappa, 2.0) and close(F.a, -0.5) and close(F.b, -1.5)
                and close(F.c, 1.0) and close(F.d, 1.0)):
            return cf.geg31_value(m, alpha)
    elif F.kind is Kind.EXT_LAG_RENYI:
        if m == 0:
            return LogValue.from_log(log_gamma(alpha + F.sigma)
                                     - (alpha + F.sigma) * math.log(F.lam))
        if close(F.kappa, 2.0) and close(F.sigma, 1.0):
            if close(F.lam, 1.0):
                return cf.more24_value(m, alpha)
            return cf.more15_value(m, alpha, F.lam)
    elif F.kind.is_shannon and m == 0:
        return LogValue.zero()
    raise ValueError(f"no closed form known for {F.params_dict()}")
