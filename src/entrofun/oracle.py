"""High-accuracy direct evaluation of the integral functionals.

This is the ground truth the asymptotic expansions are tested against.
Each integral is split into segments delimited by the zeros of the
polynomial (where |p|^kappa has integrable kinks and p^2 log p^2 has
removable singularities) and integrated per segment with a tanh-sinh
(double-exponential) rule under progressive step halving (Takahasi and
Mori, Publ. RIMS 9, 1974).  Two builders give the segments, scale and
integrand: one for the Gegenbauer weight, and one for the Laguerre weight
x^(mu-1) e^(-lam x), which serves the extended kinds at mu = alpha + sigma.
At large alpha the Gegenbauer and extended Laguerre weights are narrow about
their peak, the point the saddle-point expansions expand about; the
Laguerre weight peaks at x_p = (mu-1)/lam with width sqrt(mu-1)/lam.  When
the peak lies more than 6 widths from both ends of its segment, as it does
at large alpha for c != d and for extended inputs with lam != 1, that one
segment is split at the peak and at 3 widths either side, so no narrow peak
sits inside a wide segment.  For c = d and lam = 1 the peak lies among the
zeros, whose segments are already that narrow, and the bounds stay as the
zeros delimit them.  From mu = 2 on the Laguerre weight is taken relative
to its peak, so the O(mu log mu) peak constant is folded into the scale
once instead of rounded at every node.

Only the window where the integrand can reach the tolerance is integrated.
Each segment's mass is bounded by its width times the sup of the weight
(log-concave or monotone, so at its peak clamped into the segment) times
the sup of |p|^kappa or p^2 |log p^2|, with |p| = |lead| prod_j |x - z_j|
over all m zeros, each factor at the segment end farther from z_j.  The
longest prefix and suffix of segments whose bounds stay below e^-28 TOL_MIN
of an estimate of the integral are dropped, and their bound joins the tail
that the certificate adds to the error, so a poor estimate can only fail
the certificate.  Before the zeros are solved for, the window is trimmed
knowing only the Gershgorin range that holds them; a window clear of that
range holds no zero, and the solve is skipped.

Each segment stores the running sum of every level it has evaluated, so
refinement never evaluates a level twice, and the missing levels of all
unsettled segments are evaluated together, in batched calls of the
integrand: the first pass asks for levels 0 to 3 of every segment at once,
since none can settle before its level 3 exists.  The batches run with
numpy's floating-point warnings off, and the first one that holds a
non-finite value ends the integral with a ``QuadratureError`` that names
alpha and m, as does every other failure, a zero solve or a segment bound
that overflows double precision included.

The Hermite power integral needs the zeros of H_m and a bound on its
coefficients; both depend on m alone, so they are computed once per degree,
on first use.

All floating-point work happens after dividing the integrand by a log-space
scale close to its peak, so magnitudes stay near unity even where the true
values overflow doubles.  The Laguerre scale takes the polynomial's size at
x_p as the larger of (alpha |1 - x_p/alpha|)^m / m! and (alpha/2)^(m/2) / m!,
so it stays finite where x_p meets alpha (lam -> 1 for the extended kinds).
"""

from __future__ import annotations

import bisect
import functools
import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .functional import Functional
from .logvalue import LogValue
from .orthopoly import (MAX_DEGREE, _check_degree, _gegenbauer_zero_radius,
                        _laguerre_zero_ceiling, _laguerre_zero_floor,
                        gegenbauer_value, hermite_value, hermite_zeros,
                        laguerre_value, polynomial_zeros)

TOL_MIN, TOL_MAX = 1e-13, 1e-6
_T_MAX = 6.1
_H0 = 0.5
_MAX_LEVEL = 11
# the node count of one segment's finest level, _ts_level_nodes(_MAX_LEVEL),
# as a constant: building that level costs ~5 ms and ~2.7 MB of temporaries
# in a process whose integrals never reach it
_BATCH_NODES = 24986
# breakpoints around a large-alpha peak, in units of its width, and the
# widths that must separate the peak from both ends of its segment before
# the segment is split (chosen by the scan recorded in CHANGES.md)
_PEAK_STEPS = (-3.0, 0.0, 3.0)
_PEAK_CLEARANCE = 6.0
# the mass the segments dropped from either end of the domain may hold
# together, relative to an estimate of the integral, and the probes of that
# estimate in standard deviations of the weight (chosen in CHANGES.md)
_DROP_LOG = math.log(TOL_MIN) - 28.0
_PROBE_STEPS = (-2.0, -1.0, 0.0, 1.0, 2.0)


class QuadratureError(RuntimeError):
    """Raised when the quadrature cannot certify the requested tolerance."""


@dataclass(frozen=True)
class QuadResult:
    """The integral, log of its absolute error bound, the integrand
    evaluations spent, and the segments integrated, in the integration
    variable: x for every family (the Hermite integral's t = y sqrt(alpha/2))."""

    value: LogValue
    abs_err_log: float
    n_evals: int
    segments: tuple[tuple[float, float], ...]


# ---------------------------------------------------------------------------
# tanh-sinh machinery
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=_MAX_LEVEL + 1)
def _ts_level_nodes(level: int):
    """Abscissas for one refinement level on (-1, 1).

    Returns (u, one_minus_u, one_plus_u, w); level 0 holds the full coarse
    grid, higher levels only the new points at odd multiples of the step.
    """
    h = _H0 / 2 ** level
    if level == 0:
        ks = np.arange(-int(_T_MAX / h), int(_T_MAX / h) + 1)
        t = ks * h
    else:
        n = int(_T_MAX / h)
        ks = np.arange(-n, n + 1)
        t = ks * h
        t = t[np.abs(ks) % 2 == 1]
    v = 0.5 * math.pi * np.sinh(t)
    u = np.tanh(v)
    w = h * 0.5 * math.pi * np.cosh(t) / np.cosh(v) ** 2
    e = np.exp(-2.0 * np.abs(v))
    small = 2.0 * e / (1.0 + e)          # 1 - |u|
    one_minus = np.where(v >= 0, small, 2.0 - small)
    one_plus = np.where(v >= 0, 2.0 - small, small)
    keep = (w > 0.0) & (one_minus > 0.0) & (one_plus > 0.0)
    return u[keep], one_minus[keep], one_plus[keep], w[keep]


def _settled(sums, min_level: int, tol: float):
    """(value, err) at the first stored level L >= min_level with
    |S_L - S_(L-1)| <= tol, or at the finest level when none of them
    qualifies; None while a level yet to be evaluated could still settle."""
    for level in range(min_level, len(sums)):
        err = abs(sums[level] - sums[level - 1])
        if err <= tol:
            return sums[level], err
    if len(sums) == _MAX_LEVEL + 1:
        return sums[-1], abs(sums[-1] - sums[-2])
    return None


def _evaluate_next_levels(integrand, bounds, sums, pending, min_level) -> int:
    """Append to every pending segment the running sums of its missing
    levels below ``min_level`` and of its next level.

    No segment can settle before its level ``min_level`` exists, so all of
    those levels are evaluated at once.  The nodes of every (segment, level)
    go to the integrand together, in batches of at most one finest level's
    nodes (``_BATCH_NODES``), which bounds the memory of a batch by that of
    a single segment.  Each segment's levels stay in ascending order, so its
    running sums are appended one level at a time.  Returns the number of
    nodes.

    Every weight is positive, so a level's sum is finite only if each of its
    values is; a batch that holds a non-finite value raises
    ``QuadratureError`` at once, since no later level could make that
    segment's running sum finite again."""
    batches, size = [[]], 0
    for i in pending:
        for level in range(len(sums[i]), max(len(sums[i]), min_level) + 1):
            nodes = _ts_level_nodes(level)
            if size + nodes[3].size > _BATCH_NODES:
                batches.append([])
                size = 0
            batches[-1].append((i, nodes))
            size += nodes[3].size
    n_evals = 0
    for batch in batches:
        counts = [w.size for _, (_, _, _, w) in batch]
        lo = np.repeat([bounds[i] for i, _ in batch], counts)
        hi = np.repeat([bounds[i + 1] for i, _ in batch], counts)
        half = 0.5 * (hi - lo)
        dist_lo = half * np.concatenate([one_p for _, (_, _, one_p, _) in batch])
        dist_hi = half * np.concatenate([one_m for _, (_, one_m, _, _) in batch])
        vals = integrand(lo + dist_lo, lo, hi, dist_lo, dist_hi)
        a = 0
        for i, (_, _, _, w) in batch:
            b = a + w.size
            half_i = 0.5 * (bounds[i + 1] - bounds[i])
            contrib = half_i * float(np.dot(w, vals[a:b]))
            if not math.isfinite(contrib):
                raise QuadratureError(f"non-finite integrand value after "
                                      f"{n_evals + lo.size} evaluations")
            s = sums[i]
            s.append(0.5 * s[-1] + contrib if s else contrib)
            a = b
        n_evals += lo.size
    return n_evals


def _refine_segments(integrand, bounds, tol_rel: float):
    """Drive all segments to a collective relative tolerance.

    Segment i is [bounds[i], bounds[i+1]] and keeps the running sum S_L of
    every tanh-sinh level L it has evaluated.  A segment settles at its
    first level L >= min_level with |S_L - S_(L-1)| <= tol, read from the
    stored sums; only when no stored level qualifies is its next level
    evaluated, together with that of every other such segment in batched
    integrand calls, and with every missing level below min_level, none of
    which can settle it.  A first pass settles every segment at level 3,
    from levels 0 to 3 evaluated in one batched call; up to
    four rounds then settle, from level 4 on, the segments whose error
    exceeds the round's share of the tolerance.  Each settles at the level
    a from-scratch run would pick, but no level is evaluated twice.
    """
    n_seg = len(bounds) - 1
    sums = [[] for _ in range(n_seg)]
    ests = [(0.0, 0.0)] * n_seg
    n_evals = 0

    def settle(pending, min_level, tol):
        nonlocal n_evals
        while pending:
            still = []
            for i in pending:
                r = _settled(sums[i], min_level, tol)
                if r is None:
                    still.append(i)
                else:
                    ests[i] = r
            if still:
                n_evals += _evaluate_next_levels(integrand, bounds, sums, still,
                                                 min_level)
            pending = still

    settle([i for i in range(n_seg) if 0.5 * (bounds[i + 1] - bounds[i]) > 0.0],
           3, math.inf)
    scale = max(max(abs(v) for v, _ in ests), 1e-290)
    for round_ in range(4):
        total = math.fsum(v for v, _ in ests)
        target = 0.5 * tol_rel * max(abs(total), scale * 1e-4) / n_seg
        # a segment left at the finest level keeps an error above target,
        # so this test also covers the ones that did not converge
        settle([i for i, (_, e) in enumerate(ests) if e > target], 4, target)
        if all(e <= target for _, e in ests):
            break
    total = math.fsum(v for v, _ in ests)
    err = math.fsum(e for _, e in ests)
    return total, err, n_evals


# ---------------------------------------------------------------------------
# family-specific scaled integrands
# ---------------------------------------------------------------------------

def _log_abs_poly(p):
    out = np.full(p.shape, -np.inf)
    nz = p != 0.0
    out[nz] = np.log(np.abs(p[nz]))
    return out


def _integrand_values(core, logp, shannon: bool):
    """exp(core) for a power integrand |p|^kappa; for a Shannon integrand
    also the p^2 log p^2 factor 2 log|p|, which takes its limit 0 at the
    zeros of p."""
    if shannon:
        vals = np.exp(np.where(np.isfinite(core), core, -np.inf))
        return vals * np.where(np.isfinite(logp), 2.0 * logp, 0.0)
    return np.exp(core)


def _laguerre_coeff_bound_log(m: int, alpha: float) -> float:
    """log of the sum of absolute Taylor coefficients of L_m^(alpha)."""
    terms = [math.lgamma(alpha + m + 1.0) - math.lgamma(alpha + k + 1.0)
             - math.lgamma(m - k + 1.0) - math.lgamma(k + 1.0)
             for k in range(m + 1)]
    top = max(terms)
    return top + math.log(math.fsum(math.exp(t - top) for t in terms))


def _lag_segments_and_scale(F: Functional):
    """Laguerre families: weight x^(mu-1) e^(-lam x), with mu = alpha + sigma
    for the extended kinds.

    Like ``_geg_segments_and_scale`` it returns the segment bounds, the log
    scale, the scaled integrand ``integrand(x, lo, hi, dist_lo, dist_hi)``
    (per-node arrays: the nodes, the bounds of each node's segment and the
    node's exact distances to them), and the absolute tail left out of the
    segments, in units of the scale: the mass beyond the last segment's
    window end and the bound on the segments ``_window`` dropped."""
    m, alpha, lam, kappa = F.m, F.alpha, F.lam, F.kappa
    mu = alpha + F.sigma if F.mu is None else F.mu
    # the polynomial's size at the weight's peak x_p is ~ (alpha |1 - x_p /
    # alpha|)^m / m! away from x_p = alpha and ~ (alpha / 2)^(m/2) / m! at
    # it: the larger of the two keeps the scale finite as the peak meets
    # alpha (lam -> 1 for the extended kinds)
    x_p = (mu - 1.0) / lam
    poly_scale = 0.5 * m * math.log(alpha / 2.0)
    gap = abs(1.0 - x_p / alpha)
    if gap > 0.0:
        poly_scale = max(poly_scale, m * math.log(alpha * gap))
    log_pref = (math.lgamma(mu) - mu * math.log(lam)
                + kappa * (poly_scale - math.lgamma(m + 1.0)))
    b_log = _laguerre_coeff_bound_log(m, alpha)
    s_exp = mu + kappa * m
    x_hi = max(2.0 * (s_exp + 4.0) / lam, 10.0 / lam)
    log_target = math.log(TOL_MIN) + log_pref - 8.0

    def tail_log(x):
        extra = 0.0
        if F.kind.is_shannon:
            extra = math.log(2.0 * (b_log + m * math.log(max(x, 2.0))) + 10.0)
        return (kappa * b_log + math.log(2.0) + (s_exp - 1.0) * math.log(lam * x)
                - lam * x - s_exp * math.log(lam) + extra)

    while tail_log(x_hi) > log_target:
        x_hi *= 1.4

    # x^(mu-1) e^(-lam x) is log-concave for mu >= 1 and decreasing below,
    # so on any segment it peaks at x_p clamped into the segment; its mean
    # and standard deviation are mu / lam and sqrt(mu) / lam
    env = _Envelope(lambda x: (mu - 1.0) * np.log(x) - lam * x, x_p,
                    -math.lgamma(m + 1.0), kappa, F.kind.is_shannon,
                    math.lgamma(mu) - mu * math.log(lam),
                    _probes(mu / lam, math.sqrt(mu) / lam, 0.0, x_hi), m)
    split = None
    if mu >= 2.0:
        split = (x_p, math.sqrt(mu - 1.0) / lam)
    zero_range = None
    if m >= 1:
        zero_range = (_laguerre_zero_floor(m, alpha), _laguerre_zero_ceiling(m, alpha))
    bounds, log_dropped = _window(env, 0.0, x_hi, split, zero_range,
                                  lambda: polynomial_zeros("laguerre", m, alpha).roots)

    if mu >= 2.0:
        # the weight relative to its peak, (mu - 1) log1p(delta / x_p)
        # - lam delta with delta = x - x_p, so no per-node sum carries the
        # O(mu log mu) peak constant; a node where delta rounds to -x_p
        # holds at most eps^(mu - 1) of the peak weight
        shift = (mu - 1.0) * math.log(x_p) - lam * x_p - log_pref

        def log_weight(x):
            delta = x - x_p
            with np.errstate(divide="ignore"):
                return (mu - 1.0) * np.log1p(delta / x_p) - lam * delta + shift
    else:
        def log_weight(x):
            return (mu - 1.0) * np.log(x) - lam * x - log_pref

    def integrand(x, lo, hi, dist_lo, dist_hi):
        p = laguerre_value(m, alpha, x)
        logp = _log_abs_poly(p)
        return _integrand_values(log_weight(x) + kappa * logp, logp,
                                 F.kind.is_shannon)

    tail = (math.exp(min(tail_log(x_hi) - log_pref, 0.0))
            + _exp_or_inf(log_dropped - log_pref))
    return bounds, log_pref, integrand, tail


def _split_at_peak(bounds, peak: float, width: float):
    """``bounds`` with breakpoints at ``peak + k * width``, k in
    ``_PEAK_STEPS``, added inside the one segment that holds the peak.

    The split applies only when the peak lies more than ``_PEAK_CLEARANCE``
    widths from both ends of its segment.  A peak inside the cluster of
    polynomial zeros sits within a few widths of a zero, so those bounds are
    returned as they are.
    """
    i = bisect.bisect_right(bounds, peak) - 1
    if not 0 <= i < len(bounds) - 1:
        # a peak that rounds onto the end of the domain holds no segment
        return bounds
    if min(peak - bounds[i], bounds[i + 1] - peak) <= _PEAK_CLEARANCE * width:
        return bounds
    return bounds[:i + 1] + [peak + k * width for k in _PEAK_STEPS] + bounds[i + 1:]


# ---------------------------------------------------------------------------
# the window: segments that can reach the tolerance
# ---------------------------------------------------------------------------

def _probes(mean: float, sd: float, start: float, end: float):
    """The points the integral's size is estimated from: the weight's mean
    and ``_PROBE_STEPS`` standard deviations either side, kept in the
    domain."""
    return np.array([min(max(mean + k * sd, start), end) for k in _PROBE_STEPS])


def _exp_or_inf(log_x: float) -> float:
    """exp(log_x), infinite where it overflows."""
    return math.exp(log_x) if log_x < 709.0 else math.inf


@dataclass(frozen=True)
class _Envelope:
    """Upper bounds on the mass of the integrand w(x) phi(|p(x)|) over each
    segment, phi(t) = t^kappa, or t^2 |log t^2| for the Shannon kinds, all in
    log space and without evaluating the polynomial.

    ``log_weight`` is log w, unscaled; w is log-concave or monotone, so its
    sup on [lo, hi] sits at ``peak`` clamped into [lo, hi].  |p(x)| is
    |lead| prod_j |x - z_j| over all m zeros, and each zero z_j is known to
    lie in an interval [z_lo_j, z_hi_j]: a point when it was solved for, the
    Gershgorin range of all zeros when it was not.  ``log_mass`` is the log
    of the weight's integral and ``probes`` are points in its bulk."""

    log_weight: Callable
    peak: float
    log_lead: float
    kappa: float
    shannon: bool
    log_mass: float
    probes: np.ndarray
    degree: int

    def _log_phi(self, log_t, sup: bool):
        """log phi(t) from log t, or with ``sup`` log of the sup of phi over
        [0, t]: for Shannon u |log u| at u = t^2 rises to 1/e at u = 1/e,
        falls to 0 at u = 1 and rises again, past 1/e at u ~ 1.76."""
        if not self.shannon:
            return self.kappa * log_t
        # u below e^-700 counts as e^-700, where u |log u| increases
        log_u = np.maximum(2.0 * log_t, -700.0)
        if not sup:
            return log_u + np.log(np.abs(log_u))
        return np.where(log_u <= -1.0, log_u + np.log(-log_u),
                        np.fmax(-1.0, log_u + np.log(log_u)))

    def log_budget(self, z_lo, z_hi) -> float:
        """log of the mass the dropped segments may hold: e^-28 TOL_MIN of
        an estimate of the integral, the weight's mass times the largest
        phi(|p|) at the probes, each |p| from the zeros' distances (a lower
        bound where a zero is known by its range only)."""
        x = self.probes[:, None]
        gap = np.maximum(np.maximum(z_lo - x, x - z_hi), 0.0)
        log_t = self.log_lead + np.log(gap).sum(axis=1)
        return self.log_mass + float(self._log_phi(log_t, False).max()) + _DROP_LOG

    def log_masses(self, bounds, z_lo, z_hi):
        """log of (hi - lo) sup w sup phi(|p|) on each segment [lo, hi];
        on it |x - z_j| is at most max(hi, z_hi_j) - min(lo, z_lo_j)."""
        lo, hi = bounds[:-1], bounds[1:]
        span = np.maximum(hi[:, None], z_hi) - np.minimum(lo[:, None], z_lo)
        log_t = self.log_lead + np.log(span).sum(axis=1)
        at_peak = np.minimum(np.maximum(lo, self.peak), hi)
        return (np.log(hi - lo) + self.log_weight(at_peak)
                + self._log_phi(log_t, True))


def _trim(env: _Envelope, bounds, z_lo, z_hi):
    """``bounds`` without the longest prefix and the longest suffix of
    segments whose mass bounds each sum to at most half the budget, and the
    log of the dropped bound.  At least one segment stays; a bound that is
    not a number keeps its segment and every segment inside it."""
    n = len(bounds) - 1
    if n == 1:
        return bounds, -math.inf
    log_half = env.log_budget(z_lo, z_hi) - math.log(2.0)
    log_masses = env.log_masses(np.array(bounds), z_lo, z_hi)
    # each bound in units of half the budget, capped above 1 so it cannot overflow
    r = np.exp(np.minimum(log_masses - log_half, 2.0))
    k = min(int(np.count_nonzero(r.cumsum() <= 1.0)), n - 1)
    j = int(np.count_nonzero(r[:k:-1].cumsum() <= 1.0))
    if k + j == 0:
        return bounds, -math.inf
    # the dropped bound's log, summed in log space so none of it underflows
    dropped = np.concatenate((log_masses[:k], log_masses[n - j:]))
    top = dropped.max()
    return bounds[k:n + 1 - j], float(top + np.log(np.exp(dropped - top).sum()))


def _window(env: _Envelope, start: float, end: float, split, zero_range, solve):
    """The bounds of the segments of [start, end] that can reach the
    tolerance, and the log of the bound on the mass dropped.

    Every segment is split at the peak when ``split`` = (peak, width) asks
    for it.  With m >= 1 the zeros lie in ``zero_range``.  Unless the
    weight peaks inside that range, the window is first trimmed with only
    the range known, cut at its ends, and the zeros are solved for (by
    ``solve``) only when the trimmed window reaches into the range: a window
    clear of it holds no zero, so |p| is smooth on it.  Otherwise the zeros
    inside [start, end] delimit the segments."""
    def cut(bounds):
        return bounds if split is None else _split_at_peak(bounds, *split)

    # a bound that double precision cannot hold comes out as inf or nan,
    # which keeps its segment
    with np.errstate(all="ignore"):
        if zero_range is None:
            none = np.empty(0)
            return _trim(env, cut([start, end]), none, none)
        lo_z, hi_z = zero_range
        if not lo_z < min(max(env.peak, start), end) < hi_z:
            coarse = cut([start, *sorted({v for v in zero_range if start < v < end}), end])
            m = env.degree
            bounds, log_dropped = _trim(env, coarse, np.full(m, lo_z), np.full(m, hi_z))
            if bounds[-1] <= lo_z or bounds[0] >= hi_z:
                return bounds, log_dropped
        zeros = solve()
        z = np.array(zeros)
        return _trim(env, cut([start, *(v for v in zeros if v < end), end]), z, z)


def _geg_segments_and_scale(F: Functional):
    m, alpha, a, b, c, d, kappa = F.m, F.alpha, F.a, F.b, F.c, F.d, F.kappa
    A, B = c * alpha + a, d * alpha + b
    if A <= -1.0 or B <= -1.0:
        raise ValueError("Gegenbauer weight exponents must exceed -1 for an "
                         "integrable weight")
    log_dropped = -math.inf
    if A > 0.0 and B > 0.0:
        # the weight (1 - x)^A (1 + x)^B is log-concave and peaks at x_w,
        # where its log has curvature -(A / (1 - x_w)^2 + B / (1 + x_w)^2)
        # = -1 / width^2; its mean is (B - A) / (A + B + 2), its standard
        # deviation sd below and its mass 2^(A + B + 1) Gamma(A + 1)
        # Gamma(B + 1) / Gamma(A + B + 2); C_m^(alpha) leads with
        # 2^m (alpha)_m / m!
        x_w = (B - A) / (A + B)
        width = 2.0 * math.sqrt(A * B / (A + B) ** 3)
        sd = 2.0 * math.sqrt((A + 1.0) * (B + 1.0) / (A + B + 3.0)) / (A + B + 2.0)
        log_lead = (m * math.log(2.0) - math.lgamma(m + 1.0)
                    + math.fsum(math.log(alpha + k) for k in range(m)))
        log_mass = ((A + B + 1.0) * math.log(2.0) + math.lgamma(A + 1.0)
                    + math.lgamma(B + 1.0) - math.lgamma(A + B + 2.0))
        env = _Envelope(lambda x: A * np.log1p(-x) + B * np.log1p(x), x_w,
                        log_lead, kappa, F.kind.is_shannon, log_mass,
                        _probes((B - A) / (A + B + 2.0), sd, -1.0, 1.0), m)
        zero_range = None
        if m >= 1:
            radius = _gegenbauer_zero_radius(m, alpha)
            zero_range = (-radius, radius)
        bounds, log_dropped = _window(
            env, -1.0, 1.0, (x_w, width), zero_range,
            lambda: polynomial_zeros("gegenbauer", m, alpha).roots)
    else:
        zeros = polynomial_zeros("gegenbauer", m, alpha).roots if m >= 1 else ()
        bounds = [-1.0, *zeros, 1.0]

    def log_core(x, one_minus_x, one_plus_x):
        p = gegenbauer_value(m, alpha, x)
        logp = _log_abs_poly(p)
        return ((c * alpha + a) * np.log(one_minus_x)
                + (d * alpha + b) * np.log(one_plus_x)
                + kappa * logp), logp

    # probe for the scale in log space at 15 interior points of each segment
    edges = np.array(bounds)
    xs = np.linspace(edges[:-1], edges[1:], 17, axis=1)[:, 1:-1].ravel()
    core, _ = log_core(xs, 1.0 - xs, 1.0 + xs)
    log_pref = float(np.max(core))

    def integrand(x, lo, hi, dist_lo, dist_hi):
        # 1 - hi and 1 + lo are the exact distances from the segment's ends
        # to +1 and -1, so 1 -/+ x keeps its digits next to the endpoints
        core, logp = log_core(x, (1.0 - hi) + dist_hi, (1.0 + lo) + dist_lo)
        return _integrand_values(core - log_pref, logp, F.kind.is_shannon)

    return bounds, log_pref, integrand, _exp_or_inf(log_dropped - log_pref)


def _quadrature(bounds, log_pref: float, integrand, tail: float,
                tol_rel: float, signed: bool, may_vanish: bool,
                where: str = "") -> QuadResult:
    """Integrate the scaled integrand over every segment, certify the
    tolerance and undo the scale.

    ``signed`` allows a negative total (Shannon integrands change sign);
    ``may_vanish`` accepts an exactly zero total as the value zero.
    ``where`` names the inputs in the message of every failure.
    The integrand runs with numpy's floating-point warnings off: a value
    they would warn of ends the integral as a ``QuadratureError``.
    """
    try:
        with np.errstate(all="ignore"):
            total, err, n_evals = _refine_segments(integrand, bounds, tol_rel)
    except QuadratureError as exc:
        raise QuadratureError(f"{exc}{where}") from None
    err += tail
    segments = tuple(zip(bounds[:-1], bounds[1:]))

    if not (math.isfinite(total) and math.isfinite(err)):
        raise QuadratureError(
            f"non-finite estimate {total} with error {err} after {n_evals} "
            f"evaluations{where}")
    if total == 0.0:
        if may_vanish:
            return QuadResult(LogValue.zero(), -math.inf, n_evals, segments)
        raise QuadratureError(f"integral estimate vanished{where}")
    if err > tol_rel * abs(total):
        raise QuadratureError(
            f"could not certify tolerance {tol_rel}: estimate {total} with "
            f"error {err} after {n_evals} evaluations{where}")
    if not signed and total < 0.0:
        raise QuadratureError(f"negative estimate for a nonnegative integrand{where}")
    value = LogValue(1 if total > 0 else -1, math.log(abs(total)) + log_pref)
    abs_err_log = (math.log(err) + log_pref) if err > 0.0 else -math.inf
    return QuadResult(value, abs_err_log, n_evals, segments)


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------

def _check_tol(tol_rel: float) -> None:
    if not (TOL_MIN <= tol_rel <= TOL_MAX):
        raise ValueError(f"tol_rel must lie in [{TOL_MIN}, {TOL_MAX}]")


def integrate_functional(F: Functional, tol_rel: float = 1e-10) -> QuadResult:
    """Evaluate the integral described by ``F`` to relative tolerance."""
    _check_tol(tol_rel)
    build = _geg_segments_and_scale if F.kind.is_gegenbauer else _lag_segments_and_scale
    where = f" at alpha = {F.alpha!r}, m = {F.m}"
    try:
        parts = build(F)
    except RuntimeError as exc:
        # the zero solve: its Jacobi matrix overflows or its certificate fails
        raise QuadratureError(f"{exc}{where}") from None
    except OverflowError:
        raise QuadratureError(f"the segment bounds overflow double precision"
                              f"{where}") from None
    return _quadrature(*parts, tol_rel, signed=F.kind.is_shannon,
                       may_vanish=F.kind.is_shannon and F.m == 0, where=where)


@functools.lru_cache(maxsize=MAX_DEGREE + 1)
def _hermite_pieces(m: int) -> tuple[tuple[float, ...], float]:
    """The zeros of H_m and the log of the sum of its absolute power-basis
    coefficients: the parts of ``hermite_power_integral`` that depend on m
    alone, computed on first use."""
    coeff_bound = math.log(math.fsum(
        abs(c) for c in np.polynomial.hermite.herm2poly([0.0] * m + [1.0])))
    return (hermite_zeros(m).roots if m >= 1 else ()), coeff_bound


def hermite_power_integral(m: int, kappa: float, alpha_scale: float,
                           tol_rel: float = 1e-11) -> QuadResult:
    """integral of exp(-alpha y^2 / 2) |H_m(y sqrt(alpha/2))|^kappa over R,
    computed in the substituted variable t = y sqrt(alpha/2)."""
    _check_tol(tol_rel)
    _check_degree(m)
    if kappa <= 0:
        raise ValueError("kappa must be positive")
    if alpha_scale <= 0:
        raise ValueError("alpha_scale must be positive")
    zeros, coeff_bound = _hermite_pieces(m)
    t_hi = 2.0
    while (-t_hi * t_hi + kappa * (coeff_bound + m * math.log(max(t_hi, 1.0)))
           > math.log(TOL_MIN) - 8.0):
        t_hi *= 1.3
    bounds = [-t_hi, *zeros, t_hi]

    # scale off the peak of the scaled integrand
    probe = np.linspace(-t_hi, t_hi, 201)
    hp = hermite_value(m, probe)
    with np.errstate(divide="ignore"):
        core = -probe ** 2 + kappa * _log_abs_poly(hp)
    log_pref = float(np.max(core))

    def integrand(t, lo, hi, dist_lo, dist_hi):
        logp = _log_abs_poly(hermite_value(m, t))
        return _integrand_values(-t * t + kappa * logp - log_pref, logp, False)

    q = _quadrature(bounds, log_pref, integrand, 0.0, tol_rel,
                    signed=False, may_vanish=False,
                    where=f" at alpha = {alpha_scale!r}, m = {m}")
    log_jac = 0.5 * (math.log(2.0) - math.log(alpha_scale))
    return QuadResult(LogValue(1, q.value.log_abs + log_jac), q.abs_err_log + log_jac,
                      q.n_evals, q.segments)


def shannon_integrand_value(F: Functional, x: float) -> float:
    """The p^2 log p^2 factor of a Shannon-type integrand at a point.

    Returns the limit value 0 when x is a zero of the polynomial.
    """
    if not F.kind.is_shannon:
        raise ValueError("shannon_integrand_value applies to Shannon kinds only")
    if F.kind.is_gegenbauer:
        if not -1.0 <= x <= 1.0:
            raise ValueError("x outside [-1, 1]")
        p = gegenbauer_value(F.m, F.alpha, x)
    else:
        if x < 0.0:
            raise ValueError("x outside [0, infinity)")
        p = laguerre_value(F.m, F.alpha, x)
    if p == 0.0:
        return 0.0
    v = 2.0 * math.log(abs(p))
    try:
        return math.exp(v) * v
    except OverflowError:
        return math.inf * v
