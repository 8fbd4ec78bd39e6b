"""High-accuracy direct evaluation of the integral functionals.

This is the ground truth the asymptotic expansions are tested against.
Each integral is split into segments delimited by the zeros of the
polynomial (where |p|^kappa has integrable kinks and p^2 log p^2 has
removable singularities) and integrated per segment with a tanh-sinh
(double-exponential) rule under progressive step halving (Takahasi and
Mori, Publ. RIMS 9, 1974).  Each family gives a model of its weight and
polynomial (the Laguerre weight x^(mu-1) e^(-lam x) serves the extended
kinds at mu = alpha + sigma, the Gaussian e^(-t^2) the Hermite integral)
and its node-level log weight; one builder does the rest for all three.

At large alpha a weight is narrow about its peak, the point the
saddle-point expansions expand about.  When the peak lies more than 6
widths from both ends of its segment, that segment is split at the peak
and 3 widths either side; for c = d and lam = 1 the peak lies among the
zeros, whose segments are already that narrow.  From mu = 2 on the
Laguerre nodes take the weight relative to its peak, so the O(mu log mu)
peak constant is rounded once instead of at every node.

Only the window where the integrand can reach the tolerance is integrated.
Each segment's mass is bounded by its width times the sup of the weight
(log-concave or monotone, so at its peak clamped into the segment) times
the sup of |p|^kappa or p^2 |log p^2|, with |p| = |lead| prod_j |x - z_j|
over all m zeros, each factor at the segment end farther from z_j.  The
longest prefix and suffix of segments whose bounds stay below e^-28 TOL_MIN
of an estimate of the integral are dropped, and their bound joins the tail
that the certificate adds to the error, so a poor estimate can only fail
the certificate.  Before the zeros are solved for, the window is trimmed
knowing only the Gershgorin range that holds them, ``orthopoly.zero_range``
for Laguerre and Gegenbauer alike; a window clear of that range holds no
zero, and the solve is skipped.  An unbounded end lies where
the same envelope, with every zero within R of 0, bounds the mass beyond it.

All floating-point work happens after dividing the integrand by a log-space
scale near its peak, so magnitudes stay near unity even where the true
values overflow doubles.  The scale is closed-form: the largest log w +
kappa log(|lead| |x - zbar|^m) over a few probes of the weight's and the
integrand's bulk, zbar the zeros' exact mean; no polynomial is evaluated.

Each segment stores the running sum of every level it has evaluated, so
refinement never evaluates a level twice, and the missing levels of all
unsettled segments are evaluated together, in batched calls of the
integrand: the first pass asks for levels 0 to 3 of every segment at once,
since none can settle before its level 3 exists.  The batches run with
numpy's floating-point warnings off, and the first one that holds a
non-finite value ends the integral with a ``QuadratureError`` that names
alpha and m, as does every other failure, a zero solve or a segment bound
that overflows double precision included.  The zeros of H_m depend on m
alone and are computed once per degree, on first use.
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
from .orthopoly import (MAX_DEGREE, _check_degree, gegenbauer_value, hermite_value,
                        hermite_zeros, laguerre_value, polynomial_zeros, zero_range)

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
# the scale's probes about the weight's peak, in units of its width
_PEAK_PROBES = (-3.0, -2.0, -1.0, 0.0, 1.0, 2.0, 3.0)


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
# the weight model: one builder of segments, scale and tail for every family
# ---------------------------------------------------------------------------

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


@dataclass(frozen=True)
class _Envelope:
    """A model of one integral's weight w and polynomial p, and bounds on
    the mass of its integrand w phi(|p|), phi(t) = t^kappa, or t^2 |log t^2|
    for the Shannon kinds, in log space and without evaluating p.

    ``log_weight`` is log w and ``log_mass`` the log of its integral;
    ``log_top`` is what the family's node-level log weight is taken less
    of.  w is log-concave or monotone, so its sup on [lo, hi] sits at
    ``peak`` clamped into [lo, hi]; a weight that is neither has no peak
    and is not windowed.  The peak splits its segment when ``width`` is
    set.  |p(x)| is |lead| prod_j |x - z_j| over all m = ``degree`` zeros,
    which lie in ``zero_range`` (None for m = 0), and in [-hi, hi] on an
    unbounded domain, average to ``centroid`` and are solved for by
    ``solve``.  On an unbounded end ``far`` is the peak and sd of
    w |x|^(kappa m), and ``slope(x)`` an s, nonincreasing in x, with
    w(y) <= w(x) e^(s (y - x)) for every y >= x."""

    log_weight: Callable
    log_top: float
    peak: float | None
    width: float | None
    log_mass: float
    mean: float
    sd: float
    log_lead: float
    degree: int
    kappa: float
    shannon: bool
    zero_range: tuple[float, float] | None
    centroid: float
    solve: Callable
    start: float
    end: float
    far: tuple[float, float] | None = None
    slope: Callable | None = None

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

    def log_scale(self) -> float:
        """The integrand's log scale: the largest finite
        log w + kappa (log|lead| + m log|x - centroid|) over the weight's
        mean and ``_PROBE_STEPS`` sds either side, its peak (and
        ``_PEAK_PROBES`` widths either side), and on an unbounded domain the
        peak of w |x|^(kappa m) and ``_PROBE_STEPS`` of its sds either side,
        all kept in the domain.  No polynomial is evaluated; the centroid is
        exact, solved zeros or not."""
        xs = [self.mean + k * self.sd for k in _PROBE_STEPS]
        if self.peak is not None:
            xs += [self.peak + k * (self.width or 0.0) for k in _PEAK_PROBES]
        if self.far is not None:
            xs += [self.far[0] + k * self.far[1] for k in _PROBE_STEPS]
        x = np.clip(xs, self.start, self.end)
        with np.errstate(all="ignore"):
            dist = np.log(np.abs(x - self.centroid)) if self.degree else 0.0
            core = self.log_weight(x) + self.kappa * (self.log_lead + self.degree * dist)
        finite = core[np.isfinite(core)]
        if not finite.size:
            raise QuadratureError("no finite scale")
        return float(finite.max())

    def log_budget(self, start, end, z_lo, z_hi) -> float:
        """log of the mass the dropped segments may hold: e^-28 TOL_MIN of
        an estimate of the integral, the weight's mass times the largest
        phi(|p|) at its mean and ``_PROBE_STEPS`` sds either side, kept in
        [start, end], each |p| from the zeros' distances (a lower bound
        where a zero is known by its range only)."""
        x = np.clip([self.mean + k * self.sd for k in _PROBE_STEPS], start, end)[:, None]
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

    def log_tail(self, x: float) -> float:
        """log of a bound on the integrand's mass beyond x > 0 on an
        unbounded end, or inf where the bound does not hold yet: there
        |p(y)| <= T(y) = |lead| (y + R)^m, R the top of the zero range, and
        log sup phi(T(y)) grows at most kappa m / (y + R), or 3 m / (y + R)
        for Shannon once T > e, so with s that rate plus ``slope(x)`` the
        mass is at most the bound at x over |s| once s < 0."""
        m = self.degree
        r = self.zero_range[1] if m else 0.0
        log_t = self.log_lead + m * math.log(x + r)
        s = self.slope(x) + (3.0 if self.shannon else self.kappa) * m / (x + r)
        if not s < 0.0 or (self.shannon and m and log_t < 1.0):
            return math.inf
        return float(self.log_weight(x) + self._log_phi(log_t, True)) - math.log(-s)


def _trim(env: _Envelope, bounds, z_lo, z_hi):
    """``bounds`` without the longest prefix and the longest suffix of
    segments whose mass bounds each sum to at most half the budget, and the
    log of the dropped bound.  At least one segment stays; a bound that is
    not a number keeps its segment and every segment inside it."""
    n = len(bounds) - 1
    if n == 1:
        return bounds, -math.inf
    log_half = env.log_budget(bounds[0], bounds[-1], z_lo, z_hi) - math.log(2.0)
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


def _window(env: _Envelope, start: float, end: float):
    """The bounds of the segments of [start, end] that can reach the
    tolerance, and the log of the bound on the mass dropped.

    Every segment is split at the peak when the model gives a width.  With
    m >= 1 the zeros lie in the model's zero range.  Unless the weight
    peaks inside that range, the window is first trimmed with only the
    range known, cut at its ends, and the zeros are solved for only when
    the trimmed window reaches into the range: a window clear of it holds
    no zero, so |p| is smooth on it.  Otherwise the zeros inside
    [start, end] delimit the segments; a weight with no peak keeps them all."""
    if env.peak is None:
        return [start, *(env.solve() if env.zero_range else ()), end], -math.inf

    def cut(bounds):
        return bounds if env.width is None else _split_at_peak(bounds, env.peak, env.width)

    # a bound that double precision cannot hold comes out as inf or nan,
    # which keeps its segment
    with np.errstate(all="ignore"):
        if env.zero_range is None:
            none = np.empty(0)
            return _trim(env, cut([start, end]), none, none)
        lo_z, hi_z = env.zero_range
        if not lo_z < min(max(env.peak, start), end) < hi_z:
            coarse = cut([start, *sorted({v for v in env.zero_range if start < v < end}), end])
            m = env.degree
            bounds, log_dropped = _trim(env, coarse, np.full(m, lo_z), np.full(m, hi_z))
            if bounds[-1] <= lo_z or bounds[0] >= hi_z:
                return bounds, log_dropped
        zeros = env.solve()
        z = np.array(zeros)
        return _trim(env, cut([start, *(v for v in zeros if start < v < end), end]), z, z)


def _build(env: _Envelope, log_w: Callable, value: Callable):
    """The segment bounds, the log scale, the scaled integrand
    ``integrand(x, lo, hi, dist_lo, dist_hi)`` (per-node arrays: the nodes,
    the bounds of each node's segment and the node's exact distances to
    them) and the tail left out of the segments, in units of the scale, of
    the integral of exp(log_w) phi(|value|) over the model's domain.

    An unbounded end grows by 1.4 until the mass beyond it is below
    e^(-8 - kappa m) TOL_MIN of the scale; an unbounded start mirrors the
    end (the one such weight, Hermite's, is even, and so is its bound on
    |p|).  The tail is that mass plus the bound the window dropped."""
    start, end = env.start, env.end
    with np.errstate(all="ignore"):
        log_pref = env.log_scale()
        log_tail = -math.inf
        if end == math.inf:
            # the scale can exceed |I| by about kappa m log 2 where the
            # weight's bulk lies among the zeros (the centroid's distance
            # against the zeros' product), so the target is lowered by kappa m
            end = max(env.mean + 2.0 * env.sd, env.far[0] + 2.0 * env.far[1])
            log_target = math.log(TOL_MIN) - 8.0 - env.kappa * env.degree + log_pref
            while not (log_tail := env.log_tail(end)) <= log_target:
                end *= 1.4
                if not end < math.inf:
                    raise OverflowError("the domain end overflows")
            if start == -math.inf:
                start, log_tail = -end, log_tail + math.log(2.0)
    bounds, log_dropped = _window(env, start, end)
    kappa, shannon, shift = env.kappa, env.shannon, env.log_top - log_pref

    def integrand(x, lo, hi, dist_lo, dist_hi):
        with np.errstate(divide="ignore"):      # log 0 = -inf at a zero of p
            logp = np.log(np.abs(value(x)))
        core = log_w(x, lo, hi, dist_lo, dist_hi) + kappa * logp + shift
        if not shannon:
            return np.exp(core)
        # the p^2 log p^2 factor 2 log|p| takes its limit 0 at the zeros of p
        vals = np.exp(np.where(np.isfinite(core), core, -np.inf))
        return vals * np.where(np.isfinite(logp), 2.0 * logp, 0.0)

    # a tail past e^709 of the scale cannot be certified: cap it there
    tail = math.exp(min(float(np.logaddexp(log_tail, log_dropped)) - log_pref, 709.0))
    return bounds, log_pref, integrand, tail


# ---------------------------------------------------------------------------
# the weight models
# ---------------------------------------------------------------------------

def _laguerre_model(F: Functional):
    """Laguerre families: weight x^(mu-1) e^(-lam x) on [0, inf), with
    mu = alpha + sigma for the extended kinds; |L_m^(alpha)| leads with
    1/m! and its zeros average to alpha + m."""
    m, alpha, lam, kappa = F.m, F.alpha, F.lam, F.kappa
    mu = alpha + F.sigma if F.mu is None else F.mu
    x_p = (mu - 1.0) / lam

    def log_weight(x, *_):
        return (mu - 1.0) * np.log(x) - lam * x

    log_w, log_top, width = log_weight, 0.0, None
    if mu >= 2.0:
        # the nodes take the weight relative to its peak, (mu - 1)
        # log1p(delta / x_p) - lam delta with delta = x - x_p, so no
        # per-node sum carries the O(mu log mu) peak constant; a node where
        # delta rounds to -x_p holds at most eps^(mu - 1) of the peak weight
        log_top, width = (mu - 1.0) * math.log(x_p) - lam * x_p, math.sqrt(mu - 1.0) / lam

        def log_w(x, *_):
            delta = x - x_p
            with np.errstate(divide="ignore"):
                return (mu - 1.0) * np.log1p(delta / x_p) - lam * delta
    # x^(mu-1) e^(-lam x) is log-concave for mu >= 1 and decreasing below,
    # so on any segment it peaks at x_p clamped into the segment; its mean
    # and standard deviation are mu / lam and sqrt(mu) / lam, and those of
    # w x^(kappa m) sit at s / lam and sqrt(s) / lam, s = mu - 1 + kappa m
    s = max(mu - 1.0 + kappa * m, 0.0)
    env = _Envelope(
        log_weight=log_weight, log_top=log_top, peak=x_p, width=width,
        log_mass=math.lgamma(mu) - mu * math.log(lam), mean=mu / lam, sd=math.sqrt(mu) / lam,
        log_lead=-math.lgamma(m + 1.0), degree=m, kappa=kappa, shannon=F.kind.is_shannon,
        zero_range=zero_range("laguerre", m, alpha) if m else None,
        centroid=alpha + m, solve=lambda: polynomial_zeros("laguerre", m, alpha).roots,
        start=0.0, end=math.inf, far=(s / lam, math.sqrt(s) / lam),
        slope=lambda x: max(mu - 1.0, 0.0) / x - lam)
    return env, log_w, lambda x: laguerre_value(m, alpha, x)


def _gegenbauer_model(F: Functional):
    """Gegenbauer families: weight (1 - x)^A (1 + x)^B on [-1, 1], A = c alpha
    + a, B = d alpha + b; C_m^(alpha) leads with 2^m (alpha)_m / m! and its
    zeros average to 0."""
    m, alpha, kappa = F.m, F.alpha, F.kappa
    A, B = F.c * alpha + F.a, F.d * alpha + F.b
    if A <= -1.0 or B <= -1.0:
        raise ValueError("Gegenbauer weight exponents must exceed -1 for an "
                         "integrable weight")
    S = A + B
    peak = width = None
    if A > 0.0 and B > 0.0:
        # log-concave, peaking at (B - A) / (A + B), where its log has
        # curvature -(A / (1 - x)^2 + B / (1 + x)^2) = -1 / width^2; each
        # width and sd is taken from ratios, which cannot overflow
        peak = (B - A) / S
        width = 2.0 * math.sqrt(A / S) * math.sqrt(B / S) / math.sqrt(S)
    # otherwise neither log-concave nor bounded: the whole domain is kept
    env = _Envelope(
        log_weight=lambda x: A * np.log1p(-x) + B * np.log1p(x), log_top=0.0, peak=peak,
        width=width, log_mass=((S + 1.0) * math.log(2.0) + math.lgamma(A + 1.0)
                               + math.lgamma(B + 1.0) - math.lgamma(S + 2.0)),
        mean=(B - A) / (S + 2.0),
        sd=(2.0 * math.sqrt((A + 1.0) / (S + 2.0)) * math.sqrt((B + 1.0) / (S + 2.0))
            / math.sqrt(S + 3.0)),
        log_lead=(m * math.log(2.0) - math.lgamma(m + 1.0)
                  + math.fsum(math.log(alpha + k) for k in range(m))),
        degree=m, kappa=kappa, shannon=F.kind.is_shannon,
        zero_range=zero_range("gegenbauer", m, alpha) if m else None,
        centroid=0.0, solve=lambda: polynomial_zeros("gegenbauer", m, alpha).roots,
        start=-1.0, end=1.0)

    def log_w(x, lo, hi, dist_lo, dist_hi):
        # 1 - hi and 1 + lo are the exact distances from the segment's ends
        # to +1 and -1, so 1 -/+ x keeps its digits next to the endpoints
        return A * np.log((1.0 - hi) + dist_hi) + B * np.log((1.0 + lo) + dist_lo)
    return env, log_w, lambda x: gegenbauer_value(m, alpha, x)


@functools.lru_cache(maxsize=MAX_DEGREE + 1)
def _hermite_pieces(m: int) -> tuple[float, ...]:
    """The zeros of H_m, the part of the Hermite model that depends on m
    alone, computed on first use."""
    return hermite_zeros(m).roots if m >= 1 else ()


def _hermite_model(m: int, kappa: float):
    """The Hermite power integral: weight e^(-t^2) on the real line; H_m
    leads with 2^m, and its zeros are symmetric about 0."""
    zeros = _hermite_pieces(m)
    env = _Envelope(
        log_weight=lambda t, *_: -t * t, log_top=0.0, peak=0.0, width=math.sqrt(0.5),
        log_mass=0.5 * math.log(math.pi), mean=0.0, sd=math.sqrt(0.5),
        log_lead=m * math.log(2.0), degree=m, kappa=kappa, shannon=False,
        zero_range=(zeros[0], zeros[-1]) if m else None, centroid=0.0, solve=lambda: zeros,
        start=-math.inf, end=math.inf, far=(math.sqrt(0.5 * kappa * m), 0.5),
        slope=lambda t: -2.0 * t)
    return env, env.log_weight, lambda t: hermite_value(m, t)


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
    where = f" at alpha = {F.alpha!r}, m = {F.m}"
    model = _gegenbauer_model if F.kind.is_gegenbauer else _laguerre_model
    try:
        parts = _build(*model(F))
    except RuntimeError as exc:
        # the zero solve: its Jacobi matrix overflows or its certificate fails
        raise QuadratureError(f"{exc}{where}") from None
    except OverflowError:
        raise QuadratureError(f"the segment bounds overflow double precision"
                              f"{where}") from None
    return _quadrature(*parts, tol_rel, signed=F.kind.is_shannon,
                       may_vanish=F.kind.is_shannon and F.m == 0, where=where)


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
    q = _quadrature(*_build(*_hermite_model(m, kappa)), tol_rel,
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
