"""Seeded inputs and independent references for the benchmark workloads.

Every generator takes ``(seed, index)`` and returns one *deck*: the inputs of
one pass.  A pass is stratified, so each deck has the same number of calls
in every stratum while the parameters inside a stratum are drawn afresh.
Apart from the three fixed ROADMAP item 4 cases, no parameter tuple repeats,
so a cross-call cache gets no hits from one call to the next.
"""

from __future__ import annotations

import math
import random

import entrofun as ef
from entrofun import Functional

# ---------------------------------------------------------------------------
# asym_mixed: evaluate_asymptotic over all six kinds, alpha in [200, 2e4]
# ---------------------------------------------------------------------------

ASYM_ALPHA = (200.0, 2.0e4)

# Branch tags that every asym_mixed pass must produce (a missing one fails
# the run).  Entries ending in "*" match by prefix.
REQUIRED_BRANCHES = (
    "watson*", "laplace_cd", "laplace_swapped*", "symmetric_*",
    "laplace_lambda_ne1", "hermite_limit_*", "laplace_shannon_analytic",
    "laplace_shannon_fd", "laplace_shannon_zero", "oracle_only",
)

# Every tag evaluate_asymptotic can return; per-layer output has one count
# for each, plus "other" for a tag not listed here.
KNOWN_BRANCHES = (
    "watson", "watson_shannon_zero", "watson_shannon_analytic",
    "watson_shannon_fd", "laplace_cd", "laplace_swapped",
    "laplace_swapped_shannon", "symmetric_kappa2", "symmetric_hermite_leading",
    "laplace_lambda_ne1", "hermite_limit_kappa2", "hermite_limit_power",
    "laplace_shannon_analytic", "laplace_shannon_fd", "laplace_shannon_zero",
    "oracle_only",
)
KNOWN_STATUSES = ("ok", "low_confidence", "no_expansion")

# The three silent failures recorded in ROADMAP item 4, kept verbatim.
ROADMAP_ITEM4 = (
    Functional.ext_renyi(2, 400.0, 1.0, 1.1, 2.0),
    Functional.ext_shannon(2, 400.0, 1.0, 1.0 + 1e-9),
    Functional.geg_shannon(2, 400.0, -0.5, -0.5, 1.0, 1.000001),
)


def _loguni(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _kappa_not2(rng: random.Random) -> float:
    k = rng.uniform(0.5, 4.0)
    return k if abs(k - 2.0) > 0.05 else k + 0.25


def _asym_cd(rng: random.Random, swapped: bool) -> tuple[float, float]:
    c = rng.uniform(0.5, 3.0)
    d = c * _loguni(rng, 1.2, 4.0)
    return (d, c) if swapped else (c, d)


def _near_one(rng: random.Random, lo: float, hi: float) -> float:
    return 1.0 + rng.choice((-1.0, 1.0)) * _loguni(rng, lo, hi)


# (stratum name, calls per pass, builder(rng, m, alpha) -> Functional).
# lag_renyi carries the largest share so that the median call is a cheap
# Watson ladder; the Gegenbauer ladders make the slow tail.
_ASYM_STRATA = (
    ("lag_renyi", 26, lambda r, m, a: Functional.lag_renyi(
        m, a, r.uniform(0.5, 6.0), _loguni(r, 0.3, 3.0), r.uniform(0.5, 4.0))),
    ("lag_renyi_m0", 2, lambda r, m, a: Functional.lag_renyi(
        0, a, r.uniform(0.5, 6.0), _loguni(r, 0.3, 3.0), r.uniform(0.5, 4.0))),
    ("lag_shannon", 12, lambda r, m, a: Functional.lag_shannon(
        m, a, r.uniform(0.5, 6.0), _loguni(r, 0.3, 3.0))),
    ("lag_shannon_m0", 2, lambda r, m, a: Functional.lag_shannon(
        0, a, r.uniform(0.5, 6.0), _loguni(r, 0.3, 3.0))),
    ("geg_renyi_cd", 6, lambda r, m, a: Functional.geg_renyi(
        m, a, r.uniform(-0.5, 1.5), r.uniform(-0.5, 1.5),
        *_asym_cd(r, False), r.uniform(0.5, 4.0))),
    ("geg_renyi_swapped", 6, lambda r, m, a: Functional.geg_renyi(
        m, a, r.uniform(-0.5, 1.5), r.uniform(-0.5, 1.5),
        *_asym_cd(r, True), r.uniform(0.5, 4.0))),
    ("geg_renyi_sym_k2", 2, lambda r, m, a: Functional.geg_renyi(
        m, a, r.uniform(-0.5, 1.5), r.uniform(-0.5, 1.5), 1.0, 1.0, 2.0)),
    ("geg_renyi_sym_k", 2, lambda r, m, a: Functional.geg_renyi(
        m, a, r.uniform(-0.5, 1.5), r.uniform(-0.5, 1.5), 1.0, 1.0,
        _kappa_not2(r))),
    ("geg_shannon_cd", 6, lambda r, m, a: Functional.geg_shannon(
        m, a, r.uniform(-0.5, 1.5), r.uniform(-0.5, 1.5), *_asym_cd(r, False))),
    ("geg_shannon_swapped", 6, lambda r, m, a: Functional.geg_shannon(
        m, a, r.uniform(-0.5, 1.5), r.uniform(-0.5, 1.5), *_asym_cd(r, True))),
    ("geg_shannon_sym", 2, lambda r, m, a: Functional.geg_shannon(
        m, a, r.uniform(-0.5, 1.5), r.uniform(-0.5, 1.5), *(2 * (r.uniform(0.5, 2.0),)))),
    ("geg_shannon_m0", 2, lambda r, m, a: Functional.geg_shannon(
        0, a, r.uniform(-0.5, 1.5), r.uniform(-0.5, 1.5), *_asym_cd(r, False))),
    ("ext_renyi", 10, lambda r, m, a: Functional.ext_renyi(
        m, a, r.uniform(0.5, 3.0), _ext_lam_far(r), r.uniform(0.5, 4.0))),
    ("ext_renyi_lam1_k2", 2, lambda r, m, a: Functional.ext_renyi(
        m, a, r.uniform(0.5, 3.0), 1.0, 2.0)),
    ("ext_renyi_lam1_k", 2, lambda r, m, a: Functional.ext_renyi(
        m, a, r.uniform(0.5, 3.0), 1.0, _kappa_not2(r))),
    ("ext_shannon", 10, lambda r, m, a: Functional.ext_shannon(
        m, a, r.uniform(0.5, 3.0), _ext_lam(r))),
    ("ext_shannon_m0", 2, lambda r, m, a: Functional.ext_shannon(
        0, a, r.uniform(0.5, 3.0), _ext_lam(r))),
    ("ext_shannon_lam1", 2, lambda r, m, a: Functional.ext_shannon(
        m, a, r.uniform(0.5, 3.0), 1.0)),
    # transition regimes: lam within 1e-6 of 1, d/c within 1e-5 of 1 (for
    # ext-Renyi see TRANSITION_PROBE)
    ("ext_shannon_lam_near1", 1, lambda r, m, a: Functional.ext_shannon(
        m, a, r.uniform(0.5, 3.0), _near_one(r, 1e-9, 1e-6))),
    ("geg_renyi_cd_near1", 1, lambda r, m, a: _near_sym(r, m, a, renyi=True)),
    ("geg_shannon_cd_near1", 1, lambda r, m, a: _near_sym(r, m, a, renyi=False)),
)


def _ext_lam(rng: random.Random) -> float:
    lam = _loguni(rng, 0.3, 3.0)
    return lam if abs(lam - 1.0) > 0.05 else lam + 0.1


def _ext_lam_far(rng: random.Random) -> float:
    """lam with |lam - 1| >= 0.35: inside the domain where the lambda != 1
    ladder exists for m <= 8 and alpha >= 200 (closer to 1 it raises)."""
    return rng.choice((rng.uniform(0.3, 0.65), _loguni(rng, 1.35, 3.0)))


def _near_sym(rng: random.Random, m: int, alpha: float, renyi: bool) -> Functional:
    c = rng.uniform(0.5, 3.0)
    d = c * _near_one(rng, 1e-8, 1e-5)
    a, b = rng.uniform(-0.5, 1.5), rng.uniform(-0.5, 1.5)
    if renyi:
        return Functional.geg_renyi(m, alpha, a, b, c, d, rng.uniform(0.5, 4.0))
    return Functional.geg_shannon(m, alpha, a, b, c, d)


def _transition_probe() -> tuple[Functional, ...]:
    rng = random.Random("transition_probe")
    return tuple(Functional.ext_renyi(
        rng.randint(1, 8), _loguni(rng, *ASYM_ALPHA), rng.uniform(0.5, 3.0),
        _near_one(rng, 1e-9, 1e-6), rng.uniform(0.5, 4.0)) for _ in range(24))


# Ext-Renyi with lam within 1e-6 of 1.  These go to the lambda != 1 ladder,
# which raises ValueError ("alpha is too small") for about half of them and
# returns the rest with status "ok".  A raising call would be a failed
# operation of the timed loop, so this fixed set runs in the traced run
# instead, where the raises and the wrong "ok" values are per-layer counts.
TRANSITION_PROBE = _transition_probe()


def asym_deck(seed: int, index: int) -> list[tuple[str, Functional]]:
    rng = random.Random(f"asym_mixed:{seed}:{index}")
    deck = []
    for name, count, build in _ASYM_STRATA:
        for _ in range(count):
            deck.append((name, build(rng, rng.randint(1, 8), _loguni(rng, *ASYM_ALPHA))))
    deck += [("roadmap_item4", F) for F in ROADMAP_ITEM4]
    rng.shuffle(deck)
    return deck


# ---------------------------------------------------------------------------
# oracle_mixed: integrate_functional at 1e-10, m in [1, 60], alpha in [50, 1e4]
# ---------------------------------------------------------------------------

ORACLE_TOL = 1e-10
ORACLE_M = (1, 60)
ORACLE_ALPHA = (50.0, 1.0e4)


def _lag24(r, m, a):
    return Functional.lag_renyi(m, a, r.uniform(0.5, 6.0), 1.0, 2.0)


def _geg22(r, m, a):
    return Functional.geg_renyi(m, a, -0.5, 2 * m - 1.5, 1.0, 3.0, 2.0)


def _geg31(r, m, a):
    return Functional.geg_renyi(m, a, -0.5, -1.5, 1.0, 1.0, 2.0)


def _more15(r, m, a):
    return Functional.ext_renyi(m, a, 1.0, _ext_lam(r), 2.0)


def _more24(r, m, a):
    return Functional.ext_renyi(m, a, 1.0, 1.0, 2.0)


# Four calls per kind; eight of the 24 have a closed form (lag24, geg22,
# geg31, more15, more24) and so an independent reference.  A deck holds
# each template ORACLE_REPEAT times, so that a pass has ~10 calls above
# its 90th latency percentile.
ORACLE_REPEAT = 4
_ORACLE_TEMPLATES = (
    ("lag24", _lag24), ("lag24", _lag24), ("lag24", _lag24),
    ("lag_renyi", lambda r, m, a: Functional.lag_renyi(
        m, a, r.uniform(0.5, 6.0), _loguni(r, 0.3, 3.0), r.uniform(0.5, 4.0))),
    *[("lag_shannon", lambda r, m, a: Functional.lag_shannon(
        m, a, r.uniform(0.5, 6.0), _loguni(r, 0.3, 3.0)))] * 4,
    ("geg22", _geg22), ("geg22", _geg22), ("geg31", _geg31),
    ("geg_renyi", lambda r, m, a: Functional.geg_renyi(
        m, a, r.uniform(-0.5, 1.5), r.uniform(-0.5, 1.5), r.uniform(0.5, 3.0),
        r.uniform(0.5, 3.0), r.uniform(0.5, 4.0))),
    *[("geg_shannon", lambda r, m, a: Functional.geg_shannon(
        m, a, r.uniform(-0.5, 1.5), r.uniform(-0.5, 1.5), r.uniform(0.5, 3.0),
        r.uniform(0.5, 3.0)))] * 4,
    ("more15", _more15), ("more24", _more24),
    *[("ext_renyi", lambda r, m, a: Functional.ext_renyi(
        m, a, r.uniform(0.5, 3.0), _loguni(r, 0.3, 3.0), r.uniform(0.5, 4.0)))] * 2,
    *[("ext_shannon", lambda r, m, a: Functional.ext_shannon(
        m, a, r.uniform(0.5, 3.0), _loguni(r, 0.3, 3.0)))] * 4,
)


def _latin_log(rng: random.Random, lo: float, hi: float, n: int) -> list[float]:
    """n log-uniform draws, one from each of n equal slices of [lo, hi]."""
    step = (math.log(hi) - math.log(lo)) / n
    out = [math.exp(math.log(lo) + step * (i + rng.random())) for i in range(n)]
    rng.shuffle(out)
    return out


def oracle_deck(seed: int, index: int) -> list[tuple[str, Functional]]:
    rng = random.Random(f"oracle_mixed:{seed}:{index}")
    templates = _ORACLE_TEMPLATES * ORACLE_REPEAT
    n = len(templates)
    ms = [min(ORACLE_M[1], int(v)) for v in _latin_log(rng, ORACLE_M[0], ORACLE_M[1] + 1, n)]
    alphas = _latin_log(rng, *ORACLE_ALPHA, n)
    deck = [(name, build(rng, m, a))
            for (name, build), m, a in zip(templates, ms, alphas)]
    rng.shuffle(deck)
    return deck


# ---------------------------------------------------------------------------
# cli_sweep: fixed `entrofun sweep` invocations, 32 log-spaced alphas each
# ---------------------------------------------------------------------------

SWEEP_COUNT = 32
SWEEP_GRID = ["--alpha", "200", "--alpha-start", "200", "--alpha-stop", "20000",
              "--count", str(SWEEP_COUNT), "--spacing", "log"]
SWEEPS = {
    "i1_lag24": ["--kind", "i1", "--m", "4", "--mu", "2.5", "--lambda", "1",
                 "--kappa", "2", "--methods", "oracle,asym,closed"],
    "i3_geg22": ["--kind", "i3", "--m", "3", "--a", "-0.5", "--b", "4.5",
                 "--c", "1", "--d", "3", "--kappa", "2",
                 "--methods", "oracle,asym,closed"],
    "i5_more15": ["--kind", "i5", "--m", "2", "--sigma", "1", "--lambda", "2",
                  "--kappa", "2", "--methods", "oracle,asym,closed"],
    "i4_c1d3": ["--kind", "i4", "--m", "3", "--c", "1", "--d", "3",
                "--methods", "oracle,asym"],
    "i2_lam1.5": ["--kind", "i2", "--m", "3", "--mu", "2.5", "--lambda", "1.5",
                  "--methods", "oracle,asym"],
}


def sweep_argv(name: str, jobs: int) -> list[str]:
    return ["sweep", *SWEEPS[name], *SWEEP_GRID, "--jobs", str(jobs)]


def sweep_order(seed: int, index: int) -> list[str]:
    """The invocation order of one pass; the set is fixed, the seed orders it."""
    names = sorted(SWEEPS)
    random.Random(f"cli_sweep:{seed}:{index}").shuffle(names)
    return names


def sweep_functional(name: str, alpha: float) -> Functional:
    """The functional one sweep row evaluates, rebuilt from the CLI flags."""
    flags = dict(zip(SWEEPS[name][::2], SWEEPS[name][1::2]))
    kind = flags["--kind"]
    m = int(flags["--m"])
    num = {k[2:]: float(v) for k, v in flags.items()
           if k not in ("--kind", "--m", "--methods")}
    if kind == "i1":
        return Functional.lag_renyi(m, alpha, num["mu"], num["lambda"], num["kappa"])
    if kind == "i2":
        return Functional.lag_shannon(m, alpha, num["mu"], num["lambda"])
    if kind == "i3":
        return Functional.geg_renyi(m, alpha, num["a"], num["b"], num["c"],
                                    num["d"], num["kappa"])
    if kind == "i4":
        return Functional.geg_shannon(m, alpha, -0.5, -0.5, num["c"], num["d"])
    return Functional.ext_renyi(m, alpha, num["sigma"], num["lambda"], num["kappa"])


# ---------------------------------------------------------------------------
# references and the README-style route table
# ---------------------------------------------------------------------------

def closed_reference(F: Functional):
    """The closed-form value, or None where no closed form is known."""
    try:
        return ef.closed_form_value(F)
    except ValueError:
        return None


def reference(F: Functional):
    """Closed form where one exists, else the oracle at 1e-12 (None if the
    oracle cannot certify it)."""
    ref = closed_reference(F)
    if ref is not None:
        return ref
    try:
        return ef.integrate_functional(F, 1e-12).value
    except (ef.QuadratureError, ValueError, RuntimeError):
        return None


# The seven cases of the ROADMAP baseline table (asym vs oracle at 1e-10).
ROUTE_CASES = {
    "i1_m2_a400": Functional.lag_renyi(2, 400.0, 2.5, 1.0, 2.0),
    "i1_m10_a1000": Functional.lag_renyi(10, 1000.0, 2.5, 1.0, 2.0),
    "i3_m3_a200": Functional.geg_renyi(3, 200.0, -0.5, 4.5, 1.0, 3.0, 2.0),
    "i4_m3_a200": Functional.geg_shannon(3, 200.0, -0.5, -0.5, 1.0, 3.0),
    "i5_m2_a400": Functional.ext_renyi(2, 400.0, 1.0, 2.0, 2.0),
    "i1_m30_a1e4": Functional.lag_renyi(30, 1.0e4, 2.5, 1.0, 2.0),
    "i3_m20_a1e5": Functional.geg_renyi(20, 1.0e5, -0.5, 38.5, 1.0, 3.0, 2.0),
}
