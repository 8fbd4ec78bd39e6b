#!/usr/bin/env python3
"""The entrofun benchmark: one command, three workloads.

    python3 bench/run.py --workload {asym_mixed,oracle_mixed,cli_sweep} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout (``src/entrofun`` must exist); it
imports the package from ``src`` and starts the CLI as
``python -m entrofun.cli``, so nothing needs installing.

``--trace 0`` measures the end-to-end metrics: set-up time in fresh
interpreters, then a closed loop with one caller (the next call starts when
the previous one returns) for ``--seconds`` seconds of whole passes over
seeded decks of inputs.  ``--trace 1`` runs the per-layer pass instead: one
deck untraced and then traced, with the outputs of both compared, followed
by the ROADMAP route table and the CLI measurements.  Every output is checked
against an independent reference; a failed check prints ``"correct": false``
and exits 1.  The last line of standard output is the JSON result; lines
before it starting with ``#`` are for people.
"""

from __future__ import annotations

import os

# One BLAS / OpenMP thread in this process and every process it starts; set
# before numpy is imported anywhere.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("asym_mixed", "oracle_mixed", "cli_sweep")

SETUP_SPAWNS = 7       # fresh interpreters per set-up measurement
MIN_PASSES = 3         # a timed run completes at least this many passes
PROC_TIMEOUT = 60.0    # seconds before a child process group is killed
OK_TOL = 1e-6          # an "ok" result farther than this from its reference is off
CERT_TOL = 1e-8        # oracle (tol 1e-10) vs closed form must agree this well
CLOSED_TOL = 1e-13     # CLI closed rows vs the closed form (17-digit round trip)
TRACE_ROUNDS = 3       # untraced/traced pass pairs behind the overhead ratio

# The warm-up call of each library route, run in every fresh interpreter
# that measures set-up and in-process before timing.
WARMUP = {
    "asym_mixed": "ef.evaluate_asymptotic("
                  "ef.Functional.geg_shannon(2, 400.0, -0.5, -0.5, 1.0, 1.0))",
    "oracle_mixed": "ef.integrate_functional("
                    "ef.Functional.lag_renyi(10, 1000.0, 2.5, 1.0, 2.0), 1e-10)",
}
CLI_SETUP_ARGV = ["eval", "--kind", "i1", "--m", "2", "--alpha", "400", "--mu",
                  "2.5", "--lambda", "1", "--kappa", "2", "--method", "oracle"]


class Report:
    """Outcome of one run: the metrics plus the attempt and check tallies."""

    def __init__(self):
        self.metrics: dict[str, tuple[float, str]] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def put(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.problems.append(message)


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def cli_argv(*args: str) -> list[str]:
    return [sys.executable, "-m", "entrofun.cli", *args]


def run_proc(argv: list[str], ready_line: bool = False):
    """Run a child in its own process group; returns (seconds, returncode,
    stdout).  With ``ready_line`` the time stops at the first output line."""
    t0 = perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    timer = threading.Timer(PROC_TIMEOUT, os.killpg, (proc.pid, signal.SIGKILL))
    timer.start()
    try:
        first = proc.stdout.readline() if ready_line else ""
        t_ready = perf_counter()
        out, err = proc.communicate()
    finally:
        timer.cancel()
    wall = (t_ready if ready_line else perf_counter()) - t0
    if proc.returncode != 0:
        sys.stderr.write(f"{' '.join(argv[1:])}: exit {proc.returncode}\n{err}")
    return wall, proc.returncode, first + out


def median_spawn(argv: list[str], ready_line: bool) -> tuple[float, bool]:
    runs = [run_proc(argv, ready_line) for _ in range(SETUP_SPAWNS)]
    return statistics.median(r[0] for r in runs), all(r[1] == 0 for r in runs)


def percentile(xs: list[float], p: int) -> float:
    return statistics.quantiles(xs, n=100, method="inclusive")[p - 1]


def digits(rel: float) -> float:
    """Correct significant digits, -log10 of the relative error, in [0, 16]."""
    if not rel < math.inf:
        return 0.0
    return min(16.0, max(0.0, -math.log10(max(rel, 1e-16))))


def peak_rss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def put_end_to_end(rep: Report, ops: int, lats: list[list[float]],
                   walls: list[float], tally: dict, rss_mb: float) -> None:
    """The end-to-end metrics shared by every workload.

    ``lats`` holds the call latencies of each pass.  Latency percentiles are
    taken per pass and averaged over the passes, and ``wall_s`` is the mean
    pass, so every stretch of the run weighs the same: the machine's speed
    drifts over tens of seconds, and a pooled median jumps with whichever
    speed held the majority of the run.
    """
    rep.put("ops_per_s", ops / sum(walls), "1/s")
    rep.put("latency_p50_ms",
            1e3 * statistics.fmean(statistics.median(p) for p in lats), "ms")
    rep.put("latency_p90_ms",
            1e3 * statistics.fmean(percentile(p, 90) for p in lats), "ms")
    rep.put("wall_s", statistics.fmean(walls), "s")
    rep.put("digits_p50", statistics.median(tally["digits"]), "digits")
    rep.put("ok_agree_frac", 1.0 - tally["ok_off"] / max(1, tally["ok"]), "ratio")
    rep.put("peak_rss_mb", rss_mb, "MB")


def machine_line() -> str:
    import numpy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_txt = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_txt = "unknown"
    threads = " ".join(f"{k}={os.environ.get(k)}" for k in THREAD_ENV)
    return (f"nproc={os.cpu_count()} python={platform.python_version()} "
            f"numpy={numpy.__version__} blas={blas_txt} {threads}")


# ---------------------------------------------------------------------------
# library workloads (asym_mixed, oracle_mixed)
# ---------------------------------------------------------------------------

class LibraryWorkload:
    def __init__(self, name: str, seed: int):
        import entrofun as ef
        import workloads as W
        self.ef, self.W, self.name, self.seed = ef, W, name, seed
        self.asym = name == "asym_mixed"

    def deck(self, index: int):
        fn = self.W.asym_deck if self.asym else self.W.oracle_deck
        return fn(self.seed, index)

    def call(self, F):
        if self.asym:
            return self.ef.evaluate_asymptotic(F)
        return self.ef.integrate_functional(F, self.W.ORACLE_TOL)

    def warm_up(self) -> None:
        eval(WARMUP[self.name], {"ef": self.ef})

    def run_pass(self, deck):
        """One closed-loop pass; returns (outputs, per-call seconds, wall)."""
        outs, lats = [], []
        t_pass = perf_counter()
        for _, F in deck:
            t0 = perf_counter()
            try:
                out = self.call(F)
            except Exception as exc:  # recorded as a failed call
                out = exc
            lats.append(perf_counter() - t0)
            outs.append(out)
        return outs, lats, perf_counter() - t_pass

    def fingerprint(self, out):
        if isinstance(out, Exception):
            return ("error", type(out).__name__, str(out))
        extra = ((out.branch, out.status, out.truncation_used, out.terms)
                 if self.asym else (out.n_evals, out.segments))
        return (out.value.sign, out.value.log_abs, extra)

    @staticmethod
    def new_tally() -> dict:
        return {"digits": [], "ok": 0, "ok_off": 0, "branch": {}, "status": {}}

    def score(self, rep: Report, deck, outs, t: dict) -> None:
        """Compare each output with its reference, adding to the tally."""
        W = self.W
        for (stratum, F), out in zip(deck, outs):
            if isinstance(out, Exception):
                rep.failed += 1
                sys.stderr.write(f"# failed {stratum} {F}: {out!r}\n")
                continue
            ref = W.reference(F) if self.asym else W.closed_reference(F)
            rel = out.value.rel_diff(ref) if ref is not None else None
            if self.asym:
                t["branch"][out.branch] = t["branch"].get(out.branch, 0) + 1
                t["status"][out.status] = t["status"].get(out.status, 0) + 1
                rep.check(out.status in W.KNOWN_STATUSES,
                          f"unknown status {out.status!r} for {F}")
                status = out.status
            else:
                status = "ok"
                rep.check(out.n_evals > 0, f"no evaluations for {F}")
                rep.check(rel is None or rel <= CERT_TOL,
                          f"oracle off its closed form by {rel} for {F}")
            if status == "no_expansion":
                rep.check(rel is None or rel <= CERT_TOL,
                          f"no_expansion value off the reference by {rel} for {F}")
            if rel is None:
                continue
            t["digits"].append(digits(rel))
            if status == "ok":
                t["ok"] += 1
                t["ok_off"] += rel > OK_TOL

    def check_branches(self, rep: Report, t: dict) -> None:
        if not self.asym:
            return
        seen = set(t["branch"])
        for tag in self.W.REQUIRED_BRANCHES:
            hit = (any(b.startswith(tag[:-1]) for b in seen)
                   if tag.endswith("*") else tag in seen)
            rep.check(hit, f"branch {tag} missing from the asym_mixed run")

    # -- --trace 0 -------------------------------------------------------------

    def timed(self, rep: Report, seconds: float) -> None:
        child = f"import entrofun as ef\n{WARMUP[self.name]}\nprint('ready', flush=True)"
        setup, ok = median_spawn([sys.executable, "-c", child], ready_line=True)
        rep.check(ok, "set-up interpreter failed")
        rep.put("setup_s", setup, "s")
        self.warm_up()

        # Outputs are scored after each pass, outside its timing, so memory
        # held by the benchmark does not grow with the number of calls.
        # Passes alternate between the CPUs the process may use: their speeds
        # drift independently, and one caller left on one CPU would measure
        # only that CPU's stretch of the drift.
        cpus = sorted(os.sched_getaffinity(0))
        t = self.new_tally()
        lats, walls = [], []
        try:
            while sum(walls) < seconds or len(walls) < MIN_PASSES:
                deck = self.deck(len(walls))
                os.sched_setaffinity(0, {cpus[len(walls) % len(cpus)]})
                outs, lat, wall = self.run_pass(deck)
                lats.append(lat)
                walls.append(wall)
                rep.attempted += len(deck)
                self.score(rep, deck, outs, t)
        finally:
            os.sched_setaffinity(0, cpus)
        self.check_branches(rep, t)
        per_pass = rep.attempted // len(walls)
        put_end_to_end(rep, rep.attempted, lats, walls, t,
                       peak_rss_mb(resource.RUSAGE_SELF))
        print(f"# {len(walls)} passes of {per_pass} calls (latency samples), "
              f"{len(t['digits'])} with a reference, "
              f"{t['ok_off']}/{t['ok']} ok results off by > {OK_TOL:g}")
        if self.asym:
            print(f"# branches {json.dumps(t['branch'], sort_keys=True)}")
            print(f"# statuses {json.dumps(t['status'], sort_keys=True)}")

    # -- --trace 1 -------------------------------------------------------------

    def traced(self, rep: Report) -> None:
        from tracing import Tracer
        deck = self.deck(0)
        self.warm_up()
        plain, _, _ = self.run_pass(deck)         # also fills lazy caches
        plain_walls, traced_walls, first = [], [], None
        for _ in range(TRACE_ROUNDS):             # alternate to share drift
            plain_walls.append(self.run_pass(deck)[2])
            probe = LayerProbe()
            tracer = Tracer(probe.on_result)
            tracer.install()
            try:
                traced, _, wall = self.run_pass(deck)
            finally:
                tracer.uninstall()
            traced_walls.append(wall)
            first = first or (tracer, probe)
            rep.check([self.fingerprint(o) for o in plain]
                      == [self.fingerprint(o) for o in traced],
                      "traced outputs differ from untraced outputs")
        t = self.new_tally()
        self.score(rep, deck, traced, t)
        self.check_branches(rep, t)
        passes = 1 + 2 * TRACE_ROUNDS             # every pass gave these outputs
        rep.attempted = passes * len(deck)
        rep.failed *= passes
        tracer, probe = first
        probe.report(rep, tracer, statistics.median(traced_walls)
                     / statistics.median(plain_walls))
        rep.put("result.ok_off_frac", t["ok_off"] / max(1, t["ok"]), "ratio")
        rep.put("result.failed_frac", rep.failed / rep.attempted, "ratio")
        rep.put("cli.rows", 0, "count")
        rep.put("cli.pool_speedup", 0.0, "ratio")
        common_traced_metrics(rep)


# ---------------------------------------------------------------------------
# cli_sweep
# ---------------------------------------------------------------------------

class SweepWorkload:
    def __init__(self, seed: int):
        import entrofun as ef
        import workloads as W
        self.ef, self.W, self.seed = ef, W, seed

    def run_sweep(self, name: str, jobs: int):
        return run_proc(cli_argv(*self.W.sweep_argv(name, jobs)))

    def check_rows(self, rep: Report, texts: dict[str, str]) -> dict:
        """Check every row of each sweep's CSV; returns tallies."""
        W = self.W
        t = {"digits": [], "ok": 0, "ok_off": 0, "rows": 0, "status": {}}
        for name, text in sorted(texts.items()):
            lines = text.splitlines()
            header = lines[0].split(",")
            rows = [dict(zip(header, line.split(",", len(header) - 1)))
                    for line in lines[1:]]
            rep.check(len(rows) == W.SWEEP_COUNT * len(W.SWEEPS[name][-1].split(",")),
                      f"{name}: {len(rows)} rows")
            t["rows"] += len(rows)
            for row in rows:
                status = row["status"]
                t["status"][status] = t["status"].get(status, 0) + 1
                rep.check(not status.startswith("error"), f"{name}: {status}")
                if row["log_abs"] == "":
                    continue
                ref = W.closed_reference(W.sweep_functional(name, float(row["alpha"])))
                if ref is None:
                    continue
                value = self.ef.LogValue.from_log(float(row["log_abs"]), int(row["sign"]))
                rel = value.rel_diff(ref)
                if row["method"] == "closed":
                    rep.check(rel <= CLOSED_TOL, f"{name}: closed row off by {rel}")
                    continue
                if row["method"] == "oracle":
                    rep.check(rel <= CERT_TOL, f"{name}: oracle row off by {rel}")
                t["digits"].append(digits(rel))
                if status == "ok":
                    t["ok"] += 1
                    t["ok_off"] += rel > OK_TOL
        return t

    def timed(self, rep: Report, seconds: float) -> None:
        setup, ok = median_spawn(cli_argv(*CLI_SETUP_ARGV), ready_line=False)
        rep.check(ok, "set-up CLI call failed")
        rep.put("setup_s", setup, "s")

        first: dict[str, str] = {}
        lats, walls, rows_per_pass = [], [], 0
        while sum(walls) < seconds or len(walls) < MIN_PASSES:
            wall, rows = 0.0, 0
            lats.append([])
            for name in self.W.sweep_order(self.seed, len(walls)):
                sec, rc, out = self.run_sweep(name, jobs=2)
                rep.attempted += 1
                rep.failed += rc != 0
                rep.check(first.setdefault(name, out) == out,
                          f"{name}: output differs between repeats")
                lats[-1].append(sec)
                wall += sec
                rows += max(0, out.count("\n") - 1)
            walls.append(wall)
            rows_per_pass = rows
        rss = peak_rss_mb(resource.RUSAGE_CHILDREN)
        for name in sorted(first):
            _, rc, out = self.run_sweep(name, jobs=1)
            rep.check(rc == 0 and out == first[name],
                      f"{name}: --jobs 1 output differs from --jobs 2")

        t = self.check_rows(rep, first)
        put_end_to_end(rep, rows_per_pass * len(walls), lats, walls, t, rss)
        print(f"# {len(walls)} passes of {len(self.W.SWEEPS)} sweeps "
              f"({rows_per_pass} rows; invocations are the latency samples), "
              f"{len(t['digits'])} rows with a closed form")
        print(f"# statuses {json.dumps(t['status'], sort_keys=True)}")

    def traced(self, rep: Report) -> None:
        import entrofun.cli
        from tracing import Tracer

        def in_process(name: str) -> str:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                rc = entrofun.cli.main(self.W.sweep_argv(name, jobs=1))
            rep.failed += rc != 0
            return buf.getvalue()

        names = sorted(self.W.SWEEPS)
        with contextlib.redirect_stdout(io.StringIO()):
            entrofun.cli.main(CLI_SETUP_ARGV)     # warm-up, as in set-up
        t0 = perf_counter()
        plain = {n: in_process(n) for n in names}
        plain_wall = perf_counter() - t0
        probe = LayerProbe()
        tracer = Tracer(probe.on_result)
        tracer.install()
        try:
            t0 = perf_counter()
            traced = {n: in_process(n) for n in names}
            traced_wall = perf_counter() - t0
        finally:
            tracer.uninstall()
        rep.attempted = 4 * len(names)
        rep.check(plain == traced, "traced CLI output differs from untraced")

        walls = {}
        for jobs in (1, 2):
            walls[jobs] = 0.0
            for n in names:
                sec, rc, out = self.run_sweep(n, jobs)
                rep.failed += rc != 0
                walls[jobs] += sec
                rep.check(out == plain[n],
                          f"{n}: --jobs {jobs} subprocess output differs")
        t = self.check_rows(rep, traced)
        probe.report(rep, tracer, traced_wall / plain_wall)
        rep.put("result.ok_off_frac", t["ok_off"] / max(1, t["ok"]), "ratio")
        rep.put("result.failed_frac", rep.failed / rep.attempted, "ratio")
        rep.put("cli.rows", t["rows"], "count")
        rep.put("cli.pool_speedup", walls[1] / walls[2], "ratio")
        common_traced_metrics(rep)


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

_VALUE_FNS = ("orthopoly.laguerre_value", "orthopoly.gegenbauer_value",
              "orthopoly.hermite_value")
_SADDLE_FNS = ("coeffs.geg_saddle_x", "coeffs.ext_saddle_x")
_LADDER_FNS = ("coeffs.lag_C_ladder", "coeffs.geg_C_ladder",
               "coeffs.ext_lag_amplitude")


class LayerProbe:
    """Counts read off traced return values, and the per-layer report."""

    def __init__(self):
        self.value_nodes = 0
        self.n_evals = 0
        self.segments = 0
        self.hermite_calls = 0
        self.terms_used = 0
        self.terms_built = 0
        self.branch: dict[str, int] = {}
        self.status: dict[str, int] = {}

    def on_result(self, name, args, result, parent) -> None:
        if name in _VALUE_FNS:
            if parent is None or not parent.startswith("orthopoly."):
                self.value_nodes += getattr(args[-1], "size", 1)
        elif name in ("oracle.integrate_functional",
                      "oracle.hermite_power_integral"):
            self.n_evals += result.n_evals
            self.segments += len(result.segments)
            self.hermite_calls += name == "oracle.hermite_power_integral"
        elif name == "asymptotics.evaluate_asymptotic":
            self.branch[result.branch] = self.branch.get(result.branch, 0) + 1
            self.status[result.status] = self.status.get(result.status, 0) + 1
            self.terms_used += result.truncation_used
            self.terms_built += len(result.terms)

    def report(self, rep: Report, tracer, overhead: float) -> None:
        import workloads as W
        s = tracer.summary()

        def total(key: str, *names: str) -> float:
            return sum(s[n][key] for n in names if n in s)

        layer_self = {}
        for name, rec in s.items():
            layer = name.split(".", 1)[0]
            layer_self[layer] = layer_self.get(layer, 0.0) + rec["self_s"]

        put = rep.put
        put("trace.overhead", overhead, "ratio")
        put("orthopoly.zeros_calls", total("calls", "orthopoly.polynomial_zeros",
                                           "orthopoly.hermite_zeros"), "count")
        put("orthopoly.zeros_s", total("incl_s", "orthopoly.polynomial_zeros",
                                       "orthopoly.hermite_zeros"), "s")
        put("orthopoly.value_nodes", self.value_nodes, "count")
        put("orthopoly.value_s", total("entry_s", *_VALUE_FNS), "s")

        calls = total("calls", "oracle.integrate_functional")
        put("oracle.calls", calls, "count")
        put("oracle.self_s", layer_self.get("oracle", 0.0), "s")
        put("oracle.n_evals", self.n_evals, "count")
        put("oracle.evals_per_call",
            self.n_evals / max(1, calls + self.hermite_calls), "count")
        put("oracle.segments", self.segments, "count")
        put("oracle.hermite_calls", self.hermite_calls, "count")
        put("oracle.quad_errors", sum(v for k, v in tracer.errors.items()
                                      if k.endswith(":QuadratureError")), "count")

        put("series.revert_calls", total("calls", "series.series_revert"), "count")
        put("series.revert_s", total("incl_s", "series.series_revert"), "s")
        put("series.pow_calls", total("calls", "series.series_pow"), "count")
        put("series.mul_calls", total("calls", "series.Series.__mul__"), "count")
        put("series.self_s", layer_self.get("series", 0.0), "s")

        builds = total("calls", *_SADDLE_FNS)
        top = tracer.name_id.get("asymptotics.evaluate_asymptotic", -1)
        building = {tracer.ancestor(i, top)
                    for n in _SADDLE_FNS for i in tracer.spans(n)}
        put("coeffs.saddle_builds", builds, "count")
        put("coeffs.saddle_builds_per_call", builds / max(1, len(building)), "count")
        put("coeffs.ladder_calls", total("calls", *_LADDER_FNS), "count")
        put("coeffs.self_s", layer_self.get("coeffs", 0.0), "s")

        put("asymptotics.calls", total("calls", "asymptotics.evaluate_asymptotic"),
            "count")
        put("asymptotics.self_s", layer_self.get("asymptotics", 0.0), "s")
        for tag in W.KNOWN_BRANCHES:
            put(f"asymptotics.branch.{tag}", self.branch.get(tag, 0), "count")
        put("asymptotics.branch.other", sum(
            v for k, v in self.branch.items() if k not in W.KNOWN_BRANCHES), "count")
        for st in W.KNOWN_STATUSES:
            put(f"asymptotics.status.{st}", self.status.get(st, 0), "count")
        put("asymptotics.status.other", sum(
            v for k, v in self.status.items() if k not in W.KNOWN_STATUSES), "count")
        put("asymptotics.terms_used_ratio",
            self.terms_used / max(1, self.terms_built), "ratio")

        put("closedforms.calls", sum(rec["calls"] for n, rec in s.items()
                                     if n.startswith("closedforms.")), "count")
        put("closedforms.s", layer_self.get("closedforms", 0.0), "s")
        print(f"# {len(tracer.span_name)} spans; self seconds by layer "
              f"{json.dumps({k: round(v, 4) for k, v in sorted(layer_self.items())})}")


def common_traced_metrics(rep: Report) -> None:
    """CLI import time, the ROADMAP route table and the transition probe, on
    every workload."""
    import entrofun as ef
    import workloads as W
    raises = ok_off = 0
    for F in W.TRANSITION_PROBE:
        try:
            out = ef.evaluate_asymptotic(F)
        except ValueError:
            raises += 1
            continue
        ref = W.reference(F)
        ok_off += (out.status == "ok" and ref is not None
                   and out.value.rel_diff(ref) > OK_TOL)
    n = len(W.TRANSITION_PROBE)
    rep.put("transition.ext_renyi_raises", raises, "count")
    rep.put("transition.ext_renyi_ok_off", ok_off, "count")
    print(f"# transition probe: of {n} ext-Renyi inputs with lam within 1e-6 "
          f"of 1, {raises} raise and {ok_off} return ok off by > {OK_TOL:g}")

    code = ("import time; t = time.perf_counter(); import entrofun.cli; "
            "print(time.perf_counter() - t)")
    imports = [run_proc([sys.executable, "-c", code]) for _ in range(SETUP_SPAWNS)]
    rep.check(all(r[1] == 0 for r in imports), "import of entrofun.cli failed")
    rep.put("cli.import_s", statistics.median(float(r[2]) for r in imports), "s")

    def median_time(fn, F) -> float:
        fn(F)
        times = []
        for _ in range(5):
            t0 = perf_counter()
            fn(F)
            times.append(perf_counter() - t0)
        return statistics.median(times)

    for case, F in W.ROUTE_CASES.items():
        asym = median_time(ef.evaluate_asymptotic, F)
        orc = median_time(lambda G: ef.integrate_functional(G, 1e-10), F)
        rep.put(f"route_ratio.{case}", asym / orc, "ratio")
        print(f"# route {case}: asym {1e3 * asym:.3f} ms, oracle {1e3 * orc:.3f} ms")


# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "entrofun" / "__init__.py").is_file():
        sys.stderr.write(f"error: no entrofun package under {SRC}; run from a "
                         f"source checkout\n")
        return 2
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)

    print(f"# {machine_line()}")
    rep = Report()
    if args.workload == "cli_sweep":
        work = SweepWorkload(args.seed)
    else:
        work = LibraryWorkload(args.workload, args.seed)
    if args.trace:
        work.traced(rep)
    else:
        work.timed(rep, args.seconds)

    for problem in rep.problems:
        sys.stderr.write(f"check failed: {problem}\n")
    result = {
        "correct": not rep.problems,
        "attempted": rep.attempted,
        "failed": rep.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in rep.metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not rep.problems else 1


if __name__ == "__main__":
    sys.exit(main())
