"""Command-line surface: evaluation, method comparison, convergence sweeps,
and coefficient-ladder inspection.

Output is deterministic: identical invocations produce byte-identical JSON
or CSV.  Sweeps can fan out over processes with ``--jobs``; worker count
affects wall time only, never output bytes.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from dataclasses import dataclass

from . import coeffs as cf
from .asymptotics import closed_form_value, evaluate_asymptotic
from .functional import Functional, Kind
from .logvalue import LogValue
from .oracle import QuadratureError, integrate_functional

_METHODS = ("asym", "closed", "oracle")


@dataclass(frozen=True)
class SweepSpec:
    """A functional template swept over an alpha grid."""

    template: Functional
    alpha_start: float
    alpha_stop: float
    count: int
    spacing: str = "log"
    methods: tuple[str, ...] = ("oracle", "asym")
    K: int | None = None

    def __post_init__(self):
        if self.count < 2:
            raise ValueError("sweep requires count >= 2")
        if not self.alpha_start > 0:
            raise ValueError("sweep requires alpha_start > 0")
        if not self.alpha_stop > 0:
            raise ValueError("sweep requires alpha_stop > 0")
        if self.spacing not in ("linear", "log"):
            raise ValueError(f"unknown spacing {self.spacing!r}")
        if not self.methods:
            raise ValueError("sweep requires at least one method")
        for mth in self.methods:
            if mth not in _METHODS:
                raise ValueError(f"unknown method {mth!r}")

    def grid(self) -> list[float]:
        start, stop, count = self.alpha_start, self.alpha_stop, self.count
        if self.spacing == "linear":
            step = (stop - start) / (count - 1)
            return [start + step * i for i in range(count - 1)] + [stop]
        ratio = math.log(stop / start) / (count - 1)
        return [start * math.exp(ratio * i) for i in range(count - 1)] + [stop]

_KINDS = {
    "i1": Kind.LAG_RENYI,
    "i2": Kind.LAG_SHANNON,
    "i3": Kind.GEG_RENYI,
    "i4": Kind.GEG_SHANNON,
    "i5": Kind.EXT_LAG_RENYI,
    "i5s": Kind.EXT_LAG_SHANNON,
}

# parameters the "i4" shorthand fills in unless overridden
_I4_DEFAULTS = {"a": -0.5, "b": -0.5, "c": 1.0, "d": 1.0}


class CliError(Exception):
    pass


def _fmt(x: float) -> str:
    return format(x, ".17g")


def _functional_from_args(args) -> Functional:
    kind = _KINDS.get(args.kind)
    if kind is None:
        raise CliError(f"unknown kind {args.kind!r}; choose from "
                       f"{sorted(_KINDS)}")
    params = {}
    for name in ("mu", "sigma", "lam", "kappa", "a", "b", "c", "d"):
        val = getattr(args, name, None)
        if val is not None:
            params[name] = val
    if args.kind == "i4":
        for key, val in _I4_DEFAULTS.items():
            params.setdefault(key, val)
    if kind.is_shannon:
        params.setdefault("kappa", 2.0)
    try:
        return Functional(kind, args.m, args.alpha, **params)
    except (ValueError, TypeError) as exc:
        raise CliError(str(exc)) from exc


def _value_payload(v: LogValue) -> dict:
    return {
        "sign": v.sign,
        "log_abs": v.log_abs,
        "linear_if_representable": v.to_float() if v.representable else None,
    }


def _order_arg(text: str) -> int | None:
    if text == "auto":
        return None
    try:
        k = int(text)
    except ValueError:
        raise CliError(f"--order must be an integer or 'auto', got {text!r}")
    if k < 0:
        raise CliError("--order must be nonnegative")
    return k


def _eval_document(F: Functional, method: str, K, tol: float) -> dict:
    doc = {
        "functional": F.kind.value,
        "params": F.params_dict(),
        "method": method,
    }
    if method == "oracle":
        q = integrate_functional(F, tol)
        doc["value"] = _value_payload(q.value)
        doc["error_estimate"] = (math.exp(q.abs_err_log - q.value.log_abs)
                                 if q.value.sign != 0 else 0.0)
        doc["n_evals"] = q.n_evals
        doc["terms"] = []
        doc["truncation_used"] = None
        doc["branch"] = "oracle"
        doc["status"] = "ok"
        return doc
    if method == "closed":
        doc["value"] = _value_payload(closed_form_value(F))
        doc["error_estimate"] = None
        doc["terms"] = []
        doc["truncation_used"] = None
        doc["branch"] = "closed_form"
        doc["status"] = "ok"
        return doc
    if method != "asym":
        raise CliError(f"unknown method {method!r}; choose oracle, asym or closed")
    res = evaluate_asymptotic(F, K, tol_rel=tol)
    doc["value"] = _value_payload(res.value)
    doc["error_estimate"] = res.error_estimate
    doc["terms"] = list(res.terms)
    doc["truncation_used"] = res.truncation_used
    doc["branch"] = res.branch
    doc["status"] = res.status
    return doc


def cmd_eval(args) -> int:
    F = _functional_from_args(args)
    K = _order_arg(args.order)
    doc = _eval_document(F, args.method, K, args.tol)
    if args.format == "json":
        print(json.dumps(doc, indent=2))
    elif args.format == "pretty":
        for key, val in doc.items():
            print(f"{key}: {val}")
    else:
        raise CliError("eval supports --format json or pretty")
    return 0 if doc["status"] in ("ok", "no_expansion", "low_confidence") else 1


def cmd_compare(args) -> int:
    F = _functional_from_args(args)
    K = _order_arg(args.order)
    res = evaluate_asymptotic(F, K, tol_rel=args.tol)
    q = integrate_functional(F, args.tol)
    rows = []
    for k, ps in enumerate(res.partial_sums):
        rows.append({
            "K": k,
            "sign": ps.sign,
            "log_abs": ps.log_abs,
            "rel_dev_vs_oracle": ps.rel_diff(q.value),
            "optimal": 1 if k == res.truncation_used - 1 else 0,
        })
    header = ["K", "sign", "log_abs", "rel_dev_vs_oracle", "optimal"]
    if args.format == "csv":
        out = io.StringIO()
        w = csv.writer(out, lineterminator="\n")
        w.writerow(header)
        for r in rows:
            w.writerow([r["K"], r["sign"], _fmt(r["log_abs"]),
                        _fmt(r["rel_dev_vs_oracle"]), r["optimal"]])
        sys.stdout.write(out.getvalue())
    elif args.format == "json":
        print(json.dumps(rows, indent=2))
    elif args.format == "pretty":
        print(f"{'K':>3} {'sign':>5} {'log_abs':>24} {'rel_dev':>13} opt")
        for r in rows:
            mark = "*" if r["optimal"] else ""
            print(f"{r['K']:>3} {r['sign']:>5} {r['log_abs']:>24.16g} "
                  f"{r['rel_dev_vs_oracle']:>13.4e} {mark}")
    else:
        raise CliError("compare supports --format csv, json or pretty")
    return 0


def _sweep_point(job) -> dict:
    params, method, K, tol = job
    row = {"alpha": params["alpha"], "method": method, "K": "",
           "sign": "", "log_abs": "", "status": "ok"}
    try:
        kind = Kind(params.pop("kind"))
        F = Functional(kind, params.pop("m"), params.pop("alpha"), **params)
        if method == "oracle":
            v = integrate_functional(F, tol).value
        elif method == "closed":
            v = closed_form_value(F)
        else:
            res = evaluate_asymptotic(F, K, tol_rel=tol)
            v = res.value
            row["K"] = res.truncation_used - 1
            row["status"] = res.status
        row["sign"] = v.sign
        row["log_abs"] = v.log_abs
    except (ValueError, QuadratureError, ZeroDivisionError) as exc:
        row["status"] = f"error: {exc}"
    return row


def cmd_sweep(args) -> int:
    base = _functional_from_args(args)
    try:
        spec = SweepSpec(base, args.alpha_start, args.alpha_stop, args.count,
                         args.spacing, tuple(sorted(set(args.methods.split(",")))),
                         _order_arg(args.order))
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    methods = list(spec.methods)
    jobs = []
    for alpha in spec.grid():
        params = base.params_dict()
        params["alpha"] = alpha
        for method in methods:
            jobs.append((dict(params), method, spec.K, args.tol))
    if args.jobs > 1:
        # imported here: the pool machinery costs every other command's start
        from concurrent.futures import ProcessPoolExecutor
        # a few chunks per worker, not one pickling round trip per point
        chunksize = max(1, len(jobs) // (4 * args.jobs))
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            rows = list(pool.map(_sweep_point, jobs, chunksize=chunksize))
    else:
        rows = [_sweep_point(j) for j in jobs]

    with_oracle = "oracle" in methods and len(methods) > 1
    oracle_logs = {}
    if with_oracle:
        for row in rows:
            if row["method"] == "oracle" and row["status"] == "ok":
                oracle_logs[row["alpha"]] = (row["sign"], row["log_abs"])
    header = ["alpha", "method", "K", "sign", "log_abs"]
    if with_oracle:
        header.append("rel_err_vs_oracle")
    header.append("status")

    records = []
    failed = False
    for row in rows:
        failed = failed or row["status"].startswith("error")
        rec = [_fmt(row["alpha"]), row["method"], row["K"], row["sign"],
               _fmt(row["log_abs"]) if row["log_abs"] != "" else ""]
        if with_oracle:
            ref = oracle_logs.get(row["alpha"])
            if (ref is None or row["method"] == "oracle"
                    or row["log_abs"] == ""):
                rec.append("")
            else:
                v = LogValue.from_log(row["log_abs"], row["sign"])
                rec.append(_fmt(v.rel_diff(LogValue.from_log(ref[1], ref[0]))))
        rec.append(row["status"])
        records.append([str(c) for c in rec])
    if args.format == "csv":
        w = csv.writer(sys.stdout, lineterminator="\n")
        w.writerow(header)
        w.writerows(records)
    elif args.format == "pretty":
        for rec in [header, *records]:
            print("  ".join(f"{c:>22}" for c in rec))
    elif args.format == "json":
        print(json.dumps([dict(zip(header, rec)) for rec in records], indent=2))
    else:
        raise CliError("sweep supports --format csv, json or pretty")
    return 1 if failed else 0


def _coeff_values(args) -> tuple[list[float], str, dict]:
    lad = args.ladder
    n = args.n
    meta: dict = {}
    if lad == "f":
        return cf.f_sequence(args.m, args.alpha, n), "engine", meta
    if lad == "g":
        return cf.g_coeffs(args.m, args.t), "printed", meta
    if lad == "lag-a":
        return cf.lag_A_coeffs(args.kappa, args.m, args.alpha, n), "engine", meta
    if lad == "lag-c":
        ladder = cf.lag_C_ladder(args.mu, args.lam, args.kappa, args.m,
                                 args.alpha, n)
        return list(ladder.values), "engine", meta
    if lad == "lag-d":
        ks = range(args.k + 1) if args.k is not None else range(3)
        return [cf.lag_D(k, args.mu, args.lam, args.kappa, args.m)
                for k in ks], "printed", meta
    if lad == "lag-dk":
        ks = range(args.k + 1) if args.k is not None else range(3)
        return [cf.lag_D_kappa_derivative(k, args.mu, args.lam, args.kappa,
                                          args.m) for k in ks], "printed", meta
    if lad == "geg-f":
        return cf.geg_f_sequence(args.m, args.alpha, n), "engine", meta
    if lad == "geg-a":
        return cf.geg_A_coeffs(args.kappa, args.m, args.alpha, n), "engine", meta
    if lad == "geg-c":
        ladder = cf.geg_C_ladder(args.a, args.b, args.c, args.d, args.kappa,
                                 args.m, args.alpha, n)
        return list(ladder.values), "engine", meta
    if lad == "geg-d0":
        return [cf.geg_D0(args.a, args.b, args.c, args.d, args.kappa,
                          args.m)], "printed", meta
    if lad == "geg-sym-d1":
        return [cf.geg_sym_D1(args.a, args.b, args.m)], "printed", meta
    if lad == "geg-hermite":
        p, q = cf.geg_hermite_coeffs(args.m, args.x)
        meta["channels"] = ["p", "q"]
        return p + q, "printed", meta
    if lad == "lag-hermite":
        c, d = cf.lag_hermite_coeffs(args.m, args.alpha, args.x)
        meta["channels"] = ["c", "d"]
        return c + d, "printed", meta
    if lad == "ext-d":
        ks = range(args.k + 1) if args.k is not None else range(2)
        return [cf.ext_lag_D(k, args.sigma, args.lam, args.kappa, args.m)
                for k in ks], "printed", meta
    if lad == "saddle-geg":
        _, s = cf.geg_saddle_x(args.c, args.d, order=max(n - 1, 0))
        return list(s.coeffs[1:n + 1]), "engine", meta
    if lad == "saddle-ext":
        _, s = cf.ext_saddle_x(args.lam, order=max(n - 1, 0))
        return list(s.coeffs[1:n + 1]), "engine", meta
    raise CliError(f"unknown ladder {lad!r}")


def cmd_coeffs(args) -> int:
    try:
        values, provenance, meta = _coeff_values(args)
    except (TypeError, AttributeError) as exc:
        raise CliError(f"missing or invalid parameters for ladder "
                       f"{args.ladder!r}: {exc}") from exc
    doc = {"ladder": args.ladder, "provenance": provenance,
           "values": [float(v) for v in values]}
    doc.update(meta)
    if args.format == "json":
        print(json.dumps(doc, indent=2))
    elif args.format == "pretty":
        print(f"ladder {args.ladder} ({provenance})")
        for k, v in enumerate(doc["values"]):
            print(f"  [{k}] {v!r}")
    else:
        raise CliError("coeffs supports --format json or pretty")
    return 0


def _add_functional_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--kind", required=True, help="i1 i2 i3 i4 i5 i5s")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--alpha", type=float, required=True)
    for name in ("mu", "sigma", "kappa", "a", "b", "c", "d"):
        p.add_argument(f"--{name}", type=float, default=None)
    p.add_argument("--lambda", dest="lam", type=float, default=None)


def _add_common(p: argparse.ArgumentParser, fmt_default: str) -> None:
    p.add_argument("--format", default=fmt_default,
                   choices=("json", "csv", "pretty"))
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--order", default="auto", help="truncation K or 'auto'")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="entrofun",
        description="Evaluate entropic integral functionals of Laguerre and "
                    "Gegenbauer polynomials by asymptotic expansion, "
                    "high-accuracy quadrature, or closed form.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate one functional")
    _add_functional_args(p)
    _add_common(p, "json")
    p.add_argument("--method", default="asym",
                   choices=("asym", "oracle", "closed"))
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("compare", help="partial sums vs the oracle")
    _add_functional_args(p)
    _add_common(p, "csv")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("sweep", help="evaluate over an alpha grid")
    _add_functional_args(p)
    _add_common(p, "csv")
    p.add_argument("--alpha-start", type=float, required=True)
    p.add_argument("--alpha-stop", type=float, required=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--spacing", default="log", choices=("linear", "log"))
    p.add_argument("--methods", default="oracle,asym")
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("coeffs", help="inspect a coefficient ladder")
    p.add_argument("--ladder", required=True)
    p.add_argument("--m", type=int, default=0)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--n", type=int, default=4)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--t", type=float, default=None)
    p.add_argument("--x", type=float, default=None)
    for name in ("mu", "sigma", "kappa", "a", "b", "c", "d"):
        p.add_argument(f"--{name}", type=float, default=None)
    p.add_argument("--lambda", dest="lam", type=float, default=None)
    p.add_argument("--format", default="json", choices=("json", "pretty"))
    p.set_defaults(func=cmd_coeffs)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except CliError as exc:
        json.dump({"error": str(exc)}, sys.stderr)
        sys.stderr.write("\n")
        return 2
    except (ValueError, QuadratureError) as exc:
        json.dump({"error": str(exc), "type": type(exc).__name__}, sys.stderr)
        sys.stderr.write("\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
