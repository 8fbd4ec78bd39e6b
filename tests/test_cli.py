import csv
import io
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from entrofun import coeffs as cf
from entrofun.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_eval_m0_value(capsys):
    code, out, err = run_cli(capsys, "eval", "--kind", "i1", "--m", "0",
                             "--alpha", "50", "--mu", "2", "--lambda", "1",
                             "--kappa", "2", "--method", "asym")
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert doc["value"]["log_abs"] == pytest.approx(0.0, abs=1e-13)
    assert doc["status"] == "ok"


def test_eval_closed_gamma(capsys):
    code, out, _ = run_cli(capsys, "eval", "--kind", "i5", "--m", "1",
                           "--alpha", "100", "--sigma", "1", "--lambda", "1",
                           "--kappa", "2", "--method", "closed")
    assert code == 0
    doc = json.loads(out)
    assert doc["value"]["log_abs"] == pytest.approx(math.lgamma(102.0),
                                                    rel=1e-15)


def test_eval_no_expansion_status(capsys):
    code, out, _ = run_cli(capsys, "eval", "--kind", "i4", "--m", "2",
                           "--alpha", "80", "--method", "asym")
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "no_expansion"
    assert doc["value"]["sign"] == 1


def test_eval_json_round_trip(capsys):
    _, out, _ = run_cli(capsys, "eval", "--kind", "i3", "--m", "1",
                        "--alpha", "60", "--a", "-0.5", "--b", "0.5",
                        "--c", "1", "--d", "3", "--kappa", "2")
    doc = json.loads(out)
    assert json.loads(json.dumps(doc)) == doc


def test_eval_inconsistent_parameters(capsys):
    code, out, err = run_cli(capsys, "eval", "--kind", "i1", "--m", "1",
                             "--alpha", "50", "--mu", "2", "--method", "asym")
    assert code != 0
    assert out == ""
    assert "error" in json.loads(err)


def test_eval_unknown_kind(capsys):
    code, _, err = run_cli(capsys, "eval", "--kind", "i9", "--m", "0",
                           "--alpha", "5")
    assert code == 2
    assert "error" in json.loads(err)


_GEG_TINY_ALPHA = ("--kind", "i3", "--m", "2", "--a", "0", "--b", "0", "--c",
                   "1", "--d", "1", "--kappa", "2")


def test_eval_gegenbauer_alpha_below_double_resolution(capsys):
    code, out, err = run_cli(capsys, "eval", *_GEG_TINY_ALPHA, "--alpha",
                             "1e-17", "--method", "oracle")
    assert code == 2 and out == ""
    assert "1 + alpha > 1" in json.loads(err)["error"]


def test_sweep_gegenbauer_alpha_below_double_resolution(capsys):
    code, out, _ = run_cli(capsys, "sweep", *_GEG_TINY_ALPHA, "--alpha", "1",
                           "--alpha-start", "1e-17", "--alpha-stop", "1",
                           "--count", "4", "--spacing", "log",
                           "--methods", "oracle")
    assert code == 1
    rows = list(csv.reader(io.StringIO(out)))[1:]
    assert len(rows) == 4
    assert rows[0][-1].startswith("error: gegenbauer zeros require")
    assert float(rows[0][0]) == pytest.approx(1e-17)
    assert all(r[-1] == "ok" for r in rows[1:])


def test_determinism(capsys):
    args = ("sweep", "--kind", "i1", "--m", "1", "--alpha", "1", "--mu", "2",
            "--lambda", "1", "--kappa", "2", "--alpha-start", "50",
            "--alpha-stop", "400", "--count", "3", "--methods", "oracle,asym")
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2


def test_jobs_do_not_change_output(capsys):
    base = ("sweep", "--kind", "i5", "--m", "1", "--alpha", "1", "--sigma",
            "1", "--lambda", "2", "--kappa", "2", "--alpha-start", "100",
            "--alpha-stop", "400", "--count", "3", "--methods",
            "asym,closed,oracle")
    _, seq, _ = run_cli(capsys, *base, "--jobs", "1")
    _, par, _ = run_cli(capsys, *base, "--jobs", "4")
    assert seq == par


class _RecordingPool:
    """A stand-in for ProcessPoolExecutor that records its size and maps in
    this process."""

    sizes: list = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, iterable, chunksize=1):
        return map(fn, iterable)


_TWO_POINT_SWEEP = ("sweep", "--kind", "i1", "--m", "2", "--alpha", "1",
                    "--mu", "2.5", "--lambda", "1", "--kappa", "2",
                    "--alpha-start", "100", "--alpha-stop", "200", "--count",
                    "2", "--methods", "asym")


def test_sweep_pool_capped_at_points(capsys, monkeypatch):
    import concurrent.futures
    monkeypatch.setattr(_RecordingPool, "sizes", [])
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        _RecordingPool)
    code, par, _ = run_cli(capsys, *_TWO_POINT_SWEEP, "--jobs", "64")
    assert code == 0 and _RecordingPool.sizes == [2]
    _, seq, _ = run_cli(capsys, *_TWO_POINT_SWEEP, "--jobs", "1")
    assert par == seq and _RecordingPool.sizes == [2]


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_sweep_rejects_jobs_below_one(capsys, jobs):
    code, out, err = run_cli(capsys, *_TWO_POINT_SWEEP, "--jobs", jobs)
    assert code == 2 and out == ""
    assert "--jobs must be at least 1" in json.loads(err)["error"]


_I1_M2 = ("--kind", "i1", "--m", "2", "--mu", "2.5", "--lambda", "1",
          "--kappa", "2")


@pytest.mark.parametrize("method", ["asym", "oracle"])
def test_eval_rejects_infinite_alpha(capsys, method):
    code, out, err = run_cli(capsys, "eval", *_I1_M2, "--alpha", "inf",
                             "--method", method)
    assert code == 2 and out == ""
    assert json.loads(err) == {"error": "alpha must be finite, got inf"}


_I5_M2 = ("--kind", "i5", "--m", "2", "--sigma", "1", "--lambda", "2",
          "--kappa", "2")


@pytest.mark.parametrize("argv", [
    # log Gamma(mu) is past double range
    ("--kind", "i1", "--m", "2", "--mu", "1e308", "--lambda", "1", "--kappa", "2"),
    # the weight peaks at e^(686 alpha)
    ("--kind", "i3", "--m", "3", "--a", "0", "--b", "0", "--c", "1",
     "--d", "1000", "--kappa", "2"),
    # log Gamma(alpha + sigma) is past double range: a named error, not
    # log_abs Infinity
    _I5_M2,
    # the terms of the terminating 3F2 overflow
    _I1_M2 + ("--method", "closed"),
    # lgamma overflows
    _I5_M2 + ("--method", "closed"),
], ids=["i1_asym", "i3_asym", "i5_asym", "i1_closed", "i5_closed"])
def test_eval_reports_overflow(capsys, argv):
    code, out, err = run_cli(capsys, "eval", *argv, "--alpha", "1e308")
    assert code == 2 and out == ""
    doc = json.loads(err)
    assert doc["type"] == "OverflowError"
    assert "overflows double precision at alpha = 1e+308, m = " in doc["error"]


def test_sweep_reports_overflow_rows(capsys):
    code, out, _ = run_cli(capsys, "sweep", *_I5_M2, "--alpha", "1",
                           "--alpha-start", "1e307", "--alpha-stop", "1e308",
                           "--count", "2", "--methods", "asym")
    assert code == 1
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 2
    assert all(r["status"].startswith("error: ") for r in rows)


def test_eval_order_out_of_range_without_expansion(capsys):
    # the oracle_only route checks K like every other route
    code, out, err = run_cli(capsys, "eval", "--kind", "i4", "--m", "2",
                             "--alpha", "80", "--order", "99")
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "K must lie in [0, 7], got 99"


def test_import_leaves_the_process_pool_out():
    # only `sweep --jobs N` with N > 1 needs the pool; importing it costs
    # every other command's start
    import entrofun
    src = str(Path(entrofun.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", "import sys, entrofun.cli; "
         "print('concurrent.futures' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True, timeout=60).stdout
    assert out.strip() == "False"


def test_sweep_structure(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--kind", "i1", "--m", "2",
                           "--alpha", "1", "--mu", "2.5", "--lambda", "1",
                           "--kappa", "2", "--alpha-start", "10",
                           "--alpha-stop", "10000", "--count", "4",
                           "--spacing", "log", "--methods", "oracle,asym")
    assert code == 0
    lines = out.strip().splitlines()
    header = lines[0].split(",")
    assert header == ["alpha", "method", "K", "sign", "log_abs",
                      "rel_err_vs_oracle", "status"]
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 8
    alphas = [float(r[0]) for r in rows]
    assert alphas == sorted(alphas)
    assert alphas[0] == 10.0 and alphas[-1] == 10000.0
    # rows ordered by (alpha, method)
    for i in range(0, len(rows), 2):
        assert rows[i][1] == "asym" and rows[i + 1][1] == "oracle"


def test_sweep_oracle_only_drops_rel_err(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--kind", "i1", "--m", "0",
                           "--alpha", "1", "--mu", "2", "--lambda", "1",
                           "--kappa", "2", "--alpha-start", "10",
                           "--alpha-stop", "100", "--count", "2",
                           "--methods", "oracle")
    assert code == 0
    header = out.splitlines()[0].split(",")
    assert "rel_err_vs_oracle" not in header


def test_sweep_single_point_failure_recorded(capsys):
    # closed form is unknown for these parameters: rows carry the error
    # status and the sweep still completes
    code, out, _ = run_cli(capsys, "sweep", "--kind", "i1", "--m", "1",
                           "--alpha", "1", "--mu", "2", "--lambda", "1.5",
                           "--kappa", "2", "--alpha-start", "10",
                           "--alpha-stop", "100", "--count", "2",
                           "--methods", "closed")
    assert code == 1
    lines = out.strip().splitlines()
    assert len(lines) == 3
    assert all("error" in line for line in lines[1:])


def test_sweep_formats_share_records(capsys):
    # a status holding commas stays one cell in every format
    base = ("sweep", "--kind", "i1", "--m", "2", "--alpha", "400", "--mu",
            "2.5", "--lambda", "1", "--kappa", "2", "--alpha-start", "400",
            "--alpha-stop", "800", "--count", "2", "--order", "9",
            "--format")
    status = "error: K must lie in [0, 7], got 9"
    outs = {}
    for fmt in ("csv", "json", "pretty"):
        code, outs[fmt], _ = run_cli(capsys, *base, fmt)
        assert code == 1
    records = list(csv.DictReader(io.StringIO(outs["csv"])))
    asym = [r["status"] for r in records if r["method"] == "asym"]
    assert asym == [status] * 2
    assert json.loads(outs["json"]) == records
    lines = outs["pretty"].splitlines()
    assert len(lines) == 5
    assert lines[0].split() == list(records[0])
    for line, rec in zip(lines[1:], records):
        assert line.endswith(rec["status"]) and '"' not in line


def test_compare_row_count_and_flat_m0(capsys):
    code, out, _ = run_cli(capsys, "compare", "--kind", "i1", "--m", "0",
                           "--alpha", "50", "--mu", "2", "--lambda", "1",
                           "--kappa", "2", "--order", "3")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 1 + 4  # header plus K+1 rows
    for line in lines[1:]:
        rel = float(line.split(",")[3])
        assert rel <= 1e-10


def test_coeffs_f_ladder(capsys):
    code, out, _ = run_cli(capsys, "coeffs", "--ladder", "f", "--m", "3",
                           "--alpha", "10", "--n", "4")
    assert code == 0
    doc = json.loads(out)
    assert doc["provenance"] == "engine"
    assert doc["values"][:3] == pytest.approx([1.0, 3.0, -2.0])


def test_coeffs_saddle_ladder(capsys):
    _, out, _ = run_cli(capsys, "coeffs", "--ladder", "saddle-geg", "--c",
                        "1", "--d", "3", "--n", "2")
    doc = json.loads(out)
    assert doc["values"][0] == pytest.approx(math.sqrt(3.0) / 4.0)
    assert doc["values"][1] == pytest.approx(-1.0 / 12.0)


@pytest.mark.parametrize("n", [0, 1, 4, 11])
def test_coeffs_saddle_ladders_give_n_values(capsys, n):
    # the first n saddle coefficients, equal bit for bit to a longer series
    _, s = cf.geg_saddle_x(1.0, 3.0, order=12)
    _, out, _ = run_cli(capsys, "coeffs", "--ladder", "saddle-geg", "--c", "1",
                        "--d", "3", "--n", str(n))
    assert json.loads(out)["values"] == list(s.coeffs[1:n + 1])
    _, s = cf.ext_saddle_x(1.7, order=12)
    _, out, _ = run_cli(capsys, "coeffs", "--ladder", "saddle-ext",
                        "--lambda", "1.7", "--n", str(n))
    assert json.loads(out)["values"] == list(s.coeffs[1:n + 1])


def test_coeffs_saddle_ext_order_30(capsys):
    # the top three coefficients of the lambda = 2 map, from a 50-digit
    # solution of lambda s s' = y (1/lambda + s)
    code, out, _ = run_cli(capsys, "coeffs", "--ladder", "saddle-ext",
                           "--lambda", "2", "--n", "30")
    assert code == 0
    values = json.loads(out)["values"]
    assert len(values) == 30
    assert values[27:] == pytest.approx(
        [-2.9504520029e-18, 4.3630051892e-20, 1.9478232898e-19], rel=1e-10,
        abs=0.0)


def test_coeffs_ext_d_ladder(capsys):
    _, out, _ = run_cli(capsys, "coeffs", "--ladder", "ext-d", "--sigma", "1",
                        "--lambda", "2", "--kappa", "2", "--m", "1", "--k", "1")
    doc = json.loads(out)
    assert doc["provenance"] == "printed"
    assert doc["values"][1] == pytest.approx(37.0 / 12.0)


def test_coeffs_unknown_ladder(capsys):
    code, _, err = run_cli(capsys, "coeffs", "--ladder", "nope")
    assert code == 2
    assert "error" in json.loads(err)


def test_eval_pretty_format(capsys):
    code, out, _ = run_cli(capsys, "eval", "--kind", "i2", "--m", "1",
                           "--alpha", "200", "--mu", "2", "--lambda", "1",
                           "--format", "pretty")
    assert code == 0
    assert out.startswith("functional: lag_shannon")


def test_eval_rejects_csv_format(capsys):
    # eval prints one document, so argparse offers it json and pretty only
    code, out, err = run_cli(capsys, "eval", "--kind", "i2", "--m", "1",
                             "--alpha", "200", "--mu", "2", "--lambda", "1",
                             "--format", "csv")
    assert code == 2
    assert out == ""
    assert "invalid choice: 'csv'" in json.loads(err)["error"]


def test_eval_missing_m_prints_json(capsys):
    code, out, err = run_cli(capsys, "eval", "--kind", "i2", "--alpha", "200",
                             "--mu", "2", "--lambda", "1")
    assert code == 2 and out == ""
    assert "required: --m" in json.loads(err)["error"]


def test_help_prints_text_and_exits_zero(capsys):
    code, out, err = run_cli(capsys, "eval", "--help")
    assert code == 0 and err == ""
    assert out.startswith("usage: entrofun eval")


def test_sweep_symmetric_ratio_tracks_first_correction(capsys):
    # asym/closed ratio on the symmetric special case behaves like
    # 1 + (2m^2 - 2m + 3)/(8 alpha)
    m = 2
    code, out, _ = run_cli(capsys, "sweep", "--kind", "i3", "--m", str(m),
                           "--alpha", "1", "--a", "-0.5", "--b", "-1.5",
                           "--c", "1", "--d", "1", "--kappa", "2",
                           "--alpha-start", "100", "--alpha-stop", "400",
                           "--count", "3", "--methods", "asym,closed",
                           "--order", "0")
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    by_alpha = {}
    for r in rows:
        by_alpha.setdefault(float(r[0]), {})[r[1]] = float(r[4])
    for alpha, logs in by_alpha.items():
        ratio = math.exp(logs["closed"] - logs["asym"])
        expect = 1.0 + (2 * m * m - 2 * m + 3) / (8 * alpha)
        assert ratio == pytest.approx(expect, abs=40.0 / alpha ** 2)


@pytest.mark.parametrize("bound", ["start", "stop"])
@pytest.mark.parametrize("value", ["inf", "nan"])
def test_sweep_rejects_non_finite_bounds(capsys, bound, value):
    bounds = {"start": "100", "stop": "200", bound: value}
    code, out, err = run_cli(capsys, "sweep", *_I1_M2, "--alpha", "1",
                             "--alpha-start", bounds["start"],
                             "--alpha-stop", bounds["stop"],
                             "--count", "3", "--methods", "asym")
    assert code == 2 and out == ""
    assert json.loads(err) == {
        "error": f"sweep requires a finite alpha_{bound} > 0, got {value}"}


def test_oracle_overflow_is_one_json_error(capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out, err = run_cli(capsys, "eval", *_I1_M2, "--alpha", "1e300",
                                 "--method", "oracle")
    assert code == 2 and out == ""
    doc = json.loads(err)
    assert doc["type"] == "QuadratureError"
    assert "alpha = 1e+300, m = 2" in doc["error"]


@pytest.mark.parametrize("argv", [
    ("--kind", "i3", "--m", "2", "--a", "0", "--b", "0", "--c", "1", "--d", "3",
     "--kappa", "2"),
    ("--kind", "i5", "--m", "2", "--sigma", "1", "--lambda", "2", "--kappa", "2"),
], ids=["i3", "i5"])
def test_huge_alpha_oracle_is_one_json_error(capsys, argv):
    # the Gegenbauer segment bounds and the extended integrand overflow;
    # each ends as one JSON error, not a traceback
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out, err = run_cli(capsys, "eval", *argv, "--alpha", "1e300",
                                 "--method", "oracle")
    assert code == 2 and out == ""
    doc = json.loads(err)
    assert doc["type"] == "QuadratureError"
    assert "alpha = 1e+300, m = 2" in doc["error"]


def test_asym_overflow_names_alpha_and_m(capsys):
    code, out, err = run_cli(capsys, "eval", *_I5_M2, "--alpha", "1e308",
                             "--method", "asym")
    assert code == 2 and out == ""
    doc = json.loads(err)
    assert doc["type"] == "OverflowError"
    assert "overflows double precision at alpha = 1e+308, m = 2" in doc["error"]


def test_sweep_spec_validation():
    from entrofun.cli import SweepSpec
    from entrofun.functional import Functional
    F = Functional.lag_renyi(1, 50.0, 2.0, 1.0, 2.0)
    with pytest.raises(ValueError):
        SweepSpec(F, 10.0, 100.0, 1)
    with pytest.raises(ValueError):
        SweepSpec(F, -1.0, 100.0, 3)
    for stop, spacing in ((0.0, "log"), (-5.0, "linear")):
        with pytest.raises(ValueError, match="alpha_stop"):
            SweepSpec(F, 200.0, stop, 3, spacing=spacing)
    with pytest.raises(ValueError):
        SweepSpec(F, 10.0, 100.0, 3, methods=())
    grid = SweepSpec(F, 10.0, 10000.0, 4).grid()
    assert grid[0] == 10.0 and grid[-1] == 10000.0
    assert all(grid[i] < grid[i + 1] for i in range(3))


def test_forced_order(capsys):
    _, out, _ = run_cli(capsys, "eval", "--kind", "i1", "--m", "2",
                        "--alpha", "150", "--mu", "2", "--lambda", "1",
                        "--kappa", "2.5", "--order", "3")
    doc = json.loads(out)
    assert doc["truncation_used"] == 4
    assert len(doc["terms"]) == 4
