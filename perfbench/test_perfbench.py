"""Tests of the benchmark's own logic.

    python3 -m pytest perfbench

The oracles are checked against real seljac output (known good) and the
same output with one field corrupted (known bad).
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import random
import subprocess
import sys
import time
import types

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import layers  # noqa: E402
import oracles  # noqa: E402
import queries  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import summary  # noqa: E402


def cli(argv: list[str]) -> tuple[int, str]:
    from seljac import cli as seljac_cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = seljac_cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue()


# ---- tail percentile ----


@pytest.mark.parametrize(
    "n, value, label",
    [
        (1000, 990, "p99"),  # p99.5 would leave only 5 beyond
        (100, 90, "p90"),
        (20, 10, "p50"),
        (10, 10, "max"),  # no level leaves ten samples beyond
        (1, 1, "max"),
    ],
)
def test_tail_is_highest_level_with_ten_samples_beyond(n, value, label):
    values = list(range(1, n + 1))
    random.Random(n).shuffle(values)
    assert summary.tail(values) == (value, label, n)


def test_tail_leaves_at_least_ten_samples_beyond():
    values = [float(v) for v in range(2500)]
    tail, label, _ = summary.tail(values)
    assert label == "p99.5"
    assert sum(v > tail for v in values) >= summary.TAIL_BEYOND


def test_quartile_spread():
    assert summary.quartile_spread([10.0] * 10) == 0.0
    assert summary.quartile_spread([9.0, 10.0, 11.0, 12.0]) > 0


# ---- self time from nested spans ----


def test_self_time_subtracts_direct_children():
    # A[0,10] -> B[1,4], C[5,9] -> D[6,7]
    keys = ["A", "B", "C", "D"]
    totals = spans.span_totals(keys, [0, 1, 2, 3], [-1, 0, 0, 2], [0, 1, 5, 6], [10, 4, 9, 7])
    assert {k: v["self_s"] for k, v in totals.items()} == {"A": 3, "B": 3, "C": 3, "D": 1}
    assert sum(v["self_s"] for v in totals.values()) == 10


def test_recursive_span_counts_outermost_total_once():
    # R[0,10] -> R[2,8] -> R[3,5]
    totals = spans.span_totals(["R"], [0, 0, 0], [-1, 0, 1], [0, 2, 3], [10, 8, 5])
    assert totals["R"] == {"calls": 3, "self_s": 10, "total_s": 10}


def test_tracer_records_nesting_with_a_step_clock():
    ticks = iter(range(100))
    tracer = spans.Tracer(clock=lambda: next(ticks))
    inner = tracer.wrap("inner", lambda: None)
    outer = tracer.wrap("outer", lambda: inner() or inner())
    outer()
    totals = tracer.totals()
    assert totals["inner"] == {"calls": 2, "self_s": 2, "total_s": 2}
    assert totals["outer"] == {"calls": 1, "self_s": 3, "total_s": 5}


_INSTALLED = r"""
import json, sys
import spans
tracer = spans.Tracer()
spans.install(tracer)
import seljac.acceptance, seljac.cli, seljac.obstruction, seljac.poly
from seljac.poly import Poly
f = Poly([3, -1, 4, 1, -5, 9, 2])
g = Poly([1, 6, -2, 5, 3, 5])
seljac.poly.resultant(f, g)
res = tracer.totals()
wrapped = all(
    hasattr(fn, "__wrapped__")
    for fn in (
        seljac.obstruction.multiplier_scan,
        seljac.cli.genus_formula,
        seljac.cli.run_all,
        seljac.acceptance.CRITERIA[0],
        seljac.poly.Poly.__mul__,
    )
)
seljac.obstruction.invariant_automorphisms(3, 5)
after = tracer.totals()
print(json.dumps({"resultant": res, "wrapped": wrapped, "after": after,
                  "counters": dict(tracer.counters)}))
"""


@pytest.fixture(scope="module")
def installed():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([HERE, os.path.join(ROOT, "src")]))
    out = subprocess.run([sys.executable, "-c", _INSTALLED], capture_output=True, text=True,
                         env=env, check=True).stdout
    return json.loads(out)


def test_recursive_resultant_self_times_add_up(installed):
    totals = installed["resultant"]
    res = totals["poly.resultant"]
    assert res["calls"] > 2
    assert totals["poly.Poly.__divmod__"]["calls"] > 0
    assert res["self_s"] < res["total_s"]
    # resultant is the only top-level span, so every self time nests in it
    self_sum = sum(rec["self_s"] for rec in totals.values())
    assert self_sum == pytest.approx(res["total_s"], abs=1e-9)


def test_install_patches_every_from_import_binding(installed):
    assert installed["wrapped"]
    after = installed["after"]
    assert after["kernels.multiplier_scan"]["calls"] == 1
    assert after["obstruction.invariant_automorphisms"]["calls"] == 1
    # phi(5) - 1 multipliers 2, 3, 4
    assert installed["counters"]["kernels.multipliers_tested"] == 3


# ---- layer table ----


def test_layers_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [m["name"] for m in bench["per_layer"]] == [l.name for l in layers.LAYERS]
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == {
        l.name: l.unit for l in layers.LAYERS
    }
    # the loop ran at half its nominal speed, so 2 s read as 1 calibrated s
    plain = [{"wall_s": 2.0, "ops": 4, "rss_mb": 10.0, "scale": 0.5}]
    clock = types.SimpleNamespace(setup=[0.1], plain=[0.2])
    metrics, measured, _ = run.end_to_end("sweep", plain, clock)
    assert metrics["wall_cal_s"][0] == 1.0 and measured["wall_s"][0] == 2.0
    assert metrics["setup_s"][0] == 0.1 and measured["setup_plain_s"][0] == 0.2
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == {
        k: u for k, (_, u) in metrics.items()
    }


def test_query_pass_is_calibrated_per_query():
    p = {"wall_s": 0.03, "ops": 3, "rss_mb": 1.0, "latencies_ms": [10.0, 10.0, 10.0],
         "cal_latencies_ms": [5.0, 10.0, 20.0]}
    calibrated, measured, level, samples = run.pass_metrics("queries", p)
    assert calibrated["wall_cal_s"] == pytest.approx(0.035)
    assert calibrated["ops_per_cal_s"] == pytest.approx(3 / 0.035)
    assert (calibrated["op_p50_cal_ms"], calibrated["op_tail_cal_ms"]) == (10.0, 20.0)
    assert (measured["op_p50_ms"], level, samples) == (10.0, "max", 3)


def test_missing_work_names_unused_wrappers():
    values = layers.layer_values({}, {}, {"setup.import_seljac_s": 0.1, "trace.overhead_s": 0.0})
    missing = layers.missing_work("sweep", {}, values)
    assert "kernels.multiplier_scan" in missing
    assert "kernels.multiplier_scan_s" in missing


# ---- query stream ----


def test_stream_depends_only_on_seed():
    assert queries.stream(7) == queries.stream(7)
    assert queries.stream(7) != queries.stream(8)
    kinds = [q["kind"] for q in queries.stream(7)]
    heavy = len(queries.CEILING) + len(queries.BIG_QUARTICS) + len(queries.HEAVY_LATTICE)
    assert len(kinds) == sum(c for _, c in queries.RECIPE) + heavy


def test_poly_text_writes_t_multiples_as_repeated_terms():
    assert queries.poly_text([-1, 0, 3], [2, -1, 0]) == "3*x^2 - t*x - 1 + t + t"
    assert queries.shift([0, 0, 1], 2) == [4, 4, 1]


# ---- oracles: known good (real output) and known bad (one field corrupted) ----


def test_verify_oracle():
    good = "".join(f"criterion {k:2d} [PASS] t: d [0.1s]\n" for k in range(1, 12))
    assert oracles.check_verify(0, good) == (0, [])
    bad = good.replace("criterion  4 [PASS]", "criterion  4 [FAIL]")
    failed, problems = oracles.check_verify(1, bad)
    assert failed == 1 and len(problems) == 2


def test_cm_scan_oracle():
    code, out = cli(["cm-scan", "--n-max", "5", "--q-max", "64"])
    assert code == 0
    records, failed, problems = oracles.check_cm_scan(out, 5, 64)
    assert (failed, problems) == (0, []) and records == len(oracles.coprime_pairs(3, 5, 64))
    lines = out.splitlines()
    rec = json.loads(lines[3])
    rec["invariant_ms"] = [2]
    bad = "\n".join([*lines[:3], json.dumps(rec), *lines[5:]])
    _, failed, problems = oracles.check_cm_scan(bad, 5, 64)
    assert failed == 2 and problems


def test_feasible_scan_oracle():
    code, out = cli(["feasible-scan", "--n-max", "12", "--q-max", "256"])
    assert code == 0
    assert oracles.check_feasible_scan(out, 12, 256)[1:] == (0, [])
    rec = json.loads(out.splitlines()[0])
    rec["b_count"] += 1
    bad = "\n".join([json.dumps(rec), *out.splitlines()[1:]])
    _, failed, problems = oracles.check_feasible_scan(bad, 12, 256)
    assert failed == 1 and problems


def _corrupt(query: dict, payload: dict) -> dict:
    kind = query["kind"]
    if kind == "galois":
        payload["label"] = "S4" if payload["label"] != "S4" else "A4"
    elif kind == "jinv":
        payload["j"] = payload["j"] + " + 1"
    elif kind == "model-check":
        payload["b"] += 1
    elif kind == "genus":
        payload["genus"] += 1
    elif kind == "spectrum":
        payload["multiplicities"]["1"] += 1
    elif kind == "decompose":
        payload["levels"][0]["new_dim"] += 1
    elif kind == "endo":
        payload["factors"] = payload["factors"][1:]
    elif kind == "heart":
        payload["commutant_dim"] += 1
    return payload


@pytest.mark.parametrize("maker", [kind for kind, _ in queries.RECIPE] + ["galois_quartic_big"])
def test_query_oracle(maker):
    rng = random.Random(maker)
    make = getattr(queries, maker)
    query = make(rng, 0) if maker in queries._INDEXED else make(rng)
    code, out = cli(query["argv"])
    assert oracles.check_query(query, code, out) is None
    if query["kind"] == "invalid":
        assert oracles.check_query(query, 0, "{}") is not None
        return
    assert code == 0
    bad = json.dumps(_corrupt(query, json.loads(out)))
    assert oracles.check_query(query, code, bad) is not None
    assert oracles.check_query(query, 1, "") is not None


def test_spawn_kills_a_child_that_outlives_the_deadline(tmp_path):
    runner = run.Runner(str(tmp_path), time.monotonic())  # the timer's floor is 1 s
    t0 = time.monotonic()
    with pytest.raises(TimeoutError):
        runner.spawn(["-c", "import time; time.sleep(30)"])
    assert time.monotonic() - t0 < 10


def test_query_child_outputs_are_split_at_recorded_offsets(tmp_path):
    stream = [
        queries._galois([0, 0, -1, 1], "rational"),  # exits 2 with a message
        {"kind": "genus", "n": 3, "q": 5, "argv": ["genus", "--n", "3", "--q", "5", "--format", "json"]},
        {"kind": "spectrum", "n": 7, "q": 64,
         "argv": ["spectrum", "--n", "7", "--q", "64", "--format", "json"]},
        {"kind": "invalid", "argv": ["heart", "--galois", "S4", "--p", "2"]},
    ]
    runner = run.Runner(str(tmp_path), time.monotonic() + 60)
    workload = run.Queries(runner, stream)
    p = workload.run(traced=False)
    assert workload.check(p["raw"]) == (len(stream), 0, [])
    _, results = p["raw"]
    assert [(code, out) for code, out, _ in results] == [cli(q["argv"]) for q in stream]
    assert len(p["latencies_ms"]) == len(p["cal_latencies_ms"]) == len(stream)
    assert all(ms > 0 for ms in p["cal_latencies_ms"])
    assert p["wall_s"] == pytest.approx(sum(p["latencies_ms"]) / 1e3)


def test_oracle_expects_rejection_of_a_repeated_root():
    query = queries._galois([0, 0, -1, 1], "rational")  # x^3 - x^2 = x^2 (x - 1)
    code, out = cli(query["argv"])
    assert code == 2
    assert oracles.check_query(query, code, out) is None
    assert oracles.check_query(query, 0, '{"label": "Reducible"}') is not None
