"""seljac benchmark: one workload per run, end-to-end or traced.

    python3 perfbench/run.py --workload {verify,sweep,queries} --seed N \
        --seconds S --trace {0,1}

Run from the root of a seljac checkout. The program is run from `src/`,
its bytecode cached in `src/seljac/__pycache__`; nothing is installed.
Per-run scratch files go under `.bench_build/`.

Workloads (see README.md for why each exists):
  verify   `seljac verify-all`, one subprocess per pass.
  sweep    `seljac cm-scan --n-max 12 --q-max 2048`, then
           `seljac feasible-scan --n-max 50 --q-max 1024`, per pass.
  queries  a seeded stream of per-curve queries, all passes in fresh child
           interpreters that call seljac.cli.main(argv) once per query.

Passes repeat until they have taken --seconds (to the nearest half pass).
Each pass is checked after it is timed: the first by the oracles in
oracles.py, later ones by comparison with the first. Set-up spawns run
before the first pass and after each. The machine's speed is read during
every pass by the measured child itself (every 0.1 s inside a verify or
sweep command, around every query) and around every set-up spawn; it turns seconds into
the calibrated seconds of the timing metrics and of setup_s (see
CAL_NOMINAL_S). The last stdout line is one JSON object {correct, attempted,
failed, metrics}: end-to-end metrics with --trace 0, per-layer metrics
from a traced child with --trace 1. Exit code 1 means an output was wrong
or a traced layer recorded no work; 2 means the run could not start.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import child  # noqa: E402
import layers  # noqa: E402
import oracles  # noqa: E402
import queries  # noqa: E402
import summary  # noqa: E402

WORKLOADS = ("verify", "sweep", "queries")
SETUP_ROUNDS = 5  # before the first pass; one more follows every pass
RUN_DEADLINE_S = 170.0
CM_SCAN = ("cm-scan", "--n-max", "12", "--q-max", "2048")
FEASIBLE_SCAN = ("feasible-scan", "--n-max", "50", "--q-max", "1024")
# Calibrated seconds: seconds on a machine that runs a fixed pure-Python
# loop of child.CAL_STEPS steps (child.loop_s) in CAL_NOMINAL_S. On a
# shared 2-vCPU Xeon virtual machine the host slows every process by 20-60%
# for seconds to minutes at a time; the loop slows with the program, so
# scaling a time by CAL_NOMINAL_S / (loop time) keeps the figures put while
# plain seconds move with the host. The readings must come from the time
# being scaled and from the program's own thread. Readings taken only
# before and after a 10-second verify-all pass missed the slowdowns inside
# it (correlation 0.47-0.66 with its time), and readings from a harness
# thread beside the child read fast or slow by whether the scheduler put
# the two on one vCPU or on two. So the child takes them (see child.py):
# every 0.1 s inside a verify or sweep command, which is scaled by their
# mean, and around every query, which is scaled by the two next to it
# (over 98 passes, the coefficient of variation of a queries pass's p50
# was 0.17 in seconds, 0.11 scaled per pass and 0.06 scaled per query).
# Set-up spawns are scaled by readings taken just before and after them.
CAL_NOMINAL_S = 0.0012


class Runner:
    """Spawns children with a pinned environment and waits for each."""

    def __init__(self, scratch: str, deadline: float):
        self.scratch = scratch
        self.deadline = deadline
        env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
        env["PYTHONPATH"] = os.path.join(ROOT, "src")
        env["PYTHONHASHSEED"] = "0"
        self.env = env
        self._files = 0

    def path(self, name: str) -> str:
        self._files += 1
        return os.path.join(self.scratch, f"{self._files:05d}-{name}")

    def spawn(self, argv: list[str]) -> tuple[int, bytes, float]:
        """(exit code, stdout, wall seconds) of `python argv`.

        The wait blocks in waitpid, so the wall time ends when the child
        does: Popen.wait(timeout) polls with sleeps of up to 50 ms, which
        rounds every short spawn up to the same few values. A timer kills
        a child that outlives the run's deadline."""
        out_path = self.path("stdout")
        with open(out_path, "wb") as out:
            t0 = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, *argv], stdin=subprocess.DEVNULL, stdout=out,
                stderr=subprocess.DEVNULL, env=self.env, cwd=ROOT,
            )
            killed = []

            def kill():
                killed.append(True)
                proc.kill()

            timer = threading.Timer(max(1.0, self.deadline - time.monotonic()), kill)
            timer.start()
            try:
                code = proc.wait()
            except BaseException:  # interrupted or terminated
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        if killed:
            raise TimeoutError(f"python {' '.join(argv[:3])} outlived the run's deadline")
        with open(out_path, "rb") as fh:
            data = fh.read()
        os.remove(out_path)
        return code, data, wall

    def child(self, mode: list[str], tail: list[str], traced: bool):
        """(exit code, stdout bytes, wall seconds, report) of child.py; the report
        holds its peak RSS, the wall time of its work and, when traced, its
        span totals; None if it wrote none."""
        report_path = self.path("report.json")
        trace = ["--trace"] if traced else []
        code, out, wall = self.spawn(
            [os.path.join(HERE, "child.py"), *mode, report_path, *trace, *tail]
        )
        try:
            with open(report_path) as fh:
                report = json.load(fh)
            os.remove(report_path)
        except (OSError, ValueError):
            report = None
        return code, out, wall, report

    def cli(self, argv: tuple[str, ...], traced: bool):
        """child() of one seljac command, with its stdout as text and its
        wall time less the calibration readings the child took."""
        code, out, wall, report = self.child(["cli"], ["--", *argv], traced)
        if report is not None:
            wall -= sum(report["cal_readings"])
        return code, out.decode("utf-8", errors="replace"), wall, report


# ---- workloads ----
#
# run(traced) runs one pass and returns its measurements plus "raw", the
# outputs; check(raw) returns (operations attempted, failed, problems).
# The first pass's outputs go through the oracle; the program is
# deterministic, so every later pass must reproduce them byte for byte and
# only a pass that does not is checked by the oracle again.


def _pass(wall: float, ops: int, reports: list[dict | None], raw) -> dict:
    ok = all(r is not None for r in reports)
    readings = [x for r in reports if r is not None for x in r["cal_readings"]]
    return {
        "wall_s": wall,
        # calibrated seconds per second; nan without readings (traced)
        "scale": CAL_NOMINAL_S * len(readings) / sum(readings) if readings else float("nan"),
        "ops": ops,
        "rss_mb": max(r["peak_rss_mb"] for r in reports) if ok else float("nan"),
        "trace": _merge_traces(reports) if ok and "totals" in reports[0] else None,
        "raw": raw if ok else None,
    }


class Verify:
    def __init__(self, runner: Runner):
        self.runner = runner

    def run(self, traced: bool) -> dict:
        code, out, wall, report = self.runner.cli(("verify-all",), traced)
        return _pass(wall, oracles.CRITERIA, [report], (code, out))

    def check(self, raw) -> tuple[int, int, list[str]]:
        if raw is None:
            return oracles.CRITERIA, oracles.CRITERIA, ["verify child wrote no report"]
        # verify-all prints each criterion's run time, so passes never
        # repeat byte for byte; the oracle is cheap enough to run on each.
        failed, problems = oracles.check_verify(*raw)
        return oracles.CRITERIA, failed, problems


class Sweep:
    def __init__(self, runner: Runner):
        self.runner = runner
        self.reference = None
        self.attempted = 0

    def run(self, traced: bool) -> dict:
        wall = 0.0
        raw, reports = [], []
        for argv in (CM_SCAN, FEASIBLE_SCAN):
            code, out, w, report = self.runner.cli(argv, traced)
            wall += w
            raw.append((code, out))
            reports.append(report)
        return _pass(wall, sum(out.count("\n") for _, out in raw), reports, raw)

    def check(self, raw) -> tuple[int, int, list[str]]:
        if raw is None:
            return 1, 1, ["scan child wrote no report"]
        if self.reference is not None and raw == self.reference:
            return self.attempted, 0, []
        (cm_code, cm_out), (fe_code, fe_out) = raw
        cm = oracles.check_cm_scan(cm_out, int(CM_SCAN[2]), int(CM_SCAN[4]))
        fe = oracles.check_feasible_scan(fe_out, int(FEASIBLE_SCAN[2]), int(FEASIBLE_SCAN[4]))
        attempted, failed = cm[0] + fe[0], cm[1] + fe[1]
        problems = cm[2] + fe[2] + [f"scan exited {c}" for c in (cm_code, fe_code) if c != 0]
        if self.reference is not None:
            problems.append("scan output differs from the first pass")
            failed = max(failed, 1)
        elif not problems:
            self.reference, self.attempted = raw, attempted
        return attempted, failed, problems


def _merge_traces(reports: list[dict]) -> dict:
    totals: dict = {}
    counters: dict = {}
    for r in reports:
        for key, rec in r["totals"].items():
            acc = totals.setdefault(key, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
            for field in acc:
                acc[field] += rec[field]
        for key, value in r["counters"].items():
            counters[key] = counters.get(key, 0) + value
    return {"totals": totals, "counters": counters, "wall_s": sum(r["wall_s"] for r in reports)}


class Queries:
    def __init__(self, runner: Runner, stream: list[dict]):
        self.runner = runner
        self.stream = stream
        self.path = runner.path("queries.json")
        with open(self.path, "w") as fh:
            json.dump(self.stream, fh)
        self.reference: list | None = None

    def run(self, traced: bool) -> dict:
        code, out, wall, report = self.runner.child(["queries", self.path], [], traced)
        results = []
        if report is not None:
            # Each query's stdout is the slice of the child's stdout up to
            # the offset it recorded when the query returned.
            start = report["start"]
            for r in report["queries"]:
                text = out[start : r["end"]].decode("utf-8", errors="replace")
                results.append((r["code"], text, r["err"]))
                start = r["end"]
        p = _pass(report["wall_s"] if report else wall, len(self.stream), [report],
                  (code, results))
        if report is None:
            p["latencies_ms"] = p["cal_latencies_ms"] = [float("nan")]
            return p
        # Each query is scaled by the mean of the readings the child took
        # just before and just after it.
        readings = report["cal_readings"]
        p["latencies_ms"] = [r["ms"] for r in report["queries"]]
        p["cal_latencies_ms"] = [
            ms * 2 * CAL_NOMINAL_S / (readings[i] + readings[i + 1])
            for i, ms in enumerate(p["latencies_ms"])
        ]
        return p

    def check(self, raw) -> tuple[int, int, list[str]]:
        if raw is None:
            return len(self.stream), len(self.stream), ["query child wrote no report"]
        code, results = raw
        problems = []
        if code != 0 or len(results) != len(self.stream):
            problems.append(f"query child exited {code} after {len(results)} of {len(self.stream)}")
        failed = len(self.stream) - len(results)
        for i, (query, (qcode, out, err)) in enumerate(zip(self.stream, results)):
            if self.reference is not None and (qcode, out) == self.reference[i]:
                continue
            problem = oracles.check_query(query, qcode, out)
            if problem is None and self.reference is not None:
                problem = "output differs from the first pass"
            if problem:
                failed += 1
                if len(problems) < 5:
                    problems.append(f"{' '.join(query['argv'])}: {problem} {err[-200:]}")
        if self.reference is None and not failed:
            self.reference = [(qcode, out) for qcode, out, _ in results]
        return len(self.stream), failed, problems


# ---- measurement ----


def measure(seconds: float, workload, traced: bool, between):
    """Passes (untraced, traced or None) until the passes themselves have
    taken `seconds`, to the nearest half pass. Each pass is checked after
    it is timed; `between()` runs after each. Returns (passes, attempted,
    failed, problems)."""
    passes = []
    attempted = failed = 0
    problems: list[str] = []
    spent = 0.0
    while True:
        pair = []
        for t in (False, True) if traced else (False,):
            t0 = time.perf_counter()
            p = workload.run(t)
            spent += time.perf_counter() - t0
            pair.append(p)
        for p in pair:
            a, f, probs = workload.check(p.pop("raw"))
            attempted, failed, problems = attempted + a, failed + f, problems + probs
        passes.append((pair[0], pair[1] if traced else None))
        between()
        if spent + spent / len(passes) / 2 >= seconds:
            return passes, attempted, failed, problems


class SetupClock:
    """Set-up spawns, spread over the run so that their median does not
    rest on a few seconds of the machine's state: each round times a fresh
    interpreter importing seljac.cli and a bare one, each between readings
    of the machine's speed. `setup` and `bare` hold calibrated seconds,
    `plain` the import spawns in seconds."""

    def __init__(self, runner: Runner):
        self.runner = runner
        self.setup: list[float] = []
        self.bare: list[float] = []
        self.plain: list[float] = []

    def round(self) -> None:
        for code, times in (("import seljac.cli", self.setup), ("pass", self.bare)):
            readings = [child.loop_s(child.CAL_STEPS) for _ in range(3)]
            rc, _, wall = self.runner.spawn(["-c", code])
            readings += [child.loop_s(child.CAL_STEPS) for _ in range(3)]
            if rc != 0:
                raise RuntimeError(f"python -c {code!r} exited {rc}")
            times.append(wall * CAL_NOMINAL_S * len(readings) / sum(readings))
            if times is self.setup:
                self.plain.append(wall)

    def import_s(self) -> float:
        return summary.median(self.setup) - summary.median(self.bare)


def pass_metrics(workload: str, p: dict) -> tuple[dict, dict, str, int]:
    """(calibrated values, measured values, tail level, latency samples)
    of one pass."""
    if workload == "queries":
        latencies, cal_latencies = p["latencies_ms"], p["cal_latencies_ms"]
        p50, cal_p50 = summary.median(latencies), summary.median(cal_latencies)
        tail, level, samples = summary.tail(latencies)
        cal_tail = summary.tail(cal_latencies)[0]
        cal_wall = sum(cal_latencies) / 1e3
    else:
        # One command yields every operation of the pass, so the latency
        # a user sees per operation is the pass's mean.
        p50 = tail = p["wall_s"] * 1e3 / p["ops"]
        level, samples = "mean", 1
        scale = p["scale"]
        cal_wall = p["wall_s"] * scale
        cal_p50 = cal_tail = p50 * scale
    measured = {
        "wall_s": p["wall_s"],
        "ops_per_s": p["ops"] / p["wall_s"],
        "op_p50_ms": p50,
        "op_tail_ms": tail,
    }
    calibrated = {
        "wall_cal_s": cal_wall,
        "ops_per_cal_s": p["ops"] / cal_wall,
        "op_p50_cal_ms": cal_p50,
        "op_tail_cal_ms": cal_tail,
        "peak_rss_mb": p["rss_mb"],
    }
    return calibrated, measured, level, samples


UNITS = {
    "setup_s": "s",
    "wall_cal_s": "cal_s",
    "ops_per_cal_s": "1/cal_s",
    "op_p50_cal_ms": "cal_ms",
    "op_tail_cal_ms": "cal_ms",
    "peak_rss_mb": "MB",
    "wall_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
}


def end_to_end(workload: str, plain: list[dict], clock: SetupClock) -> tuple[dict, dict, dict]:
    """(metrics, measured, notes) from the untraced passes, each the median
    over passes; setup_s is the median of the set-up spawns.

    The metrics are in calibrated seconds (see CAL_NOMINAL_S), setup_s too
    although BENCHMARK.json gives its unit as plain "s"; `measured` holds
    the same figures in plain seconds, which move with the host's speed
    and are printed but not bounded."""
    per_pass = [pass_metrics(workload, p) for p in plain]
    metrics = {"setup_s": (summary.median(clock.setup), "s")}
    measured = {"setup_plain_s": (summary.median(clock.plain), "s")}
    for out, index in ((metrics, 0), (measured, 1)):
        for name in per_pass[0][index]:
            out[name] = (summary.median([v[index][name] for v in per_pass]), UNITS[name])
    notes = {
        "passes": len(plain),
        "operations": sum(p["ops"] for p in plain),
        "op_tail_level": per_pass[0][2],
        "latency_samples_per_pass": per_pass[0][3],
        "setup_spawns": len(clock.setup),
        "cal_s_per_s": [v[0]["wall_cal_s"] / v[1]["wall_s"] for v in per_pass],
        "pass_values": [v[1] for v in per_pass],
    }
    return metrics, measured, notes


def per_layer(workload: str, pairs, import_s: float) -> tuple[dict, list[str]]:
    """(metrics, problems) from the traced passes, each metric the median
    over passes."""
    problems = []
    per_pass = []
    for plain, traced in pairs:
        trace = traced["trace"]
        if trace is None:
            problems.append("traced child wrote no trace")
            continue
        self_sum = sum(rec["self_s"] for rec in trace["totals"].values())
        if self_sum > trace["wall_s"] * 1.001 + 1e-4:
            problems.append(
                f"self times sum to {self_sum:.4f}s > traced wall {trace['wall_s']:.4f}s"
            )
        harness = {
            "setup.import_seljac_s": import_s,
            "trace.overhead_s": traced["wall_s"] - plain["wall_s"],
        }
        values = layers.layer_values(trace["totals"], trace["counters"], harness)
        missing = layers.missing_work(workload, trace["totals"], values)
        if missing:
            problems.append(f"traced {workload} recorded no work in: {', '.join(missing)}")
        per_pass.append(values)
    metrics = {}
    for layer in layers.LAYERS:
        vals = [v[layer.name] for v in per_pass]
        metrics[layer.name] = (summary.median(vals) if vals else 0.0, layer.unit)
    return metrics, problems


def environment(args, backend: str) -> dict:
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            res = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                                 text=True, timeout=10)
            commit = res.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "backend": backend,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "git_commit": commit,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "loadavg_start": list(os.getloadavg()),
    }


_ALIASES = {
    "sweep": {"ops_per_s": "pairs_per_s"},
    "queries": {"ops_per_s": "queries_per_s", "op_p50_ms": "query_p50_ms",
                "op_tail_ms": "query_tail_ms"},
    "verify": {"ops_per_s": "criteria_per_s"},
}


def _print_metrics(workload: str, shown: dict, notes: dict, error_rate: float) -> None:
    print(f"== {workload} ==")
    aliases = _ALIASES[workload]
    for name, (value, unit) in shown.items():
        alias = f"  ({aliases[name]})" if name in aliases else ""
        print(f"{name:34s} {value:14.6g} {unit}{alias}")
    print(f"{'error_rate':34s} {error_rate:14.6g} failed/attempted")
    for key, value in notes.items():
        print(f"  {key}: {value}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="seljac benchmark (see the module docstring)")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "seljac", "cli.py")):
        print(f"error: no seljac sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    scratch = os.path.join(ROOT, ".bench_build", "perfbench", f"run-{os.getpid()}")
    os.makedirs(scratch, exist_ok=True)
    runner = Runner(scratch, time.monotonic() + RUN_DEADLINE_S)
    signal.signal(signal.SIGTERM, _terminated)
    try:
        return _run(args, runner)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def _terminated(signum, frame):
    raise SystemExit(128 + signum)


def _run(args, runner: Runner) -> int:
    # Untimed warm-up: compiles and caches bytecode for every module the
    # CLI imports, so no timed spawn pays for compilation. The standard
    # library's bytecode is the installed one: a PYTHONPYCACHEPREFIX would
    # recompile every standard module a child first imports, and inflated
    # the peak memory of the first pass in a fresh checkout by 3%.
    code, backend, _ = runner.spawn(
        ["-c", "import seljac.cli, seljac.kernels; print(seljac.kernels.BACKEND)"]
    )
    backend = backend.decode("utf-8", errors="replace")
    if code != 0:
        print("error: seljac does not import from src/", file=sys.stderr)
        return 2
    env = environment(args, backend.strip())
    clock = SetupClock(runner)
    for _ in range(SETUP_ROUNDS):
        clock.round()

    traced = bool(args.trace)
    if args.workload == "verify":
        workload = Verify(runner)
    elif args.workload == "sweep":
        workload = Sweep(runner)
    else:
        workload = Queries(runner, queries.stream(args.seed))
    pairs, attempted, failed, problems = measure(args.seconds, workload, traced, clock.round)
    error_rate = failed / attempted if attempted else 1.0

    plain = [p for p, _ in pairs]
    metrics, measured, notes = end_to_end(args.workload, plain, clock)
    if traced:
        layer_metrics, trace_problems = per_layer(args.workload, pairs, clock.import_s())
        problems += trace_problems
        notes["trace_overhead_s"] = layer_metrics["trace.overhead_s"][0]
    env["loadavg_end"] = list(os.getloadavg())
    notes["setup.import_seljac_s"] = clock.import_s()

    _print_metrics(args.workload, {**metrics, **measured}, notes, error_rate)
    for problem in problems[:20]:
        print(f"PROBLEM: {problem}")
    shown = layer_metrics if traced else metrics
    report = {
        "environment": env,
        "notes": notes,
        "error_rate": error_rate,
        "end_to_end": {k: v for k, (v, _) in metrics.items()},
        "measured": {k: v for k, (v, _) in measured.items()},
    }
    if traced:
        report["per_layer"] = {k: v for k, (v, _) in layer_metrics.items()}
    print("report: " + json.dumps(report, sort_keys=True))
    correct = failed == 0 and not problems
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in shown.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
