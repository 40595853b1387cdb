"""Measured child process of the benchmark.

    child.py cli REPORT_JSON [--trace] -- ARGV...
    child.py queries QUERIES_JSON REPORT_JSON [--trace]

`cli` runs one seljac command the way the `seljac` console script does,
`sys.exit(seljac.cli.main(argv))`, with its output on the real stdout.
Untraced, it also times the calibration loop of CAL_STEPS steps before and
after the command and, from a SIGALRM handler, every SAMPLE_GAP_S while
the command runs: on the command's own thread, so the readings meet the
same slowdowns as the command.
`queries` imports seljac.cli once, runs one untimed warm-up query, then
calls seljac.cli.main(argv) for each query in the file. The queries print
straight to the real stdout, as the console script would; after each one
the child notes its exit code, elapsed time, end of stderr and the stdout
offset it ended at, so no copy of an output stays in this process. Between
queries, outside their times, it times the calibration loop of
CAL_STEPS steps, so that each query can be scaled by the machine's speed
just before and just after it.

Both write REPORT_JSON when the work ends: the wall time of the work (for
`queries` the sum of the queries' own times), the process's peak RSS, the
calibration readings, the per-query notes and, with --trace, the span
totals (see spans.py). The
peak is VmHWM of this process's own address space: the rusage of a child
also counts its parent's resident set at the time of the fork.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import signal
import sys
import time

CAL_STEPS = 20_000  # about a millisecond
SAMPLE_GAP_S = 0.1


def peak_rss_mb() -> float:
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _call(main, argv) -> tuple[int, str, float]:
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # a crash is an answer the oracle rejects
            code = 1
            print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        elapsed = time.perf_counter() - t0
    return code, err.getvalue(), elapsed


def _stdout_offset() -> int:
    sys.stdout.flush()
    return sys.stdout.buffer.tell()


def loop_s(steps: int) -> float:
    """Seconds this interpreter takes for a fixed pure-Python loop of
    `steps` steps: the machine's current speed (see run.CAL_NOMINAL_S)."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(steps):
        acc += i * i
    return time.perf_counter() - t0


def _report(path: str, wall_s: float, tracer, **extra) -> None:
    report = {"wall_s": wall_s, "peak_rss_mb": peak_rss_mb(), **extra}
    if tracer is not None:
        report["totals"] = tracer.totals()
        report["counters"] = dict(tracer.counters)
    with open(path, "w") as fh:
        json.dump(report, fh)


def _tracer(traced: bool):
    """A spans.Tracer installed on seljac, or None; spans is imported only
    here so that it adds nothing to an untraced child's peak memory."""
    if not traced:
        return None
    import spans

    tracer = spans.Tracer()
    spans.install(tracer)
    return tracer


def run_queries(path: str, report: str, traced: bool) -> int:
    import seljac.cli

    with open(path) as fh:
        queries = json.load(fh)
    _call(seljac.cli.main, ["genus", "--n", "3", "--q", "2"])
    start = _stdout_offset()
    tracer = _tracer(traced)
    main = seljac.cli.main
    notes = []
    readings = [loop_s(CAL_STEPS)]
    for query in queries:
        code, err, elapsed = _call(main, query["argv"])
        notes.append({"code": code, "ms": elapsed * 1e3, "err": err[-400:],
                      "end": _stdout_offset()})
        readings.append(loop_s(CAL_STEPS))
    wall_s = sum(n["ms"] for n in notes) / 1e3
    _report(report, wall_s, tracer, start=start, queries=notes, cal_readings=readings)
    return 0


def run_cli(argv: list[str], report: str, traced: bool) -> int:
    import seljac.cli

    tracer = _tracer(traced)
    readings = []
    if not traced:
        readings.append(loop_s(CAL_STEPS))
        signal.signal(signal.SIGALRM, lambda *_: readings.append(loop_s(CAL_STEPS)))
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_GAP_S, SAMPLE_GAP_S)
    t0 = time.perf_counter()
    code = seljac.cli.main(argv)
    wall_s = time.perf_counter() - t0
    if not traced:
        signal.setitimer(signal.ITIMER_REAL, 0)
        readings.append(loop_s(CAL_STEPS))
    sys.stdout.flush()
    _report(report, wall_s, tracer, cal_readings=readings)
    return code


def main() -> int:
    argv, seljac_argv = sys.argv[1:], []
    if "--" in argv:
        split = argv.index("--")
        argv, seljac_argv = argv[:split], argv[split + 1 :]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    q = sub.add_parser("queries")
    q.add_argument("path")
    q.add_argument("report")
    q.add_argument("--trace", action="store_true")
    c = sub.add_parser("cli")
    c.add_argument("report")
    c.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    if args.mode == "queries":
        return run_queries(args.path, args.report, args.trace)
    return run_cli(seljac_argv, args.report, args.trace)


if __name__ == "__main__":
    sys.exit(main())
