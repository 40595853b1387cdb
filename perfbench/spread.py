"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py --workloads verify sweep queries \
        --seeds 1 2 3 4 5 6 7 8 9 10 [--bench BENCHMARK.json]

Runs the benchmark once per (workload, seed), one run at a time and for
BENCHMARK.json's run_seconds, the length its bounds are set for, and prints
for each metric its median and the distance between its first and third
quartiles as a share of the median, next to the metric's bound from
BENCHMARK.json. A spread above a third of the bound is marked. The same
figures in plain seconds, which are not bounded, follow in parentheses.
"""
from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import summary  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--bench", default=os.path.join(os.path.dirname(HERE), "BENCHMARK.json"))
    args = parser.parse_args()
    with open(args.bench) as fh:
        bench = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    status = 0
    for workload in args.workloads:
        values: dict[str, list[float]] = {}
        for seed in args.seeds:
            cmd = [*bench["command"], "--workload", workload, "--seed", str(seed),
                   "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  cwd=os.path.dirname(HERE))
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            report = next((json.loads(line[len("report: "):]) for line in lines
                           if line.startswith("report: ")), {})
            if proc.returncode != 0 or not result["correct"]:
                print(f"{workload} seed {seed}: exit {proc.returncode}, "
                      f"correct {result['correct']}")
                status = 1
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            for name, value in report.get("measured", {}).items():
                values.setdefault(f"({name})", []).append(value)
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()), flush=True)
        for name, vals in values.items():
            spread = summary.quartile_spread(vals) if len(vals) > 1 else 0.0
            bound = bounds.get(name, float("nan"))
            mark = "" if not spread > bound / 3 or name == "setup_s" else "  <-- above bound/3"
            print(f"  {workload:8s} {name:12s} median {summary.median(vals):12.6g} "
                  f"spread {spread:7.4f} bound {bound}{mark}")
    return status


if __name__ == "__main__":
    sys.exit(main())
