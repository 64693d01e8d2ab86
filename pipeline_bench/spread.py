#!/usr/bin/env python3
"""Measure the run-to-run spread of the end-to-end metrics.

Runs `run.py` once per seed on one workload and reports, for each metric,
the median and the distance between the first and third quartile as a share
of the median (`statistics.quantiles(values, n=4)`), next to the metric's
bound in BENCHMARK.json. With `--json`, appends the summary to a file.

    python3 pipeline_bench/spread.py --workload serve_under_writes --seeds 1-10

Run it from the repository root.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))


def seeds_arg(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    parser.add_argument("--json", help="append the summary to this JSON-lines file")
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values, runs = {}, []
    for seed in args.seeds:
        started = time.monotonic()
        done = subprocess.run(
            [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"],
            capture_output=True, text=True)
        lines = done.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines else None
        wall = time.monotonic() - started
        runs.append({"seed": seed, "exit": done.returncode, "wall_s": round(wall, 1),
                     "correct": result and result["correct"],
                     "attempted": result and result["attempted"],
                     "failed": result and result["failed"],
                     "values": {name: m["value"]
                                for name, m in (result or {}).get("metrics", {}).items()}})
        print(f"seed {seed}: exit {done.returncode}, {wall:.0f}s, "
              f"correct {runs[-1]['correct']}, failed {runs[-1]['failed']}", flush=True)
        for name, metric in (result or {}).get("metrics", {}).items():
            values.setdefault(name, []).append(metric["value"])

    summary = {}
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else float("inf")
        summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread, "n": len(vals)}
        bound = bounds.get(name)
        mark = "" if bound is None or spread < bound / 3 else (
            "  above a third of the bound" if spread < bound else "  ABOVE THE BOUND")
        print(f"{name:<28} median {med:>12.4f}  spread {spread:.3f}  bound {bound}{mark}")
    if args.json:
        with open(args.json, "a") as f:
            f.write(json.dumps({"workload": args.workload, "cores": os.cpu_count(),
                                "runs": runs, "metrics": summary}) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
