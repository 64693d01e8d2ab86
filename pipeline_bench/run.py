#!/usr/bin/env python3
"""Curation-pipeline benchmark: build, run one workload, report.

Builds the `pipeline-bench` binary from source, runs one workload in a
child process, and prints the metrics by name with their units, the output
checks, the output digests and the failure accounting. The last line of
standard output is one JSON object with the keys `correct`, `attempted`,
`failed` and `metrics`.

    python3 pipeline_bench/run.py --workload serve_under_writes --seed 1 \
        --seconds 30 --trace 0

Run it from the repository root. `--trace 0` reports the end-to-end metrics
of BENCHMARK.json, interleaving units of the pipeline's three phases in one
process; `--trace 1` makes a separate traced run of all three and reports
the per-layer metrics, writing its spans next to the build output.

The child runs under an address-space limit, so a query whose intermediate
results explode fails the process instead of exhausting the machine. A
child that dies or hangs is recorded, not retried: the operations of the
unit of work it was in count as failed, and the run is not correct.
"""

import argparse
import json
import math
import os
import resource
import signal
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("validate_enterprise", "serve_under_writes")
DEFAULT_SEED = 1
MEMORY_LIMIT_BYTES = 4 << 30
# Time the child may take beyond --seconds (set-up, the last pass of its
# schedule, verification, traced replays), so that a hung child is killed
# well within three minutes of the start.
CHILD_GRACE_SECONDS = 120


def log(message):
    print(message, file=sys.stderr, flush=True)


def build(target_dir):
    """Build the benchmark binary; returns its path or None."""
    command = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(BENCH_DIR, "Cargo.toml"),
    ]
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    try:
        done = subprocess.run(command, env=env, stdout=sys.stderr, stderr=sys.stderr)
    except OSError as error:
        log(f"cannot run cargo: {error}")
        return None
    if done.returncode != 0:
        log("build failed")
        return None
    return os.path.join(target_dir, "release", "pipeline-bench")


def limit_memory():
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT_BYTES, MEMORY_LIMIT_BYTES))


def run_child(binary, args, extra):
    """Run one child; returns (result or None, last progress, exit status)."""
    command = [
        binary, "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ] + extra
    child = subprocess.Popen(
        command, stdout=subprocess.PIPE, text=True, preexec_fn=limit_memory,
        start_new_session=True,
    )
    deadline = time.monotonic() + args.seconds + CHILD_GRACE_SECONDS

    def kill_on_deadline(signum, frame):
        log("workload process exceeded its time limit; killing it")
        os.killpg(child.pid, signal.SIGKILL)

    signal.signal(signal.SIGALRM, kill_on_deadline)
    signal.alarm(max(1, int(deadline - time.monotonic())))
    progress = (0, 0, 0)
    result = None
    try:
        for line in child.stdout:
            if line.startswith("@progress "):
                progress = tuple(int(x) for x in line.split()[1:4])
            elif line.startswith("@result "):
                result = json.loads(line[len("@result "):])
            else:
                log(line.rstrip("\n"))
    finally:
        _, status = os.waitpid(child.pid, 0)
        signal.alarm(0)
        child.returncode = os.waitstatus_to_exitcode(status)
    return result, progress, child.returncode


def declared_metrics(trace):
    path = "BENCHMARK.json"
    if not os.path.exists(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    target_dir = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    binary = build(target_dir)
    if binary is None:
        return 1
    extra = []
    if args.trace:
        os.makedirs(os.path.join(target_dir, "traces"), exist_ok=True)
        extra = ["--spans-out", os.path.join(
            target_dir, "traces", f"{args.workload}-seed{args.seed}.tsv")]

    result, progress, code = run_child(binary, args, extra)
    if result is None or code != 0:
        done, done_failed, inflight = progress
        log(f"the workload process ended with code {code} before reporting; "
            f"{inflight} operations in flight count as failed")
        print(json.dumps({
            "correct": False,
            "attempted": max(1, done + inflight),
            "failed": done_failed + inflight,
            "metrics": {},
        }))
        return 3
    attempted, failed = result["attempted"], result["failed"]
    metrics, checks, digests = result["metrics"], result["checks"], result["digest"]

    declared = declared_metrics(args.trace)
    if declared is not None:
        emitted = {name: m["unit"] for name, m in metrics.items()}
        checks["metrics match BENCHMARK.json"] = emitted == declared
    checks["every metric is a finite number"] = all(
        isinstance(m["value"], (int, float)) and math.isfinite(m["value"])
        for m in metrics.values())

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"cores {os.cpu_count()}")
    for name, m in metrics.items():
        print(f"  {name:<36} {m['value']!s:>24} {m['unit']}")
    print(f"  {'error_rate':<36} {failed / max(1, attempted):>24} ratio "
          f"({failed} failed of {attempted} operations)")
    for name, ok in checks.items():
        print(f"  check {'ok  ' if ok else 'FAIL'} {name}")
    for phase, digest in digests.items():
        print(f"  digest {phase:<9} {digest}")
    print(json.dumps({
        "correct": all(checks.values()),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
