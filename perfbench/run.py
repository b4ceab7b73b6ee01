#!/usr/bin/env python3
"""Build and run the layered hlsc benchmark (see perfbench/METRICS.md).

Usage, from the repository root:

    python3 perfbench/run.py --workload corpus|explore|serve \
        --seed N --seconds S --trace 0|1

Builds perfbench/bench.exe and bin/hlsc.exe with dune, runs one workload,
and passes the benchmark's output through; its last line is the JSON
result.  Exits nonzero, without a result line, when the tree cannot be
built, and nonzero when any output check fails.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

RUN_LIMIT_S = 170
WORKLOADS = ("corpus", "explore", "serve")


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def dune():
    exe = shutil.which("dune")
    if exe:
        return [exe]
    if shutil.which("opam"):
        return ["opam", "exec", "--", "dune"]
    fail("dune not found")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    for need in ("BENCHMARK.json", "dune-project", "lib", "bin", "examples", "perfbench/expected.tsv"):
        if not os.path.exists(need):
            fail("run from the repository root: %s is missing" % need)

    build = subprocess.run(
        dune() + ["build", "--root", ".", "./perfbench/bench.exe", "./bin/hlsc.exe"],
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        fail("build failed")

    cmd = [
        "_build/default/perfbench/bench.exe",
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    # corpus and explore time one thread: run them and their reference
    # helper on one CPU, so that the helper's slices sample the core the
    # compiles run on (see perfbench/host.ml)
    pin = None
    if args.trace == 0 and args.workload in ("corpus", "explore") and hasattr(os, "sched_setaffinity"):
        cpu = max(os.sched_getaffinity(0))
        pin = lambda: os.sched_setaffinity(0, {cpu})
    # own process group, so a run that overstays is stopped with the
    # daemon and workers it started
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, start_new_session=True, preexec_fn=pin)
    try:
        out, _ = proc.communicate(timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail("run exceeded %d s" % RUN_LIMIT_S)
    sys.stdout.write(out)
    sys.stdout.flush()
    lines = out.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
    except (IndexError, ValueError, AssertionError):
        fail("no result line")
    # the benchmark's metric list and BENCHMARK.json must not drift apart
    with open("BENCHMARK.json") as f:
        declared = json.load(f)["per_layer" if args.trace else "end_to_end"]
    if [m["name"] for m in declared] != list(result["metrics"]):
        fail("metrics differ from BENCHMARK.json")
    sys.exit(proc.returncode if proc.returncode != 0 else (0 if result["correct"] else 1))


if __name__ == "__main__":
    main()
