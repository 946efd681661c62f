#!/usr/bin/env python3
"""Builds gdprbench from source and runs one workload from one seed.

    python3 perfbench/run.py --workload W [--seed N] [--seconds N]
                             [--trace 0|1] [--setups N] [--out DIR]

Run from the root of a checkout. The build (Release, only the engine
libraries gdprbench links) goes to .bench_build/ and is reused by later
runs; durable workloads keep their data under .bench_build/data/ and delete
it when done. The last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with every end_to_end metric BENCHMARK.json names, or every per_layer one
with --trace 1 (the traced run also writes .bench_build/traces/). --out
keeps each metric line gdprbench printed in DIR/<workload>-<seed>.jsonl
(-trace.jsonl for traced runs), the input compare_runs.py reads.
"""

import argparse
import fcntl
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "cmake", "gdprbench")
RUN_TIMEOUT_S = 170


def build():
    """Configures once, then brings the binary up to date; one builder at a time."""
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        cmake_dir = os.path.join(BUILD, "cmake")
        steps = []
        if not os.path.exists(os.path.join(cmake_dir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", cmake_dir,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", cmake_dir, "--target", "gdprbench",
                      "-j", "4"])
        for cmd in steps:
            # Build chatter goes to stderr: stdout carries only the result.
            if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
                sys.exit("run.py: build failed: " + " ".join(cmd))


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setups", type=int, default=3)
    ap.add_argument("--out")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    build()
    cmd = [BINARY, "--workload=" + args.workload, "--seed=%d" % args.seed,
           "--seconds=%g" % args.seconds, "--setups=%d" % args.setups,
           "--data-dir=" + os.path.join(BUILD, "data",
                                        "%s-%d" % (args.workload, os.getpid()))]
    if args.trace:
        cmd.append("--trace=" + os.path.join(BUILD, "traces"))
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("run.py: gdprbench did not finish within %d s" % RUN_TIMEOUT_S)
    if proc.returncode != 0:
        sys.exit("run.py: gdprbench exited with %d" % proc.returncode)

    lines = [ln for ln in proc.stdout.splitlines() if ln.startswith("{")]
    emitted = {}
    for ln in lines:
        rec = json.loads(ln)
        emitted[rec["metric"]] = rec
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        name = "%s-%d%s.jsonl" % (args.workload, args.seed,
                                  "-trace" if args.trace else "")
        with open(os.path.join(args.out, name), "w") as f:
            f.write("\n".join(lines) + "\n")

    for m in wanted:
        got = emitted.get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            sys.exit("run.py: gdprbench did not report %s in %s" %
                     (m["name"], m["unit"]))
    attempted = int(emitted["attempted"]["value"])
    failed = int(emitted["failed"]["value"])
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": emitted[m["name"]]["value"],
                                "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
