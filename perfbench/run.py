#!/usr/bin/env python3
"""Build and run one workload of the treeplace benchmark.

    python3 perfbench/run.py --workload fleet --seed 1 --seconds 15 --trace 0

Run from the repository root. The first call configures and builds the
library and the benchmark program (Release) under .bench_build/ (or under
$CARGO_TARGET_DIR when set); later calls only rebuild what changed. The
last line of standard output is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones (the traced run also writes its spans as a Chrome trace
under the build directory). The line before it is the full record: every
metric, quality numbers without a bound, and the host fingerprint. --out
FILE appends that record to a JSON-lines file for compare.py.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("fleet", "serve-local", "serve-churn", "million")
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(directory):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "-S", HERE, "-B", directory, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", directory, "-j", jobs]]
    if os.path.exists(os.path.join(directory, "CMakeCache.txt")):
        steps = steps[1:]
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail("build step failed: " + " ".join(step))
    binary = os.path.join(directory, "perfbench")
    if not os.path.isfile(binary):
        fail("build produced no perfbench binary")
    return binary


def source_digest():
    """sha256 over the library and benchmark sources: identifies the code
    measured even where the checkout is not a git repository."""
    digest = hashlib.sha256()
    for top in ("src", os.path.join("perfbench", "src")):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()[:16]


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append the full record to this JSON-lines file")
    args = parser.parse_args()
    if args.seed < 0:
        fail("--seed must be non-negative")

    directory = build_dir()
    binary = build(directory)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(directory, "traces")
        os.makedirs(traces, exist_ok=True)
        command += ["--trace-out",
                    os.path.join(traces, "%s-seed%d.json" % (args.workload, args.seed))]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("workload %s did not finish within %d s" % (args.workload, RUN_TIMEOUT_S))
    lines = done.stdout.strip().splitlines()
    if done.returncode not in (0, 1) or not lines:
        fail("workload %s exited with code %d" % (args.workload, done.returncode))
    try:
        record = json.loads(lines[-1])
    except ValueError:
        fail("workload %s printed no result record" % args.workload)

    record["info"].update({"commit": git_commit(), "source_digest": source_digest(),
                           "seed": str(args.seed), "trace": str(args.trace)})
    if args.out:
        with open(args.out, "a") as handle:
            handle.write(json.dumps(record, sort_keys=True) + "\n")
    for breach in record["breaches"]:
        print("check failed: " + breach, file=sys.stderr)
    print(json.dumps(record, sort_keys=True))
    print(json.dumps({"correct": record["correct"], "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": record["metrics"]}))
    sys.exit(0 if record["correct"] else 1)


if __name__ == "__main__":
    main()
