#!/usr/bin/env python3
"""Run benchmark workloads over several seeds and report their spread.

    python3 perfbench/collect.py --workloads fleet,million --seeds 1-10 \
        --seconds 20 --out base.jsonl

Runs perfbench/run.py once per (workload, seed), one after the other,
appends every record to --out, and prints for each end-to-end metric the
median and the spread: the distance between the first and third quartile
(statistics.quantiles(values, n=4)) as a share of the median. compare.py
diffs two such files.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def spread(values):
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return (q3 - q1) / mid if mid else float("inf")


def summarize(records, key):
    by_workload = {}
    for record in records:
        for name, metric in record[key].items():
            by_workload.setdefault(record["workload"], {}).setdefault(
                name, []).append(metric["value"])
    return by_workload


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", default="fleet,serve-local,serve-churn,million")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    records = []
    for workload in args.workloads.split(","):
        for seed in parse_seeds(args.seeds):
            done = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", repr(args.seconds),
                 "--trace", str(args.trace), "--out", args.out],
                cwd=ROOT, stdout=subprocess.PIPE, text=True)
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or len(lines) < 2:
                print("%s seed %d: FAILED (exit %d)" % (workload, seed, done.returncode))
                continue
            record = json.loads(lines[-2])
            records.append(record)
            values = " ".join("%s=%.4g" % (k, v["value"])
                              for k, v in sorted(record["end_to_end"].items()))
            print("%s seed %d: %s" % (workload, seed, values), flush=True)

    print("\nworkload metric median spread(IQR/median) n")
    for workload, metrics in summarize(records, "end_to_end").items():
        for name, values in sorted(metrics.items()):
            print("%-12s %-18s %12.5g %7.3f %3d" % (
                workload, name, statistics.median(values), spread(values), len(values)))


if __name__ == "__main__":
    main()
