#!/usr/bin/env python3
"""Compare two result sets of the treeplace benchmark.

    python3 perfbench/compare.py base.jsonl new.jsonl [--bounds BENCHMARK.json]

Each file holds records written by run.py --out (collect.py makes them).
For every (workload, metric) the tool prints both medians, the ratio
new/base with its base, and each side's spread: the distance between the
first and third quartile as a share of the median. The verdict uses the
metric's bound from BENCHMARK.json:

  regression   the new median is worse than the base median by more than
               the bound (exit code 1)
  unresolved   a side's spread exceeds the bound, so a change of that size
               cannot be told from noise; with such a spread a change is
               "improved (every run)" only when every new run is better than
               every base run, and "regression (every run)" only when every
               new run is worse and the median by more than the bound
  improved     better by more than the base spread
  within       everything else

Metrics without a bound (quality shares, latency tails, per-layer numbers)
are listed with their ratios and no verdict. When a set holds traced runs,
the tracing overhead is reported against the untraced runs of that set.
"""

import argparse
import json
import statistics
import sys


def load(path):
    with open(path) as handle:
        return [json.loads(line) for line in handle if line.strip()]


def values_by_metric(records, traced):
    table = {}
    for record in records:
        if bool(record.get("trace")) != traced:
            continue
        for key in ("end_to_end", "extra") if not traced else ("metrics",):
            for name, metric in record[key].items():
                table.setdefault((record["workload"], name), []).append(metric["value"])
    return table


def spread(values):
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return (q3 - q1) / abs(mid) if mid else 0.0


def verdict(base, new, bound, better):
    mb, mn = statistics.median(base), statistics.median(new)
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (mn - mb) / abs(mb) if mb else 0.0
    if max(spread(base), spread(new)) > bound:
        all_better = all(sign * (n - b) < 0 for n in new for b in base)
        all_worse = all(sign * (n - b) > 0 for n in new for b in base)
        if all_better:
            return "improved (every run)"
        if all_worse and worse_by > bound:
            return "regression (every run)"
        return "unresolved"
    if worse_by > bound:
        return "regression"
    if -worse_by > spread(base):
        return "improved"
    return "within"


def overhead(records, out):
    untraced = values_by_metric(records, traced=False)
    traced = values_by_metric(records, traced=True)
    for (workload, name), values in sorted(traced.items()):
        if not name.startswith("traced."):
            continue
        plain = untraced.get((workload, name[len("traced."):]))
        if plain:
            base = statistics.median(plain)
            out.append("  %-12s %-18s traced %.5g vs untraced %.5g (x%.3f)" % (
                workload, name[len("traced."):], statistics.median(values), base,
                statistics.median(values) / base if base else float("nan")))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("base")
    parser.add_argument("new")
    parser.add_argument("--bounds", default="BENCHMARK.json")
    args = parser.parse_args()

    with open(args.bounds) as handle:
        spec = json.load(handle)
    bounded = {m["name"]: m for m in spec["end_to_end"]}
    base_records, new_records = load(args.base), load(args.new)
    regressions = 0
    for traced in (False, True):
        base = values_by_metric(base_records, traced)
        new = values_by_metric(new_records, traced)
        keys = sorted(set(base) & set(new))
        if not keys:
            continue
        print("%s runs" % ("traced" if traced else "untraced"))
        print("  %-12s %-32s %12s %12s %8s %7s %7s %6s  %s" % (
            "workload", "metric", "base", "new", "new/base", "sp.base", "sp.new", "bound",
            "verdict"))
        for workload, name in keys:
            b, n = base[(workload, name)], new[(workload, name)]
            mb, mn = statistics.median(b), statistics.median(n)
            rule = bounded.get(name) if not traced else None
            result = verdict(b, n, rule["bound"], rule["better"]) if rule else "-"
            regressions += result.startswith("regression")
            print("  %-12s %-32s %12.5g %12.5g %8.3f %7.3f %7.3f %6s  %s" % (
                workload, name, mb, mn, mn / mb if mb else float("nan"), spread(b),
                spread(n), "%.2f" % rule["bound"] if rule else "-", result))
    for label, records in (("base", base_records), ("new", new_records)):
        lines = []
        overhead(records, lines)
        if lines:
            print("tracing overhead (%s set)" % label)
            print("\n".join(lines))
    sys.exit(1 if regressions else 0)


if __name__ == "__main__":
    main()
