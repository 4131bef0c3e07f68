#!/usr/bin/env python3
"""Compares two sets of benchmark runs workload by workload.

Usage (from the repository root):

    python3 perfbench/compare.py <base dir> <new dir>

Each directory holds <workload>.jsonl files of result lines, as sweep.py
writes them. For every workload and end-to-end metric of BENCHMARK.json it
prints both medians and quartiles and a verdict against the metric's bound:

  regressed   the new median is worse than the base median by more than the bound
  improved    better by more than the bound
  within      the medians differ by no more than the bound
  unresolved  a set's run-to-run spread (quartile distance over median) is
              wider than the bound, so a difference that size cannot be seen;
              "unresolved, every new run better" when no run overlaps

The exit code is 1 when any metric regressed or the share of failed
operations differs between the sets, else 0.
"""

import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load(directory, workload):
    path = os.path.join(directory, f"{workload}.jsonl")
    if not os.path.exists(path):
        return []
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def verdict(metric, base, new):
    q1a, ma, q3a = quartiles(base)
    q1b, mb, q3b = quartiles(new)
    bound = metric["bound"]
    lower = metric["better"] == "lower"
    worse = ((mb - ma) if lower else (ma - mb)) / ma if ma else 0.0
    spread = max((q3a - q1a) / ma if ma else 0.0, (q3b - q1b) / mb if mb else 0.0)
    if spread > bound:
        every_better = max(new) < min(base) if lower else min(new) > max(base)
        text = "unresolved, every new run better" if every_better else "unresolved"
    elif worse > bound:
        text = "regressed"
    elif -worse > bound:
        text = "improved"
    else:
        text = "within"
    return (q1a, ma, q3a), (q1b, mb, q3b), worse, spread, text


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    regressed = False
    for workload in (w["name"] for w in bench["workloads"]):
        base = load(sys.argv[1], workload)
        new = load(sys.argv[2], workload)
        if not base or not new:
            print(f"{workload}: missing runs (base {len(base)}, new {len(new)})")
            continue
        share = [sorted({r["failed"] / r["attempted"] for r in runs}) for runs in (base, new)]
        print(f"{workload}: base {len(base)} runs, new {len(new)} runs, "
              f"failed share base {share[0]} new {share[1]}")
        if share[0] != share[1]:
            print("  failed share differs")
            regressed = True
        for metric in bench["end_to_end"]:
            name = metric["name"]
            a = [r["metrics"][name]["value"] for r in base]
            b = [r["metrics"][name]["value"] for r in new]
            qa, qb, worse, spread, text = verdict(metric, a, b)
            regressed |= text == "regressed"
            print(f"  {name:18s} base {qa[1]:11.5g} [{qa[0]:.5g}, {qa[2]:.5g}]  "
                  f"new {qb[1]:11.5g} [{qb[0]:.5g}, {qb[2]:.5g}]  worse {worse:+7.2%}  "
                  f"spread {spread:6.2%}  bound {metric['bound']:.0%}  {text}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
