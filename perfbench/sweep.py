#!/usr/bin/env python3
"""Runs the benchmark over seeds and workloads and records one set of runs.

Usage (from the repository root):

    python3 perfbench/sweep.py --out <dir> [--seeds 1-10] [--workloads a,b]
                               [--seconds <s>] [--trace 0|1]

Appends each run's result line to <dir>/<workload>.jsonl and prints the
spread of every metric: median, quartiles (statistics.quantiles, n=4) and
the quartile distance as a share of the median. Two such directories are
what compare.py compares. --seconds defaults to BENCHMARK.json's run_seconds.
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
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = parser.parse_args()
    os.makedirs(args.out, exist_ok=True)
    for workload in args.workloads.split(","):
        results = []
        for seed in parse_seeds(args.seeds):
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
                stdout=subprocess.PIPE, text=True, cwd=ROOT)
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: run failed (exit {proc.returncode})")
                continue
            line = proc.stdout.rstrip("\n").split("\n")[-1]
            with open(os.path.join(args.out, f"{workload}.jsonl"), "a") as f:
                f.write(line + "\n")
            results.append(json.loads(line))
        if len(results) < 2:
            continue
        failed = sorted({r["failed"] / r["attempted"] for r in results})
        print(f"{workload}: {len(results)} runs, failed share {failed}")
        for name in results[0]["metrics"]:
            med, q1, q3, rel = spread([r["metrics"][name]["value"] for r in results])
            print(f"  {name:34s} median {med:12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}  "
                  f"spread {rel:7.2%}")


if __name__ == "__main__":
    main()
