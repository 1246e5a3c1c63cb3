#!/usr/bin/env python3
"""Steadiness of the benchmark: run one workload k times and summarise.

    python3 perfbench/steady.py --workload serve-mixed --runs 10
    python3 perfbench/steady.py --workload run-sample --runs 10 --other ../parent

Every run is untraced and lasts run_seconds from BENCHMARK.json; run i uses
seed base+i. With --other (the root of a second qirkit checkout
holding perfbench/), runs alternate between the two trees, swapping which
goes first in every pair, and each tree is summarised on its own. For each
metric it prints the median, first and third quartile
(statistics.quantiles, n=4) and the spread (q3 - q1) / median; with two
trees also the ratio of their medians. The bounds in BENCHMARK.json were set
from these spreads.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(tree, workload, seed, seconds):
    cmd = [sys.executable, os.path.join(tree, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarise(label, results):
    print("== %s: %d runs" % (label, len(results)))
    shares = sorted({r["failed"] / r["attempted"] for r in results})
    print("   correct: %s   failed/attempted: %s" %
          (all(r["correct"] for r in results), shares))
    medians = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        unit = results[0]["metrics"][name]["unit"]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else 0.0
        medians[name] = med
        print("   %-30s %14.6g %-12s q1 %12.6g  q3 %12.6g  spread %6.3f" %
              (name, med, unit, q1, q3, spread))
    return medians


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed-base", type=int, default=1)
    ap.add_argument("--other", help="root of a second checkout to alternate with")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        seconds = json.load(f)["run_seconds"]

    trees = [ROOT] + ([os.path.abspath(args.other)] if args.other else [])
    results = {tree: [] for tree in trees}
    for i in range(args.runs):
        order = trees if i % 2 == 0 else trees[::-1]
        for tree in order:
            r = run_once(tree, args.workload, args.seed_base + i, seconds)
            results[tree].append(r)
            print("run %d seed %d %s: %s" % (i, args.seed_base + i, tree,
                  " ".join("%s=%.6g" % (k, v["value"]) for k, v in r["metrics"].items())),
                  flush=True)
    medians = [summarise(tree, results[tree]) for tree in trees]
    if len(trees) == 2:
        print("== median ratio (other / this)")
        for name, med in medians[0].items():
            other = medians[1][name]
            print("   %-30s %8.4f" % (name, other / med if med else float("nan")))


if __name__ == "__main__":
    main()
