#!/usr/bin/env python3
"""Runs the benchmark over several seeds and reports each metric's spread.

Run from the repository root:

    python3 sweepbench/spread.py --runs 10 --first-seed 1 [--trace 1] [WORKLOAD ...]

For every workload and metric it prints the median of the per-run values
and the quartile spread (Q3 - Q1, from statistics.quantiles(n=4)) as a
share of that median, beside the metric's bound from BENCHMARK.json.
With --trace 1 it checks instead that every count-type per-layer metric
(unit "count", "cycle/20" or "ratio", and the fractions derived from
counts) reads exactly the same in every run. Exits nonzero when a run
fails, a spread reaches its bound, or a count differs.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXACT = {"sim.fastfwd.warped_frac", "bench.coordinate.cache_hit_frac"}


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(ROOT, "sweepbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: exit {done.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: wrong rows")
    return {k: v["value"] for k, v in result["metrics"].items()}, result


def main():
    bench = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("workloads", nargs="*")
    args = ap.parse_args()
    names = args.workloads or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    units = {m["name"]: m["unit"] for m in bench["per_layer"]}
    ok = True
    for name in names:
        runs = [run_once(name, args.first_seed + i, bench["run_seconds"], args.trace)[0]
                for i in range(args.runs)]
        print(f"== {name} ({args.runs} runs, seeds {args.first_seed}..{args.first_seed + args.runs - 1})")
        for metric in runs[0]:
            values = [r[metric] for r in runs]
            med = statistics.median(values)
            if args.trace:
                exact = units.get(metric) in ("count", "cycle/20", "ratio") or metric in EXACT
                same = len(set(values)) == 1
                flag = "" if same or not exact else "  COUNT DIFFERS"
                ok &= same or not exact
                print(f"  {metric:<40} median {med:<14.6g} {'exact' if exact else ''}{flag}")
                continue
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds[metric]
            flag = "" if spread < bound / 3 else ("  ABOVE BOUND/3" if spread < bound else "  ABOVE BOUND")
            ok &= spread < bound
            print(f"  {metric:<22} median {med:<12.6g} spread {spread:7.2%} bound {bound:.0%}{flag}")
            print("      runs: " + " ".join(f"{v:.5g}" for v in values))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
