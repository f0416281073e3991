#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

For every metric: the median of the per-run values and the distance between
their first and third quartiles (``statistics.quantiles(values, n=4)``) as a
share of the median, next to the metric's bound from BENCHMARK.json.

Run from the repository root:

    python3 e2ebench/spread.py --workload serve_capacity --seeds 1-10
    python3 e2ebench/spread.py --workload train --seeds 1-5 --trace 1
"""

import argparse
import json
import statistics
import subprocess
import sys


def seed_list(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,7,11")
    ap.add_argument("--trace", default="0", choices=["0", "1"])
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"] + bench["per_layer"]}

    values = {}
    for seed in seed_list(args.seeds):
        argv = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                   "--seconds", str(bench["run_seconds"]), "--trace", args.trace]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        host = [l for l in proc.stderr.splitlines() if l.startswith("host:")]
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.exit(f"seed {seed}: exit {proc.returncode}")
        result = json.loads(lines[-1])
        if not result["correct"] or result["failed"]:
            sys.exit(f"seed {seed}: correctness gate failed: {result}")
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + ", ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
              + (f" [{host[0]}]" if host else ""), flush=True)

    print(f"\n{'metric':<40} {'median':>12} {'spread':>8} {'bound':>6}  runs={len(next(iter(values.values())))}")
    for name, vals in values.items():
        med = statistics.median(vals)
        if len(vals) >= 2 and med:
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = f"{(q3 - q1) / med:8.4f}"
        else:
            spread = f"{'n/a':>8}"
        bound = bounds.get(name)
        print(f"{name:<40} {med:12.4f} {spread} {bound if bound is not None else '-':>6}")


if __name__ == "__main__":
    main()
