#!/usr/bin/env python3
"""Steadiness check for the benchmark in BENCHMARK.json.

Runs each workload repeatedly, each time with another seed, and prints for
every metric its median, first and third quartile, and spread: the
distance between the quartiles as a share of the median, the figure the
bounds in BENCHMARK.json are set against. Runs are sequential, one process
at a time.

    python3 perfbench/steady.py                      # 10 runs per workload
    python3 perfbench/steady.py --runs 5 --workload pdc_small_blocks
    python3 perfbench/steady.py --trace 1 --runs 3   # per-layer metrics

Run it from the repository root. Exits 1 when a run fails, prints an
incorrect result, or an end-to-end spread (other than setup_s's) exceeds
its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def run_once(command, workload, seed, seconds, trace):
    args = command + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
    ]
    start = time.monotonic()
    proc = subprocess.run(args, capture_output=True, text=True)
    wall = time.monotonic() - start
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit code {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return result, wall


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed-base", type=int, default=1000)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workload", action="append")
    parser.add_argument("--raw", action="store_true", help="also print every run's value")
    opts = parser.parse_args()

    names = opts.workload or [w["name"] for w in bench["workloads"]]
    specs = bench["end_to_end"] if opts.trace == 0 else bench["per_layer"]
    ok = True
    for name in names:
        values = {m["name"]: [] for m in specs}
        shares, walls = [], []
        for i in range(opts.runs):
            seed = opts.seed_base + i
            result, wall = run_once(bench["command"], name, seed, opts.seconds, opts.trace)
            walls.append(wall)
            if not result["correct"]:
                print(f"{name} seed {seed}: incorrect result", file=sys.stderr)
                ok = False
            shares.append(result["failed"] / result["attempted"])
            for m in specs:
                values[m["name"]].append(result["metrics"][m["name"]]["value"])
        print(f"\n{name}: {opts.runs} runs, {min(walls):.1f}-{max(walls):.1f} s each, "
              f"failed share {sorted(set(shares))}")
        print(f"  {'metric':34} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
        for m in specs:
            v = values[m["name"]]
            med = statistics.median(v)
            q1, _, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else 0.0
            bound = m.get("bound")
            flag = ""
            if bound is not None and m["name"] != "setup_s":
                if spread > bound:
                    flag, ok = "OVER", False
                elif spread > bound / 3:
                    flag = "wide"
            print(f"  {m['name']:34} {med:12.4f} {q1:12.4f} {q3:12.4f} {spread:8.4f} "
                  f"{bound if bound is not None else '':>6} {flag}")
            if opts.raw:
                print("      " + " ".join(f"{x:.4g}" for x in v))
        if len(set(shares)) > 1:
            print(f"  failed share differs between runs: {shares}")
            ok = False
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
