#!/usr/bin/env python3
"""Run the benchmark once per seed and report each metric's spread.

usage: python3 perfbench/spread.py --workload NAME [--seeds 1-10]
           [--seconds N] [--trace 0|1] [--save FILE] [--against FILE]

Run from the repository root. Each run uses the command in
BENCHMARK.json. For every metric the script prints the median of the
runs, the distance between the first and third quartiles
(statistics.quantiles, n=4) as a share of the median, and the metric's
bound; a spread above a third of its bound is flagged. --save writes the
per-run values as JSON; --against compares this set's medians with a
saved set and flags a metric whose median got worse by more than its
bound.
"""

import argparse
import json
import statistics
import subprocess
import sys


def seed_range(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", default="0", choices=["0", "1"])
    ap.add_argument("--save")
    ap.add_argument("--against")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    defs = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}

    values = {}
    for seed in args.seeds:
        cmd = bench["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", args.trace,
        ]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.exit(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}")
        result = json.loads(lines[-1])
        if not result["correct"]:
            sys.exit(f"seed {seed}: incorrect result\n{proc.stderr}")
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: done", file=sys.stderr)

    base = {}
    if args.against:
        with open(args.against) as f:
            base = json.load(f)
    print(f"{'metric':32} {'median':>14} {'spread':>8} {'bound':>6}")
    for name, xs in values.items():
        med = statistics.median(xs)
        q = statistics.quantiles(xs, n=4) if len(xs) > 1 else [xs[0]] * 3
        spread = (q[2] - q[0]) / med if med else float("inf")
        bound = defs[name].get("bound")
        flag = ""
        if bound is not None and name != "setup_s" and spread > bound / 3:
            flag = "  SPREAD"
        if bound is not None and name in base:
            old = statistics.median(base[name])
            worse = med / old - 1 if defs[name]["better"] == "lower" else old / med - 1
            if worse > bound:
                flag += f"  WORSE {worse:+.3f}"
        shown = f"{bound:6.2f}" if bound is not None else "     -"
        print(f"{name:32} {med:14.6g} {spread:8.4f} {shown}{flag}")
    if args.save:
        with open(args.save, "w") as f:
            json.dump(values, f, indent=1)


if __name__ == "__main__":
    main()
