#!/usr/bin/env python3
"""Steadiness check for the end-to-end benchmark.

Runs one workload once per seed (trace off) and prints, for every
end-to-end metric in BENCHMARK.json, the median over the runs and the
spread: the distance between the first and third quartile
(statistics.quantiles(values, n=4)) as a share of the median, next to the
metric's bound. Run from the repository root:

    python3 e2ebench/spread.py --workload apps --seeds 1-10 [--seconds 34]

Exits 1 if any run fails or any spread other than setup_s exceeds its
bound.
"""

import argparse
import json
import statistics
import subprocess
import sys


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float)
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    values = {m["name"]: [] for m in bench["end_to_end"]}
    for seed in parse_seeds(args.seeds):
        cmd = bench["command"] + ["--workload", args.workload, "--seed",
                                  str(seed), "--seconds", str(seconds),
                                  "--trace", "0"]
        run = subprocess.run(cmd, stdout=subprocess.PIPE,
                             stderr=subprocess.DEVNULL, text=True)
        lines = run.stdout.strip().splitlines()
        if run.returncode != 0 or not lines:
            print(f"seed {seed}: exit {run.returncode}")
            print(run.stdout)
            return 1
        result = json.loads(lines[-1])
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed}: " + " ".join(
            f"{n}={result['metrics'][n]['value']:.4g}" for n in values),
            flush=True)

    worst = 0
    print(f"\n{'metric':<16} {'median':>12} {'spread':>8} {'bound':>6}")
    for m in bench["end_to_end"]:
        vals = values[m["name"]]
        median = statistics.median(vals)
        q = statistics.quantiles(vals, n=4)
        spread = (q[2] - q[0]) / median if median else float("inf")
        flag = ""
        if spread > m["bound"] / 3:
            flag = " > bound/3"
        if spread > m["bound"] and m["name"] != "setup_s":
            flag = " > BOUND"
            worst = 1
        print(f"{m['name']:<16} {median:>12.5g} {spread:>8.4f} "
              f"{m['bound']:>6}{flag}")
    return worst


if __name__ == "__main__":
    sys.exit(main())
