#!/usr/bin/env python3
"""Runs the benchmark over several seeds and prints each metric's spread.

Usage, from the repository root:

    python3 perfbench/spread.py --workload fleet-ram --seeds 1-10 [--seconds 10] [--trace 0]

For every metric it prints the median over the runs and the distance
between the first and third quartile as a share of the median, the
figure BENCHMARK.json's bounds are compared against. Each run's last
output line is appended to --out (default .bench_build/spread.jsonl).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def seeds_of(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-5")
    ap.add_argument("--seconds", default="10")
    ap.add_argument("--trace", default="0")
    ap.add_argument("--out", default=".bench_build/spread.jsonl")
    a = ap.parse_args()

    values = {}
    units = {}
    os.makedirs(os.path.dirname(a.out) or ".", exist_ok=True)
    with open(a.out, "a") as out:
        for seed in seeds_of(a.seeds):
            cmd = ["bash", "perfbench/run.sh", "--workload", a.workload, "--seed", str(seed),
                   "--seconds", a.seconds, "--trace", a.trace]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                sys.stderr.write(proc.stdout + proc.stderr)
                sys.exit("seed %d: exit code %d" % (seed, proc.returncode))
            res = json.loads(lines[-1])
            out.write(json.dumps({"workload": a.workload, "seed": seed, "result": res}) + "\n")
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
            print("seed %d: %s" % (seed, " ".join(
                "%s=%.6g" % (n, m["value"]) for n, m in sorted(res["metrics"].items()))), flush=True)

    print("%-32s %14s %8s  %s" % ("metric", "median", "IQR/med", "unit"))
    for name in sorted(values):
        xs = values[name]
        med = statistics.median(xs)
        if len(xs) >= 2 and med != 0:
            q = statistics.quantiles(xs, n=4)
            spread = "%.4f" % ((q[2] - q[0]) / med)
        else:
            spread = "-"
        print("%-32s %14.6g %8s  %s" % (name, med, spread, units[name]))


if __name__ == "__main__":
    main()
