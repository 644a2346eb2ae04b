#!/usr/bin/env python3
"""Runs one workload over several seeds and reports, per end-to-end metric,
the median and the quartile spread (Q3 - Q1) / median of the per-run values,
with statistics.quantiles(values, n=4) as the acceptance rule computes them.
Each run lasts BENCHMARK.json's run_seconds, the window the bounds were
derived at.

    python3 perfbench/spread.py --workload sgq_10k --seeds 1-10
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        seconds = json.load(f)["run_seconds"]

    values = {}
    for seed in args.seeds:
        run = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds", str(seconds),
             "--trace", "0"],
            stdout=subprocess.PIPE, text=True)
        lines = run.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines else {}
        if run.returncode != 0 or not result.get("correct"):
            sys.stderr.write("seed %d failed (exit %d)\n" %
                             (seed, run.returncode))
            return 1
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print("seed %d: %s" % (seed, " ".join(
            "%s=%.6g" % (n, m["value"]) for n, m in result["metrics"].items())),
            flush=True)

    print("%-32s %14s %10s" % ("metric", "median", "spread"))
    for name, vals in values.items():
        median = statistics.median(vals)
        if len(vals) >= 2 and median != 0:
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = "%9.2f%%" % (100.0 * (q3 - q1) / abs(median))
        else:
            spread = "%10s" % "-"
        print("%-32s %14.6g %s" % (name, median, spread))
    return 0


if __name__ == "__main__":
    sys.exit(main())
