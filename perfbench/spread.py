#!/usr/bin/env python3
"""Runs one workload of the benchmark over several seeds and prints, for each
end-to-end metric, its median and its spread: the distance between the first
and third quartile (statistics.quantiles, n=4) as a share of the median,
beside a third of the metric's bound from BENCHMARK.json. Every run's result
line must hold exactly the metrics BENCHMARK.json lists for its mode, in their
units; with --trace 1 only that is checked.

    python3 perfbench/spread.py --workload session_hot --runs 10 [--first-seed 1]
    python3 perfbench/spread.py --workload session_cold --runs 1 --trace 1
"""

import argparse
import json
import pathlib
import statistics
import subprocess
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    listed = spec["per_layer" if args.trace == "1" else "end_to_end"]
    units = {m["name"]: m["unit"] for m in listed}
    values = {}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        cmd = spec["command"] + ["--workload", args.workload, "--seed",
                                 str(seed), "--seconds", str(seconds),
                                 "--trace", args.trace]
        started = time.monotonic()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        elapsed = time.monotonic() - started
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print("seed %d failed (exit %d)\n%s" % (seed, proc.returncode,
                                                   proc.stdout[-2000:]))
            return 1
        result = json.loads(lines[-1])
        if not result["correct"] or result["failed"]:
            print("seed %d: incorrect result %s" % (seed, lines[-1]))
            return 1
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        if got != units:
            print("seed %d: metrics differ from BENCHMARK.json: missing %s, "
                  "extra %s, unit mismatch %s" % (
                      seed, sorted(set(units) - set(got)),
                      sorted(set(got) - set(units)),
                      sorted(k for k in got if k in units and got[k] != units[k])))
            return 1
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print("seed %d (%.0f s): %s" % (seed, elapsed, " ".join(
            "%s=%.6g" % (k, v["value"]) for k, v in result["metrics"].items())),
              flush=True)

    if args.trace == "1":
        print("every run printed every per-layer metric")
        return 0
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    print("\n%-20s %12s %9s %9s" % ("metric", "median", "spread", "bound/3"))
    worst = 0.0
    for name, vals in values.items():
        median = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / median if median else float("inf")
        third = bounds.get(name, 0) / 3
        flag = "" if name == "setup_s" or spread < third else "  <-- too wide"
        if name != "setup_s" and third:
            worst = max(worst, spread / third)
        print("%-20s %12.6g %9.4f %9.4f%s" % (name, median, spread, third, flag))
    print("worst spread / (bound/3): %.2f" % worst)
    return 0


if __name__ == "__main__":
    sys.exit(main())
