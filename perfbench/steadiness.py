#!/usr/bin/env python3
"""Run the benchmark on several seeds and report how steady each metric is.

Usage, from the root of a checkout:

    python3 perfbench/steadiness.py [--runs 10] [--seconds 30]
                                    [--workloads stream-2d,map-3d,serve-mixed]

For each workload, runs perfbench/run.py once per seed (seeds 1..runs, one
after another, untraced) and prints, per end-to-end metric, the median and
the spread: the distance between the first and third quartile of the runs'
values (statistics.quantiles, n=4) as a share of the median, next to the
metric's bound from BENCHMARK.json. It also reports the share of failed
operations per run. A metric whose spread is above a third of its bound
is flagged.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload, seed, seconds):
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if done.returncode != 0:
        raise SystemExit("run failed: {} seed {}".format(workload, seed))
    return json.loads(done.stdout.strip().splitlines()[-1])


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else float("inf"), q2


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for workload in args.workloads.split(","):
        runs = []
        for seed in range(1, args.runs + 1):
            result = run_once(workload, seed, args.seconds)
            runs.append(result)
            print("{} seed {}: correct={} attempted={} failed={} {}".format(
                workload, seed, result["correct"], result["attempted"],
                result["failed"],
                " ".join("{}={:.6g}".format(k, v["value"])
                         for k, v in result["metrics"].items())),
                flush=True)
        print("== {}: failed shares {}".format(
            workload, sorted({r["failed"] / r["attempted"] for r in runs})))
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            share, med = spread(values)
            flag = "" if share <= bound / 3 else "  <-- "
            print("   {:<16} median {:<14.6g} spread {:6.2%} bound {:.0%}{}"
                  .format(name, med, share, bound, flag))


if __name__ == "__main__":
    main()
