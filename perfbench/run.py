#!/usr/bin/env python3
"""Build the benchmark driver from this checkout's sources and run it.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The library and the driver are compiled from the checkout's own src/ and
perfbench/ with CMake (perfbench/CMakeLists.txt) into .bench_build/perfbench
in the checkout; later runs rebuild only what changed. Without the
library's sources next to this script the run stops at once with a non-zero
exit code and prints no result. Build logs go to standard error.

The driver's standard output is passed on: its last line is the run's JSON
result. In an untraced run, that line's setup_s is the fastest of
SETUP_SAMPLES cold set-ups, each timed from the start of a process of its
own: the measured run's and those of set-up-only runs of the driver
(--seconds 0), half made before the measured run and half after it. A
second set-up in one process would be a warm one; spreading cold ones over
the run lets them meet the host's fast speed, as request_ms does
(perfbench/README.md, "Steadiness").
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "sf_perfbench"
# The driver's own limit: a run that overstays the driver's 180 s is killed.
RUN_TIMEOUT_S = 170
SETUP_SAMPLES = 10


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def run_logged(command, log):
    """Runs a build step; its output goes to the log, not to stdout."""
    with open(log, "a") as out:
        done = subprocess.run(command, cwd=ROOT, stdout=out,
                              stderr=subprocess.STDOUT)
    if done.returncode != 0:
        with open(log) as text:
            sys.stderr.write("".join(text.readlines()[-40:]))
        fail("build step failed: " + " ".join(command))


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail("no library sources in this checkout (src/CMakeLists.txt)")
    cache = BUILD / "CMakeCache.txt"
    if cache.is_file():
        # A build tree configured for another source tree cannot be reused.
        home = "CMAKE_HOME_DIRECTORY:INTERNAL=" + str(HERE)
        if home not in cache.read_text(errors="replace").splitlines():
            shutil.rmtree(BUILD)
    BUILD.mkdir(parents=True, exist_ok=True)
    log = BUILD / "build.log"
    if not cache.is_file():
        run_logged(["cmake", "-S", str(HERE), "-B", str(BUILD),
                    "-DCMAKE_BUILD_TYPE=Release"], log)
    jobs = str(min(4, os.cpu_count() or 1))
    run_logged(["cmake", "--build", str(BUILD), "--target", "sf_perfbench",
                "-j", jobs], log)
    if not BINARY.is_file():
        fail("the build produced no driver")


def run_driver(command, deadline, capture=False):
    """Runs the driver; ends the whole run when the deadline passes."""
    try:
        return subprocess.run(
            command, cwd=ROOT, timeout=max(1.0, deadline - time.monotonic()),
            stdout=subprocess.PIPE if capture else None, text=True)
    except subprocess.TimeoutExpired:
        fail("the run did not end within {} s".format(RUN_TIMEOUT_S))


def last_result(done):
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        fail("the driver failed with exit code {}".format(done.returncode))
    return lines[:-1], json.loads(lines[-1])


def cold_setups(base, count, deadline):
    """The setup_s values and joint correctness of count set-up-only runs."""
    results = [last_result(run_driver(base + ["--seconds", "0", "--trace", "0"],
                                      deadline, capture=True))[1]
               for _ in range(count)]
    return ([r["metrics"]["setup_s"]["value"] for r in results],
            all(r["correct"] for r in results))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    parser.add_argument("--dump", help="write per-request times here")
    args = parser.parse_args()

    build()
    deadline = time.monotonic() + RUN_TIMEOUT_S
    base = [str(BINARY), "--workload", args.workload, "--seed", str(args.seed)]
    command = base + ["--seconds", str(args.seconds), "--trace", args.trace]
    if args.dump:
        command += ["--dump", args.dump]
    if args.trace == "1":
        spans = BUILD / "spans-{}-{}.jsonl".format(args.workload, args.seed)
        command += ["--spans", str(spans)]
        sys.exit(run_driver(command, deadline).returncode)

    before = (SETUP_SAMPLES - 1) // 2
    setups, setups_correct = cold_setups(base, before, deadline)
    lines, result = last_result(run_driver(command, deadline, capture=True))
    after, after_correct = cold_setups(base, SETUP_SAMPLES - 1 - before,
                                       deadline)
    setup = result["metrics"]["setup_s"]
    setup["value"] = min(setups + after + [setup["value"]])
    result["correct"] = result["correct"] and setups_correct and after_correct
    print("\n".join(lines + [json.dumps(result)]))


if __name__ == "__main__":
    main()
