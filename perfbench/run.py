#!/usr/bin/env python3
"""Builds and runs the GEqO repository benchmark.

    python3 perfbench/run.py --workload detect|reuse|ingest --seed N \
        --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the repository root. The first call configures and builds the
benchmark package (perfbench/CMakeLists.txt, which compiles the library
from src/) into .bench_build/perfbench; later calls only rebuild what
changed. Build output goes to stderr, so the last line of stdout is the
benchmark's JSON result. See perfbench/README.md for the workloads and
metrics.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
OUT_DIR = os.path.join(ROOT, ".bench_build", "perfbench-out")
RUN_TIMEOUT_S = 170
BUILD_JOBS = "4"


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build(targets):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no library sources under src/ next to perfbench/; run from a "
             "full checkout of the repository")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(BUILD_DIR, ignore_errors=True)
            fail("cmake configure failed")
    command = ["cmake", "--build", BUILD_DIR, "-j", BUILD_JOBS, "--target"]
    if subprocess.run(command + targets, stdout=sys.stderr).returncode != 0:
        fail("build failed")


def run(command, timeout):
    """Runs command, forwarding its output; returns its exit code."""
    try:
        return subprocess.run(command, timeout=timeout).returncode
    except subprocess.TimeoutExpired:
        fail("timed out after %d s: %s" % (timeout, " ".join(command)))


def selftest():
    build(["geqo_perfbench", "perfbench_selftest"])
    code = run([os.path.join(BUILD_DIR, "perfbench_selftest")], RUN_TIMEOUT_S)
    if code != 0:
        fail("self-tests failed")
    # BENCHMARK.json must name exactly the metrics the program reports.
    import json
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    listed = subprocess.run([os.path.join(BUILD_DIR, "geqo_perfbench"),
                             "--list-metrics"], capture_output=True,
                            text=True, check=True).stdout.split("\n")
    reported = {}
    for line in filter(None, listed):
        kind, name, unit = line.split()
        reported.setdefault(kind, []).append((name, unit))
    for kind in ("end_to_end", "per_layer"):
        declared = [(m["name"], m["unit"]) for m in spec[kind]]
        if declared != reported.get(kind):
            fail("BENCHMARK.json %s does not match the program's metrics:\n"
                 "  declared %s\n  reported %s"
                 % (kind, declared, reported.get(kind)))
    print("perfbench: BENCHMARK.json metrics match the program")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=["detect", "reuse", "ingest"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if args.selftest:
        selftest()
        return
    if args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    build(["geqo_perfbench"])
    os.makedirs(OUT_DIR, exist_ok=True)
    command = [os.path.join(BUILD_DIR, "geqo_perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--out-dir", OUT_DIR]
    sys.stdout.flush()
    sys.exit(run(command, RUN_TIMEOUT_S))


if __name__ == "__main__":
    main()
