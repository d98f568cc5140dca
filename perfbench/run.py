#!/usr/bin/env python3
"""Builds and runs the TASS pipeline benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload plan_v4 --seed 1 --seconds 10 --trace 0

Workloads: plan_v4, plan_v6, serve_mix, churn_stream (see README.md).
The first run configures and builds perfbench/ (CMake, Release) into
$CARGO_TARGET_DIR, or .bench_build when unset; later runs only rebuild
what changed. The benchmark's stdout is passed through; its last line is
the result object {"correct", "attempted", "failed", "metrics"}. With
--trace 1 the span dump lands in <build dir>/trace/. The exit status is
the benchmark's: 0 when every output checked out.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("plan_v4", "plan_v6", "serve_mix", "churn_stream")


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build():
    """Configures (once) and builds the benchmark; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "state", "image.hpp")):
        sys.exit("perfbench: the library sources (src/) are not in this checkout")
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs, "--target", "tass_perfbench"])
    for step in steps:
        done = subprocess.run(step, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout)
            sys.exit("perfbench: build failed: " + " ".join(step))
    return os.path.join(out, "tass_perfbench")


def run(binary, workload, seed, seconds, trace, extra=()):
    """Runs one benchmark process; returns (exit code, stdout lines)."""
    workdir = os.path.join(build_dir(), "work", str(os.getpid()))
    command = [binary, "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace),
               "--workdir", workdir]
    if trace:
        trace_dir = os.path.join(build_dir(), "trace")
        os.makedirs(trace_dir, exist_ok=True)
        command += ["--trace-out",
                    os.path.join(trace_dir, "%s-seed%d.json" % (workload, seed))]
    command += list(extra)
    try:
        done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return done.returncode, done.stdout.splitlines()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    binary = build()
    code, lines = run(binary, args.workload, args.seed, args.seconds, args.trace)
    for line in lines:
        print(line)
    sys.stdout.flush()
    try:
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
    except (IndexError, ValueError, AssertionError):
        sys.stderr.write("perfbench: no result line (exit %d)\n" % code)
        return code or 1
    return code


if __name__ == "__main__":
    sys.exit(main())
