#!/usr/bin/env python3
"""Builds the benchmark program from source and runs one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload fig1-query --seed 1 --seconds 20 --trace 0

The program, idl_perfbench (perfbench/*.cc compiled together with ../src by
perfbench/CMakeLists.txt), is built optimized into $CARGO_TARGET_DIR, or
.bench_build when that is unset. Build output goes to standard error; the
program's report goes to standard output, and its last line is the JSON
result. Exits non-zero, without a result, when the sources are missing or
the build or the run fails.
"""

import argparse
import fcntl
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("fig1-query", "fig1-ingest", "tenants-evolve")
RUN_TIMEOUT_S = 170


def build(build_dir):
    """Configures (once) and builds idl_perfbench; returns its path or None."""
    os.makedirs(build_dir, exist_ok=True)
    # Serializes builds of concurrent runs in one checkout.
    with open(os.path.join(build_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            configure = ["cmake", "-S", HERE, "-B", build_dir,
                         "-DCMAKE_BUILD_TYPE=Release"]
            if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
                return None
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        make = ["cmake", "--build", build_dir, "--target", "idl_perfbench",
                "-j", jobs]
        if subprocess.run(make, stdout=sys.stderr).returncode != 0:
            return None
    # Writes the build left in the page cache would otherwise be flushed
    # during the run, competing with the WAL's fsyncs.
    os.sync()
    return os.path.join(build_dir, "idl_perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    args = parser.parse_args()

    if not os.path.exists(os.path.join(HERE, "..", "src", "server",
                                       "server.h")):
        print("perfbench: the IDL sources (src/) are not in this checkout",
              file=sys.stderr)
        return 1
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                                ".bench_build")
    binary = build(build_dir)
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--work-dir", os.path.join(build_dir, "work")]
    sys.stdout.flush()
    try:
        return subprocess.run(command, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
