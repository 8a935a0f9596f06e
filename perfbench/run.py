#!/usr/bin/env python3
"""Builds the swsketch benchmark binary and runs one workload.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload time-query --seed 1 --seconds 10 --trace 0

Each invocation builds ``perfbench/swbench`` from the checkout's sources
(incrementally, into ``$CARGO_TARGET_DIR`` or ``.bench_build``), pins the
shared thread pool to one worker through ``SWSKETCH_THREADS`` (the binary
refuses to start when the caller, its writer threads and the pool would
exceed ``nproc``), and runs the workload in its own process. The binary's
standard output is passed through; its last line is the JSON result. Build
or run failures exit non-zero without a result line.

``--scale tiny`` shrinks every workload for the self-test
(``perfbench/selftest.py``). With ``--trace 1`` the spans of the traced run
are written to ``<build dir>/trace_<workload>.json``.
"""

import argparse
import json
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent

# seq-fd stays runnable, but BENCHMARK.json leaves it out as too noisy on a
# shared host (perfbench/layers.json, "dropped_workloads").
WORKLOADS = ("seq-fd", "time-query", "tenant-keyed", "sharded-fd")

# One pool worker: with nproc - 1 workers, pool wake-ups on a shared host
# made the tenant-keyed query tail swing between 3.6 and 6.6 ms (0.4 ms with
# one worker).
POOL_THREADS = "1"

RUN_TIMEOUT_S = 170


def build_dir():
    return pathlib.Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build").resolve()


def build(out):
    """Configures and builds the benchmark; returns the binary path."""
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = [["cmake", "-S", str(HERE), "-B", str(out), "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", str(out), "-j", jobs, "--target", "swbench"]]
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.exit("run.py: build failed: " + " ".join(cmd))
    return out / "swbench"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    args = parser.parse_args()

    out = build_dir()
    binary = build(out)

    env = dict(os.environ, SWSKETCH_THREADS=POOL_THREADS)
    cmd = [str(binary), "--workload=" + args.workload, "--seed=%d" % args.seed,
           "--seconds=%g" % args.seconds, "--trace=%d" % args.trace,
           "--scale=" + args.scale]
    if args.trace:
        cmd.append("--trace_out=%s" % (out / ("trace_%s.json" % args.workload)))
    try:
        done = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        sys.exit("run.py: %s did not finish within %d s" % (args.workload, RUN_TIMEOUT_S))
    lines = done.stdout.rstrip("\n").split("\n")
    if done.returncode not in (0, 1) or not lines[-1].startswith("{"):
        sys.stdout.write(done.stdout)
        sys.exit("run.py: swbench exited with %d" % done.returncode)
    json.loads(lines[-1])  # The result line must parse.
    sys.stdout.write(done.stdout)
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
