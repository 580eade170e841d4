#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 rtrbench/run.py --workload repro|flows|rmap|all \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Builds rtrbench/main.exe with dune
(build output goes to stderr), then runs it once per workload, each in
its own process.  The last line of standard output is the JSON result
of the (last) workload.  Exits non-zero, without a result, when the
checkout does not hold the sources or the build fails.
"""
import argparse
import os
import subprocess
import sys

WORKLOADS = ["repro", "flows", "rmap"]
EXE = os.path.join("_build", "default", "rtrbench", "main.exe")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        sys.exit("run.py: run from the root of a checkout of the repository")
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--display", "quiet",
         "./rtrbench/main.exe"],
        stdout=sys.stderr, env=env)
    if build.returncode != 0:
        sys.exit("run.py: build failed")

    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    for w in workloads:
        sys.stdout.flush()
        run = subprocess.run(
            [EXE, "--workload", w, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)])
        if run.returncode != 0:
            sys.exit(f"run.py: workload {w} exited with {run.returncode}")


if __name__ == "__main__":
    main()
