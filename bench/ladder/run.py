#!/usr/bin/env python3
"""Build the ladder benchmark from this checkout and run one workload.

Usage (from the repository root):
    python3 bench/ladder/run.py --workload W --seed N --seconds S --trace 0|1

The first call configures and builds bench/ladder (a standalone CMake
project that pulls in the repository) as a Release build in build-ladder/;
later calls rebuild only what changed.  The ladder binary then runs in that
build directory, writes its artifact to build-ladder/artifacts/ (and, with
--trace 1, its hetcomm.trace.v1 file to build-ladder/traces/), and its
standard output is passed through: the last line is the result object.
Exits non-zero, printing no result, when the build fails.  Stdlib only.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
BUILD = ROOT / "build-ladder"


def build() -> Path:
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "ladder",
                  "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            sys.exit(f"run.py: build step failed: {' '.join(cmd)}")
    return BUILD / "ladder"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    ap.add_argument("--rate", type=float, default=None,
                    help="open-loop rate of the traced serve workloads")
    args = ap.parse_args()

    binary = build()
    artifacts = BUILD / "artifacts"
    traces = BUILD / "traces"
    artifacts.mkdir(exist_ok=True)
    traces.mkdir(exist_ok=True)
    tag = f"{args.workload}_seed{args.seed}_trace{args.trace}"
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--json", str(artifacts / f"{tag}.json")]
    if args.trace == "1":
        cmd += ["--trace-file", str(traces / f"{tag}.trace.json")]
    if args.rate is not None:
        cmd += ["--rate", str(args.rate)]
    sys.stdout.flush()
    return subprocess.run(cmd, cwd=BUILD).returncode


if __name__ == "__main__":
    sys.exit(main())
