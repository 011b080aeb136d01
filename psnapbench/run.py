#!/usr/bin/env python3
"""Builds bench_psnap from this checkout and runs one workload.

    python3 psnapbench/run.py --workload mixed_local --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The build goes to .bench_build/psnapbench
(or $CARGO_TARGET_DIR/psnapbench), checkpoint frames and spans under the same
directory.  Build output goes to stderr, so the last line of stdout is the
result JSON that bench_psnap prints; the exit code is bench_psnap's.
"""

import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("run.py: no psnap sources next to psnapbench/", file=sys.stderr)
        return 2

    out = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build = os.path.join(out, "psnapbench")
    steps = [["cmake", "--build", build, "--target", "bench_psnap",
              "-j", str(min(4, os.cpu_count() or 1))]]
    if not os.path.isfile(os.path.join(build, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", os.path.join(ROOT, "psnapbench"),
                         "-B", build, "-DCMAKE_BUILD_TYPE=Release"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, cwd=ROOT).returncode != 0:
            print("run.py: build failed: " + " ".join(step), file=sys.stderr)
            return 2

    cmd = [os.path.join(build, "bench_psnap"),
           "--workload=" + args.workload,
           "--seed=%d" % args.seed,
           "--seconds=%g" % args.seconds,
           "--frames=" + os.path.join(out, "frames")]
    if args.trace:
        # One directory per workload: each traced run replaces its spans.
        cmd.append("--trace=" + os.path.join(out, "trace", args.workload))
    sys.stdout.flush()
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
