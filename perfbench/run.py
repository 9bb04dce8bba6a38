#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload ctrl-steady|ctrl-stress|replay-grid \
        --seed N --seconds S --trace 0|1

Run from the repository root. Builds perfbench/ (the ihbd library from
src/ plus the perfbench binary) in Release mode under .bench_build/ (or
$CARGO_TARGET_DIR when set), then runs the binary. Its stdout is
passed through unchanged; its last line is the JSON result. Build output
goes to stderr. Exits 2 on bad usage and non-zero on any failure.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("ctrl-steady", "ctrl-stress", "replay-grid")


def parse_args():
    p = argparse.ArgumentParser(allow_abbrev=False)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args()  # unknown flags exit 2
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if not 1 <= args.seconds <= 3600:
        p.error("--seconds must be in [1, 3600]")
    return args


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "ctrl", "control_plane.h")):
        sys.exit("perfbench: no library sources under %s" %
                 os.path.join(ROOT, "src"))
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "-j", jobs],
    ]
    for cmd in steps:
        rc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode
        if rc != 0:
            sys.exit("perfbench: build step failed (%d): %s" %
                     (rc, " ".join(cmd)))
    return os.path.join(build_dir, "perfbench")


def main():
    args = parse_args()
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(os.path.abspath(target), "perfbench")
    binary = build(build_dir)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out", os.path.join(
            build_dir, "trace-%s-%d.json" % (args.workload, args.seed))]
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
