#!/usr/bin/env python3
"""Build the SEALDB benchmark driver and run one workload.

    python3 sealbench/run.py --workload load-random --seed 1 --seconds 10 --trace 0

Run from the repository root. The driver (sealbench.cc) is configured and
built in Release mode under $CARGO_TARGET_DIR/sealbench (default
.bench_build/sealbench); an up-to-date build is a no-op. The driver's stdout
is passed through: human-readable '#' lines, then one JSON result line. With
--trace 1 the span list of the traced rounds is written next to the binary as
trace-<workload>.csv.

Exits non-zero without a result line if the build fails (for example when the
SEALDB sources are not next to this directory) or the driver does not finish
in time; exits with the driver's status otherwise (non-zero when any output
failed verification).
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("load-random", "read-zipf", "served-mixed")
# A run must end within 180 s; leave room for the no-op build check.
RUN_TIMEOUT_S = 170


def build(build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = (
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "--target", "sealbench", "-j", jobs],
    )
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            return False
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build_dir = os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                             "sealbench")
    if not build(build_dir):
        print("sealbench: build failed", file=sys.stderr)
        return 1

    cmd = [os.path.join(build_dir, "sealbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out",
                os.path.join(build_dir, "trace-%s.csv" % args.workload)]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("sealbench: %s did not finish within %d s"
              % (args.workload, RUN_TIMEOUT_S), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
