#!/usr/bin/env python3
"""Build the fepia benchmark harness from source and run one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: validate-hiperd, faultsim-des, fepiad-mixed, sweep-dist (see
perfbench/METRICS.md). The harness is built with CMake in Release mode
under $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); the
first run configures and compiles the library, later runs only check
that the build is current. Build output goes to standard error, so the
last line of standard output is the harness's JSON result. Per-run
records and Chrome traces land in <build dir>/results.

Exits non-zero, without printing a result, when the fepia sources are
missing, the build fails or the harness fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def step(cmd, timeout):
    """Runs a build command with its output on stderr; False on failure."""
    try:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout, check=False)
    except (OSError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {' '.join(cmd)}: {exc}", file=sys.stderr)
        return False
    return done.returncode == 0


def build(bdir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: no fepia sources under src/; run from a full "
              "checkout", file=sys.stderr)
        return None
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        if not step(["cmake", "-S", HERE, "-B", bdir,
                     "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S):
            return None
    if not step(["cmake", "--build", bdir, "--target", "fepia_perfbench",
                 "-j", jobs], BUILD_TIMEOUT_S):
        return None
    return os.path.join(bdir, "fepia_perfbench")


def main():
    bdir = build_dir()
    exe = build(bdir)
    if exe is None:
        return 1
    cmd = [exe, *sys.argv[1:], "--root", ROOT,
           "--out-dir", os.path.join(bdir, "results")]
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S, check=False).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: harness exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
