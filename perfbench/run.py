#!/usr/bin/env python3
"""Build and run the repository benchmark from the root of a checkout.

    python3 perfbench/run.py --workload tfm-apps --seed 1 --seconds 30 --trace 0

Builds perfbench/perfbench.exe with dune into .bench_build (release
profile, dune cache off, at most two jobs), then runs it with the given
arguments; its last line of standard output is the result JSON. Build
output goes to standard error. Exits non-zero without a result if the
checkout lacks the sources or the build or the run fails.
"""

import os
import subprocess
import sys

BUILD_DIR = ".bench_build"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "perfbench.exe")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def main():
    for needed in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(needed):
            fail("run from the root of a full checkout (%s is missing)" % needed)
    build = [
        "dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
        "--profile", "release", "--cache", "disabled", "-j", "2",
        "./perfbench/perfbench.exe",
    ]
    try:
        built = subprocess.run(build, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except FileNotFoundError:
        fail("dune is not on PATH")
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if built.returncode != 0:
        fail("build failed")
    try:
        ran = subprocess.run([EXE] + sys.argv[1:], timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run timed out after %d s" % RUN_TIMEOUT_S)
    sys.exit(ran.returncode)


if __name__ == "__main__":
    main()
