#!/usr/bin/env python3
"""Build the benchmark suite from source and run it.

    python3 benchsuite/run.py --workload W --seed N --seconds S --trace 0|1

The suite is built with dune (release profile, no shared cache, so
nothing is written outside the checkout) and then run with the given
arguments; its standard output, whose last line is the JSON result,
passes through unchanged.  Exits non-zero without a result if the build
or the run fails.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join(ROOT, "_build", "default", "benchsuite", "suite.exe")

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def main():
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", "--profile", "release",
             "./benchsuite/suite.exe"],
            cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr,
            timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 1
    if build.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return 1
    try:
        run = subprocess.run([EXE, "run", *sys.argv[1:]], cwd=ROOT,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("run.py: suite timed out", file=sys.stderr)
        return 1
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
