#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload search-cold --seed 1 --seconds 20 --trace 0

The arguments are passed to the benchmark unchanged (see bench.ml).  The
build log goes to standard error; the benchmark's own output, whose last
line is the JSON result, goes to standard output.  Exits non-zero without a
result when the checkout is incomplete, the build fails or the run fails.
"""

import os
import subprocess
import sys

BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
REQUIRED = ["dune-project", "lib", os.path.join("perfbench", "dune"), os.path.join("perfbench", "bench.ml")]


def main():
    missing = [p for p in REQUIRED if not os.path.exists(p)]
    if missing:
        print("perfbench: run from the root of a checkout (missing: %s)" % ", ".join(missing), file=sys.stderr)
        return 2
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", "./perfbench/bench.exe"],
            stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print("perfbench: build failed: %s" % e, file=sys.stderr)
        return 2
    if build.returncode != 0:
        print("perfbench: build failed (exit %d)" % build.returncode, file=sys.stderr)
        return 2
    exe = os.path.join("_build", "default", "perfbench", "bench.exe")
    try:
        return subprocess.run([exe] + sys.argv[1:], timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
