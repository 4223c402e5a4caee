#!/usr/bin/env python3
"""Build the stage benchmark from source, then run one workload.

    python3 stagebench/run.py --workload NAME --seed N [--seconds S] [--trace 0|1]

Run it from the repository root.  The first run configures and builds
into .bench_build/ (the library, the perfplay CLI, the preload recorder
and the benchmark itself, at the repository's default -O2); later runs
only rebuild what changed.  Build output goes to stderr, so the last
line of stdout is the benchmark's JSON result.  All arguments are
handed to the stagebench binary unchanged; see stagebench/README.md.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")


def build():
    """Configures (once) and builds the benchmark; False on failure."""
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", BUILD, "--target", "stagebench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.call(cmd, stdout=sys.stderr, stderr=sys.stderr) != 0:
            sys.stderr.write("stagebench: build step failed: %s\n"
                             % " ".join(cmd))
            return False
    return True


def main():
    if not build():
        return 1
    binary = os.path.join(BUILD, "stagebench")
    sys.stdout.flush()
    return subprocess.call([binary] + sys.argv[1:], cwd=ROOT)


if __name__ == "__main__":
    sys.exit(main())
