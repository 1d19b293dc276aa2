#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload serve --seed 1 --seconds 10 --trace 0

The arguments go to perfbench.exe unchanged (see perfbench/README.md).
The build uses dune from PATH (or through `opam exec` when dune is not
on PATH) with its shared cache off, so it writes only under _build/ in
the checkout.  The exit code is the build's when the build fails and
the benchmark's otherwise; the benchmark's JSON result is the last line
of standard output.
"""

import os
import shutil
import subprocess
import sys

TARGET = "perfbench/perfbench.exe"
BUILD_TIMEOUT_S = 880
RUN_TIMEOUT_S = 175


def dune():
    if shutil.which("dune"):
        return ["dune"]
    if shutil.which("opam"):
        return ["opam", "exec", "--", "dune"]
    sys.exit("perfbench: dune not found")


def main():
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        build = subprocess.run(
            dune() + ["build", "--root", ".", "--display", "quiet", TARGET],
            stdout=sys.stderr, env=env, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: build timed out")
    if build.returncode != 0:
        sys.exit(build.returncode)
    exe = os.path.join("_build", "default", TARGET)
    try:
        run = subprocess.run([exe] + sys.argv[1:], env=env,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run timed out")
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
