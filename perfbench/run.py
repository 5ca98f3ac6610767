#!/usr/bin/env python3
"""Build the benchmark and the serving daemon from source, then run one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload period-lp --seed 1 --seconds 50 --trace 0

All arguments go to the benchmark executable (perfbench/main.ml). Build
output goes to standard error, so the last line of standard output is the
benchmark's JSON result. A failed build exits non-zero without a result.
"""

import os
import shutil
import subprocess
import sys

TARGETS = ["perfbench/main.exe", "bin/postcard_serve.exe"]


def commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    # No shared dune cache: the build reads and writes only this checkout.
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(["dune", "build", "--root", "."] + TARGETS,
                           stdout=sys.stderr, env=env, timeout=900)
    if build.returncode != 0:
        sys.exit("perfbench: build failed")
    exe = os.path.join("_build", "default", "perfbench", "main.exe")
    serve = os.path.join("_build", "default", "bin", "postcard_serve.exe")
    args = [exe, "--serve-exe", serve]
    # Measure on the highest-numbered CPU, away from the interrupts that
    # land on CPU 0. The serving daemon takes that CPU and its load
    # generator another one, so client and daemon never compete.
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) > 1 and shutil.which("taskset"):
        args += ["--serve-cpu", str(cpus[-1])]
        os.sched_setaffinity(0, {cpus[0]} if "serve-open" in sys.argv else {cpus[-1]})
    print("env commit=%s host_cores=%d measured_on_cpu=%d"
          % (commit(), os.cpu_count(), cpus[-1]), flush=True)
    run = subprocess.run(args + sys.argv[1:], timeout=175)
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
