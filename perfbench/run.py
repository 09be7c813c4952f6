#!/usr/bin/env python3
"""Builds and runs the reading-to-alert benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload demo --seed 1 --seconds 20 --trace 0

The first run configures and builds perfbench/ (which compiles the library
from src/) into $CARGO_TARGET_DIR or .bench_build; later runs only rebuild
what changed. The program runs with address-space layout randomisation off
where setarch allows it, so that heap and stack placement, which moves
microsecond-scale timings from one process to the next, is the same in
every run. Build output goes to stderr; the benchmark's last stdout line is
its JSON result. Exits non-zero, printing no result, when the build or the
run fails.
"""

import os
import platform
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build(build_dir):
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "-j", str(min(4, os.cpu_count() or 1))],
    ]
    if os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps = steps[1:]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return False
    return True


def fixed_layout_prefix():
    """The setarch prefix that turns layout randomisation off, or [] if unavailable."""
    if shutil.which("setarch") is None:
        return []
    prefix = ["setarch", platform.machine(), "-R"]
    probe = subprocess.run(prefix + ["true"], stdout=subprocess.DEVNULL,
                           stderr=subprocess.DEVNULL)
    return prefix if probe.returncode == 0 else []


def main():
    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")
    if not os.path.exists(os.path.join(ROOT, "src", "system", "sase_system.cc")):
        print("perfbench: SASE sources (src/) not found", file=sys.stderr)
        return 1
    if not build(build_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    try:
        run = subprocess.run(fixed_layout_prefix() +
                             [os.path.join(build_dir, "perfbench")] + sys.argv[1:],
                             stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    if run.returncode != 0:
        return run.returncode
    sys.stdout.write(run.stdout.decode())
    return 0


if __name__ == "__main__":
    sys.exit(main())
