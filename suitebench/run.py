#!/usr/bin/env python3
"""Build and run the real-suite benchmark.

    python3 suitebench/run.py --workload figure-sweep|diag-suite|serve-mix \
        --seed N --seconds S --trace 0|1
    python3 suitebench/run.py --selftest

Run from the repository root. The first call configures and builds
suitebench/ (and the simulator libraries it links) in Release mode under
.bench_build/suitebench; later calls rebuild only what changed. Build
output goes to stderr, so the benchmark's last stdout line stays its JSON
result. Exits non-zero without a result when the simulator sources are
missing or the build fails.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "suitebench")
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print(f"suitebench: {msg}", file=sys.stderr)
    sys.exit(code)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no simulator sources under {os.path.join(ROOT, 'src')}")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs, "--target",
                  "suitebench", "suitebench_selftest"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd), 1)


def main(argv):
    selftest = argv == ["--selftest"]
    if not selftest and "--workload" not in argv:
        fail("usage: run.py --workload NAME --seed N --seconds S --trace 0|1"
             " | --selftest")
    build()
    exe = os.path.join(BUILD, "suitebench_selftest" if selftest else "suitebench")
    cmd = [exe] if selftest else [exe] + argv
    try:
        return subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        fail(f"timed out after {RUN_TIMEOUT_S} s", 1)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
