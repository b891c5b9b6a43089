#!/usr/bin/env python3
"""Build the simulator benchmark from source and run one workload.

Usage (from the repository root):

    python3 simbench/run.py --workload bv_sensitive --seed 0 \
        --seconds 30 --trace 0

The first run configures and builds into .bench_build/simbench (the
repository's own CMake project plus this directory's simbench program);
later runs only re-check the build. Build output goes to stderr.
Standard output carries the simbench fingerprint line and, last, its
JSON result line.
Exits non-zero without a result line if the build or the run fails.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "simbench")
BINARY = os.path.join(BUILD_DIR, "simbench")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(message):
    print(f"simbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configure once, then bring simbench and libbvc up to date."""
    for needed in ("CMakeLists.txt", "src"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail(f"no {needed} at {ROOT}: not a checkout of the simulator")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "simbench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          cwd=ROOT).returncode != 0:
            fail("build failed: " + " ".join(cmd))


def source_id():
    """Git commit when there is one, else a digest of the sources."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True)
        if out.returncode == 0:
            return "git:" + out.stdout.strip()
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "simbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in files:
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as handle:
                digest.update(handle.read())
    return "sha256:" + digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    build()
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--source", source_id()]
    # The measured loop plus the untimed check campaign and a last
    # campaign that may start just before the budget ends.
    timeout = args.seconds * 2 + 60
    try:
        run = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                             text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {timeout} s")
    lines = run.stdout.splitlines()
    if run.returncode != 0 or not lines:
        fail(f"simbench exited with code {run.returncode}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail("simbench's last line is not JSON")
    if set(result) != RESULT_KEYS:
        fail("simbench's result has the wrong keys")
    print("\n".join(lines), flush=True)


if __name__ == "__main__":
    main()
