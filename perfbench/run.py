#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/ (which compiles ../src) into the build directory named by
CARGO_TARGET_DIR, or .bench_build when unset, then runs the castbench
driver. Build output goes to stderr. The driver's report and, as the last
line of stdout, its result JSON are passed through. Exits non-zero, without
a result line, when the sources are missing, the build fails or the run
fails.
"""

import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ("fb100_cli", "amend_stream", "workflow_deadline", "template_replay")
RUN_TIMEOUT_S = 175


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    return parser.parse_args()


def build(root, build_dir):
    """Configure (once) and build the driver; returns the binary path."""
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        fail("the repository sources (src/) are missing next to perfbench/")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", os.path.join(root, "perfbench"), "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, stderr=sys.stderr, check=True)
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", "castbench", "-j", str(os.cpu_count() or 1)],
        stdout=sys.stderr, stderr=sys.stderr, check=True)
    return os.path.join(build_dir, "castbench")


def main():
    args = parse_args()
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target = os.path.join(root, target) if not os.path.isabs(target) else target
    build_dir = os.path.join(target, "perfbench")
    out_dir = os.path.join(target, "perfbench-out")
    try:
        binary = build(root, build_dir)
    except (subprocess.CalledProcessError, OSError) as e:
        fail(f"build failed: {e}")
    os.makedirs(out_dir, exist_ok=True)

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace, "--out-dir", out_dir]
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s", 1)
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or not lines:
        sys.stderr.write(run.stdout)
        fail(f"{args.workload} failed (exit {run.returncode})", 1)
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        sys.stderr.write(run.stdout)
        fail("the driver's last line is not a JSON result", 1)
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result, separators=(",", ":")))


if __name__ == "__main__":
    main()
