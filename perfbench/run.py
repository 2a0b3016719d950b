#!/usr/bin/env python3
"""Builds and runs the repository's end-to-end benchmark (see perfbench/README.md).

Run from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The script configures and builds perfbench/ (which compiles the emulator sources under
src/) into $CARGO_TARGET_DIR, or .bench_build when that is unset, then runs one
measurement. The last line of standard output is the JSON result. Build output goes to
standard error. The script exits non-zero, printing no result, when the build or the
measurement fails.
"""

import argparse
import os
import subprocess
import sys

BINARY = "imax_perfbench"
RUN_TIMEOUT_S = 170  # one measurement; the build is not bounded here


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build(source_dir, build_dir):
    """Configures (once) and builds the benchmark. Returns the binary path or None."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", source_dir, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", BINARY, "-j", jobs])
    for step in steps:
        result = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if result.returncode != 0:
            log(f"build step failed ({result.returncode}): {' '.join(step)}")
            return None
    binary = os.path.join(build_dir, BINARY)
    return binary if os.path.exists(binary) else None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    source_dir = os.path.join(root, "perfbench")
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    binary = build(source_dir, build_dir)
    if binary is None:
        return 1

    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace == 1:
        spans_dir = os.path.join(build_dir, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        command += ["--spans-out",
                    os.path.join(spans_dir, f"{args.workload}-seed{args.seed}.jsonl")]
    sys.stdout.flush()
    try:
        # The child's standard output is ours, so its JSON line is our last line.
        result = subprocess.run(command, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"measurement exceeded {RUN_TIMEOUT_S} s and was stopped")
        return 1
    return result.returncode


if __name__ == "__main__":
    sys.exit(main())
