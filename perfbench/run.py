#!/usr/bin/env python3
"""Builds the Tasklet middleware's benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

The first form builds (or incrementally rebuilds) the middleware libraries
from ../src together with the benchmark binary in this directory, runs one
workload and prints the binary's result JSON as the last line of stdout.
The build goes to $CARGO_TARGET_DIR/perfbench when that variable is set,
else to .bench_build/perfbench under the repository root.

--self-test runs every workload in the binary's short mode, traced and
untraced, with every correctness check on, and checks each result against
BENCHMARK.json. It exits non-zero on the first problem.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("kernels_sim", "pool_sim", "reliable_sim")
# A run must end well inside the 180 s a caller allows it.
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    return os.path.join(os.path.abspath(base), "perfbench")


def build():
    """Configures once, then builds incrementally; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("middleware sources not found under " + os.path.join(ROOT, "src"))
    if shutil.which("cmake") is None:
        fail("cmake is required to build the benchmark")
    out = build_dir()
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", out]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        run_quietly(configure)
    jobs = str(min(4, os.cpu_count() or 1))
    run_quietly(["cmake", "--build", out, "-j", jobs])
    return os.path.join(out, "perfbench")


def run_quietly(command):
    """Runs a build step, sending its output to stderr."""
    proc = subprocess.run(command, stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout.decode(errors="replace"))
        fail("build step failed: " + " ".join(command))


def run_binary(binary, args):
    """Runs the benchmark binary; returns (exit code, stdout text)."""
    try:
        proc = subprocess.run([binary] + args, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        # subprocess.run kills the child and waits for it before raising.
        fail("benchmark binary timed out after %d s" % RUN_TIMEOUT_S)
    return proc.returncode, proc.stdout.decode(errors="replace")


def last_json(text):
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        return None
    try:
        return json.loads(lines[-1])
    except ValueError:
        return None


def self_test(binary):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {
        "0": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "1": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in WORKLOADS:
        for trace in ("0", "1"):
            args = ["--workload", workload, "--seed", "7", "--seconds", "1",
                    "--trace", trace, "--short"]
            code, out = run_binary(binary, args)
            result = last_json(out)
            label = "%s --trace %s" % (workload, trace)
            if code != 0 or result is None:
                problems.append("%s: exit %d, no result line" % (label, code))
                continue
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append("%s: wrong keys %s" % (label, sorted(result)))
                continue
            if not result["correct"]:
                problems.append("%s: a correctness check failed" % label)
            if result["attempted"] < 1:
                problems.append("%s: nothing attempted" % label)
            # Only the fault probe of reliable_sim may fail operations.
            if result["failed"] and workload != "reliable_sim":
                problems.append("%s: %d operations failed" % (label, result["failed"]))
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != expected[trace]:
                problems.append("%s: metrics differ from BENCHMARK.json: %s" % (
                    label, sorted(set(got.items()) ^ set(expected[trace].items()))))
            print("%-28s ok: attempted %d, failed %d" % (
                label, result["attempted"], result["failed"]))
    for problem in problems:
        print("SELF-TEST FAILED: " + problem, file=sys.stderr)
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")

    binary = build()
    if args.self_test:
        return self_test(binary)

    binary_args = ["--workload", args.workload, "--seed", str(args.seed),
                   "--seconds", repr(args.seconds), "--trace", args.trace]
    code, out = run_binary(binary, binary_args)
    result = last_json(out)
    if code != 0 or result is None:
        sys.stdout.write(out)
        fail("benchmark binary exited %d without a result line" % code)
    sys.stdout.write(out)
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
