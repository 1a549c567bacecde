#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Run from the repository root. Builds the ALE library and the benchmark
binary from source into .bench_build/perfbench (incrementally), then runs
one workload. Build output goes to stderr; the binary's report goes to
stdout, whose last line is the JSON result. Traced runs also write a Chrome
trace-event file, .bench_build/traces/<workload>.json. The exit status is the
binary's: 0 when every output check passed. --self-test builds and runs the
tests of the benchmark's measuring helpers instead.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = os.path.join(".bench_build", "perfbench")
WORKLOADS = ("hashmap-read-mostly", "hashmap-write-heavy", "kv-service")
# A run's worst case: five set-ups at their convergence bound (15 s for
# the service, 10 s for the map), the measured seconds (a traced run adds
# the open loop and the cost ladder) and the output sweep.
SETUP_BOUND_S = 5 * 15
BUILD_TIMEOUT_S = 840


def run_timeout(seconds):
    """Seconds after which a run of `seconds` is killed as hung."""
    return SETUP_BOUND_S + 2 * seconds + 20


def build():
    """Configure and build (both incremental); returns False on failure."""
    steps = [["cmake", "-S", HERE, "-B", BUILD,
              "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
             ["cmake", "--build", BUILD, "-j", "4"]]
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S, check=False)
        except (OSError, subprocess.TimeoutExpired) as e:
            print(f"perfbench: build step failed: {e}", file=sys.stderr)
            return False
        if done.returncode != 0:
            print(f"perfbench: build step failed: {' '.join(cmd)}",
                  file=sys.stderr)
            return False
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if not args.self_test and args.workload is None:
        ap.error("--workload is required")

    if not build():
        return 1
    if args.self_test:
        test = os.path.join(BUILD, "perfbench_test")
        if not os.path.exists(test):
            print("perfbench: GoogleTest not found; tests not built",
                  file=sys.stderr)
            return 1
        return subprocess.run([test], check=False).returncode

    cmd = [os.path.join(BUILD, "ale_perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(".bench_build", "traces")
        os.makedirs(traces, exist_ok=True)
        # One file per workload, overwritten by each traced run.
        cmd += ["--trace-out", os.path.join(traces, f"{args.workload}.json")]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, timeout=run_timeout(args.seconds),
                              check=False).returncode
    except subprocess.TimeoutExpired:
        # subprocess.run kills and reaps the child before raising.
        print("perfbench: run timed out", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
