#!/usr/bin/env python3
"""Whole-system benchmark of dcvalidate: builds the benchmark from source
and runs one workload.

    python3 perfbench/run.py --workload fabric-cold --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

Run it from the repository root. The build lives in .bench_build/perfbench
and the run's reports and traces in .bench_build/perfbench-out. The last
line of standard output is the run's result as one JSON object; build logs
and human-readable tables go to standard error. See perfbench/README.md.
"""

import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ("fabric-cold", "monitor-churn", "gate-mix", "fleet-warm")
BUILD_DIR = os.path.join(".bench_build", "perfbench")
OUT_DIR = os.path.join(".bench_build", "perfbench-out")
BENCH_BIN = os.path.join(BUILD_DIR, "perfbench", "dcv_perfbench")
WORKER_BIN = os.path.join(BUILD_DIR, "tools", "dcv_worker")
# A run measures for --seconds and must exit within 180 s.
RUN_TIMEOUT_S = 170


def fail(message, code=1):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build():
    """Configures the repository's CMake project with the benchmark target
    injected (see perfbench/perfbench.cmake) and builds what a run needs."""
    if not (os.path.isfile("CMakeLists.txt") and os.path.isdir("src")):
        fail("run from the repository root: no CMakeLists.txt and src/ here",
             code=2)
    hook = os.path.abspath(os.path.join(os.path.dirname(__file__),
                                        "perfbench.cmake"))
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", ".", "-B", BUILD_DIR,
             "-DCMAKE_BUILD_TYPE=Release",
             "-DCMAKE_PROJECT_dcvalidate_INCLUDE=" + hook],
            check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(
        ["cmake", "--build", BUILD_DIR, "--target", "dcv_perfbench",
         "dcv_worker", "-j", jobs],
        check=True, stdout=sys.stderr)


def report_lists_planted(out_dir, drop_one=False):
    """fabric-cold: the JSON report written by the program parses and lists
    exactly the planted (device, prefix) violations. `drop_one` removes one
    planted entry from the expectation (a known-wrong answer)."""
    with open(os.path.join(out_dir, "fabric-cold-report.json")) as f:
        report = json.load(f)
    with open(os.path.join(out_dir, "fabric-cold-expected.json")) as f:
        expected = sorted(tuple(pair) for pair in json.load(f))
    if drop_one:
        expected = expected[1:]
    listed = sorted((v["device"], v["prefix"]) for v in report["violations"])
    return (listed == expected and
            report["violation_count"] == len(report["violations"]))


def run_binary(args):
    try:
        done = subprocess.run([BENCH_BIN] + args, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    lines = done.stdout.strip().splitlines()
    if not lines:
        fail("benchmark printed no result (exit %d)" % done.returncode)
    return done.returncode, json.loads(lines[-1])


def self_test(seed):
    """Feeds every correctness check a known-wrong answer and confirms each
    one rejects it."""
    ok = True
    for workload in WORKLOADS:
        code, result = run_binary(
            ["--workload", workload, "--seed", str(seed), "--seconds", "2",
             "--trace", "0", "--self-test", "--out-dir", OUT_DIR,
             "--worker-bin", WORKER_BIN])
        ok = ok and code == 0 and result.get("self_test") is True
        if workload == "fabric-cold":
            rejected = not report_lists_planted(OUT_DIR, drop_one=True)
            print("  self-test fabric-cold: JSON report lists the planted "
                  "violations %s" % ("rejected the wrong answer" if rejected
                                     else "ACCEPTED THE WRONG ANSWER"),
                  file=sys.stderr)
            ok = ok and rejected and report_lists_planted(OUT_DIR)
    print(json.dumps({"self_test": ok}))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as error:
        fail("build failed: %s" % error)
    os.makedirs(OUT_DIR, exist_ok=True)
    if args.self_test:
        return self_test(args.seed)

    code, result = run_binary(
        ["--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--out-dir", OUT_DIR, "--worker-bin", WORKER_BIN])
    if args.workload == "fabric-cold" and not report_lists_planted(OUT_DIR):
        print("perfbench: CHECK FAILED: fabric-cold JSON report does not list "
              "exactly the planted violations", file=sys.stderr)
        result["correct"] = False
    print(json.dumps(result))
    return 0 if code == 0 and result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
