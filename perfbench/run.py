#!/usr/bin/env python3
"""Runs one workload of the secpol repository benchmark (perfbench/README.md).

    python3 perfbench/run.py --workload audit_loop --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --selftest

The first run builds perfbench/ and the secpol sources it includes, in Release
mode, into $CARGO_TARGET_DIR (default .bench_build); later runs only check the
build. Build output goes to standard error. The last line of standard output
is the run's JSON result; the lines before it are notes (host diagnostics,
workload composition, sample counts). --trace picks the binary: 0 runs the
timed end-to-end measurement (perfbench), 1 the separate traced per-layer run
(perfbench_trace).
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("audit_loop", "audit_wide", "serve_mix")
DEFAULT_SEED = 1
# BENCHMARK.json's run_seconds; the seconds set the run's work (passes,
# requests), so runs are comparable only at the same value.
DEFAULT_SECONDS = 25
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run_group(cmd, timeout, stdout):
    """Runs cmd in its own process group; kills the whole group on timeout."""
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=stdout, stderr=sys.stderr,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    return proc.returncode, out


def build(build_dir, targets):
    generated = any(os.path.exists(os.path.join(build_dir, name))
                    for name in ("build.ninja", "Makefile"))
    if not generated:
        cmd = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        code, _ = run_group(cmd, BUILD_TIMEOUT_S, sys.stderr)
        if code != 0:
            return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    code, _ = run_group(["cmake", "--build", build_dir, "--target", *targets, "-j", jobs],
                        BUILD_TIMEOUT_S, sys.stderr)
    return code == 0


def valid_result(line):
    try:
        result = json.loads(line)
    except ValueError:
        return False
    return (isinstance(result, dict) and set(result) == RESULT_KEYS
            and isinstance(result["metrics"], dict) and result["attempted"] >= 1)


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: no secpol sources next to perfbench/", file=sys.stderr)
        return 1
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    binary = "perfbench_trace" if args.trace else "perfbench"
    targets = ["perfbench_selftest"] if args.selftest else [binary, "secpol_cli"]
    try:
        if not build(build_dir, targets):
            print("perfbench: build failed", file=sys.stderr)
            return 1
        if args.selftest:
            code, _ = run_group([os.path.join(build_dir, "perfbench_selftest")],
                                RUN_TIMEOUT_S, sys.stderr)
            return code

        work_dir = os.path.join(build_dir, "run")
        os.makedirs(work_dir, exist_ok=True)
        # Relative paths keep the daemon's unix socket path short.
        cmd = [os.path.join(build_dir, binary), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--secpol", os.path.join(build_dir, "secpol_src", "tools", "secpol"),
               "--work-dir", os.path.relpath(work_dir, ROOT)]
        code, out = run_group(cmd, RUN_TIMEOUT_S, subprocess.PIPE)
    except subprocess.TimeoutExpired as timeout:
        print("perfbench: timed out: %s" % " ".join(timeout.cmd), file=sys.stderr)
        return 1
    lines = out.decode().splitlines()
    if code != 0 or not lines or not valid_result(lines[-1]):
        sys.stdout.write("".join(line + "\n" for line in lines[:-1]))
        print("perfbench: run failed (exit %d)" % code, file=sys.stderr)
        return 1
    sys.stdout.write("".join(line + "\n" for line in lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
