#!/usr/bin/env python3
"""Builds the Guardian benchmark from this checkout and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
                             --trace <0|1>

Run from the repository root. The first call configures and compiles
perfbench/ (which compiles ../src) into .bench_build/perfbench in Release
mode; later calls only rebuild what changed. Build output goes to stderr so
that the benchmark's JSON result stays the last line of stdout. The
benchmark process and every manager worker it forks share one process group,
which is killed after the run so no worker outlives it.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "guardian_perfbench")
WORKLOADS = ("launch_storm", "train_step", "infer_colocated")
RUN_TIMEOUT_S = 170


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "guardian", "manager.hpp")):
        sys.exit("perfbench: Guardian sources not found under %s/src" % ROOT)
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr,
                       stdin=subprocess.DEVNULL)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs], check=True,
                   stdout=sys.stderr, stdin=subprocess.DEVNULL)


def run(args):
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    proc = subprocess.Popen(command, cwd=ROOT, stdin=subprocess.DEVNULL,
                            start_new_session=True)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    try:
        build()
    except (subprocess.CalledProcessError, OSError) as err:
        sys.exit("perfbench: build failed: %s" % err)
    sys.exit(run(args))


if __name__ == "__main__":
    main()
