#!/usr/bin/env python3
"""Build the benchmark from this checkout and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The engine library is compiled from the
checkout's src/ tree together with the harness in perfbench/src, into
.bench_build/perfbench (the first run builds; later runs only check that
the build is current). Build output goes to standard error; the harness's
standard output, whose last line is the JSON result, passes through
unchanged. JITVS_* variables are removed from the harness's environment,
so no engine or runtime knob of the caller's shell reaches the
measurement. Before the run, `perfbench --pick-cpu` waits (at most 3 s)
for a CPU that is quiet now; the run is pinned to it, so its one cold
set-up starts on a quiet CPU (see src/Quiet.cpp).

Workloads: suites, web-pageload, serve-hot, serve-evict (see README.md).
"""

import argparse
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "perfbench"
WORKLOADS = ("suites", "web-pageload", "serve-hot", "serve-evict")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no engine sources at {ROOT / 'src'}; run from a full checkout")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD), "--parallel", jobs])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(step)}")
    if not BINARY.is_file():
        fail(f"build produced no {BINARY}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    build()
    env = {k: v for k, v in os.environ.items() if not k.startswith("JITVS_")}
    picked = subprocess.run([str(BINARY), "--pick-cpu"],
                            env=env, stdout=subprocess.PIPE,
                            stderr=sys.stderr, text=True)
    if picked.returncode != 0:
        fail("could not pick a CPU to run on")
    os.sched_setaffinity(0, {int(picked.stdout.split()[-1])})
    argv = [str(BINARY), "--workload", args.workload, "--seed",
            str(args.seed), "--seconds", str(args.seconds), "--trace",
            str(args.trace)]
    sys.stdout.flush()
    sys.stderr.flush()
    # The harness replaces this process, so its exit status and output are
    # the benchmark's, and nothing is left running behind it. It keeps the
    # CPU affinity set above.
    os.execve(argv[0], argv, env)


if __name__ == "__main__":
    main()
