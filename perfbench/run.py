#!/usr/bin/env python3
"""Build qirkit and the perfbench harness from source, then run one workload.

    python3 perfbench/run.py --workload run-sample --seed 1 --seconds 10 --trace 0

Run from the root of a qirkit source tree. The build goes to
$CARGO_TARGET_DIR (default .bench_build)/perfbench; the first run configures
and compiles, later runs only re-check it. The harness prints its result as
the last line of stdout; build output and diagnostics go to stderr.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("run-sample", "run-feedback", "serve-mixed", "toolchain")
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, base, "perfbench")


def build(out):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no qirkit sources next to perfbench/ (%s/src)" % ROOT)
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    jobs = str(min(os.cpu_count() or 1, 4))
    subprocess.run(["cmake", "--build", out, "-j", jobs, "--target", "perfbench", "qirkit"],
                   stdout=sys.stderr, check=True)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    out = build_dir()
    try:
        build(out)
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit("perfbench: build failed: %s" % e)
    workdir = os.path.relpath(os.path.join(out, "run"), ROOT)
    cmd = [os.path.join(out, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--qirkit", os.path.join(out, "qirkit", "tools", "qirkit"),
           "--workdir", workdir]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: harness exceeded %d s" % RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit("perfbench: harness exited %d" % proc.returncode)
    result = json.loads(lines[-1])
    print(json.dumps(result))


if __name__ == "__main__":
    main()
