#!/usr/bin/env python3
"""Runs one workload of the layered end-to-end benchmark.

    python3 e2ebench/run.py --workload fanin --seed 1 --seconds 10 --trace 0

Run from the repository root. The first run configures and builds pcx,
pcx_serve and the benchmark (Release) into .bench_build/; later runs
only rebuild what changed. The benchmark prints one metric per line and
a JSON result as the last stdout line; build output goes to stderr.
See e2ebench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("fanin", "overlap", "mutate")
# A run measures for --seconds (at most 60) plus about 30 s of set-up;
# past this it is stuck.
RUN_TIMEOUT_S = 170


def fail(message):
    print("e2ebench: " + message, file=sys.stderr)
    sys.exit(1)


def stop_group(pgid):
    """Kills whatever is left of a run's process group and waits up to
    10 s until nothing is."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def build(build_dir):
    cmake_dir = os.path.join(build_dir, "cmake")
    if not os.path.isfile(os.path.join(cmake_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", cmake_dir, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, check=True)
    subprocess.run(
        ["cmake", "--build", cmake_dir, "--target", "e2e_bench",
         "-j", str(os.cpu_count() or 2)],
        stdout=sys.stderr, check=True)
    return os.path.join(cmake_dir, "e2e_bench")


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no pcx sources beside the benchmark (%s/src); run it from "
             "a full checkout" % ROOT)

    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        fail("build failed: %s" % e)

    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--out-dir", os.path.join(build_dir, "work")]
    proc = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        stop_group(proc.pid)
        proc.wait()
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    stop_group(proc.pid)
    lines = out.rstrip("\n").split("\n")
    if proc.returncode != 0:
        print("\n".join(lines), file=sys.stderr)
        fail("benchmark exited with %d" % proc.returncode)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        print("\n".join(lines), file=sys.stderr)
        fail("the last output line is not a JSON result")
    want = declared_metrics(args.trace)
    if sorted(result["metrics"]) != sorted(want):
        print("\n".join(lines), file=sys.stderr)
        fail("metrics differ from BENCHMARK.json: %s"
             % sorted(set(want) ^ set(result["metrics"])))
    print("\n".join(lines))


if __name__ == "__main__":
    main()
