#!/usr/bin/env python3
"""The repository benchmark: builds perfbench and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload tune_ensemble|crowd_query \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test     # tests of the benchmark's helpers

The first call configures and builds the library sources under src/ and the
benchmark into .bench_build/ (or $CARGO_TARGET_DIR when it names a directory
inside the checkout); later calls rebuild only what changed. Everything the
run writes stays under that directory. The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}, with the
end-to-end metrics of BENCHMARK.json (--trace 0) or its per-layer metrics
(--trace 1). Any failed build, correctness gate or metric-set mismatch exits
nonzero without printing that line.
"""
import argparse
import fcntl
import json
import os
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
RUN_TIMEOUT_S = 170


def fail(message, code=1):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build_dir():
    wanted = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    path = os.path.realpath(os.path.join(ROOT, wanted))
    if not path.startswith(os.path.realpath(ROOT) + os.sep):
        path = os.path.join(ROOT, ".bench_build")
    return path


def build(out, target):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found next to perfbench/", 2)
    os.makedirs(os.path.join(out, "tmp"), exist_ok=True)
    env = dict(os.environ, TMPDIR=os.path.join(out, "tmp"))
    with open(os.path.join(out, "build.lock"), "w") as lock, \
            open(os.path.join(out, "build.log"), "a") as log:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
            steps.append(["cmake", "-S", BENCH_DIR, "-B", out,
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        steps.append(["cmake", "--build", out, "-j4", "--target", target])
        for cmd in steps:
            if subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT,
                               env=env) != 0:
                fail("build failed; see " + os.path.join(out, "build.log"))
    return env


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    out = build_dir()
    if args.self_test:
        env = build(out, "perfbench_tests")
        sys.exit(subprocess.call([os.path.join(out, "perfbench_tests")],
                                 env=env))
    if None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")

    env = build(out, "perfbench")
    tag = "%s-%d-%d" % (args.workload, args.seed, os.getpid())
    cmd = [os.path.join(out, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds),
           "--trace", str(args.trace),
           "--workdir", os.path.join(out, "work", tag)]
    if args.trace:
        os.makedirs(os.path.join(out, "traces"), exist_ok=True)
        cmd += ["--spans", os.path.join(out, "traces", tag + ".jsonl")]
    started = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, text=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    lines = stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        print("\n".join(lines), file=sys.stderr)
        fail("benchmark exited with code %d" % proc.returncode)
    result = json.loads(lines[-1])
    names = set(result["metrics"])
    want = expected_metrics(args.trace)
    if names != want:
        print("\n".join(lines[:-1]), file=sys.stderr)
        fail("metric set differs from BENCHMARK.json: missing %s, extra %s"
             % (sorted(want - names), sorted(names - want)))
    print("\n".join(lines[:-1]))
    print("wall %.1f s" % (time.monotonic() - started))
    print(lines[-1])


if __name__ == "__main__":
    main()
