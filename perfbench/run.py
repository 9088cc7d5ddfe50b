#!/usr/bin/env python3
"""Repository benchmark: builds perfbench from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Run it from anywhere inside a checkout. It builds into $CARGO_TARGET_DIR
(default .bench_build at the checkout root), runs the workload with every
MBS_* variable cleared and its stores in a fresh directory under the build
directory, removes that directory, and passes the benchmark's output
through. The last stdout line is the result JSON; the exit code is 0 only
when every output check passed. See perfbench/README.md for the workloads
and metrics.
"""

import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("cold_sweep", "hw_sweep", "serve", "train")
# Seed reserved for checking a later performance claim on inputs that were
# not used while the change was written.
HELD_OUT_SEED = 9001
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build(build_dir, env):
    os.makedirs(build_dir, exist_ok=True)
    with open(os.path.join(build_dir, "perfbench.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(build_dir, "Makefile")):
            steps.append(["cmake", "-S", HERE, "-B", build_dir,
                          "-DCMAKE_BUILD_TYPE=Release"])
        jobs = str(min(4, os.cpu_count() or 1))
        steps.append(["cmake", "--build", build_dir, "--target", "perfbench",
                      "perfbench_selftest", "-j", jobs])
        for cmd in steps:
            if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode:
                fail("build failed: " + " ".join(cmd))


def declared_metrics(trace):
    """Metric names BENCHMARK.json declares for this mode, or None."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="build and run the harness self-tests")
    args = ap.parse_args()
    if not args.selftest and not args.workload:
        ap.error("--workload is required")
    if not os.path.exists(os.path.join(ROOT, "CMakeLists.txt")):
        fail("the library sources are missing: run from a full checkout")

    env = {k: v for k, v in os.environ.items() if not k.startswith("MBS_")}
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build(build_dir, env)

    if args.selftest:
        sys.exit(subprocess.run([os.path.join(build_dir, "perfbench_selftest")],
                                env=env).returncode)

    tmp_root = os.path.join(build_dir, "tmp")
    os.makedirs(tmp_root, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="run-", dir=tmp_root)
    cmd = [os.path.join(build_dir, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--tmp-dir", tmp,
           "--data-dir", os.path.join(HERE, "expected")]
    if args.trace:
        traces = os.path.join(build_dir, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(traces, "%s-seed%d.json" % (args.workload, args.seed))]
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("timed out after %d s" % RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    lines = proc.stdout.splitlines()
    if not lines:
        fail("no output (exit code %d)" % proc.returncode)
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        print(lines[-1])
        fail("last line is not a result (exit code %d)" % proc.returncode)
    expected = declared_metrics(args.trace)
    if expected is not None and set(result["metrics"]) != expected:
        fail("metrics differ from BENCHMARK.json: %s" %
             sorted(set(result["metrics"]) ^ expected))
    print(lines[-1])
    sys.stdout.flush()
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
