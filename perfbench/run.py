#!/usr/bin/env python3
"""Gate benchmark: builds perfbench from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Run it from the repository root. The first run configures and builds the
engine and the driver into .bench_build/ (a few minutes); later runs only
check the build. Each run gets its own pool directory under
.bench_build/pools/, removed on every exit path, and a traced run leaves
its spans in .bench_build/traces/.

Prints the run's text report and then, as the last line, the result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}} with
every end_to_end metric of BENCHMARK.json (--trace 0) or every per_layer
metric (--trace 1). A failed check prints the result with "correct": false
and exits 1; a failed build or run exits 1 without a result.
"""

import argparse
import json
import math
import os
import shutil
import signal
import subprocess
import sys
import uuid

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD_DIR, "perfbench")
RUN_TIMEOUT_S = 170


class BenchError(Exception):
    """A failure that ends the run with a one-line reason."""


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        raise BenchError(f"cannot read {path}: {e}")


def build():
    """Configures (once) and builds the perfbench target."""
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_DIR, "build.log")
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "Makefile")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                  "-j", jobs])
    with open(log_path, "a") as log:
        for cmd in steps:
            if subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT,
                               stdin=subprocess.DEVNULL) != 0:
                raise BenchError(f"build failed: {' '.join(cmd)} "
                                 f"(see {os.path.relpath(log_path, ROOT)})")


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "none"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() or "none"
    except (OSError, subprocess.SubprocessError):
        return "none"


def select_result(line, spec, trace):
    """Checks the driver's result line against BENCHMARK.json."""
    try:
        result = json.loads(line)
    except ValueError:
        raise BenchError("the driver printed no result line")
    if not isinstance(result, dict) or set(result) != {
            "correct", "attempted", "failed", "metrics"}:
        raise BenchError("result line has the wrong keys")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or isinstance(result[key], bool):
            raise BenchError(f"{key} is not a whole number")
    if result["attempted"] < 1:
        raise BenchError("no op was attempted")
    if not isinstance(result["correct"], bool):
        raise BenchError("correct is not a boolean")
    expected = spec["per_layer" if trace else "end_to_end"]
    metrics = result["metrics"]
    names = [m["name"] for m in expected]
    if sorted(metrics) != sorted(names):
        extra = sorted(set(metrics) - set(names))
        missing = sorted(set(names) - set(metrics))
        raise BenchError(f"metrics differ from BENCHMARK.json: missing "
                         f"{missing}, unexpected {extra}")
    for m in expected:
        got = metrics[m["name"]]
        if set(got) != {"value", "unit"} or got["unit"] != m["unit"]:
            raise BenchError(f"{m['name']}: unit {got.get('unit')!r}, "
                             f"BENCHMARK.json says {m['unit']!r}")
        value = got["value"]
        if (not isinstance(value, (int, float)) or isinstance(value, bool)
                or not math.isfinite(value)):
            raise BenchError(f"{m['name']}: value {value!r} is not a number")
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {n: metrics[n] for n in names}}


def parse_args(argv, workloads):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")
    return args


def run(argv):
    spec = load_spec()
    args = parse_args(argv, [w["name"] for w in spec["workloads"]])
    build()
    pool_dir = os.path.join(BUILD_DIR, "pools",
                            f"run-{os.getpid()}-{uuid.uuid4().hex[:12]}")
    trace_dir = os.path.join(BUILD_DIR, "traces")
    os.makedirs(pool_dir)
    os.makedirs(trace_dir, exist_ok=True)
    proc = None
    try:
        proc = subprocess.Popen(
            [BINARY, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--pool-dir", pool_dir, "--trace-dir", trace_dir,
             "--git-sha", git_sha()],
            stdout=subprocess.PIPE, stdin=subprocess.DEVNULL, text=True)
        try:
            out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            raise BenchError(f"run exceeded {RUN_TIMEOUT_S} s")
        lines = out.rstrip("\n").splitlines()
        text, last = lines[:-1], lines[-1] if lines else ""
        if text:
            print("\n".join(text))
        if not last.startswith("{"):
            if last:
                print(last)
            raise BenchError(f"driver exited with code {proc.returncode}")
        result = select_result(last, spec, args.trace == 1)
        print(json.dumps(result))
        if proc.returncode != 0 or not result["correct"]:
            return 1
        return 0
    finally:
        if proc is not None and proc.poll() is None:
            proc.kill()
            proc.wait()
        shutil.rmtree(pool_dir, ignore_errors=True)


def main():
    def on_signal(signum, _frame):
        raise SystemExit(128 + signum)

    for sig in (signal.SIGTERM, signal.SIGINT, signal.SIGHUP):
        signal.signal(sig, on_signal)
    try:
        return run(sys.argv[1:])
    except BenchError as e:
        sys.stdout.flush()
        print(f"FAIL: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
