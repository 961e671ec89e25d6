#!/usr/bin/env python3
"""Builds the dqmo benchmark program from source and runs one workload.

Usage (from the repository root):
  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The program, dqbench, is configured and built with CMake into $CARGO_TARGET_DIR
(default .bench_build) on first use; build output goes to stderr. The last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. --trace 0 reports the end-to-end metrics,
--trace 1 the per-layer ones and writes the benchmark's spans to
<build dir>/traces/<workload>-seed<N>.jsonl. Exit status: 0 ok, 1 wrong
output (checksum or durability mismatch), 2 build or usage error, 3 timeout.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("pdq_flyover_mem", "npdq_knn_sharded_disk", "mixed_updates_durable")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build(bdir):
    """Configures (once) and builds dqbench; returns its path or None."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("run.py: the dqmo sources (src/) are not in this checkout")
        return None
    jobs = str(max(1, min(8, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "--target", "dqbench", "-j", jobs])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S, check=False)
        except (OSError, subprocess.TimeoutExpired) as e:
            log(f"run.py: {' '.join(cmd)}: {e}")
            return None
        if done.returncode != 0:
            log(f"run.py: {' '.join(cmd)} exited {done.returncode}")
            return None
    exe = os.path.join(bdir, "dqbench")
    return exe if os.path.isfile(exe) else None


def child_env(trace):
    """The caller's environment minus any DQMO_* knob, so every knob is at
    its default (tracing off); a traced run samples every frame."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("DQMO_")}
    if trace:
        env["DQMO_TRACE_SAMPLE"] = "1"
    return env


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    bdir = build_dir()
    exe = build(bdir)
    if exe is None:
        return 2
    work = os.path.join(bdir, "work", f"{args.workload}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work]
    if args.trace:
        traces = os.path.join(bdir, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--spans-out",
                os.path.join(traces, f"{args.workload}-seed{args.seed}.jsonl")]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                            env=child_env(args.trace), text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        log(f"run.py: {args.workload} did not finish in {RUN_TIMEOUT_S} s")
        return 3
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = [l for l in out.splitlines() if l.strip()]
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    if not isinstance(result, dict) or set(result) != {
            "correct", "attempted", "failed", "metrics"}:
        log(f"run.py: no result line from dqbench (exit {proc.returncode})")
        return 2
    print(json.dumps(result))
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
