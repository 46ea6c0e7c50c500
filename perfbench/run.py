#!/usr/bin/env python3
"""End-to-end benchmark of the MPIWasm engine and simulated-MPI embedder.

Run from the repository root:

    python3 perfbench/run.py --workload hpcg-compute --seed 1 --seconds 20 --trace 0

Builds perfbench/ (a CMake package that compiles the library from src/)
into .bench_build/perfbench on first use, then runs one workload in the
mwbench binary. With --trace 0 it prints the end-to-end metrics; with
--trace 1 the per-layer metrics of a separate traced run, plus a Chrome
trace-event JSON file under .bench_build/work/. The last line of stdout is
one JSON object: {"correct", "attempted", "failed", "metrics"}.

The run refuses to measure (exit code 3, no result) when any MPIWASM_*
variable is set, because those knobs change the library underneath it.
"""
import argparse
import json
import os
import signal
import subprocess
import sys

WORKLOADS = ("hpcg-compute", "jacobi-allreduce", "is-tiered", "cg-threads")
BUILD_DIR = os.path.join(".bench_build", "perfbench")
WORK_DIR = os.path.join(".bench_build", "work")
CHILD_TIMEOUT_S = 170


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def run_quiet(cmd):
    """Runs a build step with its output on stderr; stdout stays clean."""
    proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if proc.returncode != 0:
        fail(f"build step failed ({proc.returncode}): {' '.join(cmd)}", 1)


def build():
    if not os.path.isfile(os.path.join("src", "embedder", "embedder.h")):
        fail("run from the repository root: src/ (the library) is missing")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        run_quiet(["cmake", "-S", "perfbench", "-B", BUILD_DIR,
                   "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_quiet(["cmake", "--build", BUILD_DIR, "--target", "mwbench",
               "-j", jobs])
    return os.path.join(BUILD_DIR, "mwbench")


def check_result_line(line):
    result = json.loads(line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError(f"unexpected result keys {sorted(result)}")
    for name, m in result["metrics"].items():
        if set(m) != {"value", "unit"}:
            raise ValueError(f"metric {name} lacks value/unit")
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    knobs = sorted(k for k in os.environ if k.startswith("MPIWASM_"))
    if knobs:
        fail("refusing to measure with MPIWASM_* set: " + ", ".join(knobs), 3)

    binary = build()
    os.makedirs(WORK_DIR, exist_ok=True)
    tmp = os.path.join(".bench_build", "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=os.path.abspath(tmp))
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", WORK_DIR]
    # SIGTERM unwinds through the finally below, so the child never
    # outlives this process.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, text=True)
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {CHILD_TIMEOUT_S} s", 1)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    if proc.returncode != 0:
        sys.stdout.write(out)  # mwbench prints no result line on failure
        fail(f"mwbench exited with {proc.returncode}", 1)
    lines = out.rstrip("\n").split("\n")
    try:
        check_result_line(lines[-1])
    except (ValueError, json.JSONDecodeError) as e:
        fail(f"malformed result line: {e}", 1)
    sys.stdout.write("\n".join(lines) + "\n")
    sys.stdout.flush()


if __name__ == "__main__":
    main()
