#!/usr/bin/env python3
"""Smoke self-check of the benchmark. Run from the repository root:

    python3 perfbench/selfcheck.py [--seconds 1] [--workload NAME ...]

For every workload in BENCHMARK.json it runs perfbench/run.py untraced and
traced for a short time and asserts that:
  * every end-to-end / per-layer metric BENCHMARK.json names is emitted,
    with its unit, and nothing else is;
  * every launch was verified (correct, no failures, one passed check per
    launch and per native twin);
  * the per-layer split adds up: embedder.startup_ms + runtime.guest_ms +
    embedder.mpi_ms + embedder.teardown_ms is within 5% of the traced run
    (bench.traced_run_ms), and the per-launch coverage is within 5% too;
  * each workload stresses its intended layer (guest share on
    hpcg-compute, MPI share on jacobi-allreduce, functions still interpreted
    on is-tiered, two spawned threads on cg-threads);
  * the Chrome trace-event file parses and holds host-call spans;
  * a run with an MPIWASM_* variable set is refused without a result.
Exits 0 when every check passes.
"""
import argparse
import json
import math
import os
import subprocess
import sys

RUN = [sys.executable, os.path.join("perfbench", "run.py")]
failures = []


def check(cond, msg):
    if not cond:
        failures.append(msg)
        print(f"  FAIL {msg}")


def run(workload, seconds, trace, env=None):
    proc = subprocess.run(
        RUN + ["--workload", workload, "--seed", "7", "--seconds",
               str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, env=env, timeout=300)
    return proc


def details(stdout):
    out = {}
    for line in stdout.splitlines():
        if line.startswith("# detail "):
            out = json.loads(line[len("# detail "):])
    return out


def check_metrics(tag, result, spec):
    got = result["metrics"]
    names = [m["name"] for m in spec]
    check(sorted(got) == sorted(names),
          f"{tag}: metric names differ: missing "
          f"{sorted(set(names) - set(got))}, extra {sorted(set(got) - set(names))}")
    for m in spec:
        if m["name"] not in got:
            continue
        v = got[m["name"]]
        check(v["unit"] == m["unit"],
              f"{tag}: {m['name']} unit {v['unit']} != {m['unit']}")
        check(isinstance(v["value"], (int, float)) and
              math.isfinite(v["value"]), f"{tag}: {m['name']} not finite")


def check_workload(name, bench, seconds):
    print(f"{name}:")
    proc = run(name, seconds, 0)
    check(proc.returncode == 0, f"{name} untraced exited {proc.returncode}: "
          f"{proc.stderr[-500:]}")
    if proc.returncode == 0:
        r = json.loads(proc.stdout.splitlines()[-1])
        check(r["correct"] and r["failed"] == 0 and r["attempted"] >= 1,
              f"{name}: untraced run not correct: {r['attempted']} attempted, "
              f"{r['failed']} failed")
        check_metrics(f"{name} untraced", r, bench["end_to_end"])
        for m in bench["end_to_end"]:
            v = r["metrics"].get(m["name"], {}).get("value", 0)
            check(v > 0, f"{name}: end-to-end {m['name']} is {v}, not > 0")
        d = details(proc.stdout)
        check(d.get("checks_passed") == 2 * r["attempted"],
              f"{name}: {d.get('checks_passed')} checks passed for "
              f"{r['attempted']} reps (want one per launch + native twin)")

    proc = run(name, seconds, 1)
    check(proc.returncode == 0, f"{name} traced exited {proc.returncode}: "
          f"{proc.stderr[-500:]}")
    if proc.returncode != 0:
        return
    r = json.loads(proc.stdout.splitlines()[-1])
    check(r["correct"] and r["failed"] == 0,
          f"{name}: traced run not correct")
    check_metrics(f"{name} traced", r, bench["per_layer"])
    m = {k: v["value"] for k, v in r["metrics"].items()}
    d = details(proc.stdout)
    check(d.get("checks_passed") == r["attempted"],
          f"{name}: {d.get('checks_passed')} of {r['attempted']} traced-run "
          "launches verified")
    cov = m.get("bench.ledger_coverage", 0)
    check(abs(cov - 1) <= 0.05, f"{name}: ledger coverage {cov:.4f}")
    if m.get("embedder.mpi_calls", 0) > 0:
        parts = (m["embedder.startup_ms"] + m["runtime.guest_ms"] +
                 m["embedder.mpi_ms"] + m["embedder.teardown_ms"])
        total = m["bench.traced_run_ms"]
        check(abs(parts - total) <= 0.05 * total,
              f"{name}: startup+guest+mpi+teardown {parts:.3f} ms vs traced "
              f"run {total:.3f} ms")
    expect = {
        "hpcg-compute": ("runtime.guest_share", lambda v: v >= 0.8),
        "jacobi-allreduce": ("embedder.mpi_share", lambda v: v >= 0.5),
        "is-tiered": ("runtime.funcs_interp_at_exit", lambda v: v > 0),
        "cg-threads": ("threads.spawned", lambda v: v == 2),
    }.get(name)
    if expect:
        key, ok = expect
        check(ok(m.get(key, float("nan"))), f"{name}: {key} = {m.get(key)}")
    path = d.get("trace_file", "")
    try:
        with open(path) as f:
            events = json.load(f)["traceEvents"]
        host = [e for e in events if e.get("cat") == "host"]
        check(len(host) > 0, f"{name}: no host-call spans in {path}")
        check(all(e["ph"] == "X" and e["dur"] >= 0 for e in events),
              f"{name}: malformed events in {path}")
    except (OSError, ValueError, KeyError) as e:
        check(False, f"{name}: trace file {path!r} unreadable: {e}")
    print(f"  guest_share {m.get('runtime.guest_share', 0):.3f}, "
          f"mpi_share {m.get('embedder.mpi_share', 0):.3f}, coverage {cov:.4f}")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seconds", type=float, default=1)
    ap.add_argument("--workload", action="append")
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    names = args.workload or [w["name"] for w in bench["workloads"]]
    for name in names:
        check_workload(name, bench, args.seconds)

    env = dict(os.environ, MPIWASM_JIT="0")
    proc = run(names[0], args.seconds, 0, env=env)
    last = proc.stdout.strip().splitlines()[-1:] or [""]
    check(proc.returncode != 0 and not last[0].startswith("{"),
          "a run with MPIWASM_JIT set was not refused")

    print("selfcheck:", "FAILED" if failures else "passed",
          f"({len(failures)} failure(s))" if failures else "")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
