"""The ardom benchmark.  Run from the root of a checkout:

    python3 perfbench/run.py --workload corpus-verify --seed 1 --seconds 20 --trace 0

Workloads: corpus-verify, corpus-verify-j2, nakayama-scan, linear-an; the
first three are the ones ``BENCHMARK.json`` gates (see README.md).  With
``--trace 0`` the last stdout line holds the end-to-end metrics, with
``--trace 1`` the per-layer metrics of an outside-in traced pass.  The line
before it is a report: output digest, sample counts and percentiles.

This script imports no ardom code.  It starts each workload in a fresh
``perfbench/workloads.py`` process with numerical libraries pinned to one
thread.  Set-up time is the wall time from starting such a process to its
``ready`` line, as the median over several set-up-only processes.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "workloads.py")
WORKLOADS = ("corpus-verify", "corpus-verify-j2", "nakayama-scan", "linear-an")
END_TO_END = ("pass_s", "op_p50_s", "op_tail_s", "peak_rss_mb", "ok_ratio", "setup_s")
SETUP_PROBES = 9
DEADLINE_S = 170
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


class BenchError(RuntimeError):
    pass


def _env():
    env = dict(os.environ)
    src = os.path.abspath("src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def _start(cmd, env):
    """Start a workload process; return it and the seconds until ``ready``."""
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    ready = time.perf_counter() - start
    if line.strip() != "ready":
        proc.kill()
        proc.wait()
        raise BenchError(f"workload process did not get ready (exit {proc.returncode})")
    return proc, ready


def _finish(proc, deadline):
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError("workload process ran past the deadline") from None
    if proc.returncode != 0:
        raise BenchError(f"workload process exited with {proc.returncode}")
    return out


def run(workload, seed, seconds, trace):
    deadline = time.monotonic() + DEADLINE_S
    env = _env()
    cmd = [sys.executable, WORKER, "--workload", workload, "--seed", str(seed)]
    setup = []
    if not trace:
        # The first process warms the file cache and writes bytecode where
        # that is enabled; it is not timed.
        _finish(_start(cmd + ["--setup-only"], env)[0], deadline)
        for _ in range(SETUP_PROBES):
            proc, ready = _start(cmd + ["--setup-only"], env)
            _finish(proc, deadline)
            setup.append(ready)
    proc, _ = _start(cmd + ["--seconds", str(seconds), "--trace", str(int(trace))], env)
    lines = _finish(proc, deadline).splitlines()
    if len(lines) < 2:
        raise BenchError("workload process printed no result")
    report, result = json.loads(lines[-2]), json.loads(lines[-1])
    if not trace:
        report["setup_s_samples"] = setup
        result["metrics"]["setup_s"] = {"value": statistics.median(setup), "unit": "s"}
        result["metrics"] = {name: result["metrics"][name] for name in END_TO_END}
    return report, result


def main(argv=None):
    parser = argparse.ArgumentParser(description="The ardom benchmark.")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (os.path.isfile("src/ardom/__init__.py") and os.path.isfile("corpus/manifest.json")):
        print("error: run from the root of an ardom checkout (needs src/ardom and corpus/)",
              file=sys.stderr)
        return 2
    try:
        report, result = run(args.workload, args.seed, args.seconds, args.trace)
    except (BenchError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(report, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
