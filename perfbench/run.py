"""Benchmark entry point: one workload, one result line.

    python3 perfbench/run.py --workload train_desk --seed 1 --seconds 20 --trace 0

Run from the repository root. Each set-up sample is a fresh worker
process (``workloads.py``) with BLAS threads pinned through the
environment before numpy loads, so thread count and peak RSS never
carry over between workloads. With ``--trace 0`` the worker is started
``SETUPS`` times, the first ones stopping as soon as set-up is done,
and ``setup_s`` is the median set-up time; the last one goes on to
measure and check. With ``--trace 1`` one worker runs and reports the
per-layer metrics.

The last line of standard output is
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
The lines before it record the environment and each metric with its
unit and sample count. Work files go to ``.perfbench_work/`` under the
root and are removed at exit.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKER = os.path.join(ROOT, "perfbench", "workloads.py")
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
WORKLOADS = ("train_desk", "infer_desk", "train_tiny")
SETUPS = 3
TIMEOUT_S = 170.0
THREAD_VARS = ("DEAP_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
               "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
# the worker's protocol lines; workloads.py defines the same two
READY = "PERFBENCH_READY"
RESULT = "PERFBENCH_RESULT "


class BenchError(Exception):
    pass


def _nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _git_sha():
    """HEAD of the repository at ROOT, or "unknown" outside a git checkout."""
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = out.stdout.split()
    if out.returncode or len(lines) != 2 or os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return "unknown"
    return lines[1]


def _worker_env(threads):
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = str(threads)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


def _run_worker(args, workdir, env, deadline, setup_only):
    """Start one worker; returns (set-up seconds, payload or None)."""
    cmd = [sys.executable, WORKER, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--workdir", workdir]
    if setup_only:
        cmd.append("--setup-only")
    start = time.perf_counter()
    setup_s, payload = None, None
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env) as proc:
        # the watchdog ends a worker that hangs without printing
        watchdog = threading.Timer(max(0.0, deadline - time.monotonic()), proc.kill)
        watchdog.start()
        try:
            for line in proc.stdout:
                if line.rstrip("\n") == READY:
                    setup_s = time.perf_counter() - start
                elif line.startswith(RESULT):
                    payload = json.loads(line[len(RESULT):])
                else:
                    sys.stderr.write(line)
            code = proc.wait()
        finally:
            watchdog.cancel()
    if time.monotonic() >= deadline:
        raise BenchError(f"worker ran past the {TIMEOUT_S:.0f} s limit")
    if code != 0 or setup_s is None or (payload is None and not setup_only):
        raise BenchError(f"worker exited with code {code}")
    return setup_s, payload


def measure(args):
    threads = _nproc()
    env = _worker_env(threads)
    deadline = time.monotonic() + TIMEOUT_S
    os.makedirs(WORK, exist_ok=True)
    workroot = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK)
    try:
        setups = []
        rounds = 1 if args.trace else SETUPS
        for i in range(rounds):
            last = i == rounds - 1
            setup_s, payload = _run_worker(args, os.path.join(workroot, str(i)), env,
                                           deadline, setup_only=not last)
            setups.append(setup_s)
    finally:
        shutil.rmtree(workroot, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by a concurrent run
            os.rmdir(WORK)
    info = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": _nproc(), "threads": threads,
        "python": platform.python_version(), "numpy": payload["numpy"],
        "blas": payload["blas"], "git": _git_sha(), "inputs": payload["inputs"],
        "samples": payload["samples"], "setups": len(setups),
    }
    metrics, units = dict(payload["metrics"]), dict(payload["units"])
    if not args.trace:
        metrics["setup_s"], units["setup_s"] = statistics.median(setups), "s"
    return info, payload, metrics, units


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "voxseg", "__init__.py")):
        print(f"perfbench: no voxseg sources under {SRC}", file=sys.stderr)
        return 2
    try:
        info, payload, metrics, units = measure(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"info": info}))
    for failure in payload["failures"]:
        print(f"FAILED CHECK: {failure}")
    print(f"failed_frac {payload['failed'] / payload['attempted']:.6g} "
          f"({payload['failed']}/{payload['attempted']})")
    samples = {"step_s_p50": info["samples"], "setup_s": info["setups"]}
    for name in sorted(metrics):
        count = f"  (median of {samples[name]})" if name in samples else ""
        print(f"{name:32s} {metrics[name]:>14.6g} {units[name]}{count}")
    print(json.dumps({
        "correct": payload["failed"] == 0,
        "attempted": payload["attempted"],
        "failed": payload["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
