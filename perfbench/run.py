#!/usr/bin/env python3
"""Benchmark of photonamp: one workload, one run, one JSON line.

Usage, from the root of a photonamp checkout:

    python3 perfbench/run.py --workload figures --seed 1 --seconds 20 --trace 0

Workloads: figures, rotation, finite_n (see perfbench/README.md). With
--trace 0 the last stdout line holds the end-to-end metrics; with --trace 1
it holds the per-layer metrics of a traced run. The work runs in a single
worker process (perfbench/worker.py) with BLAS/OpenMP pinned to one thread.
Run output (results, span dumps) goes to perfbench/out/.
"""
from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import tracing  # noqa: E402  (after the path is set)
import workloads  # noqa: E402

WALL_LIMIT_S = 170.0
SETUP_SAMPLES = 5  # start-ups timed per run; the median is reported
IMPORT_SAMPLES = 5  # `-X importtime` runs per traced run

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "ops/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
}
IMPORT_UNITS = {"import.photonamp_s": "s", "import.scipy_special_s": "s"}

ONE_THREAD = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class BenchError(Exception):
    pass


def worker_env(src: str) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = src
    env.update({name: "1" for name in ONE_THREAD})
    return env


def start_worker(args, env, outdir: str, probe: bool, deadline: float):
    """Start a worker and wait for its "ready" line; returns (process,
    seconds to ready, the watchdog that kills it at the deadline)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--outdir", outdir]
    if args.tiny:
        cmd.append("--tiny")
    if probe:
        cmd.append("--probe")
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
    watchdog.start()
    try:
        line = proc.stdout.readline()
        ready = time.perf_counter() - start
    except BaseException:
        proc.kill()
        proc.wait()
        watchdog.cancel()
        raise
    if line.strip() != "ready":
        proc.kill()
        proc.wait()
        watchdog.cancel()
        raise BenchError(f"worker did not start (exit {proc.returncode})")
    return proc, ready, watchdog


def finish_worker(proc, watchdog) -> str:
    """Wait for the worker to end; returns what it printed after "ready"."""
    try:
        out, _ = proc.communicate()
    finally:
        watchdog.cancel()
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}")
    return out


def import_seconds(env: dict[str, str], deadline: float) -> dict[str, float]:
    """Cumulative import time of photonamp and scipy.special, from `-X importtime`."""
    samples: dict[str, list[float]] = {name: [] for name in IMPORT_UNITS}
    for _ in range(IMPORT_SAMPLES):
        done = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import photonamp"],
            env=env, capture_output=True, text=True,
            timeout=max(deadline - time.monotonic(), 1.0), check=True,
        )
        cumulative = {}
        for line in done.stderr.splitlines():
            m = re.match(r"import time:\s+\d+ \|\s+(\d+) \|\s*(\S+)\s*$", line)
            if m:
                cumulative[m.group(2)] = int(m.group(1)) * 1e-6
        samples["import.photonamp_s"].append(cumulative["photonamp"])
        samples["import.scipy_special_s"].append(cumulative["scipy.special"])
    return {name: statistics.median(values) for name, values in samples.items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="a few small operations per round (the benchmark's own tests)")
    args = parser.parse_args(argv)

    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "photonamp", "__init__.py")):
        print("perfbench: src/photonamp not found; run from the root of a photonamp checkout",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + WALL_LIMIT_S
    env = worker_env(src)
    outdir = os.path.join(HERE, "out")
    os.makedirs(outdir, exist_ok=True)

    try:
        setup = []
        if args.trace:
            extra = import_seconds(env, deadline)
            units = {**tracing.UNITS, **IMPORT_UNITS}
        else:
            for _ in range(1 if args.tiny else SETUP_SAMPLES - 1):
                proc, ready, watchdog = start_worker(args, env, outdir, True, deadline)
                finish_worker(proc, watchdog)
                setup.append(ready)
            units = END_TO_END_UNITS
        proc, ready, watchdog = start_worker(args, env, outdir, False, deadline)
        setup.append(ready)
        lines = finish_worker(proc, watchdog).splitlines()
        if not lines:
            raise BenchError("worker printed no result")
        result = json.loads(lines[-1])
    except (BenchError, subprocess.SubprocessError, OSError, KeyError, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    if args.trace:
        metrics = {**result["layers"], **extra}
    else:
        metrics = {**result["timing"], "setup_s": statistics.median(setup)}
    for problem in result["problems"]:
        print(f"perfbench: {problem}", file=sys.stderr)
    summary = {
        "correct": not result["problems"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    detail = {**summary, "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "rounds": result["rounds"], "ops_per_round": result["ops_per_round"],
              "timed_ops": result["timed_ops"], "timing": result["timing"],
              "setup_samples_s": setup}
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(outdir, name), "w") as fh:
        json.dump(detail, fh, indent=1)
    print(f"{args.workload}: {result['rounds']} rounds of {result['ops_per_round']} operations",
          file=sys.stderr)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
