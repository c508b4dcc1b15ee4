"""Benchmark worker: one process, one thread, one workload.

Started by run.py with photonamp's sources on PYTHONPATH and BLAS/OpenMP
pinned to one thread. It imports photonamp, builds the seeded round and
prints "ready" (the parent times start-up up to that line). With --probe it
stops there. Otherwise it runs one untimed round, then timed rounds until
--seconds have passed and at least MIN_OPS operations were timed; each timed
output must match the digest of the untimed round. Only after the peak
memory is read are the untimed round's outputs verified against the
oracles, so the references' scipy modules count in neither `setup_s` nor
`peak_rss_mb`. The last stdout line is a JSON result.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import time

import numpy as np

import tracing
import workloads
from oracles import CheckError

MIN_OPS = 100


class Tally:
    """Attempted and failed operations, and what went wrong unexpectedly."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def fail(self, op: workloads.Op, why: str | None) -> None:
        self.failed += 1
        if why is not None:
            self.problems.append(f"{op.label}: {why}")


def attempt(op: workloads.Op, rec: tracing.Recorder | None, op_span: int):
    """Run `op`; returns (seconds, result, error)."""
    error = result = None
    if rec is not None:
        rec.op_id += 1
        idx = rec.begin(op_span)
    start = time.perf_counter()
    try:
        result = op.run()
    except Exception as exc:  # counted and reported, never fatal
        error = exc
    elapsed = time.perf_counter() - start
    if rec is not None:
        rec.finish(idx)
    return elapsed, result, error


def settle(op: workloads.Op, result, error, tally: Tally):
    """Count one attempt; returns (digest, output). An error's digest is its
    message, so a known fault must repeat word for word."""
    tally.attempted += 1
    if error is not None:
        expected = op.known_fault is not None and op.known_fault in str(error)
        tally.fail(op, None if expected else f"{type(error).__name__}: {error}")
        return f"{type(error).__name__}: {error}", None
    output = op.output(result)
    return workloads.digest(output), output


def first_round(ops, tally: Tally) -> tuple[list[str], list]:
    """Run every operation once, untimed; returns the digests later rounds
    must repeat and the outputs `verify` checks."""
    reference, outputs = [], []
    for op in ops:
        _, result, error = attempt(op, None, -1)
        got, output = settle(op, result, error, tally)
        reference.append(got)
        outputs.append(output)
    return reference, outputs


def verify(ops, outputs, tally: Tally) -> None:
    """Check each output of `first_round` against its reference; an
    operation that raised has no output and was counted already."""
    for op, output in zip(ops, outputs):
        if output is None:
            continue
        try:
            op.check(output)
        except CheckError as exc:
            tally.fail(op, f"check failed: {exc}")


def run_rounds(ops, reference: list[str], tally: Tally, seconds: float,
               rec: tracing.Recorder | None):
    """Timed rounds; returns (latencies, rounds)."""
    op_span = rec.intern("bench.op") if rec is not None else -1
    if rec is not None:
        rec.active = True
    latencies: list[float] = []
    rounds = 0
    start = time.perf_counter()
    while rounds * len(ops) < MIN_OPS or time.perf_counter() - start < seconds:
        for op, want in zip(ops, reference):
            elapsed, result, error = attempt(op, rec, op_span)
            latencies.append(elapsed)
            got, output = settle(op, result, error, tally)
            if got != want:
                if error is None:
                    tally.fail(op, "output differs from the untimed round")
                else:
                    tally.problems.append(f"{op.label}: error differs from the untimed round")
            if rec is not None and op.writes_file and output is not None:
                rec.counters["cli.bytes_written"] += len(output[1])
        rounds += 1
    if rec is not None:
        rec.active = False
    return np.array(latencies), rounds


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--outdir", required=True)
    args = parser.parse_args(argv)

    import photonamp
    import photonamp.cli  # noqa: F401  (the figures workload drives the CLI)

    workdir = os.path.join(args.outdir, f"work-{args.workload}-{os.getpid()}")
    ops = workloads.build(args.workload, photonamp, args.seed, workdir, args.tiny)
    if args.probe:
        print("ready", flush=True)
        return 0

    rec = None
    if args.trace:
        rec = tracing.Recorder()
        tracing.install(photonamp, rec)
    print("ready", flush=True)

    os.makedirs(workdir, exist_ok=True)
    tally = Tally()
    try:
        reference, outputs = first_round(ops, tally)
        latencies, rounds = run_rounds(ops, reference, tally, args.seconds, rec)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    verify(ops, outputs, tally)

    # throughput per round, then the median round: a burst of load from
    # outside the process moves a few rounds, not the figure
    per_round = latencies.reshape(rounds, len(ops)).sum(axis=1)
    timing = {
        "ops_per_s": float(np.median(len(ops) / per_round)),
        "op_p50_ms": float(np.percentile(latencies, 50)) * 1e3,
        "op_p90_ms": float(np.percentile(latencies, 90)) * 1e3,
        "peak_rss_mb": peak_rss_mb,
    }
    layers = {}
    if rec is not None:
        spans = rec.arrays()
        np.savez_compressed(
            os.path.join(args.outdir, f"spans-{args.workload}-seed{args.seed}.npz"),
            labels=np.array([op.label for op in ops]), **spans,
        )
        layers = tracing.layer_metrics(spans, rounds, rec.counters)
    print(json.dumps({
        "attempted": tally.attempted,
        "failed": tally.failed,
        "problems": tally.problems[:20],
        "rounds": rounds,
        "ops_per_round": len(ops),
        "timed_ops": int(latencies.size),
        "timing": timing,
        "layers": layers,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
