#!/usr/bin/env python3
"""Record a parent/change benchmark comparison as BENCH_<n>.json.

Usage, from the root of a photonamp checkout:

    python3 scripts/record_bench.py PARENT CHANGE --out BENCH_15.json \\
        --first-seed 1501 [--trace-workload finite_n] [--claim TEXT]

PARENT and CHANGE are git revisions. Each is exported with `git archive`
into its own temporary directory, outside the repository, and every run is
`python3 perfbench/run.py --workload W --seed S --seconds T --trace 0` in
one of the two trees, with T the `run_seconds` of the change's
BENCHMARK.json. Every workload there gets PAIRS (10) pairs; pair k (from
1) runs seed first_seed + k - 1 on both sides, the parent first when k is
odd. The file holds, per workload and end-to-end metric of BENCHMARK.json,
each side's median, quartiles and IQR (the inclusive method of
statistics.quantiles), the pairs the change wins, and the median ratio
against the metric's bound; every run is kept too, and each side's lines
and code lines per module of src/photonamp.
With --trace-workload, one `--trace 1` run per side at the first seed adds
the per-layer metrics.

The file is written in every case. Exits 1 if any run is not `correct` or
the two sides of a pair failed a different number of operations; 2 if a
run did not finish, after recording it and the pairs finished before it
under "unfinished".
"""
from __future__ import annotations

import argparse
import ast
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile

PAIRS = 10


class Unfinished(Exception):
    """A perfbench run that exited non-zero or printed no summary."""


def git(*args: str) -> bytes:
    return subprocess.run(["git", *args], check=True, capture_output=True).stdout


def export(rev: str, into: str) -> str:
    """The committed files of rev, unpacked under into; returns the tree."""
    tree = os.path.join(into, rev.replace("/", "_"))
    with tarfile.open(fileobj=io.BytesIO(git("archive", "--format=tar", rev))) as tar:
        tar.extractall(tree, filter="data")
    return tree


def run(tree: str, workload: str, seed: int, seconds: int, trace: int) -> dict:
    """One perfbench run in tree: its summary line; raises Unfinished."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if done.returncode != 0 or not done.stdout.strip():
        sys.stderr.write(done.stderr)
        raise Unfinished(f"{' '.join(cmd)} exited with {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1}


def summarize(pairs: list[dict], metric: dict) -> dict:
    name, higher = metric["name"], metric["better"] == "higher"
    parent = [p["parent"][name] for p in pairs]
    change = [p["change"][name] for p in pairs]
    wins = sum((c > p) if higher else (c < p) for p, c in zip(parent, change))
    side = {"parent": quartiles(parent), "change": quartiles(change)}
    ratio = side["change"]["median"] / side["parent"]["median"]
    worse = 1.0 - ratio if higher else ratio - 1.0
    gap = abs(side["change"]["median"] - side["parent"]["median"])
    return {"better": metric["better"], "bound": metric["bound"], **side, "change_wins": wins,
            "pairs": len(pairs), "median_ratio_change_over_parent": ratio,
            "median_gap_exceeds_parent_iqr": gap > side["parent"]["iqr"],
            "worse_than_parent_by": worse, "within_bound": worse <= metric["bound"]}


def code_lines(source: str) -> int:
    """Lines that are not blank, not a # comment and not part of a module,
    class or function docstring."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
                and ast.get_docstring(node, clean=False) is not None):
            doc = node.body[0]
            docstrings.update(range(doc.lineno, doc.end_lineno + 1))
    return sum(1 for number, line in enumerate(io.StringIO(source), 1)
               if line.strip() and not line.lstrip().startswith("#") and number not in docstrings)


def line_counts(tree: str) -> dict:
    """Lines per module of src/photonamp, and under "code" its code lines."""
    package = os.path.join(tree, "src", "photonamp")
    counts, code = {}, {}
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name)) as fh:
                lines = fh.readlines()
            counts[f"src/photonamp/{name}"] = len(lines)
            code[f"src/photonamp/{name}"] = code_lines("".join(lines))
    return {**counts, "total": sum(counts.values()),
            "code": {**code, "total": sum(code.values())}}


def machine() -> dict:
    cpu, mem_mb = platform.processor(), None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
        with open("/proc/meminfo") as fh:
            mem_mb = next(int(line.split()[1]) // 1024 for line in fh
                          if line.startswith("MemTotal"))
    except (OSError, StopIteration):
        pass
    return {"cpu": cpu, "logical_cpus": os.cpu_count(), "mem_total_mb": mem_mb,
            "platform": platform.platform()}


def versions() -> dict:
    import numpy
    import scipy

    return {"numpy": numpy.__version__, "python": platform.python_version(),
            "scipy": scipy.__version__}


def record(trees: dict, bench: dict, first_seed: int, trace_workloads: list[str],
           out: dict, faults: list[str]) -> None:
    """Run every pair and traced run into out; faults collects the bad runs."""
    seconds = bench["run_seconds"]
    for workload in [w["name"] for w in bench["workloads"]]:
        pairs = []
        out["unfinished"] = {"workload": workload, "pairs": pairs}
        for k in range(1, PAIRS + 1):
            seed = first_seed + k - 1
            order = ("parent", "change") if k % 2 else ("change", "parent")
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                result = run(trees[side], workload, seed, seconds, 0)
                pair[side] = {"attempted": result["attempted"], "failed": result["failed"],
                              "correct": result["correct"],
                              **{name: m["value"] for name, m in result["metrics"].items()}}
                if not result["correct"]:
                    faults.append(f"{workload} seed {seed} {side}: not correct")
                print(f"{workload} seed {seed} {side}: {json.dumps(pair[side])}",
                      file=sys.stderr, flush=True)
            if pair["parent"]["failed"] != pair["change"]["failed"]:
                faults.append(f"{workload} seed {seed}: failed {pair['parent']['failed']} "
                              f"(parent) against {pair['change']['failed']} (change)")
            pairs.append(pair)
        del out["unfinished"]
        out["workloads"][workload] = {
            "seeds": [p["seed"] for p in pairs],
            "summary": {m["name"]: summarize(pairs, m) for m in bench["end_to_end"]},
            "failed_of_attempted": {side: [f"{p[side]['failed']}/{p[side]['attempted']}"
                                           for p in pairs] for side in trees},
            "pairs": pairs,
        }
    for workload in trace_workloads:
        out["traced"][workload] = {}
        for side in trees:
            result = run(trees[side], workload, first_seed, seconds, 1)
            if not result["correct"]:
                faults.append(f"{workload} traced {side}: not correct")
            out["traced"][workload][side] = {
                "seed": first_seed, **{name: m["value"] for name, m in result["metrics"].items()}}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="git revision of the parent")
    parser.add_argument("change", help="git revision of the change")
    parser.add_argument("--out", required=True, help="the BENCH_<n>.json to write")
    parser.add_argument("--first-seed", type=int, required=True)
    parser.add_argument("--trace-workload", action="append", default=[],
                        help="a workload to run once per side with --trace 1 (repeatable)")
    parser.add_argument("--claim", default="", help="the claim, appended to the description")
    args = parser.parse_args(argv)

    revs = {side: git("rev-parse", "--short", rev).decode().strip()
            for side, rev in (("parent", args.parent), ("change", args.change))}
    faults, status = [], 0
    with tempfile.TemporaryDirectory(prefix="record_bench-") as tmp:
        trees = {side: export(rev, os.path.join(tmp, side)) for side, rev in revs.items()}
        with open(os.path.join(trees["change"], "BENCHMARK.json")) as fh:
            bench = json.load(fh)
        seconds = str(bench["run_seconds"])
        out = {
            "description": (
                f"{PAIRS} alternating parent/change pairs per workload of `python3 "
                f"perfbench/run.py --workload W --seed S --seconds {seconds} --trace 0`, on "
                f"seeds {args.first_seed}-{args.first_seed + PAIRS - 1}, each side run in its "
                "own copy of its committed files (git archive, outside the repository); pair i "
                "runs the parent first when i is odd. Medians and quartiles use the inclusive "
                "method of statistics.quantiles. " + args.claim).strip(),
            "parent_commit": revs["parent"],
            "change": f"commit {revs['change']}",
            "command": ["python3", "perfbench/run.py", "--workload", "W", "--seed", "S",
                        "--seconds", seconds, "--trace", "0"],
            "machine": machine(),
            "versions": versions(),
            "line_counts": {side: line_counts(tree) for side, tree in trees.items()},
            "workloads": {},
            "traced": {},
        }
        try:
            record(trees, bench, args.first_seed, args.trace_workload, out, faults)
        except Unfinished as exc:
            out.setdefault("unfinished", {})["error"] = str(exc)
            faults.append(f"did not finish: {exc}")
            status = 2
    with open(args.out, "w") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    for fault in faults:
        print(f"record_bench: {fault}", file=sys.stderr)
    return status or (1 if faults else 0)


if __name__ == "__main__":
    sys.exit(main())
