#!/usr/bin/env python3
"""Check that two revisions give byte-identical CLI output and figure files.

Usage, from the root of a photonamp checkout:

    python3 scripts/compare_outputs.py PARENT CHANGE

PARENT and CHANGE are git revisions. Each is exported with `git archive`
into its own temporary directory, outside the repository. In each tree
every entry of INVOCATIONS runs as `python -m photonamp ARGS` with
PYTHONPATH=<tree>/src, and the tree's scripts/make_figure_data.py writes
its figure files into a directory of its own. An invocation must match on
stdout, stderr and exit code; the figure script on its exit code; a figure
file on its bytes, with the value of its "output_path" field masked, since
a JSON file records the path it was written to. Prints one line per item
and exits 1 on any difference.
"""
from __future__ import annotations

import argparse
import os
import pathlib
import re
import subprocess
import sys
import tempfile

from record_bench import export

INVOCATIONS = [
    ["fig1"],
    ["fig2"],
    ["fig3"],
    ["wigner"],
    ["exact-compare"],
    ["sweep"],
    ["discriminate", "--observed", "0.7"],
    ["exact-compare", "--format", "json"],
    ["sweep", "--format", "json"],
    # crossings below 1e-13, which the default epsilon of 0.01 never reaches
    ["sweep", "--n-e", "1", "25", "--n", "0", "5", "--epsilon", "1e-40", "--format", "json"],
    ["fig3", "--format", "json", "--grid-points", "2049"],
    # a dim-701 resonant sector: the half-spectrum twisted route, which the
    # default E = 5 never reaches
    ["exact-compare", "--N", "40000", "80000", "160000", "320000", "--n-e", "300", "--n", "400",
     "--grid-points", "256", "--format", "json"],
]
OUTPUT_PATH = re.compile(rb'"output_path": "(?:[^"\\]|\\.)*"')


def mask(data: bytes) -> bytes:
    """A figure file's bytes with every "output_path" string value masked."""
    return OUTPUT_PATH.sub(b'"output_path": "<masked>"', data)


def compare(item: str, parent: dict, change: dict) -> str:
    """One report line: "same", or "DIFFERS" and the parts that differ, a
    part missing on one side counting as a difference."""
    differ = [part for part in sorted(parent.keys() | change.keys())
              if parent.get(part) != change.get(part)]
    return f"DIFFERS {item}: {', '.join(differ)}" if differ else f"same    {item}"


def _run(tree: str, *args: str) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": os.path.join(tree, "src")}
    return subprocess.run([sys.executable, *args], cwd=tree, env=env, capture_output=True)


def outputs(tree: str, figures: str) -> dict[str, dict]:
    """Every item's parts in one tree, with the figure files written to figures."""
    items = {}
    for args in INVOCATIONS:
        done = _run(tree, "-m", "photonamp", *args)
        items[" ".join(args)] = {"stdout": done.stdout, "stderr": done.stderr,
                                 "exit code": done.returncode}
    done = _run(tree, os.path.join("scripts", "make_figure_data.py"), figures)
    items["make_figure_data.py"] = {"exit code": done.returncode}
    for path in sorted(pathlib.Path(figures).iterdir()):
        items[path.name] = {"bytes": mask(path.read_bytes())}
    return items


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="git revision of the parent")
    parser.add_argument("change", help="git revision of the change")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="compare_outputs-") as tmp:
        sides = {}
        for side in ("parent", "change"):
            tree = export(getattr(args, side), os.path.join(tmp, side))
            sides[side] = outputs(tree, os.path.join(tmp, f"{side}-figures"))
    lines = [compare(item, sides["parent"].get(item, {}), sides["change"].get(item, {}))
             for item in {**sides["parent"], **sides["change"]}]
    print("\n".join(lines))
    return 1 if any(line.startswith("DIFFERS") for line in lines) else 0


if __name__ == "__main__":
    sys.exit(main())
