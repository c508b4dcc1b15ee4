"""The masking and comparison helpers of `scripts/compare_outputs.py`, with
the script loaded from its path as it runs, and its invocations, each of
which must succeed so that two identical failures cannot compare "same"."""
import importlib.util
import pathlib

import pytest

from photonamp import cli

SCRIPTS = pathlib.Path(__file__).resolve().parents[1] / "scripts"


@pytest.fixture
def script(monkeypatch):
    monkeypatch.syspath_prepend(str(SCRIPTS))  # the script imports record_bench beside it
    spec = importlib.util.spec_from_file_location("compare_outputs", SCRIPTS / "compare_outputs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_mask_replaces_only_the_output_path_values(script):
    text = (b'{\n  "config": {\n    "output_path": "/tmp/a \\"b\\"\\\\c.json",\n'
            b'    "format": "json"\n  },\n  "output_path_note": "kept",\n'
            b'  "rows": [\n    "output_path"\n  ],\n  "output_path": "x"\n}\n')
    assert script.mask(text) == (
        b'{\n  "config": {\n    "output_path": "<masked>",\n'
        b'    "format": "json"\n  },\n  "output_path_note": "kept",\n'
        b'  "rows": [\n    "output_path"\n  ],\n  "output_path": "<masked>"\n}\n')
    csv = b"tau,p\n0,1\n"
    assert script.mask(csv) == csv


def test_masked_files_of_two_trees_compare_equal(script):
    parent = b'{"config": {"output_path": "/tmp/parent-figures/f.json"}, "v": 0.5}\n'
    change = b'{"config": {"output_path": "/tmp/change-figures/f.json"}, "v": 0.5}\n'
    assert script.mask(parent) == script.mask(change)
    moved = change.replace(b"0.5", b"0.50000000000000011")
    assert script.mask(parent) != script.mask(moved)


def test_compare_names_every_part_that_differs(script):
    same = {"stdout": b"a\n", "stderr": b"", "exit code": 0}
    assert script.compare("fig1", same, dict(same)) == "same    fig1"
    assert script.compare("sweep", same, {**same, "stderr": b"warning\n", "exit code": 1}) == (
        "DIFFERS sweep: exit code, stderr")
    # a part or a whole item missing on one side is a difference
    assert script.compare("f.csv", {"bytes": b"x"}, {}) == "DIFFERS f.csv: bytes"


def test_every_invocation_exits_zero(script, capsys):
    for args in script.INVOCATIONS:
        assert cli.main(args) == 0, args
        capsys.readouterr()
