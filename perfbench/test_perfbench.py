"""Tests of the benchmark itself. Run from the repository root:

    python3 -m pytest perfbench

Tiny runs of every workload must finish with nothing failed, and each
workload's checks must catch a program whose outputs are slightly off.
"""
from __future__ import annotations

import itertools
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import photonamp  # noqa: E402
import photonamp.cli  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    BENCHMARK = json.load(_fh)


@pytest.fixture
def scratch(request):
    """A directory inside the benchmark's ignored output directory."""
    path = os.path.join(HERE, "out", f"test-{request.node.name}")
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def bench(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_worker_modules_load_no_scipy():
    """`setup_s` ends at the worker's "ready"; the references' scipy modules
    must not be loaded before photonamp, or they hide its import time."""
    code = ("import sys; sys.path.insert(0, 'perfbench'); import worker; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] in ('scipy', 'photonamp')))")
    done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True,
                          text=True, timeout=60, check=True)
    assert done.stdout.strip() == "[]"


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_tiny_run_is_clean_and_reports_every_metric(workload, trace):
    done = bench("--workload", workload, "--seed", "3", "--seconds", "0.2",
                 "--trace", trace, "--tiny")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0, done.stderr
    assert result["attempted"] >= worker.MIN_OPS
    declared = BENCHMARK["per_layer" if trace == "1" else "end_to_end"]
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == {m["name"]: m["unit"] for m in declared}
    values = {name: m["value"] for name, m in result["metrics"].items()}
    assert all(np.isfinite(v) and v >= 0 for v in values.values())
    if trace == "0":
        assert all(v > 0 for v in values.values())
    else:
        exercised = {
            "figures": ["cli.bytes_written", "cli.self_s", "ensembles.curves",
                        "ensembles.closed_form_calls_per_curve", "numerics.elements",
                        "traces.count", "hp_model.closed_form.points"],
            "rotation": ["numerics.elements", "numerics.us_per_element",
                         "hp_model.evolve_fock.calls", "hp_model.evolve_fock.self_s"],
            "finite_n": ["exact_model.sector_dim", "exact_model.eigvec_mb",
                         "exact_model.eigensystem.self_s", "exact_model.phase_sum.self_s",
                         "traces.count"],
        }[workload]
        assert all(values[name] > 0 for name in exercised), values
        assert values["import.photonamp_s"] > values["import.scipy_special_s"] > 0


def test_without_sources_it_fails_and_prints_no_result(scratch):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), scratch)
    shutil.copytree(HERE, os.path.join(scratch, "perfbench"),
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = bench("--workload", "figures", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=scratch)
    assert done.returncode != 0
    assert done.stdout == ""


def check_round(workload: str, outdir: str) -> tuple[list, worker.Tally]:
    ops = workloads.build(workload, photonamp, 5, outdir, tiny=True)
    tally = worker.Tally()
    worker.verify(ops, worker.first_round(ops, tally)[1], tally)
    return ops, tally


def _nudged_emit(emit):
    """cli._emit with every number of the payload moved by about 1e-7."""

    def nudged(cfg, payload):
        payload = dict(payload)
        if "series" in payload:
            payload["tau"] = payload["tau"] + 1e-7
            payload["series"] = {k: v + 1e-7 * (1 + abs(v)) for k, v in payload["series"].items()}
        else:
            payload["rows"] = [[x if isinstance(x, int) else x + 1e-7 for x in row]
                               for row in payload["rows"]]
        return emit(cfg, payload)

    return nudged


def _phase_ramp(evolve):
    def nudged(state, params):
        amps = evolve(state, params).amplitudes
        ramp = np.exp(1e-6j * np.arange(amps.size))
        return photonamp.hp_model.AmplitudeVector(amps.size - 1, amps * ramp)

    return nudged


PERTURBATIONS = {
    "figures": [("cli", "_emit", _nudged_emit)],
    "rotation": [
        ("hp_model", "evolve_fock", _phase_ramp),
        ("numerics", "wigner_d_matrix", lambda f: lambda j, b: f(j, b) + 1e-7),
    ],
    "finite_n": [
        ("exact_model", "exact_projection_probability",
         lambda f: lambda *a: photonamp.traces.ProbabilityTrace(
             f(*a).tau_grid, f(*a).values * (1 + 1e-6))),
        ("exact_model", "hp_deviation", lambda f: lambda *a: f(*a) + 1e-7),
    ],
}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_checks_pass_on_the_program(workload, scratch):
    ops, tally = check_round(workload, scratch)
    assert tally.failed == 0 and tally.problems == []
    assert tally.attempted == len(ops)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_checks_catch_perturbed_outputs(workload, scratch, monkeypatch):
    for module, attr, perturb in PERTURBATIONS[workload]:
        target = getattr(photonamp, module)
        monkeypatch.setattr(target, attr, perturb(getattr(target, attr)))
    ops, tally = check_round(workload, scratch)
    assert tally.failed == len(ops)
    assert len(tally.problems) == len(ops)
    assert all("check failed" in p for p in tally.problems), tally.problems


def test_known_fault_fails_with_its_message_or_passes_its_check(scratch):
    ops = workloads.build("rotation", photonamp, 5, scratch)
    faulty = [op for op in ops if op.known_fault]
    assert len(faulty) == len(workloads.KNOWN_FAULT_INPUTS)
    tally = worker.Tally()
    worker.verify(faulty, worker.first_round(faulty, tally)[1], tally)
    assert tally.problems == []


def test_output_that_changes_between_rounds_is_a_failure():
    counter = itertools.count()
    op = workloads.Op("drifting", run=lambda: next(counter), check=lambda out: None)
    tally = worker.Tally()
    reference, _ = worker.first_round([op], tally)
    latencies, rounds = worker.run_rounds([op], reference, tally, 0.0, None)
    assert rounds == latencies.size == worker.MIN_OPS
    assert tally.failed == worker.MIN_OPS
    assert all("differs from the untimed round" in p for p in tally.problems)


def test_same_seed_same_round_other_seed_other_values(scratch):
    def labels(seed):
        return [op.label for op in workloads.build("rotation", photonamp, seed, scratch)]

    assert labels(7) == labels(7)
    assert labels(7) != labels(8)


def test_self_time_excludes_children():
    rec = tracing.Recorder()
    rec.active = True
    outer = rec.begin(rec.intern("cli.main"))
    inner = rec.begin(rec.intern("hp_model.ground_projection_probabilities"))
    rec.finish(inner, 5.0)
    rec.finish(outer)
    spans = rec.arrays()
    spans["start"][:] = [0.0, 1.0]
    spans["end"][:] = [10.0, 4.0]
    metrics = tracing.layer_metrics(spans, rounds=2, counters={})
    assert metrics["cli.self_s"] == pytest.approx(3.5)
    assert metrics["hp_model.closed_form.self_s"] == pytest.approx(1.5)
    assert metrics["hp_model.closed_form.points"] == pytest.approx(2.5)
