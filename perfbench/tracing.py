"""Spans around photonamp's layer boundaries, recorded from outside the program.

`install` replaces module attributes with wrappers, as callers resolve them:
`photonamp.cli.coherent_projection_probability` is what the CLI calls, and
`photonamp.hp_model.wigner_small_d` is what `evolve_fock` calls. Each call
becomes a span (name, start, end, parent span, operation id, and an amount
such as the tau points a closed-form call evaluated). Spans live in flat
arrays while the run lasts and are written out once at its end.

A span's self time is its duration minus the durations of its direct
children; calls run on one thread, so children never overlap.
"""
from __future__ import annotations

import functools
import time
from array import array
from collections import defaultdict
from typing import Callable

import numpy as np

MB = 2**20


def _points(args, result) -> float:
    return float(np.size(args[2]))


def _dim_of_result(args, result) -> float:
    return float(result.basis.dim)


def _dim_of_arg(args, result) -> float:
    return float(args[0].basis.dim)


# (module, attribute, span name, amount): every name a caller inside or
# outside photonamp resolves at a layer boundary
BOUNDARIES: tuple[tuple[str, str, str, Callable | None], ...] = (
    ("cli", "main", "cli.main", None),
    ("cli", "wigner_small_d", "numerics.wigner_small_d", None),
    ("hp_model", "wigner_small_d", "numerics.wigner_small_d", None),
    ("numerics", "wigner_small_d", "numerics.wigner_small_d", None),
    ("numerics", "wigner_d_matrix", "numerics.wigner_d_matrix", None),
    ("hp_model", "evolve_fock", "hp_model.evolve_fock", None),
    ("cli", "ground_projection_probabilities", "hp_model.ground_projection_probabilities", _points),
    ("ensembles", "ground_projection_probabilities", "hp_model.ground_projection_probabilities", _points),
    ("exact_model", "ground_projection_probabilities", "hp_model.ground_projection_probabilities", _points),
    ("cli", "ground_projection_probability", "hp_model.ground_projection_probability", None),
    ("ensembles", "ground_projection_probability", "hp_model.ground_projection_probability", None),
    ("cli", "CoherentInput", "ensembles.CoherentInput", None),
    ("cli", "AtomicMixture", "ensembles.AtomicMixture", None),
    ("cli", "coherent_projection_probability", "ensembles.coherent_projection_probability", None),
    ("cli", "mixed_projection_probability", "ensembles.mixed_projection_probability", None),
    ("cli", "fwhm", "ensembles.fwhm", None),
    ("cli", "perception_time", "ensembles.perception_time", None),
    ("cli", "threshold_time", "ensembles.threshold_time", None),
    ("cli", "discriminate_photon_number", "ensembles.discriminate_photon_number", None),
    ("cli", "build_sector", "exact_model.build_sector", _dim_of_result),
    ("exact_model", "build_sector", "exact_model.build_sector", _dim_of_result),
    ("cli", "exact_projection_probability", "exact_model.exact_projection_probability", None),
    ("exact_model", "exact_projection_probability", "exact_model.exact_projection_probability", None),
    ("exact_model", "eigensystem", "exact_model.eigensystem", _dim_of_arg),
    ("exact_model", "hp_deviation", "exact_model.hp_deviation", None),
    ("ensembles", "ProbabilityTrace", "traces.ProbabilityTrace", None),
    ("exact_model", "ProbabilityTrace", "traces.ProbabilityTrace", None),
)

CURVES = ("ensembles.coherent_projection_probability", "ensembles.mixed_projection_probability")
CLOSED_FORM = ("hp_model.ground_projection_probabilities", "hp_model.ground_projection_probability")

# per-layer metric name -> unit; sums and counts are per round of the workload
UNITS = {
    "numerics.elements": "count",
    "numerics.self_s": "s",
    "numerics.us_per_element": "us",
    "hp_model.evolve_fock.calls": "count",
    "hp_model.evolve_fock.self_s": "s",
    "hp_model.closed_form.points": "count",
    "hp_model.closed_form.self_s": "s",
    "ensembles.curves": "count",
    "ensembles.self_s": "s",
    "ensembles.closed_form_calls_per_curve": "count",
    "exact_model.eigensystem.self_s": "s",
    "exact_model.phase_sum.self_s": "s",
    "exact_model.build_sector.self_s": "s",
    "exact_model.sector_dim": "count",
    "exact_model.eigvec_mb": "MB",
    "traces.count": "count",
    "traces.self_s": "s",
    "cli.self_s": "s",
    "cli.bytes_written": "bytes",
}


class Recorder:
    """Spans of one run, in flat arrays; inactive until `active` is set."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.amount = array("d")
        self._open: list[int] = []
        self.op_id = -1
        self.active = False
        self.counters: dict[str, float] = defaultdict(float)

    def intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def begin(self, name_id: int) -> int:
        idx = len(self.start)
        self.name_id.append(name_id)
        self.parent.append(self._open[-1] if self._open else -1)
        self.op.append(self.op_id)
        self.end.append(0.0)
        self.amount.append(0.0)
        self._open.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def finish(self, idx: int, amount: float = 0.0) -> None:
        self.end[idx] = time.perf_counter()
        self.amount[idx] = amount
        self._open.pop()

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "names": np.array(self.names),
            "name_id": np.frombuffer(self.name_id, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "op": np.frombuffer(self.op, dtype=np.int32),
            "start": np.frombuffer(self.start),
            "end": np.frombuffer(self.end),
            "amount": np.frombuffer(self.amount),
        }


def _traced(rec: Recorder, fn, name_id: int, amount):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not rec.active:
            return fn(*args, **kwargs)
        idx = rec.begin(name_id)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            rec.finish(idx)
            raise
        rec.finish(idx, amount(args, result) if amount else 1.0)
        return result

    return traced


def install(pa, rec: Recorder) -> Callable[[], None]:
    """Wrap every boundary of the photonamp package `pa`; returns the undo."""
    saved = []
    for module_name, attr, span, amount in BOUNDARIES:
        module = getattr(pa, module_name)
        original = getattr(module, attr)
        saved.append((module, attr, original))
        setattr(module, attr, _traced(rec, original, rec.intern(span), amount))

    def uninstall() -> None:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)

    return uninstall


def layer_metrics(spans: dict[str, np.ndarray], rounds: int, counters: dict[str, float]) -> dict[str, float]:
    """Per-layer figures per round of the workload, from recorded spans."""
    names = list(spans["names"])
    name_id, parent = spans["name_id"], spans["parent"]
    dur = spans["end"] - spans["start"]
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
    self_t = dur - child

    def mask(*span_names: str) -> np.ndarray:
        ids = [names.index(n) for n in span_names if n in names]
        return np.isin(name_id, ids)

    def per_round(values: np.ndarray) -> float:
        return float(values.sum()) / rounds

    layer = np.array([n.split(".")[0] for n in names])[name_id]
    elements = mask("numerics.wigner_small_d")
    numerics = layer == "numerics"
    curves = mask(*CURVES)
    closed = mask(*CLOSED_FORM)
    eig = mask("exact_model.eigensystem")
    closed_in_curve = closed & has_parent & curves[np.where(has_parent, parent, 0)]
    dims = spans["amount"][eig]
    return {
        "numerics.elements": per_round(elements),
        "numerics.self_s": per_round(self_t[numerics]),
        "numerics.us_per_element": (
            float(self_t[numerics].sum()) / int(elements.sum()) * 1e6 if elements.any() else 0.0
        ),
        "hp_model.evolve_fock.calls": per_round(mask("hp_model.evolve_fock")),
        "hp_model.evolve_fock.self_s": per_round(self_t[mask("hp_model.evolve_fock")]),
        "hp_model.closed_form.points": per_round(spans["amount"][closed]),
        "hp_model.closed_form.self_s": per_round(self_t[closed]),
        "ensembles.curves": per_round(curves),
        "ensembles.self_s": per_round(self_t[layer == "ensembles"]),
        "ensembles.closed_form_calls_per_curve": (
            int(closed_in_curve.sum()) / int(curves.sum()) if curves.any() else 0.0
        ),
        "exact_model.eigensystem.self_s": per_round(self_t[eig]),
        "exact_model.phase_sum.self_s": per_round(
            self_t[mask("exact_model.exact_projection_probability")]
        ),
        "exact_model.build_sector.self_s": per_round(self_t[mask("exact_model.build_sector")]),
        "exact_model.sector_dim": per_round(spans["amount"][mask("exact_model.build_sector")]),
        "exact_model.eigvec_mb": float(dims.max()) ** 2 * 8 / MB if dims.size else 0.0,
        "traces.count": per_round(mask("traces.ProbabilityTrace")),
        "traces.self_s": per_round(self_t[layer == "traces"]),
        "cli.self_s": per_round(self_t[mask("cli.main")]),
        "cli.bytes_written": counters.get("cli.bytes_written", 0.0) / rounds,
    }
