"""Command-line front end emitting reproducible figure data as CSV or JSON.

Subcommands:
  fig1           detection probability vs scaled time for Fock inputs
  fig2           same for coherent inputs at several intensities
  fig3           pure vs uniformly mixed atomic state, coherent input
  wigner         beam-splitter rotation kernel for one input state
  exact-compare  finite-N solver vs closed form, deviation per N
  discriminate   nearest-peak photon-number inference
  sweep          peak/threshold summary over a (n_e, n) grid

Exit codes: 0 success, 1 usage error (including option values the library
rejects), 2 I/O error, 3 validation failure.
Every option may alternatively be given in a key=value file via --config
(lists comma-separated); explicit flags win over the file.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from .ensembles import (
    AtomicMixture,
    CoherentInput,
    coherent_projection_probability,
    discriminate_photon_number,
    fwhm,
    mixed_projection_probability,
    perception_time,
    threshold_time,
)
from .exact_model import build_sector, exact_projection_probability
from .hp_model import ground_projection_probabilities, ground_projection_probability
from .numerics import HalfInteger, wigner_small_d

__all__ = ["main"]


class UsageError(Exception):
    pass


class ValidationFailure(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse parser that reports usage problems as exit code 1."""

    def error(self, message):
        raise UsageError(message)


@dataclass
class _Opt:
    name: str
    flag: str
    type: type
    is_list: bool
    default: object
    help: str
    choices: tuple | None = None


_GRID_OPTS = [
    _Opt("grid_points", "--grid-points", int, False, 1024, "number of tau samples"),
    _Opt("tau_min", "--tau-min", float, False, 0.0, "first scaled time"),
    _Opt("tau_max", "--tau-max", float, False, math.pi, "last scaled time"),
]
_OUT_OPTS = [
    _Opt("output_path", "--output", str, False, None, "output file (default: stdout)"),
    _Opt("format", "--format", str, False, "csv", "output format", choices=("csv", "json")),
]

_COMMAND_OPTS: dict[str, list[_Opt]] = {
    "fig1": [
        _Opt("n_e", "--n-e", int, True, [1, 10, 25], "excited-atom numbers"),
        _Opt("n", "--n", int, True, [0, 1, 5, 10], "input photon numbers"),
        *_GRID_OPTS,
        *_OUT_OPTS,
    ],
    "fig2": [
        _Opt("n_e", "--n-e", int, True, [10, 25], "excited-atom numbers"),
        _Opt("intensity", "--intensity", float, True, [0.1, 0.5, 0.9], "coherent intensities"),
        *_GRID_OPTS,
        *_OUT_OPTS,
    ],
    "fig3": [
        _Opt("n_e_max", "--n-e-max", int, False, 25, "top of the uniform mixture (also the pure n_e)"),
        _Opt("intensity", "--intensity", float, True, [0.1, 0.5], "coherent intensities"),
        *_GRID_OPTS,
        *_OUT_OPTS,
    ],
    "wigner": [
        _Opt("n_e", "--n-e", int, False, 1, "excited atoms of the input state"),
        _Opt("n", "--n", int, False, 0, "photons of the input state"),
        *_GRID_OPTS,
        *_OUT_OPTS,
    ],
    "exact-compare": [
        _Opt("N", "--N", int, True, [500, 1000, 2000, 4000], "atom numbers for the finite-N solver"),
        _Opt("n_e", "--n-e", int, False, 3, "excited atoms"),
        _Opt("n", "--n", int, False, 2, "input photons"),
        *_GRID_OPTS,
        *_OUT_OPTS,
    ],
    "discriminate": [
        _Opt("n_e", "--n-e", int, False, 25, "excited atoms"),
        _Opt("observed", "--observed", float, False, None, "observed peak time (required)"),
        _Opt("n_max", "--n-max", int, False, 10, "largest candidate photon number"),
        *_OUT_OPTS,
    ],
    "sweep": [
        _Opt("n_e", "--n-e", int, True, [1, 10, 25], "excited-atom numbers"),
        _Opt("n", "--n", int, True, [0, 1, 5, 10], "input photon numbers"),
        _Opt("epsilon", "--epsilon", float, False, 0.01, "threshold probability"),
        *_OUT_OPTS,
    ],
}


def _build_parser() -> _Parser:
    parser = _Parser(prog="photonamp", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", metavar="command")
    for command, opts in _COMMAND_OPTS.items():
        p = sub.add_parser(command, help=f"emit {command} data")
        p.add_argument("--config", default=None, help="key=value file with option defaults")
        for o in opts:
            kwargs: dict = {"dest": o.name, "default": None, "help": o.help}
            if o.is_list:
                kwargs["nargs"] = "+"
                kwargs["type"] = o.type
            else:
                kwargs["type"] = o.type
            if o.choices:
                kwargs["choices"] = o.choices
            p.add_argument(o.flag, **kwargs)
    return parser


def _parse_config_file(path: str) -> dict[str, str]:
    entries: dict[str, str] = {}
    try:
        fh = open(path)
    except FileNotFoundError as exc:
        raise UsageError(f"config file not found: {path}") from exc
    with fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise UsageError(f"malformed config line (expected key=value): {line!r}")
            key, _, value = line.partition("=")
            entries[key.strip()] = value.strip()
    return entries


def _coerce(opt: _Opt, raw: str):
    try:
        if opt.is_list:
            values = [opt.type(part) for part in raw.split(",") if part != ""]
            if not values:
                raise ValueError("empty list")
            return values
        value = opt.type(raw)
    except ValueError as exc:
        raise UsageError(f"bad config value for {opt.name}: {raw!r} ({exc})") from exc
    if opt.choices and value not in opt.choices:
        raise UsageError(f"config value for {opt.name} must be one of {opt.choices}")
    return value


def _resolve(command: str, args: argparse.Namespace) -> dict:
    """Merge CLI flags over config-file entries over built-in defaults."""
    file_entries: dict[str, str] = {}
    if args.config:
        file_entries = _parse_config_file(args.config)
    known = {o.name for o in _COMMAND_OPTS[command]}
    unknown = set(file_entries) - known
    if unknown:
        raise UsageError(f"unknown config keys for {command}: {sorted(unknown)}")
    cfg: dict = {"command": command}
    for opt in _COMMAND_OPTS[command]:
        value = getattr(args, opt.name)
        if value is None and opt.name in file_entries:
            value = _coerce(opt, file_entries[opt.name])
        if value is None:
            value = opt.default
        cfg[opt.name] = value
    return cfg


def _tau_grid(cfg: dict) -> np.ndarray:
    if cfg["grid_points"] < 2:
        raise UsageError(f"grid_points must be >= 2, got {cfg['grid_points']}")
    if not cfg["tau_min"] < cfg["tau_max"]:
        raise UsageError(
            f"tau_min must be below tau_max, got [{cfg['tau_min']}, {cfg['tau_max']}]"
        )
    return np.linspace(cfg["tau_min"], cfg["tau_max"], cfg["grid_points"])


def _num(x: float) -> str:
    return f"{x:.12g}"


def _label_num(x: float) -> str:
    return f"{x:g}"


def _render_table(header: list[str], columns: list[np.ndarray]) -> str:
    lines = [",".join(header)]
    for row in zip(*columns):
        lines.append(",".join(_num(v) for v in row))
    return "\n".join(lines) + "\n"


def _jsonable(obj):
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def _emit(cfg: dict, payload: dict) -> None:
    """Write a rendered table (csv) or the structured payload (json).

    payload keys: "tau" + "series" for curve tables, or "header" +
    "columns" for row-oriented tables; optional "summary" goes to the JSON
    body and to stderr for csv output.
    """
    if cfg["format"] == "json":
        body = {"config": _jsonable(cfg)}
        if "tau" in payload:
            body["tau"] = _jsonable(payload["tau"])
            body["series"] = _jsonable(payload["series"])
        else:
            body["columns"] = payload["header"]
            body["rows"] = _jsonable(payload["rows"])
        body["summary"] = _jsonable(payload.get("summary", {}))
        text = json.dumps(body, indent=2) + "\n"
    else:
        if "tau" in payload:
            header = ["tau"] + list(payload["series"].keys())
            columns = [payload["tau"]] + list(payload["series"].values())
            text = _render_table(header, columns)
        else:
            text = _render_table(payload["header"], list(map(np.asarray, zip(*payload["rows"]))))
        if payload.get("summary"):
            print(f"summary: {json.dumps(_jsonable(payload['summary']))}", file=sys.stderr)
    if cfg["output_path"]:
        with open(cfg["output_path"], "w", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _run_fig1(cfg: dict) -> dict:
    if not cfg["n_e"] or not cfg["n"]:
        raise UsageError("fig1 needs at least one n_e and one n")
    tau = _tau_grid(cfg)
    series = {
        f"p_ne{a}_n{b}": ground_projection_probabilities(a, b, tau)
        for a in cfg["n_e"]
        for b in cfg["n"]
    }
    return {"tau": tau, "series": series}


def _run_fig2(cfg: dict) -> dict:
    if not cfg["n_e"] or not cfg["intensity"]:
        raise UsageError("fig2 needs at least one n_e and one intensity")
    tau = _tau_grid(cfg)
    series = {}
    for a in cfg["n_e"]:
        for x in cfg["intensity"]:
            trace = coherent_projection_probability(a, CoherentInput(x), tau)
            series[f"p_ne{a}_i{_label_num(x)}"] = trace.values
    return {"tau": tau, "series": series}


def _run_fig3(cfg: dict) -> dict:
    if not cfg["intensity"]:
        raise UsageError("fig3 needs at least one intensity")
    tau = _tau_grid(cfg)
    series = {}
    summary = {}
    for x in cfg["intensity"]:
        source = CoherentInput(x)
        pure = coherent_projection_probability(cfg["n_e_max"], source, tau)
        mixed = mixed_projection_probability(AtomicMixture(cfg["n_e_max"]), source, tau)
        for kind, trace in (("pure", pure), ("mixed", mixed)):
            label = f"p_{kind}_i{_label_num(x)}"
            series[label] = trace.values
            try:
                width = fwhm(trace)
            except ValueError:
                width = None
            summary[label] = {
                "peak_time": trace.peak_time,
                "peak_value": trace.peak_value,
                "fwhm": width,
            }
    return {"tau": tau, "series": series, "summary": summary}


def _run_wigner(cfg: dict) -> dict:
    tau = _tau_grid(cfg)
    total = cfg["n_e"] + cfg["n"]
    j = HalfInteger(twice_value=total)
    m = HalfInteger(twice_value=cfg["n_e"] - cfg["n"])
    series = {}
    for k in range(total + 1):
        m_prime = HalfInteger(twice_value=k - (total - k))
        series[f"d_ne{k}"] = np.array(
            [wigner_small_d(j, m_prime, m, 2.0 * t) for t in tau]
        )
    return {"tau": tau, "series": series}


def _run_exact_compare(cfg: dict) -> dict:
    if not cfg["N"]:
        raise UsageError("exact-compare needs at least one N")
    tau = _tau_grid(cfg)
    n_e, n = cfg["n_e"], cfg["n"]
    closed_form = ground_projection_probabilities(n_e, n, tau)
    series = {}
    max_devs = {}
    for N in cfg["N"]:
        h = build_sector(N, n_e + n)
        exact = exact_projection_probability(h, (n_e, n), tau).values
        dev = np.abs(exact - closed_form)
        series[f"dev_N{N}"] = dev
        max_devs[str(N)] = float(dev.max())
    devs = list(max_devs.values())
    monotone = all(devs[i] > devs[i + 1] for i in range(len(devs) - 1))
    summary = {"max_deviation": max_devs, "monotone_decreasing": monotone}
    payload = {"tau": tau, "series": series, "summary": summary}
    if not monotone and len(devs) > 1:
        payload["validation_error"] = (
            "max deviation is not strictly decreasing across N="
            f"{cfg['N']}: {devs}; increase the N spacing or check the sector "
            "build (structurally exact sectors sit at the rounding floor)"
        )
    return payload


def _run_discriminate(cfg: dict) -> dict:
    if cfg["observed"] is None:
        raise UsageError("discriminate requires --observed (or observed= in the config)")
    report = discriminate_photon_number(cfg["n_e"], cfg["observed"], cfg["n_max"])
    header = ["n", "tau_peak", "distance"]
    rows = [
        [k, float(report.candidate_peak_times[k]), float(report.distances[k])]
        for k in range(cfg["n_max"] + 1)
    ]
    summary = {"inferred_n": report.inferred_n, "observed": cfg["observed"]}
    return {"header": header, "rows": rows, "summary": summary}


def _run_sweep(cfg: dict) -> dict:
    if not cfg["n_e"] or not cfg["n"]:
        raise UsageError("sweep needs at least one n_e and one n")
    header = ["n_e", "n", "tau_peak", "tau_threshold", "p_peak"]
    rows = []
    for a in cfg["n_e"]:
        for b in cfg["n"]:
            tau_p = perception_time(a, b)
            peak = ground_projection_probability(a, b, tau_p)
            try:
                thr = threshold_time(a, b, cfg["epsilon"])
            except ValueError:
                thr = math.nan
            rows.append([a, b, tau_p, thr, peak])
    return {"header": header, "rows": rows}


_RUNNERS = {
    "fig1": _run_fig1,
    "fig2": _run_fig2,
    "fig3": _run_fig3,
    "wigner": _run_wigner,
    "exact-compare": _run_exact_compare,
    "discriminate": _run_discriminate,
    "sweep": _run_sweep,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            raise UsageError("a subcommand is required (see --help)")
        cfg = _resolve(args.command, args)
        payload = _RUNNERS[args.command](cfg)
        _emit(cfg, payload)
    except (UsageError, ValueError) as exc:
        # ValueError: a library function rejected an option's value
        print(f"photonamp: error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"photonamp: i/o error: {exc}", file=sys.stderr)
        return 2
    if "validation_error" in payload:
        print(f"photonamp: validation failure: {payload['validation_error']}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
