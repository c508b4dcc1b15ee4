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
(lists comma-separated). Its entries are parsed as flags placed ahead of the
command line's own, so they are typed and checked like flags, and explicit
flags win over the file.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from .ensembles import (
    AtomicMixture,
    CoherentInput,
    _require_epsilon,
    coherent_projection_probability,
    discriminate_photon_number,
    fwhm,
    mixed_projection_probability,
    perception_time,
    threshold_time,
)
from .exact_model import _sector_total, build_sector, exact_projection_probability
from .hp_model import ground_projection_probabilities, ground_projection_probability
from .numerics import _d_column, _require_finite, _require_twice_j, _require_whole
from .numerics import wigner_small_d  # noqa: F401  (perfbench/tracing.py wraps this name)

__all__ = ["main"]


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse parser that reports usage problems as exit code 1 and takes
    every token that reads as a float (-1e-3, -inf) as a value."""

    def error(self, message):
        raise UsageError(message)

    def _parse_optional(self, arg_string):
        try:
            float(arg_string)
        except ValueError:
            return super()._parse_optional(arg_string)
        return None


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

@functools.lru_cache(maxsize=1)
def _build_parser() -> _Parser:
    """The process's one parser: parsing leaves no state in it."""
    parser = _Parser(prog="photonamp", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", metavar="command")
    for command, (_, opts) in _COMMANDS.items():
        p = sub.add_parser(command, help=f"emit {command} data")
        p.add_argument("--config", default=None, help="key=value file with option defaults")
        for o in opts:
            p.add_argument(
                o.flag, dest=o.name, type=o.type, default=o.default, help=o.help,
                nargs="+" if o.is_list else None, choices=o.choices,
            )
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


def _config_flags(command: str, path: str) -> list[str]:
    """A config file's entries as flags of the command's subparser."""
    entries = _parse_config_file(path)
    opts = {o.name: o for o in _COMMANDS[command][1]}
    unknown = set(entries) - set(opts)
    if unknown:
        raise UsageError(f"unknown config keys for {command}: {sorted(unknown)}")
    flags = []
    for key, raw in entries.items():
        opt = opts[key]
        if not opt.is_list:
            flags.append(f"{opt.flag}={raw}")
            continue
        values = [part for part in raw.split(",") if part != ""]
        if not values:
            raise UsageError(f"bad config value for {key}: {raw!r} (empty list)")
        flags += [opt.flag, *values]
    return flags


def _tau_grid(cfg: dict) -> np.ndarray:
    if cfg["grid_points"] < 2:
        raise UsageError(f"grid_points must be >= 2, got {cfg['grid_points']}")
    _require_finite(tau_min=cfg["tau_min"], tau_max=cfg["tau_max"],
                    **{"tau_max - tau_min": cfg["tau_max"] - cfg["tau_min"]})
    if not cfg["tau_min"] < cfg["tau_max"]:
        raise UsageError(
            f"tau_min must be below tau_max, got [{cfg['tau_min']}, {cfg['tau_max']}]"
        )
    return np.linspace(cfg["tau_min"], cfg["tau_max"], cfg["grid_points"])


def _label_num(x: float) -> str:
    return f"{x:g}"


def _render_table(header: list[str], columns: list[np.ndarray]) -> str:
    # one %-template per row; '%.12g' % v equals f"{v:.12g}" for every float and int
    template = ",".join(["%.12g"] * len(header))
    lines = [",".join(header)]
    lines += map(template.__mod__, zip(*(column.tolist() for column in columns)))
    return "\n".join(lines) + "\n"


def _json_default(obj):
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj).__name__}")


def _json_text(obj, indent: str = "\n") -> str:
    """The bytes of json.dumps(obj, indent=2, default=_json_default), with a
    1-D finite float64 array written in one join: for a finite float,
    float.__repr__ is what json writes. A dict with a key that is not a str
    goes to json whole, which quotes such keys."""
    inner = indent + "  "
    if isinstance(obj, dict) and obj and all(isinstance(k, str) for k in obj):
        items = (f"{json.dumps(k)}: {_json_text(v, inner)}" for k, v in obj.items())
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    if (isinstance(obj, np.ndarray) and obj.ndim == 1 and obj.size
            and obj.dtype == np.float64 and np.isfinite(obj).all()):
        return "[" + inner + ("," + inner).join(map(float.__repr__, obj.tolist())) + indent + "]"
    return json.dumps(obj, indent=2, default=_json_default).replace("\n", indent)


def _emit(cfg: dict, payload: dict) -> None:
    """Write a rendered table (csv) or the structured payload (json).

    payload keys: "tau" + "series" for curve tables, or "header" +
    "columns" for row-oriented tables; optional "summary" goes to the JSON
    body and to stderr for csv output.
    """
    if cfg["format"] == "json":
        body = {"config": cfg}
        if "tau" in payload:
            body["tau"] = payload["tau"]
            body["series"] = payload["series"]
        else:
            body["columns"] = payload["header"]
            body["rows"] = payload["rows"]
        body["summary"] = payload.get("summary", {})
        text = _json_text(body) + "\n"
    else:
        if "tau" in payload:
            header = ["tau"] + list(payload["series"].keys())
            columns = [payload["tau"]] + list(payload["series"].values())
            text = _render_table(header, columns)
        else:
            text = _render_table(payload["header"], list(map(np.asarray, zip(*payload["rows"]))))
        if payload.get("summary"):
            summary = json.dumps(payload["summary"], default=_json_default)
            print(f"summary: {summary}", file=sys.stderr)
    if cfg["output_path"]:
        with open(cfg["output_path"], "w", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _run_fig1(cfg: dict) -> dict:
    tau = _tau_grid(cfg)
    series = {
        f"p_ne{a}_n{b}": ground_projection_probabilities(a, b, tau)
        for a in cfg["n_e"]
        for b in cfg["n"]
    }
    return {"tau": tau, "series": series}


def _run_fig2(cfg: dict) -> dict:
    tau = _tau_grid(cfg)
    series = {}
    for a in cfg["n_e"]:
        for x in cfg["intensity"]:
            trace = coherent_projection_probability(a, CoherentInput(x), tau)
            series[f"p_ne{a}_i{_label_num(x)}"] = trace.values
    return {"tau": tau, "series": series}


def _run_fig3(cfg: dict) -> dict:
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
    n_e, n = _require_whole(n_e=cfg["n_e"], n=cfg["n"])
    _require_twice_j(n_e + n, "n_e" if n_e >= n else "n", "n_e + n")
    tau = _tau_grid(cfg)
    _require_finite(**{"2*tau_min": 2.0 * cfg["tau_min"], "2*tau_max": 2.0 * cfg["tau_max"]})
    columns = np.array([_d_column(n_e + n, n_e - n, 2.0 * t) for t in tau])
    return {"tau": tau, "series": {f"d_ne{k}": d for k, d in enumerate(columns.T)}}


def _run_exact_compare(cfg: dict) -> dict:
    tau = _tau_grid(cfg)
    n_e, n = cfg["n_e"], cfg["n"]
    closed_form = ground_projection_probabilities(n_e, n, tau)
    series = {}
    max_devs = {}
    for N in cfg["N"]:
        h = build_sector(N, _sector_total(N, {"--n-e": n_e, "--n": n}, "--N"))
        exact = exact_projection_probability(h, (n_e, n), tau).values
        dev = np.abs(exact - closed_form)
        series[f"dev_N{N}"] = dev
        max_devs[str(N)] = float(dev.max())
    devs = list(max_devs.values())
    monotone = all(devs[i] > devs[i + 1] for i in range(len(devs) - 1))
    summary = {"max_deviation": max_devs, "monotone_decreasing": monotone}
    payload = {"tau": tau, "series": series, "summary": summary}
    if not monotone:
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
    _require_epsilon(cfg["epsilon"])  # so that only a row's peak can refuse it below
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


# each command's runner, which maps its options' values to a payload, and its options
_COMMANDS = {
    "fig1": (_run_fig1, [
        _Opt("n_e", "--n-e", int, True, [1, 10, 25], "excited-atom numbers"),
        _Opt("n", "--n", int, True, [0, 1, 5, 10], "input photon numbers"),
        *_GRID_OPTS,
        *_OUT_OPTS,
    ]),
    "fig2": (_run_fig2, [
        _Opt("n_e", "--n-e", int, True, [10, 25], "excited-atom numbers"),
        _Opt("intensity", "--intensity", float, True, [0.1, 0.5, 0.9], "coherent intensities"),
        *_GRID_OPTS,
        *_OUT_OPTS,
    ]),
    "fig3": (_run_fig3, [
        _Opt("n_e_max", "--n-e-max", int, False, 25, "top of the uniform mixture (also the pure n_e)"),
        _Opt("intensity", "--intensity", float, True, [0.1, 0.5], "coherent intensities"),
        *_GRID_OPTS,
        *_OUT_OPTS,
    ]),
    "wigner": (_run_wigner, [
        _Opt("n_e", "--n-e", int, False, 1, "excited atoms of the input state"),
        _Opt("n", "--n", int, False, 0, "photons of the input state"),
        *_GRID_OPTS,
        *_OUT_OPTS,
    ]),
    "exact-compare": (_run_exact_compare, [
        _Opt("N", "--N", int, True, [500, 1000, 2000, 4000], "atom numbers for the finite-N solver"),
        _Opt("n_e", "--n-e", int, False, 3, "excited atoms"),
        _Opt("n", "--n", int, False, 2, "input photons"),
        *_GRID_OPTS,
        *_OUT_OPTS,
    ]),
    "discriminate": (_run_discriminate, [
        _Opt("n_e", "--n-e", int, False, 25, "excited atoms"),
        _Opt("observed", "--observed", float, False, None, "observed peak time (required)"),
        _Opt("n_max", "--n-max", int, False, 10, "largest candidate photon number"),
        *_OUT_OPTS,
    ]),
    "sweep": (_run_sweep, [
        _Opt("n_e", "--n-e", int, True, [1, 10, 25], "excited-atom numbers"),
        _Opt("n", "--n", int, True, [0, 1, 5, 10], "input photon numbers"),
        _Opt("epsilon", "--epsilon", float, False, 0.01, "threshold probability"),
        *_OUT_OPTS,
    ]),
}


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            raise UsageError("a subcommand is required (see --help)")
        if args.config:
            # after the command, ahead of its own flags: the last one wins
            at = argv.index(args.command) + 1
            file_flags = _config_flags(args.command, args.config)
            args = parser.parse_args([*argv[:at], *file_flags, *argv[at:]])
        runner, opts = _COMMANDS[args.command]
        cfg = {"command": args.command}
        cfg.update((o.name, getattr(args, o.name)) for o in opts)
        payload = runner(cfg)
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
