"""Command-line behavior: schemas, determinism, config-file merging, and
the documented exit codes (0 ok, 1 usage, 2 i/o, 3 validation)."""
import importlib.util
import json
import math
import os
import pathlib
import subprocess
import sys
import warnings

import numpy as np
import pytest

import photonamp
from photonamp import cli
from photonamp.cli import main

ROOT = pathlib.Path(__file__).resolve().parents[1]


def run(argv):
    return main(argv)


def read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    data = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    return header, data


class TestFig1:
    def test_csv_schema_and_peak(self, tmp_path):
        out = tmp_path / "fig1.csv"
        assert run(["fig1", "--grid-points", "257", "--output", str(out)]) == 0
        header, data = read_csv(out)
        assert header[0] == "tau"
        assert header[1:] == [
            f"p_ne{a}_n{b}" for a in (1, 10, 25) for b in (0, 1, 5, 10)
        ]
        # dark-input column for n_e=1 peaks at 1 exactly mid-grid
        col = header.index("p_ne1_n0")
        assert data[128, 0] == pytest.approx(math.pi / 2, abs=1e-9)
        assert data[128, col] == 1.0

    def test_argmax_matches_peak_formula(self, tmp_path):
        out = tmp_path / "fig1.csv"
        assert run(["fig1", "--n-e", "25", "--n", "10", "--grid-points", "4097",
                    "--output", str(out)]) == 0
        header, data = read_csv(out)
        peak_tau = data[np.argmax(data[:, 1]), 0]
        assert peak_tau == pytest.approx(math.acos(math.sqrt(10 / 35)), abs=2e-3)

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            assert run(["fig1", "--grid-points", "64", "--output", str(out)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_json_embeds_config(self, tmp_path):
        out = tmp_path / "fig1.json"
        assert run(["fig1", "--grid-points", "16", "--format", "json",
                    "--output", str(out)]) == 0
        body = json.loads(out.read_text())
        assert body["config"]["command"] == "fig1"
        assert body["config"]["grid_points"] == 16
        assert set(body) == {"config", "tau", "series", "summary"}
        assert len(body["tau"]) == 16

    def test_stdout_when_no_output_path(self, capsys):
        assert run(["fig1", "--n-e", "1", "--n", "0", "--grid-points", "4"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "tau,p_ne1_n0"
        assert len(lines) == 5


class TestFig2:
    def test_peak_values(self, tmp_path):
        out = tmp_path / "fig2.csv"
        assert run(["fig2", "--n-e", "25", "--grid-points", "257",
                    "--output", str(out)]) == 0
        header, data = read_csv(out)
        assert header[1:] == ["p_ne25_i0.1", "p_ne25_i0.5", "p_ne25_i0.9"]
        peaks = data[128, 1:]
        np.testing.assert_allclose(
            peaks, [math.exp(-0.1), math.exp(-0.5), math.exp(-0.9)], atol=1e-9
        )
        assert peaks[0] > peaks[1] > peaks[2]

    def test_vacuum_intensity_reduces_to_fig1_dark_curve(self, tmp_path):
        out2, out1 = tmp_path / "f2.csv", tmp_path / "f1.csv"
        assert run(["fig2", "--n-e", "5", "--intensity", "0", "--grid-points", "64",
                    "--output", str(out2)]) == 0
        assert run(["fig1", "--n-e", "5", "--n", "0", "--grid-points", "64",
                    "--output", str(out1)]) == 0
        _, d2 = read_csv(out2)
        _, d1 = read_csv(out1)
        np.testing.assert_array_equal(d2[:, 1], d1[:, 1])


class TestFig3:
    def test_paired_columns_and_widths(self, tmp_path):
        out = tmp_path / "fig3.json"
        # odd point count lands pi/2 exactly on the grid, where the pure and
        # mixed peaks coincide
        assert run(["fig3", "--grid-points", "2049", "--format", "json",
                    "--output", str(out)]) == 0
        body = json.loads(out.read_text())
        assert list(body["series"]) == [
            "p_pure_i0.1", "p_mixed_i0.1", "p_pure_i0.5", "p_mixed_i0.5"
        ]
        mixed = np.array(body["series"]["p_mixed_i0.1"])
        assert mixed[0] == pytest.approx(1 / 26, abs=1e-12)
        summary = body["summary"]
        for lam in ("0.1", "0.5"):
            assert summary[f"p_mixed_i{lam}"]["fwhm"] > summary[f"p_pure_i{lam}"]["fwhm"]
            assert summary[f"p_mixed_i{lam}"]["peak_value"] == pytest.approx(
                summary[f"p_pure_i{lam}"]["peak_value"], abs=1e-9
            )

    def test_width_is_null_where_a_curve_does_not_fall_to_half(self, capsys):
        # below tau = 0.5 every curve still rises, so no width is defined
        assert run(["fig3", "--tau-max", "0.5", "--format", "json"]) == 0
        summary = json.loads(capsys.readouterr().out)["summary"]
        assert [entry["fwhm"] for entry in summary.values()] == [None] * 4


class TestWigner:
    def test_kernel_rows_are_unit_vectors(self, tmp_path):
        out = tmp_path / "w.csv"
        assert run(["wigner", "--n-e", "3", "--n", "2", "--grid-points", "33",
                    "--output", str(out)]) == 0
        header, data = read_csv(out)
        assert header[1:] == [f"d_ne{k}" for k in range(6)]
        np.testing.assert_allclose((data[:, 1:] ** 2).sum(axis=1), 1.0, atol=1e-10)

    def test_rows_stay_unit_vectors_above_2j_170(self, tmp_path):
        out = tmp_path / "w.csv"
        assert run(["wigner", "--n-e", "100", "--n", "100", "--tau-min", "0.7",
                    "--tau-max", "0.71", "--grid-points", "2", "--output", str(out)]) == 0
        _, data = read_csv(out)
        assert data.shape == (2, 202)
        assert np.all(np.abs(data[:, 1:]) <= 1.0)
        np.testing.assert_allclose((data[:, 1:] ** 2).sum(axis=1), 1.0, atol=1e-10)


class TestExactCompare:
    def test_decreasing_deviation_passes(self, tmp_path):
        out = tmp_path / "ec.json"
        assert run(["exact-compare", "--N", "500", "2000", "--grid-points", "64",
                    "--format", "json", "--output", str(out)]) == 0
        body = json.loads(out.read_text())
        devs = body["summary"]["max_deviation"]
        assert devs["500"] > devs["2000"]
        assert body["summary"]["monotone_decreasing"] is True

    def test_non_monotone_order_fails_validation(self, tmp_path, capsys):
        out = tmp_path / "ec.csv"
        code = run(["exact-compare", "--N", "2000", "500", "--grid-points", "64",
                    "--output", str(out)])
        assert code == 3
        assert "not strictly decreasing" in capsys.readouterr().err
        assert out.exists()  # data still written for inspection

    def test_single_atom_low_excitation_is_exact(self, tmp_path):
        out = tmp_path / "ec.json"
        assert run(["exact-compare", "--N", "1", "--n-e", "1", "--n", "0",
                    "--grid-points", "64", "--format", "json", "--output", str(out)]) == 0
        body = json.loads(out.read_text())
        assert body["summary"]["max_deviation"]["1"] < 1e-10


class TestDiscriminate:
    def test_json_report(self, tmp_path):
        out = tmp_path / "d.json"
        assert run(["discriminate", "--n-e", "10", "--observed", "0.9553",
                    "--n-max", "10", "--format", "json", "--output", str(out)]) == 0
        body = json.loads(out.read_text())
        assert body["summary"]["inferred_n"] == 5
        assert body["columns"] == ["n", "tau_peak", "distance"]
        assert len(body["rows"]) == 11

    def test_observed_is_required(self, capsys):
        assert run(["discriminate"]) == 1
        assert "observed" in capsys.readouterr().err


class TestSweep:
    def test_rows_and_threshold_columns(self, tmp_path):
        out = tmp_path / "s.csv"
        assert run(["sweep", "--n-e", "1", "25", "--n", "0", "5",
                    "--output", str(out)]) == 0
        header, data = read_csv(out)
        assert header == ["n_e", "n", "tau_peak", "tau_threshold", "p_peak"]
        assert data.shape == (4, 5)
        row_1_0 = data[(data[:, 0] == 1) & (data[:, 1] == 0)][0]
        # csv carries 12 significant digits
        assert row_1_0[2] == pytest.approx(math.pi / 2, abs=1e-10)
        assert row_1_0[3] == pytest.approx(math.asin(0.1), abs=1e-9)

    @pytest.mark.parametrize("eps,why", [("0", "positive"), ("-1", "positive"),
                                         ("nan", "finite"), ("inf", "finite")])
    def test_bad_epsilon_is_a_usage_error(self, eps, why, capsys):
        # these used to exit 0 with NaN in every tau_threshold cell
        assert run(["sweep", f"--epsilon={eps}"]) == 1
        assert f"epsilon must be {why}" in capsys.readouterr().err

    def test_epsilon_above_a_peak_leaves_that_row_nan(self, tmp_path):
        out = tmp_path / "s.csv"
        # p_peak is 1 at (1, 0) and 0.5 at (1, 1)
        assert run(["sweep", "--n-e", "1", "--n", "0", "1", "--epsilon", "0.6",
                    "--output", str(out)]) == 0
        _, data = read_csv(out)
        assert data[0, 3] == pytest.approx(math.asin(math.sqrt(0.6)), abs=1e-9)
        assert math.isnan(data[1, 3])

    def test_threshold_below_1e_13_keeps_its_digits(self, capsys):
        # the bisection stopped at a width of 1e-13 and printed 4.46e-14
        assert run(["sweep", "--n-e", "1", "--n", "0", "--epsilon", "1e-40",
                    "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["rows"] == [
            [1, 0, math.pi / 2, pytest.approx(1e-20, rel=1e-14, abs=0.0), 1.0]]

    def test_threshold_where_no_grid_point_reaches_epsilon(self, tmp_path):
        # the grid's closed form rounds the (1, 34) peak below this epsilon;
        # the row used to read 0.0849, where P = 0.197
        out = tmp_path / "s.csv"
        assert run(["sweep", "--n-e", "1", "--n", "34", "--epsilon", "0.3732240931956903",
                    "--output", str(out)]) == 0
        _, data = read_csv(out)
        assert data[0, 3] == pytest.approx(data[0, 2], abs=1e-8)


class TestConfigFile:
    def test_config_supplies_defaults(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n_e=2\nn=0,1\ngrid_points=8\nformat=json\n")
        out = tmp_path / "o.json"
        assert run(["fig1", "--config", str(cfg), "--output", str(out)]) == 0
        body = json.loads(out.read_text())
        assert body["config"]["n_e"] == [2]
        assert body["config"]["n"] == [0, 1]
        assert len(body["tau"]) == 8

    def test_explicit_flag_beats_config(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("grid_points=8\n")
        out = tmp_path / "o.json"
        assert run(["fig1", "--config", str(cfg), "--grid-points", "4",
                    "--format", "json", "--output", str(out)]) == 0
        assert json.loads(out.read_text())["config"]["grid_points"] == 4

    def test_unknown_key_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("bogus=1\n")
        assert run(["fig1", "--config", str(cfg)]) == 1
        assert "bogus" in capsys.readouterr().err

    def test_empty_list_value_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n=\n")
        assert run(["fig1", "--config", str(cfg)]) == 1
        assert "empty list" in capsys.readouterr().err

    def test_blank_and_comment_lines_are_skipped(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# sweep defaults\n\n  \nn_e=2\n")
        assert run(["sweep", "--config", str(cfg), "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["config"]["n_e"] == [2]

    def test_line_without_equals_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n_e 2\n")
        assert run(["sweep", "--config", str(cfg)]) == 1
        assert "malformed config line (expected key=value): 'n_e 2'" in capsys.readouterr().err

    def test_missing_config_file_is_usage_error(self, capsys):
        assert run(["fig1", "--config", "/no/such/file.cfg"]) == 1

    @pytest.mark.parametrize(
        "entry,flags,message",
        [
            ("format=xml", ["--format", "xml"], "argument --format: invalid choice: 'xml'"),
            ("grid_points=x", ["--grid-points", "x"], "argument --grid-points: invalid int value"),
            ("n_e=-3", ["--n-e", "-3"], "photonamp: error: n_e must be non-negative, got -3\n"),
        ],
        ids=["format", "grid_points", "n_e"],
    )
    def test_bad_value_fails_as_the_flag_does(self, entry, flags, message, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(entry + "\n")
        assert run(["fig1", "--config", str(cfg)]) == 1
        from_file = capsys.readouterr().err
        assert run(["fig1", *flags]) == 1
        assert capsys.readouterr().err == from_file
        assert message in from_file

    def test_config_then_flags_equals_flags_alone(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n_e=2, 7\nn=0,1\ngrid_points=9\ntau_max=1.5\nformat=json\n")
        assert run(["fig1", "--config", str(cfg), "--n", "4", "--tau-min", "0.5"]) == 0
        from_file = capsys.readouterr().out
        assert run(["fig1", "--n-e", "2", "7", "--n", "4", "--grid-points", "9",
                    "--tau-max", "1.5", "--tau-min", "0.5", "--format", "json"]) == 0
        assert capsys.readouterr().out == from_file


class TestExitCodes:
    def test_no_command_is_usage_error(self):
        assert run([]) == 1

    def test_bad_flag_value_is_usage_error(self, capsys):
        assert run(["fig1", "--grid-points", "many"]) == 1

    def test_flag_without_values_is_usage_error(self):
        assert run(["fig1", "--n-e"]) == 1
        assert run(["exact-compare", "--N"]) == 1

    def test_bad_grid_bounds_are_usage_errors(self):
        assert run(["fig1", "--tau-min", "2.0", "--tau-max", "1.0"]) == 1
        assert run(["fig1", "--grid-points", "1"]) == 1

    def test_unwritable_output_is_io_error(self, capsys):
        assert run(["fig1", "--grid-points", "4", "--output", "/no/dir/x.csv"]) == 2
        assert "i/o error" in capsys.readouterr().err

    def test_bad_format_choice_is_usage_error(self):
        assert run(["fig1", "--format", "xml"]) == 1

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["fig1", "--n-e", "-3", "--grid-points", "4"], "non-negative"),
            (["fig2", "--intensity", "nan", "--grid-points", "4"], "intensity"),
            (["fig3", "--n-e-max", "-1", "--grid-points", "4"], "non-negative"),
            (["exact-compare", "--N", "0", "--grid-points", "4"], "N_atoms"),
            # used to build a tuple of 10**15 basis states and never finish
            (["exact-compare", "--N", "1000000000000000", "--n-e", "1000000000000000",
              "--n", "0", "--grid-points", "4"],
             "photonamp: error: --n-e must be small enough that the sector dimension "
             "min(--N, --n-e + --n) + 1 is at most 10001, got 1000000000000001\n"),
            # the flag that sets the dimension, not the solver's E or N_atoms
            (["exact-compare", "--N", "1000000", "--n-e", "1", "--n", "10000",
              "--grid-points", "4"],
             "photonamp: error: --n must be small enough that the sector dimension "
             "min(--N, --n-e + --n) + 1 is at most 10001, got 10002\n"),
            (["exact-compare", "--N", "10001", "--n-e", "6000", "--n", "6000",
              "--grid-points", "4"],
             "photonamp: error: --N must be small enough that the sector dimension "
             "min(--N, --n-e + --n) + 1 is at most 10001, got 10002\n"),
            (["discriminate", "--observed", "0.5", "--n-e", "-1"], "n_e"),
            (["wigner", "--n-e", "1", "--n", "-1", "--grid-points", "4"],
             "photonamp: error: n must be non-negative, got -1\n"),
            (["wigner", "--n-e", "3", "--n", "100000", "--grid-points", "4"],
             "photonamp: error: n must be small enough that n_e + n is at most 100000, "
             "got n_e + n = 100003\n"),
        ],
        ids=["fig1", "fig2", "fig3", "exact-compare", "exact-compare-past-bound",
             "exact-compare-past-bound-n", "exact-compare-past-bound-N",
             "discriminate", "wigner", "wigner-past-cap"],
    )
    def test_library_value_error_is_usage_error(self, argv, message, capsys):
        assert run(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("photonamp: error: ")
        assert message in err

    def test_negative_exponent_form_is_a_value(self, capsys):
        assert run(["fig1", "--tau-min", "-1e-3", "--grid-points", "4"]) == 0
        spaced = capsys.readouterr().out
        assert run(["fig1", "--tau-min=-1e-3", "--grid-points", "4"]) == 0
        assert capsys.readouterr().out == spaced
        assert run(["fig2", "--intensity", "-1e-3", "--grid-points", "4"]) == 1
        assert "intensity must be a finite non-negative real" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv,bound",
        [
            (["fig1", "--tau-min", "-inf", "--grid-points", "4"], "tau_min"),
            (["fig1", "--tau-max", "inf"], "tau_max"),
            (["fig1", "--tau-min=-1e308", "--tau-max", "1e308"], "tau_max - tau_min"),
            (["wigner", "--tau-max", "inf", "--grid-points", "4"], "tau_max"),
            # finite bounds whose rotation angle 2*tau overflows
            (["wigner", "--tau-min", "1e307", "--tau-max", "1.7e308", "--grid-points", "2"],
             "tau_max"),
        ],
        ids=["fig1-tau-min", "fig1-tau-max", "fig1-overflow", "wigner-tau-max",
             "wigner-rotation-angle"],
    )
    def test_non_finite_tau_bound_is_one_line_usage_error(self, argv, bound, capsys):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run(argv) == 1
        assert [str(w.message) for w in caught] == []
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("photonamp: error: ")
        assert bound in err[0]


def reference_json(cfg, payload):
    body = {"config": cfg}
    if "tau" in payload:
        body["tau"], body["series"] = payload["tau"], payload["series"]
    else:
        body["columns"], body["rows"] = payload["header"], payload["rows"]
    body["summary"] = payload.get("summary", {})
    return json.dumps(body, indent=2, default=cli._json_default) + "\n"


def reference_csv(payload):
    if "tau" in payload:
        header = ["tau", *payload["series"]]
        rows = zip(payload["tau"], *payload["series"].values())
    else:
        header, rows = payload["header"], payload["rows"]
    lines = [",".join(header)] + [",".join(f"{v:.12g}" for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def emitted(cfg, payload, capsys):
    capsys.readouterr()
    cli._emit(cfg, payload)
    return capsys.readouterr().out


def text_lines(text):
    # compared as lists, so that a failure reports the first differing line
    # instead of a diff of two whole files
    return text.split("\n")


class TestBulkWriters:
    """_emit writes the bytes of json.dumps(indent=2) and of a per-cell
    f"{v:.12g}" loop, without going through either."""

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("argv", [
        ["fig1"], ["fig2"], ["fig3"], ["wigner"], ["exact-compare"],
        ["discriminate", "--observed", "0.9553"], ["sweep"], ["fig1", "--grid-points", "2"],
    ], ids=lambda argv: "-".join(argv))
    def test_subcommand_payloads_match_the_stdlib(self, argv, fmt, capsys, monkeypatch):
        calls = []
        monkeypatch.setattr(cli, "_emit", lambda cfg, payload: calls.append((cfg, payload)))
        assert run([*argv, "--format", fmt]) == 0
        monkeypatch.undo()
        [(cfg, payload)] = calls
        reference = reference_json(cfg, payload) if fmt == "json" else reference_csv(payload)
        assert text_lines(emitted(cfg, payload, capsys)) == text_lines(reference)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_edge_values_in_a_series(self, fmt, capsys):
        cfg = {"command": "fig1", "format": fmt, "output_path": None}
        payload = {
            "tau": np.linspace(0.0, 1.0, 5),
            "series": {"p_edge": np.array([-0.0, 5e-324, 1e16, 1e-5, 999999999999.5]),
                       "p_non_finite": np.array([0.5, np.nan, np.inf, -np.inf, -0.0])},
            "summary": {"peak_value": np.float64(0.25), "inferred_n": np.int64(3)},
        }
        reference = reference_json(cfg, payload) if fmt == "json" else reference_csv(payload)
        assert text_lines(emitted(cfg, payload, capsys)) == text_lines(reference)

    def test_nan_threshold_and_empty_summary_in_rows(self, capsys):
        payload = {
            "header": ["n_e", "n", "tau_peak", "tau_threshold", "p_peak"],
            "rows": [[0, 3, 0.0, 0.0, 1.0], [1, 0, math.pi / 2, math.nan, 1.0]],
            "summary": {},
        }
        cfg = {"command": "sweep", "format": "json", "output_path": None}
        text = emitted(cfg, payload, capsys)
        assert text_lines(text) == text_lines(reference_json(cfg, payload))
        assert "      NaN,\n" in text and '"summary": {}' in text
        cfg["format"] = "csv"
        text = emitted(cfg, payload, capsys)
        assert text_lines(text) == text_lines(reference_csv(payload))
        assert text.splitlines()[2] == "1,0,1.57079632679,nan,1"

    def test_object_json_cannot_write_is_a_type_error(self):
        with pytest.raises(TypeError, match="^not JSON serializable: object$"):
            cli._json_default(object())


class TestParserReuse:
    def test_reused_parser_leaks_no_state(self, tmp_path, capsys):
        defaults = {c: [(o.name, list(o.default) if o.is_list else o.default) for o in opts]
                    for c, (_, opts) in cli._COMMANDS.items()}
        conf = tmp_path / "run.cfg"
        conf.write_text("n_e=2,7\nn=3\ntau_max=1.5\nformat=json\n")
        sequence = [
            (["fig1", "--format", "xml"], 1),
            (["fig1", "--config", str(conf), "--grid-points", "4"], 0),
            (["fig1", "--grid-points", "4"], 0),
        ]
        for argv, code in sequence:
            assert run(argv) == code
            out, err = capsys.readouterr()
            alone = python_m_photonamp(*argv)
            assert (alone.returncode, alone.stdout, alone.stderr) == (code, out, err)
        assert cli._build_parser() is cli._build_parser()
        assert {c: [(o.name, o.default) for o in opts]
                for c, (_, opts) in cli._COMMANDS.items()} == defaults


def python_m_photonamp(*args):
    src = str(pathlib.Path(photonamp.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "photonamp", *args], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path}, timeout=120)


class TestEntryPoints:
    def test_python_m_writes_csv(self):
        done = python_m_photonamp("fig1", "--grid-points", "4")
        assert done.returncode == 0
        lines = done.stdout.splitlines()
        assert lines[0].startswith("tau,p_ne1_n0,")
        assert len(lines) == 5

    def test_python_m_without_command_is_usage_error(self):
        done = python_m_photonamp()
        assert done.returncode == 1
        assert "subcommand" in done.stderr

    def test_figure_script_writes_its_five_files(self, tmp_path, capsys):
        spec = importlib.util.spec_from_file_location(
            "make_figure_data", ROOT / "scripts" / "make_figure_data.py")
        script = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(script)
        assert script.run_all(tmp_path) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "exact_compare_ne3_n2.json",
            "fig1_fock_inputs.csv",
            "fig2_coherent_inputs.csv",
            "fig3_pure_vs_mixed.json",
            "peak_threshold_sweep.csv",
        ]
