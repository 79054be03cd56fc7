"""Command dispatch: exit codes, output shapes, and file handling."""

import errno
import hashlib
import io
import itertools
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import screencurve
from screencurve import (
    CohortResult,
    PlotSpec,
    ScreeningTest,
    build_test_report,
    parse_catalog,
    render_screening_plane,
    simulate_cohort,
)
from screencurve.cli import build_parser, cli_dispatch
from screencurve.emit import emit_report, report_text

from _oracles import PHI_E_9575


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    code = cli_dispatch(argv, out, err)
    return code, out.getvalue(), err.getvalue()


def fresh_env():
    """The environment of a fresh interpreter that imports this package."""
    package_root = str(Path(screencurve.__file__).resolve().parent.parent)
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=package_root + (os.pathsep + path if path else ""))


def run_module(module, argv):
    """Run ``python -m module argv`` in a fresh interpreter that imports this package."""
    return subprocess.run(
        [sys.executable, "-m", module, *argv],
        capture_output=True, text=True, encoding="utf-8", env=fresh_env(), timeout=60,
    )


def line_value(output, prefix):
    for line in output.splitlines():
        if line.startswith(prefix):
            return line[len(prefix):].strip()
    raise AssertionError(f"no line starting with {prefix!r} in:\n{output}")


#: Arguments that satisfy each subcommand's required options and positionals.
REQUIRED = {
    "analyze": ["--sens", "0.5", "--spec", "0.5"],
    "curve": ["--sens", "0.5", "--spec", "0.5"],
    "compare": ["--test1", "0.5,0.5", "--test2", "0.5,0.5"],
    "plot": ["--catalog", "tests.csv", "--out", "plot.svg"],
    "simulate": ["--sens", "0.5", "--spec", "0.5", "--prev", "0.5"],
    "catalog": ["tests.csv"],
    "limit-sweep": [],
}


class TestAnalyze:
    def test_anchor_example(self):
        code, out, err = run(["analyze", "--sens", "0.95", "--spec", "0.75"])
        assert code == 0 and err == ""
        assert line_value(out, "LR+:") == "3.8"
        phi_e = float(line_value(out, "prevalence threshold phi_e:"))
        assert phi_e == pytest.approx(0.3391, abs=5e-4)

    def test_json_mode(self):
        code, out, _ = run(["analyze", "--sens", "0.95", "--spec", "0.75", "--json"])
        assert code == 0
        payload = json.loads(out)
        assert payload["threshold"]["phi_e"] == pytest.approx(PHI_E_9575, rel=1e-11)

    def test_out_of_range_is_usage_error(self):
        code, out, err = run(["analyze", "--sens", "1.5", "--spec", "0.5"])
        assert code == 2
        assert "--sens" in err

    def test_degenerate_is_domain_error(self):
        code, _, err = run(["analyze", "--sens", "0", "--spec", "1"])
        assert code == 1
        assert "sensitivity" in err

    def test_missing_required_flag(self):
        code, _, _ = run(["analyze", "--sens", "0.9"])
        assert code == 2

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["analyze", "--sens", "abc", "--spec", "0.5"], "argument --sens: 'abc' is not a number"),
            (["curve", "--sens", "0.5", "--spec", "0.5", "--samples", "x"],
             "argument --samples: 'x' is not an integer"),
            (["simulate", "--sens", "0.5", "--spec", "0.5", "--prev", "0.5", "--n", "0"],
             "argument --n: value must be >= 1"),
            (["simulate", "--sens", "0.5", "--spec", "0.5", "--prev", "0.5", "--seed", "x"],
             "argument --seed: 'x' is not an integer"),
            (["compare", "--test1", "x,0.5", "--test2", "0.5,0.5"],
             "argument --test1: could not convert string to float: 'x'"),
            (["compare", "--test1", "0.5,0.5", "--test2", "1.5,0.5"],
             "argument --test2: sensitivity must lie in [0, 1], got 1.5"),
            # A value that starts with "-" but is no plain negative decimal,
            # which argparse alone would read as an option name.
            (["analyze", "--sens", "-1e-3", "--spec", "0.5"],
             "argument --sens: '-1e-3' is not in [0, 1]"),
            (["analyze", "--sens", "0.5", "--spec", "-inf"],
             "argument --spec: '-inf' is not in [0, 1]"),
            (["curve", "--sens", "0.5", "--spec", "0.5", "--samples", "-1e2"],
             "argument --samples: '-1e2' is not an integer"),
            (["simulate", "--sens", "0.5", "--spec", "0.5", "--prev", "-1e-3"],
             "argument --prev: '-1e-3' is not in [0, 1]"),
            (["simulate", "--sens", "0.5", "--spec", "0.5", "--prev", "0.5", "--n", "-1e3"],
             "argument --n: '-1e3' is not an integer"),
            (["simulate", "--sens", "0.5", "--spec", "0.5", "--prev", "0.5", "--seed", "-1e3"],
             "argument --seed: '-1e3' is not an integer"),
            (["compare", "--test1", "-0.5,0.3", "--test2", "0.5,0.5"],
             "argument --test1: sensitivity must lie in [0, 1], got -0.5"),
            (["compare", "--test1", "0.5,0.5", "--test2", "-1e-3,0.5"],
             "argument --test2: sensitivity must lie in [0, 1], got -0.001"),
            (["compare", "--test1", "0.5,0.5", "--test2", "0.5,0.5", "--eps-tol", "-inf"],
             "argument --eps-tol: eps_tol must be a finite number >= 0, got -inf"),
            (["limit-sweep", "--steps", "-1e1"], "argument --steps: '-1e1' is not an integer"),
            # The same after a unique prefix of the option, which argparse accepts.
            (["analyze", "--sen", "-1e-3", "--spec", "0.5"],
             "argument --sens: '-1e-3' is not in [0, 1]"),
            (["analyze", "--sens", "0.5", "--sp", "-inf"], "argument --spec: '-inf' is not in [0, 1]"),
            (["curve", "--sens", "0.5", "--spec", "0.5", "--sa", "-1e2"],
             "argument --samples: '-1e2' is not an integer"),
            (["compare", "--test1", "0.5,0.5", "--test2", "0.5,0.5", "--eps", "-inf"],
             "argument --eps-tol: eps_tol must be a finite number >= 0, got -inf"),
            # --samples past its cap.  It comes first, so without the cap the
            # missing options are reported before any grid is built.
            (["curve", "--samples", "1000001"], "argument --samples: value must be <= 1000000"),
            (["curve", "--samples", "1000000000"], "argument --samples: value must be <= 1000000"),
            (["plot", "--samples", "1000001"], "argument --samples: value must be <= 1000000"),
            (["plot", "--samples", "1000000000"], "argument --samples: value must be <= 1000000"),
            # --eps-tol is checked by the parser too, as every other option is.
            (["compare", "--test1", "0.5,0.5", "--test2", "0.5,0.5", "--eps-tol", "x"],
             "argument --eps-tol: could not convert string to float: 'x'"),
        ],
    )
    def test_malformed_argument_is_usage_error(self, argv, message):
        code, out, err = run(argv)
        assert code == 2 and out == ""
        assert message in err


class TestCurve:
    def test_stdout_csv(self):
        code, out, _ = run(["curve", "--sens", "0.5", "--spec", "0.5", "--samples", "3"])
        assert code == 0
        assert out == "phi,ppv\n0,0\n0.5,0.5\n1,1\n"

    def test_file_output_and_determinism(self, tmp_path):
        target = tmp_path / "curve.csv"
        argv = ["curve", "--sens", "0.95", "--spec", "0.75", "--out", str(target)]
        assert run(argv)[0] == 0
        first = target.read_bytes()
        assert run(argv)[0] == 0
        assert target.read_bytes() == first
        assert first.startswith(b"phi,ppv\n")

    def test_single_sample_is_usage_error(self):
        code, out, err = run(["curve", "--sens", "0.5", "--spec", "0.5", "--samples", "1"])
        assert code == 2 and out == ""
        assert "n must be an integer >= 2" in err

    @pytest.mark.parametrize("command", ["curve", "plot"])
    def test_samples_at_the_cap_parse(self, command):
        args = build_parser().parse_args([command, *REQUIRED[command], "--samples", "1000000"])
        assert args.samples == 1_000_000

    def test_unwritable_output(self, tmp_path):
        argv = [
            "curve",
            "--sens",
            "0.5",
            "--spec",
            "0.5",
            "--out",
            str(tmp_path / "missing" / "curve.csv"),
        ]
        code, _, err = run(argv)
        assert code == 1
        assert err != ""


class TestCompare:
    def test_dominant_second(self):
        code, out, _ = run(["compare", "--test1", "0.95,0.75", "--test2", "0.75,0.95"])
        assert code == 0
        assert "dominant: test2" in out

    def test_json(self):
        code, out, _ = run(
            ["compare", "--test1", "0.95,0.75", "--test2", "0.75,0.95", "--json"]
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["dominant"] == "second"
        assert payload["equal_epsilon"] is True

    def test_malformed_pair(self):
        code, _, err = run(["compare", "--test1", "0.95", "--test2", "0.75,0.95"])
        assert code == 2
        assert "--test1" in err

    @pytest.mark.parametrize("tol", ["-1", "nan"])
    def test_bad_tolerance_is_usage_error(self, tol):
        code, out, err = run(
            ["compare", "--test1", "0.95,0.75", "--test2", "0.75,0.95", "--eps-tol", tol]
        )
        assert code == 2 and out == ""
        assert err.startswith("usage: screencurve compare ")
        assert f"argument --eps-tol: eps_tol must be a finite number >= 0, got {float(tol)}" in err

    def test_identical_tests_coincide(self):
        code, out, _ = run(["compare", "--test1", "0.9,0.8", "--test2", "0.9,0.8"])
        assert code == 0
        assert "dominant: neither (curves coincide)" in out.splitlines()

    def test_negative_zero_prints_as_zero(self):
        code, _, err = run(["compare", "--test1=-0,0.5", "--test2", "0.75,0.95"])
        assert code == 1
        assert "(sensitivity=0 specificity=0.5)" in err

    def test_degenerate_member(self):
        code, _, err = run(["compare", "--test1", "0,1", "--test2", "0.75,0.95"])
        assert code == 1
        assert "first test" in err


class TestPlot:
    def test_plot_catalog(self, tmp_path):
        catalog = tmp_path / "tests.csv"
        catalog.write_text(
            "name,sensitivity,specificity\nanchor,0.95,0.75\nmirror,0.75,0.95\n"
        )
        target = tmp_path / "plane.svg"
        argv = [
            "plot",
            "--catalog",
            str(catalog),
            "--threshold",
            "--beta",
            "--chords",
            "--out",
            str(target),
        ]
        assert run(argv)[0] == 0
        first = target.read_bytes()
        assert run(argv)[0] == 0
        assert target.read_bytes() == first
        assert first.startswith(b"<?xml")

    def test_missing_catalog(self, tmp_path):
        code, _, err = run(
            ["plot", "--catalog", str(tmp_path / "nope.csv"), "--out", str(tmp_path / "x.svg")]
        )
        assert code == 2
        assert "cannot read" in err

    def test_malformed_catalog(self, tmp_path):
        catalog = tmp_path / "bad.csv"
        catalog.write_text("name,sensitivity,specificity\nT1,1.2,0.5\n")
        code, _, err = run(
            ["plot", "--catalog", str(catalog), "--out", str(tmp_path / "x.svg")]
        )
        assert code == 2
        assert "line 2" in err

    def test_default_samples_are_the_plot_specs(self, tmp_path):
        # The default grid size is stated once, on PlotSpec.
        text = "name,sensitivity,specificity\nanchor,0.95,0.75\nmirror,0.75,0.95\n"
        catalog = tmp_path / "tests.csv"
        catalog.write_text(text, encoding="utf-8")
        code, out, err = run(["plot", "--catalog", str(catalog), "--out", "-"])
        assert (code, err) == (0, "")
        assert out == render_screening_plane(PlotSpec(tuple(parse_catalog(text))))

    @pytest.mark.parametrize("name", ["a\x01b", "x\ufffey"])
    def test_name_xml_cannot_hold_is_a_usage_error(self, tmp_path, name):
        catalog = tmp_path / "tests.csv"
        catalog.write_text(f"name,sensitivity,specificity\n{name},0.95,0.75\n", encoding="utf-8")
        code, out, err = run(["plot", "--catalog", str(catalog), "--out", "-"])
        assert (code, out) == (2, "")
        assert err.startswith("screencurve: error: name ") and err.count("\n") == 1
        # The text and JSON reports can carry the name.
        assert run(["catalog", str(catalog), "--json"])[0] == 0


#: The commands that take ``--out``; {catalog} stands for a catalog file.
WRITERS = {
    "curve": ["curve", "--sens", "0.95", "--spec", "0.75"],
    "curve-3": ["curve", "--sens", "0.95", "--spec", "0.75", "--samples", "3"],
    "plot": ["plot", "--catalog", "{catalog}", "--threshold", "--beta", "--chords"],
}


def writer_argv(name, tmp_path):
    catalog = tmp_path / "tests.csv"
    catalog.write_text(
        "name,sensitivity,specificity\nanchor,0.95,0.75\nmirror,0.75,0.95\ncertain,0.9,1\n",
        encoding="utf-8",
    )
    return [arg.replace("{catalog}", str(catalog)) for arg in WRITERS[name]]


class TestOutPath:
    @pytest.mark.parametrize("name", WRITERS)
    def test_a_file_gets_the_bytes_stdout_gets(self, tmp_path, name):
        argv = writer_argv(name, tmp_path)
        code, out, err = run([*argv, "--out", "-"])
        assert (code, err) == (0, "") and out
        target = tmp_path / "out.txt"
        assert run([*argv, "--out", str(target)]) == (0, "", "")
        assert target.read_bytes() == out.encode("utf-8")

    @pytest.mark.parametrize("name", ["curve", "plot"])
    @pytest.mark.parametrize("where", ["missing/out.txt", "directory"])
    def test_an_unwritable_path_fails_and_creates_nothing(self, tmp_path, name, where):
        argv = writer_argv(name, tmp_path)
        (tmp_path / "directory").mkdir()
        before = sorted(tmp_path.rglob("*"))
        code, out, err = run([*argv, "--out", str(tmp_path / where)])
        assert (code, out) == (1, "")
        assert err.startswith("screencurve: error: ") and err.count("\n") == 1
        assert err.endswith("\n")
        assert sorted(tmp_path.rglob("*")) == before

    @pytest.mark.parametrize("where, code", [("missing/out.txt", errno.ENOENT),
                                             ("directory", errno.EISDIR)])
    def test_a_failed_write_names_its_file(self, tmp_path, where, code):
        (tmp_path / "directory").mkdir()
        path = str(tmp_path / where)
        assert run([*writer_argv("curve-3", tmp_path), "--out", path]) == (
            1, "", f"screencurve: error: cannot write {path!r}: {os.strerror(code)}\n"
        )

    @pytest.mark.parametrize("argv", [
        ["analyze", "--sens", "0.95", "--spec", "0.75", "--json"],
        ["curve", "--sens", "0.95", "--spec", "0.75", "--out", "-"],
        ["limit-sweep", "--steps", "3"],
    ])
    # A buffered stream meets a closed pipe when it flushes, a short write at once.
    @pytest.mark.parametrize("method", ["write", "flush"])
    def test_a_failed_stdout_write_says_so(self, argv, method):
        def closed(self, *args):
            raise BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE))

        err = io.StringIO()
        assert cli_dispatch(argv, type("ClosedPipe", (io.StringIO,), {method: closed})(), err) == 1
        assert err.getvalue() == (
            f"screencurve: error: cannot write standard output: {os.strerror(errno.EPIPE)}\n"
        )

    def test_a_closed_stdout_pipe_ends_the_process_with_one_line(self):
        # Buffered stdout keeps the text its failed flush could not write;
        # the interpreter's flush at exit must not fail on it again (which
        # printed "Exception ignored ... BrokenPipeError" and exited 120).
        read_end, write_end = os.pipe()
        os.close(read_end)
        env = fresh_env()
        env.pop("PYTHONUNBUFFERED", None)
        try:
            done = subprocess.run(
                [sys.executable, "-m", "screencurve", "limit-sweep", "--steps", "3"],
                stdout=write_end, stderr=subprocess.PIPE, text=True, env=env, timeout=60,
            )
        finally:
            os.close(write_end)
        assert (done.returncode, done.stderr) == (
            1, f"screencurve: error: cannot write standard output: {os.strerror(errno.EPIPE)}\n"
        )


class TestSimulate:
    def test_human_output(self):
        code, out, _ = run(
            [
                "simulate",
                "--sens",
                "0.95",
                "--spec",
                "0.75",
                "--prev",
                "0.34",
                "--n",
                "10000",
                "--seed",
                "42",
            ]
        )
        assert code == 0
        assert line_value(out, "true positives:") == "3233"

    def test_json_output(self):
        code, out, _ = run(
            [
                "simulate",
                "--sens",
                "0.95",
                "--spec",
                "0.75",
                "--prev",
                "0.34",
                "--n",
                "10000",
                "--seed",
                "42",
                "--json",
            ]
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["false_pos"] == 1610

    def test_absent_estimates_still_succeed(self):
        code, out, _ = run(
            ["simulate", "--sens", "0", "--spec", "1", "--prev", "0.5", "--n", "100"]
        )
        assert code == 0
        assert "undefined" in out

    def test_no_true_positives(self):
        code, out, _ = run(
            ["simulate", "--sens", "0", "--spec", "0.5", "--prev", "0.5", "--n", "100"]
        )
        assert code == 0
        assert line_value(out, "empirical LR+:") == (
            "undefined (no true positives: empirical LR+ collapses to 0)"
        )


class TestCatalogCommand:
    def test_batch_report(self, tmp_path):
        catalog = tmp_path / "tests.csv"
        catalog.write_text(
            "name,sensitivity,specificity\ngood,0.95,0.75\nbroken,0,0.5\n"
        )
        code, out, _ = run(["catalog", str(catalog)])
        assert code == 0
        assert "[good]" in out and "[broken]" in out
        assert "undefined" in out  # degenerate entries are tolerated

    def test_batch_json(self, tmp_path):
        catalog = tmp_path / "tests.csv"
        catalog.write_text(
            "name,sensitivity,specificity\ngood,0.95,0.75\nbroken,0,0.5\n"
        )
        code, out, _ = run(["catalog", str(catalog), "--json"])
        assert code == 0
        payload = json.loads(out)
        assert [row["name"] for row in payload] == ["good", "broken"]
        assert payload[1]["lr_plus"] is None
        assert isinstance(payload[1]["lr_plus_reason"], str)

    def test_header_only_catalog(self, tmp_path):
        catalog = tmp_path / "tests.csv"
        catalog.write_text("name,sensitivity,specificity\n")
        assert run(["catalog", str(catalog), "--json"]) == (0, "[]\n", "")
        assert run(["catalog", str(catalog)]) == (0, "", "")

    @pytest.mark.parametrize(
        "argv",
        [["catalog", "{}"], ["plot", "--catalog", "{}", "--out", "-"]],
        ids=["catalog", "plot"],
    )
    def test_non_utf8_catalog_is_a_usage_error(self, tmp_path, argv):
        catalog = tmp_path / "tests.csv"
        catalog.write_bytes(b"name,sensitivity,specificity\nbad\xff,0.95,0.75\n")
        code, out, err = run([arg.format(catalog) for arg in argv])
        assert (code, out) == (2, "")
        assert err.startswith("screencurve: error: cannot read ") and err.count("\n") == 1
        assert "not UTF-8" in err

    def test_unicode_line_breaks_stay_inside_their_line(self, tmp_path):
        catalog = tmp_path / "tests.csv"
        catalog.write_text("name,sensitivity,specificity\n# note\x85 with NEL\nT1,1.2,0.5\n",
                           encoding="utf-8")
        named = tmp_path / "named.csv"
        named.write_text("name,sensitivity,specificity\na\u2028b,0.95,0.75\n", encoding="utf-8")
        bad, good = (run_module("screencurve", ["catalog", str(target), "--json"])
                     for target in (catalog, named))
        assert (bad.returncode, bad.stdout) == (2, "")
        assert "line 3: sensitivity must lie in [0, 1], got '1.2'" in bad.stderr
        assert good.returncode == 0, good.stderr
        assert [row["name"] for row in json.loads(good.stdout)] == ["a\u2028b"]

    def test_control_characters_print_escaped_in_the_text_form(self, tmp_path):
        # C0, DEL and C1 print as \u00XX; quotes, backslash, é, U+2028 and
        # U+00A0 print as they are.  The JSON form escapes C0 by its own rule.
        name = 'A\x1b[31mred\x00\x0b\x1f\x7f\x85\x9f q"\\é\u2028\xa0z'
        catalog = tmp_path / "tests.csv"
        catalog.write_text(f"name,sensitivity,specificity\n{name},0.9,0.8\n", encoding="utf-8")
        code, out, err = run(["catalog", str(catalog)])
        assert (code, err) == (0, "")
        assert out.split("\n")[0] == (
            '[A\\u001b[31mred\\u0000\\u000b\\u001f\\u007f\\u0085\\u009f q"\\é\u2028\xa0z]'
        )
        code, out, err = run(["catalog", str(catalog), "--json"])
        assert (code, err) == (0, "")
        assert '"name": "A\\u001b[31mred\\u0000\\u000b\\u001f\x7f\x85\x9f q\\"\\\\é' in out
        assert json.loads(out)[0]["name"] == name

    def test_negative_zero_prints_as_zero(self, tmp_path):
        catalog = tmp_path / "tests.csv"
        catalog.write_text("name,sensitivity,specificity\nz,-0,-0.0\n")
        code, out, _ = run(["catalog", str(catalog), "--json"])
        assert code == 0
        assert '"sensitivity": 0,' in out and '"specificity": 0\n' in out
        assert "-0" not in out

    def test_degenerate_rows_print_every_field(self, tmp_path):
        catalog = tmp_path / "tests.csv"
        catalog.write_text("name,sensitivity,specificity\nbroken,0,0.5\n")
        code, out, _ = run(["catalog", str(catalog)])
        assert code == 0
        assert line_value(out, "endpoint-chord slope:") == (
            "undefined (prevalence threshold is degenerate at sensitivity=0 "
            "(limit 1 as sensitivity -> 0))"
        )
        labels = [line.partition(":")[0] for line in out.splitlines()[1:]]
        assert labels == [
            "sensitivity", "specificity", "gain index (sens + spec)", "LR+",
            "prevalence threshold phi_e", "beta (rad)", "endpoint-chord slope",
            "area under curve",
        ]

    def test_tiny_sensitivities_are_reported(self, tmp_path):
        catalog = tmp_path / "tests.csv"
        catalog.write_text("name,sensitivity,specificity\nsmall,1e-20,0.5\ntiny,1e-40,0.5\n")
        code, out, err = run(["catalog", str(catalog), "--json"])
        assert code == 0 and err == ""
        small, tiny = json.loads(out)
        assert small["auc"] == pytest.approx(8.87171093586e-19, rel=1e-11, abs=0.0)
        assert small["threshold"] is not None
        assert tiny["lr_plus"] == pytest.approx(2e-40, rel=1e-11, abs=0.0)
        assert tiny["threshold"] is None and "rounds" in tiny["threshold_reason"]
        assert tiny["beta"] is None and "rounds" in tiny["beta_reason"]
        assert tiny["auc"] > 0.0

    def test_missing_file(self):
        code, _, err = run(["catalog", "/no/such/file.csv"])
        assert code == 2

    def test_byte_order_mark_is_ignored(self, tmp_path):
        def outputs(name, text):
            catalog = tmp_path / f"{name}.csv"
            catalog.write_text(text, encoding="utf-8")
            target = tmp_path / f"{name}.svg"
            plot = run(["plot", "--catalog", str(catalog), "--out", str(target), "--threshold"])
            report = run(["catalog", str(catalog)])
            payload = run(["catalog", str(catalog), "--json"])
            return report, payload, plot, target.read_bytes()

        text = "name,sensitivity,specificity\ngood,0.95,0.75\nbroken,0,0.5\n"
        plain = outputs("plain", text)
        assert [result[0] for result in plain[:3]] == [0, 0, 0]
        assert outputs("marked", "\ufeff" + text) == plain


#: Named tests for the report pins: healthy rows, every degenerate kind,
#: subnormal sensitivities, tiny likelihood ratios, and gain indices at or
#: next to 1.
REPORT_ROWS = [
    ("anchor", 0.95, 0.75),
    ("mirror", 0.75, 0.95),
    ("coin", 0.5, 0.5),
    ("sharp", 0.9999999999999999, 0.9999999999999999),
    ("blind", 0.0, 0.5),
    ("certain", 0.9, 1.0),
    ("void", 0.0, 1.0),
    ("tiniest", 5e-324, 0.5),
    ("tiniest-certain", 5e-324, 1.0),
    ("subnormal", 1e-310, 0.9),
    ("faint", 1e-40, 0.5),
    ("steep", 2e-32, 0.0),
    ("small", 1e-20, 0.5),
    ("flat", 0.3, 0.7),
    ("near-one", 0.5, 0.5000000000001),
    ("near-one-below", 0.6, 0.39999999),
    ("near-one-edge", 0.999999, 1e-06),
]


class TestReportBytes:
    def test_bytes_are_pinned(self, tmp_path):
        catalog = tmp_path / "tests.csv"
        catalog.write_text(
            "name,sensitivity,specificity\n"
            + "".join(f"{name},{a!r},{b!r}\n" for name, a, b in REPORT_ROWS)
        )
        pairs = [f"{a!r},{b!r}" for _, a, b in REPORT_ROWS]
        runs = [["catalog", str(catalog)], ["catalog", str(catalog), "--json"]]
        for first, second in itertools.product(pairs, repeat=2):
            runs.append(["compare", "--test1", first, "--test2", second])
            runs.append(["compare", "--test1", first, "--test2", second, "--json"])
        digest = hashlib.sha256()
        for argv in runs:
            code, out, err = run(argv)
            digest.update(f"{code}\0{out}\0{err}\0".encode("utf-8"))
        assert digest.hexdigest() == (
            "f24a261bae9a0af903e593a543a7efa6ddd72516aa17e55f45f1f1202fe662ae"
        )

    def test_analyze_simulate_and_limit_sweep_bytes_are_pinned(self):
        # Healthy and degenerate tests at prevalences and sizes that leave
        # cohorts with no positive result or no diseased subject, so every
        # reason line and null appears as well as every value line.
        pairs = ["0.95,0.75", "0.3,0.7", "0,0.5", "0.9,1", "0,1", "1e-40,0.5", "0.5,0.5", "1,0"]
        runs = [["limit-sweep", "--steps", "53"], ["limit-sweep", "--steps", "53", "--json"]]
        for pair in pairs:
            sens, spec = pair.split(",")
            runs.append(["analyze", "--sens", sens, "--spec", spec])
            runs.append(["analyze", "--sens", sens, "--spec", spec, "--json"])
            for prev, n in itertools.product(["0", "0.34", "1"], ["1", "100", "70000"]):
                argv = ["simulate", "--sens", sens, "--spec", spec, "--prev", prev, "--n", n]
                runs.append(argv)
                runs.append([*argv, "--json"])
        digest = hashlib.sha256()
        for argv in runs:
            code, out, err = run(argv)
            digest.update(f"{code}\0{out}\0{err}\0".encode("utf-8"))
        assert digest.hexdigest() == (
            "99db715967ddf61ea439fec4dbe505d3ac85f1b5cf60c4a8df84d12ed6c42acc"
        )


#: The JSON path of the value each text label prints, in document order.  An
#: undefined record prints one line: its first field's label and its reason.
TEXT_PATHS = {
    "sensitivity": ("test", "sensitivity"),
    "specificity": ("test", "specificity"),
    "gain index (sens + spec)": ("epsilon",),
    "LR+": ("lr_plus",),
    "prevalence threshold phi_e": ("threshold", "phi_e"),
    "predictive value at threshold": ("threshold", "rho_e"),
    "beta (rad)": ("beta", "beta_rad"),
    "origin-chord slope": ("beta", "origin_slope"),
    "endpoint-chord slope": ("endpoint_chord", "slope"),
    "endpoint-chord intercept": ("endpoint_chord", "intercept"),
    "area under curve": ("auc",),
    "cohort size": ("n",),
    "seed": ("seed",),
    "true positives": ("true_pos",),
    "false positives": ("false_pos",),
    "true negatives": ("true_neg",),
    "false negatives": ("false_neg",),
    "empirical predictive value": ("empirical_ppv",),
    "empirical LR+": ("empirical_lr_plus",),
}

COUNT_KEYS = ("n", "seed", "true_pos", "false_pos", "true_neg", "false_neg")


def text_from_json(payload):
    """The text document a JSON payload should print, label by label."""
    lines, undefined = [], set()
    for label, (key, *field) in TEXT_PATHS.items():
        if key not in payload or key in undefined:
            continue
        value = payload[key]
        if value is None:
            undefined.add(key)
            lines.append(f"{label}: undefined ({payload[key + '_reason']})")
            continue
        value = value[field[0]] if field else value
        if key in COUNT_KEYS:
            lines.append(f"{label}: {value}")
        else:
            digits = ".12g" if key == "test" else ".6g"
            lines.append(f"{label}: {float(value):{digits}}")
    return "\n".join(lines) + "\n"


class TestTextIsLabelledJson:
    @pytest.mark.parametrize("row", REPORT_ROWS, ids=[row[0] for row in REPORT_ROWS])
    def test_test_reports(self, row):
        report = build_test_report(ScreeningTest(row[1], row[2]), strict=False)
        assert report_text(report) == text_from_json(json.loads(emit_report(report)))

    @pytest.mark.parametrize(
        "a, b, prevalence, n",
        [
            (0.95, 0.75, 0.34, 10_000),  # every count and both estimates
            (0.0, 1.0, 0.5, 100),  # no subject tests positive
            (0.95, 0.75, 0.0, 100),  # no diseased subject
            (0.95, 0.75, 1.0, 100),  # no healthy subject
            (0.0, 0.5, 0.5, 100),  # no true positive
            (0.5, 0.5, 0.34, 1),
        ],
    )
    def test_cohorts(self, a, b, prevalence, n):
        result = simulate_cohort(ScreeningTest(a, b), prevalence, n, 7)
        text = report_text(result)
        assert text == text_from_json(json.loads(emit_report(result)))
        if result.empirical_ppv is None:
            assert f"empirical predictive value: undefined ({result.ppv_reason})\n" in text

    def test_hand_built_cohort_without_reasons(self):
        result = CohortResult(n=0, seed=1, true_pos=0, false_pos=0, true_neg=0,
                              false_neg=0, empirical_ppv=None, empirical_lr_plus=None)
        text = report_text(result)
        assert text == text_from_json(json.loads(emit_report(result)))
        assert text.endswith(
            "empirical predictive value: undefined (estimate absent)\n"
            "empirical LR+: undefined (estimate absent)\n"
        )

    def test_other_objects_are_refused(self):
        with pytest.raises(TypeError):
            report_text(object())


#: Argument strings a user could type: interior probabilities; then limits,
#: underflows, signs and non-ASCII digits; then strings that are out of
#: domain, non-finite, hexadecimal or not a number.
PROBABILITIES = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True).map(repr)
HOSTILE = st.one_of(
    st.floats(min_value=0.0, max_value=1.0).map(repr),
    st.sampled_from([
        "-0", "1e-400", "0", "1", "0.5", "0.95", "0.75", "1e-40", "5e-324", "1e-310",
        "0.9999999999999999", "\u0660.\u0665", "\uff10.\uff15",
    ]),
    st.sampled_from(["nan", "0x1p-3", "inf", "-inf", "2", "-1", "", "abc"]),
)
# --samples stops at 1e6, as each curve point costs ~300 bytes.  --n has no
# upper bound, as the cohort streams in fixed blocks, but a large draw would
# take seconds.  Every count drawn here stays at or below 1e4.
COUNTS = st.integers(min_value=1, max_value=10_000).map(str)
HOSTILE_COUNTS = COUNTS | st.sampled_from(["0", "-1", "nan", "1e3", "\u0663", "54", "x"])
NAMES = st.sampled_from(["a", "b", "c", "d", "e f", " g ", "\u00fc", "h\u2028i", "j\x85k"])
HEADER = "name,sensitivity,specificity"


@st.composite
def command_lines(draw):
    """(argv, catalog bytes) for one subcommand; {dir} stands for a scratch directory.

    Half the draws are hostile: any number or count may be malformed, and
    the catalog, its path and the output path may be unusable.
    """
    hostile = draw(st.booleans())
    number = HOSTILE if hostile else PROBABILITIES
    count = HOSTILE_COUNTS if hostile else COUNTS
    rows = draw(st.lists(st.tuples(NAMES, number, number).map(",".join), min_size=1,
                         max_size=4, unique_by=lambda row: row.split(",")[0].strip()))
    catalog, out, header, junk = "{dir}/tests.csv", "{dir}/out.txt", HEADER, []
    if hostile:
        catalog = draw(st.sampled_from([catalog, "{dir}/absent.csv", "{dir}"]))
        out = draw(st.sampled_from([out, "-", "{dir}", "{dir}/missing/out.txt"]))
        header = draw(st.sampled_from([header, "\ufeff" + header, "name,sens,spec"]))
        junk = draw(st.lists(st.sampled_from([",0.5,0.5", "#comment", "x", "a,0.5,0.5"])))
    document = "\n".join([header, *rows, *junk]) + "\n"
    data = document.encode("utf-8")
    if hostile and draw(st.booleans()):
        data = b"\xff" + data

    command = draw(st.sampled_from(
        ["analyze", "curve", "compare", "plot", "simulate", "catalog", "limit-sweep"]
    ))
    argv = [command]
    if command in ("analyze", "curve", "simulate"):
        argv += ["--sens", draw(number), "--spec", draw(number)]
    if command == "curve":
        argv += ["--samples", draw(count)] + draw(st.sampled_from([[], ["--out", out]]))
    elif command == "compare":
        pairs = st.tuples(number, number).map(",".join)
        if hostile:
            pairs |= st.sampled_from(["0.5", "0.5,0.5,0.5", ","])
        argv += ["--test1", draw(pairs), "--test2", draw(pairs)]
        argv += draw(st.sampled_from([[], ["--eps-tol", draw(number)]]))
    elif command == "plot":
        argv += ["--catalog", catalog, "--out", out, "--samples", draw(count)]
        argv += draw(st.lists(st.sampled_from(["--threshold", "--beta", "--chords"])))
    elif command == "simulate":
        argv += ["--prev", draw(number), "--n", draw(count), "--seed", draw(count)]
    elif command == "catalog":
        argv.append(catalog)
    elif command == "limit-sweep":
        argv += ["--steps", draw(count)]
    if command not in ("curve", "plot") and draw(st.booleans()):
        argv.append("--json")
    return argv, data


def in_domain(text):
    """The probability ``text`` names, or None when it is not one."""
    try:
        value = float(text)
    except ValueError:
        return None
    return value if 0.0 <= value <= 1.0 else None


class TestContractSweep:
    @pytest.fixture(scope="class")
    def scratch(self, tmp_path_factory):
        return tmp_path_factory.mktemp("sweep")

    @settings(max_examples=300)
    @given(case=command_lines())
    def test_exit_codes_and_outputs(self, scratch, case):
        argv, catalog = case
        (scratch / "tests.csv").write_bytes(catalog)
        argv = [arg.replace("{dir}", str(scratch)) for arg in argv]
        code, out, err = run(argv)
        assert code in (0, 1, 2)
        assert code == 0 or out == ""
        assert "Traceback" not in err
        if code == 0 and "--json" in argv:
            json.loads(out)
        if argv[0] == "analyze" and None not in (a := in_domain(argv[2]), b := in_domain(argv[4])):
            # The limits are the geometry's own formulas for phi_e and beta.
            c = 1.0 - b
            degenerate = a == 0.0 or b == 1.0 or (
                math.sqrt(c) / (math.sqrt(a) + math.sqrt(c)) == 1.0
                or math.atan(math.sqrt(c / a)) == math.pi / 2.0
            )
            assert code == (1 if degenerate else 0), (argv, err)


class TestTinySensitivity:
    def test_analyze_is_a_domain_error(self):
        code, out, err = run(["analyze", "--sens", "1e-40", "--spec", "0.5"])
        assert code == 1 and out == ""
        assert "rounds to its limit" in err

    def test_plot_skips_overlays_with_a_warning(self, tmp_path):
        catalog = tmp_path / "tests.csv"
        catalog.write_text("name,sensitivity,specificity\ntiny,1e-40,0.5\n")
        target = tmp_path / "plane.svg"
        code, _, err = run(
            ["plot", "--catalog", str(catalog), "--out", str(target), "--threshold", "--beta"]
        )
        assert code == 0 and err == ""
        svg = target.read_text(encoding="utf-8")
        assert "warning: threshold overlay skipped for tiny: prevalence threshold rounds" in svg
        assert "warning: beta overlay skipped for tiny: prevalence threshold rounds" not in svg
        assert "warning: beta overlay skipped for tiny: curve angle rounds" in svg


class TestLimitSweep:
    def test_table(self):
        code, out, _ = run(["limit-sweep", "--steps", "3"])
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "step,epsilon,auc"
        assert lines[1] == "1,1,0.5"
        assert len(lines) == 4

    def test_json(self):
        code, out, _ = run(["limit-sweep", "--steps", "2", "--json"])
        payload = json.loads(out)
        assert code == 0
        assert payload[0] == {"epsilon": 1.0, "auc": 0.5}

    def test_zero_steps_rejected(self):
        assert run(["limit-sweep", "--steps", "0"])[0] == 2

    def test_steps_past_53_are_a_usage_error(self):
        assert run(["limit-sweep", "--steps", "53"])[0] == 0
        code, out, err = run(["limit-sweep", "--steps", "54"])
        assert (code, out) == (2, "")
        assert err == (
            "screencurve: error: steps must be at most 53, got 54: "
            "1 - 2^-54 rounds to 1\n"
        )


class TestDispatchPlumbing:
    def test_no_arguments_is_usage_error(self):
        assert run([])[0] == 2

    def test_unknown_subcommand(self):
        assert run(["frobnicate"])[0] == 2

    def test_version_flag(self):
        code, out, _ = run(["--version"])
        assert code == 0
        assert "screencurve" in out

    def test_help_exits_zero(self):
        code, out, _ = run(["--help"])
        assert code == 0
        assert "analyze" in out

    @pytest.mark.parametrize("argv, code, message", [
        (["catalog", "{dir}/bad.csv"], 2, "line 2: sensitivity must lie in [0, 1], got '1.2'"),
        (["catalog", "{dir}/absent.csv"], 2,
         "cannot read '{dir}/absent.csv': No such file or directory"),
        (["analyze", "--sens", "0", "--spec", "0.5"], 1, "LR+ collapses to 0 at sensitivity=0"),
    ], ids=["parse-error", "input-error", "domain-error"])
    def test_an_error_is_one_stderr_line_and_its_exit_code(self, tmp_path, argv, code, message):
        (tmp_path / "bad.csv").write_text("name,sensitivity,specificity\nT1,1.2,0.5\n")
        argv = [arg.replace("{dir}", str(tmp_path)) for arg in argv]
        message = message.replace("{dir}", str(tmp_path))
        assert run(argv) == (code, "", f"screencurve: error: {message}\n")

    def test_help_and_usage_bytes_are_pinned(self, monkeypatch):
        # argparse wraps help to the terminal width, and its layout differs
        # between Python versions; the pin is CPython 3.11's at 80 columns.
        monkeypatch.setenv("COLUMNS", "80")
        pair, tests, plot, cohort = (
            REQUIRED[command] for command in ("curve", "compare", "plot", "simulate")
        )
        runs = [["-h"], ["--help"], ["-h", "analyze"], ["--version"], ["frobnicate"], []]
        # catalog and limit-sweep have no ambiguous prefix: their last case
        # gives a unique prefix, then an argument no option takes.
        for command, missing, bad_type, negative, prefix in [
            ("analyze", ["--sens", "0.5"], ["--sens", "x", "--spec", "0.5"],
             ["--sens", "-1e-3", "--spec", "0.5"], ["--s", "0.5"]),
            ("curve", ["--spec", "0.5"], [*pair, "--samples", "x"],
             ["--sens", "-1e-3", "--spec", "0.5"], [*pair, "--s", "3"]),
            ("compare", ["--test1", "0.5,0.5"], [*tests, "--eps-tol", "x"],
             [*tests, "--eps-tol", "-1e-3"], ["--test", "0.5,0.5"]),
            ("plot", ["--out", "plot.svg"], [*plot, "--samples", "x"],
             [*plot, "--samples", "-1e-3"], [*plot, "--c"]),
            ("simulate", pair, [*cohort, "--n", "x"],
             ["--sens", "-1e-3", "--spec", "0.5", "--prev", "0.5"], [*cohort, "--se", "1"]),
            ("catalog", [], ["tests.csv", "--json=x"], ["-1e-3"], ["tests.csv", "--j", "x"]),
            ("limit-sweep", ["--steps"], ["--steps", "x"], ["--steps", "-1e-3"],
             ["--st", "1", "--j", "x"]),
        ]:
            runs.append([command, "-h"])
            runs += [[command, *args] for args in (missing, bad_type, negative, prefix)]
        digest = hashlib.sha256()
        for argv in runs:
            code, out, err = run(argv)
            digest.update(f"{code}\0{out}\0{err}\0".encode("utf-8"))
        assert digest.hexdigest() == (
            "52aaec3aecc9953aeb34713c9cd8ff220d976f7c220b6a6bc724167b31379db7"
        )


class TestNegativeLookingValues:
    """Values that start with "-" next to the cases the parser must still refuse."""

    def test_a_negative_seed_still_runs(self):
        argv = ["simulate", "--sens", "0.5", "--spec", "0.5", "--prev", "0.5", "--n", "10"]
        code, out, err = run([*argv, "--seed", "-1"])
        assert code == 0 and err == ""
        assert f"seed: {2**64 - 1}" in out

    def test_a_dash_out_still_writes_to_stdout(self):
        argv = ["curve", "--sens", "0.5", "--spec", "0.5", "--samples", "3"]
        assert run([*argv, "--out", "-"]) == run(argv)

    @pytest.mark.parametrize("option", ["--spec", "-h"])
    def test_an_option_name_after_an_option_is_still_a_missing_value(self, option):
        code, out, err = run(["analyze", "--sens", option, "0.5"])
        assert code == 2 and out == ""
        assert "argument --sens: expected one argument" in err

    def test_a_number_after_a_flag_is_still_unrecognized(self):
        code, _, err = run(["analyze", "--sens", "0.5", "--spec", "0.5", "--json", "-1e-3"])
        assert code == 2
        assert "unrecognized arguments: -1e-3" in err

    def test_a_negative_seed_after_a_prefix_still_runs(self):
        argv = ["simulate", "--sens", "0.5", "--spec", "0.5", "--prev", "0.5", "--n", "10"]
        assert run([*argv, "--see", "-1"]) == run([*argv, "--seed", "-1"])

    def test_a_prefix_still_takes_a_plain_value(self):
        argv = ["analyze", "--sens", "0.9", "--spec", "0.5", "--json"]
        assert run(["analyze", "--sen", "0.9", "--spe", "0.5", "--js"]) == run(argv)

    @pytest.mark.parametrize(
        "argv, matches",
        [
            (["analyze", "--s", "-1e-3", "--spec", "0.5"], "--s could match --sens, --spec"),
            (["simulate", "--sens", "0.5", "--spec", "0.5", "--prev", "0.5", "--se", "-1"],
             "--se could match --sens, --seed"),
            (["plot", "--c", "-1", "--out", "plot.svg"], "--c could match --catalog, --chords"),
        ],
    )
    def test_an_ambiguous_prefix_is_still_ambiguous(self, argv, matches):
        code, out, err = run(argv)
        assert code == 2 and out == ""
        assert f"error: ambiguous option: {matches}\n" in err

    def test_a_bare_double_dash_is_no_prefix(self):
        code, _, err = run(["analyze", "--sens", "0.5", "--spec", "0.5", "--", "-1e-3"])
        assert code == 2
        assert "unrecognized arguments: -- -1e-3" in err

    def test_every_value_option_takes_a_value_that_starts_with_a_dash(self):
        # argparse keeps each subparser's actions in ``_actions``.
        subcommands = next(
            action.choices for action in build_parser()._actions if action.dest == "command"
        )
        assert subcommands.keys() == REQUIRED.keys()
        for command, subparser in subcommands.items():
            # Each "--" name and whether it takes a value.
            options = {name: action.nargs is None for action in subparser._actions
                       for name in action.option_strings if name.startswith("--")}
            for name, takes_value in options.items():
                if name == "--help":  # prints help and exits before any check
                    continue
                if not takes_value:
                    code, out, err = run([command, *REQUIRED[command], name, "-1e-3"])
                    assert code == 2 and out == ""
                    assert "unrecognized arguments: -1e-3" in err, (command, name)
                    continue
                prefixes = [name[:k] for k in range(3, len(name))
                            if sum(other.startswith(name[:k]) for other in options) == 1]
                values = ["-1e-3", "-inf", "-1,0.5"]
                for prefix, value in itertools.product([*prefixes, name], values):
                    assert run([command, prefix, value]) == run([command, f"{name}={value}"])


class TestModuleEntryPoints:
    @pytest.mark.parametrize("module", ["screencurve", "screencurve.cli"])
    def test_python_dash_m_runs_the_cli(self, module):
        argv = ["analyze", "--sens", "0.95", "--spec", "0.75", "--json"]
        done = run_module(module, argv)
        assert done.returncode == 0, done.stderr
        assert done.stderr == ""
        assert done.stdout == run(argv)[1]
