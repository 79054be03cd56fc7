"""Command dispatch: exit codes, output shapes, and file handling."""

import hashlib
import io
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import screencurve
from screencurve.cli import cli_dispatch

from _oracles import PHI_E_9575


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    code = cli_dispatch(argv, out, err)
    return code, out.getvalue(), err.getvalue()


def line_value(output, prefix):
    for line in output.splitlines():
        if line.startswith(prefix):
            return line[len(prefix):].strip()
    raise AssertionError(f"no line starting with {prefix!r} in:\n{output}")


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
        assert "eps_tol" in err

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


class TestModuleEntryPoints:
    @pytest.mark.parametrize("module", ["screencurve", "screencurve.cli"])
    def test_python_dash_m_runs_the_cli(self, module):
        argv = ["analyze", "--sens", "0.95", "--spec", "0.75", "--json"]
        package_root = str(Path(screencurve.__file__).resolve().parent.parent)
        path = os.environ.get("PYTHONPATH")
        env = dict(os.environ, PYTHONPATH=package_root + (os.pathsep + path if path else ""))
        done = subprocess.run(
            [sys.executable, "-m", module, *argv],
            capture_output=True, text=True, encoding="utf-8", env=env, timeout=60,
        )
        assert done.returncode == 0, done.stderr
        assert done.stderr == ""
        assert done.stdout == run(argv)[1]
