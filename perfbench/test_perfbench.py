"""Tests of the benchmark itself: its references, and a tiny run of each workload.

Run from the repository root with ``python -m pytest perfbench``.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import refs
from speed import Speed

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def rel_close(got: float, want: float, digits: int = 12) -> bool:
    return abs(got - want) <= 0.6 * 10.0 ** (1 - digits) * abs(want)


def test_report_reference_matches_hand_values():
    ref = refs.report_reference(0.95, 0.75)
    assert rel_close(ref["phi_e"], 0.339056738915)
    assert rel_close(ref["rho_e"], 0.660943261085)
    assert rel_close(ref["beta_rad"], 0.473984870691)
    assert rel_close(ref["psi"], 0.512989176043)
    assert rel_close(ref["origin_slope"], 1.949358868962)
    assert rel_close(ref["intercept"], 0.487010823957)
    assert rel_close(ref["auc"], 0.710076013574)
    assert ref["lr_plus"] == pytest.approx(3.8, rel=1e-15)
    assert rel_close(refs.report_reference(0.75, 0.95)["auc"], 0.864179831548)
    assert rel_close(refs.report_reference(0.75, 0.75)["auc"], 0.676040783499)


def test_area_is_one_half_at_gain_one():
    assert refs.report_reference(0.25, 0.75)["auc"] == 0.5
    assert refs.report_reference(0.3, 0.7)["auc"] == pytest.approx(0.5, rel=1e-15)


def test_degenerate_tests_have_no_fields():
    for a, b in ((0.0, 0.5), (0.5, 1.0), (0.0, 1.0)):
        assert set(refs.report_reference(a, b).values()) == {None}


def test_posterior_odds_form():
    assert rel_close(refs.ppv_odds(0.95, 0.75, 0.5), 0.791666666667)
    assert rel_close(refs.ppv_odds(0.95, 0.75, 0.34), 0.661885245902)
    assert refs.ppv_odds(0.9, 0.8, 0.0) == 0.0 and refs.ppv_odds(0.9, 0.8, 1.0) == 1.0
    assert refs.ppv_odds(0.9, 1.0, 0.0) is None and refs.ppv_odds(0.0, 0.8, 1.0) is None
    assert refs.ppv_odds(0.9, 1.0, 0.3) == 1.0


def test_splitmix64_published_vector():
    assert tuple(refs.stream_word(0, k) for k in (1, 2, 3)) == (
        0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F)
    refs.check_splitmix64()


def test_cohort_counts_sum_and_repeat():
    counts = refs.cohort_counts(0.9, 0.8, 0.3, 1000, -7)
    assert sum(counts) == 1000
    assert counts == refs.cohort_counts(0.9, 0.8, 0.3, 1000, -7)
    assert refs.cohort_counts(0.9, 0.8, 0.3, 1000, -7) != refs.cohort_counts(0.9, 0.8, 0.3, 1000, 7)


def test_binomial_bound_is_at_least_six_sigma():
    for trials, p in ((10**7, 0.3), (2000, 0.01), (10, 0.5)):
        assert refs.binomial_halfwidth(trials, p) >= 6.0 * math.sqrt(trials * p * (1 - p))
    assert refs.binomial_halfwidth(100, 0.0) == 0.0
    assert refs.within_binomial(300, 1000, 0.3)
    assert not refs.within_binomial(400, 1000, 0.3)


def run_bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "5",
         "--seconds", "0.1", "--trace", str(trace), "--scale", "0.01"],
        capture_output=True, text=True, cwd=cwd, timeout=170,
    )


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_passes_its_checks(workload, trace):
    done = run_bench(workload, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], done.stderr
    # cli-cold has five operations per round of nineteen that fail on known faults.
    share = 5 / 19 if workload == "cli-cold" else 0.0
    assert result["failed"] == share * result["attempted"]
    kind = "per_layer" if trace else "end_to_end"
    assert list(result["metrics"]) == [m["name"] for m in BENCHMARK[kind]]
    for metric in BENCHMARK[kind]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    spans = ROOT / "perfbench" / "out" / f"spans-{workload}-5.jsonl"
    if trace:
        assert result["metrics"]["trace.spans"]["value"] > 0
        assert spans.exists()
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())
        assert f"{result['attempted']} operations" in done.stderr and " 0 spans" in done.stderr


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = run_bench("catalog-batch", 0, cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_speed_scales_by_the_median_reading_near_an_operation():
    speed = Speed("interpreter")
    ref, second = speed.reference_ns, 1_000_000_000
    speed.times_ns = [0, second // 2, second, 4 * second, 10 * second]
    speed.readings_ns = [ref, 2 * ref, 4 * ref, 8 * ref, 16 * ref]
    assert speed.scale(second // 2) == 0.5  # readings 0, 1 and 2 are within the window
    assert speed.scale(6 * second) == 1 / 12  # none within: the two nearest
    speed.read()
    assert len(speed.times_ns) == 6 and speed.readings_ns[-1] > 0
