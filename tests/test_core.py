"""Pointwise curve function, parameter validation, and sampling."""

import dataclasses
import importlib
import math
import os
import subprocess
import sys
import types
from pathlib import Path

import numpy
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import screencurve
from screencurve import (
    CatalogEntry,
    CurvePoint,
    IndeterminateError,
    ParameterError,
    PlotSpec,
    ScreeningTest,
    curve_samples,
    emit_curve_csv,
    epsilon,
    ppv,
    render_screening_plane,
)
from screencurve.core import _grid, _ppv, _rhos

from _oracles import PPV, ppv_odds_form

unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
interior = st.floats(min_value=0.01, max_value=0.99)


class TestScreeningTest:
    def test_fields_and_epsilon(self):
        t = ScreeningTest(0.95, 0.75)
        assert t.sensitivity == 0.95
        assert t.specificity == 0.75
        assert t.epsilon == pytest.approx(1.7, abs=1e-12)
        assert epsilon(t) == t.epsilon
        assert t.false_positive_rate == pytest.approx(0.25, abs=1e-15)

    def test_boundary_values_allowed(self):
        for a, b in [(0.0, 0.0), (1.0, 1.0), (0.0, 1.0), (1.0, 0.0)]:
            t = ScreeningTest(a, b)
            assert t.epsilon == a + b

    @pytest.mark.parametrize("bad", [-0.1, 1.5, float("nan"), float("inf"), -1e-9])
    def test_rejects_out_of_range(self, bad):
        with pytest.raises(ParameterError):
            ScreeningTest(bad, 0.5)
        with pytest.raises(ParameterError):
            ScreeningTest(0.5, bad)

    def test_nan_gives_the_range_message(self):
        with pytest.raises(ParameterError) as info:
            ScreeningTest(float("nan"), 0.5)
        assert str(info.value) == "sensitivity must lie in [0, 1], got nan"
        with pytest.raises(ParameterError) as info:
            ScreeningTest(0.5, float("nan"))
        assert str(info.value) == "specificity must lie in [0, 1], got nan"

    @pytest.mark.parametrize("flag", [True, False, numpy.True_, numpy.False_])
    def test_rejects_booleans(self, flag):
        with pytest.raises(ParameterError, match="must be a real number"):
            ScreeningTest(flag, 0.5)
        with pytest.raises(ParameterError, match="must be a real number"):
            ScreeningTest(0.5, flag)

    def test_negative_zero_is_stored_as_positive_zero(self):
        t = ScreeningTest(-0.0, -0.0)
        assert math.copysign(1.0, t.sensitivity) == 1.0
        assert math.copysign(1.0, t.specificity) == 1.0
        assert t.describe() == "sensitivity=0 specificity=0"

    def test_immutable(self):
        t = ScreeningTest(0.5, 0.5)
        with pytest.raises(Exception):
            t.sensitivity = 0.9

    def test_describe(self):
        assert "0.95" in ScreeningTest(0.95, 0.75).describe()


class TestPpv:
    @pytest.mark.parametrize("key,expected", sorted(PPV.items()))
    def test_frozen_values(self, key, expected):
        a, b, phi = key
        assert ppv(ScreeningTest(a, b), phi) == pytest.approx(expected, rel=1e-12)

    def test_fixpoints_exact(self):
        t = ScreeningTest(0.8, 0.7)
        assert ppv(t, 0.0) == 0.0
        assert ppv(t, 1.0) == 1.0

    def test_negative_zero_prevalence_gives_positive_zero(self):
        assert math.copysign(1.0, ppv(ScreeningTest(0.8, 0.7), -0.0)) == 1.0

    @pytest.mark.parametrize("bad", [-0.1, 1.1, float("nan")])
    def test_rejects_bad_prevalence(self, bad):
        with pytest.raises(ParameterError):
            ppv(ScreeningTest(0.5, 0.5), bad)

    def test_indeterminate_when_denominator_vanishes(self):
        # a = 0 kills the numerator and, at phi = 1, the whole denominator.
        with pytest.raises(IndeterminateError):
            ppv(ScreeningTest(0.0, 0.5), 1.0)
        # b = 1 kills the false-positive mass; at phi = 0 nothing is left.
        with pytest.raises(IndeterminateError):
            ppv(ScreeningTest(0.5, 1.0), 0.0)
        # jointly degenerate: indeterminate everywhere.
        for phi in (0.0, 0.3, 1.0):
            with pytest.raises(IndeterminateError):
                ppv(ScreeningTest(0.0, 1.0), phi)
        # but the one-sided degenerates are fine away from the bad endpoint
        assert ppv(ScreeningTest(0.0, 0.5), 0.4) == 0.0
        assert ppv(ScreeningTest(0.5, 1.0), 0.4) == 1.0

    @given(a=interior, b=interior, phi=unit)
    def test_matches_odds_form(self, a, b, phi):
        assert ppv(ScreeningTest(a, b), phi) == pytest.approx(
            ppv_odds_form(a, b, phi), rel=1e-12, abs=1e-15
        )

    @given(a=interior, b=interior, phi=unit)
    def test_range(self, a, b, phi):
        value = ppv(ScreeningTest(a, b), phi)
        assert 0.0 <= value <= 1.0

    @given(a=interior, phi=unit)
    def test_identity_line_when_gain_index_is_one(self, a, phi):
        # b = 1 - a makes the curve the diagonal rho = phi.
        assert ppv(ScreeningTest(a, 1.0 - a), phi) == pytest.approx(phi, abs=1e-12)

    @given(a=interior, b=interior)
    def test_strictly_increasing(self, a, b):
        t = ScreeningTest(a, b)
        values = [ppv(t, k / 100.0) for k in range(101)]
        assert all(x < y for x, y in zip(values, values[1:]))


class TestCurveSamples:
    def test_grid_and_endpoints(self):
        samples = curve_samples(ScreeningTest(0.5, 0.5), 3)
        assert [(p.phi, p.rho) for p in samples] == [(0.0, 0.0), (0.5, 0.5), (1.0, 1.0)]

    @pytest.mark.parametrize("n", [2, 3, 101, 257, 1000])
    def test_grid_is_one_tuple_per_size(self, n):
        grid = _grid(n)
        assert type(grid) is tuple
        assert list(grid) == [k / (n - 1) for k in range(n)]
        assert _grid(n) is grid

    def test_curves_and_plots_keep_their_bytes_after_other_sizes(self):
        # Each size's grid is kept; a curve or a render of one size reads the
        # same after calls at other sizes as on a first call with none kept.
        test = ScreeningTest(0.95, 0.75)
        spec = PlotSpec(entries=(CatalogEntry("t", test),), samples=101, show_chords=True)
        _grid.cache_clear()
        curve, plot = emit_curve_csv(curve_samples(test, 101)), render_screening_plane(spec)
        for n in (257, 3, 101, 2, 1000):
            curve_samples(test, n)
            render_screening_plane(PlotSpec(entries=spec.entries, samples=n))
            assert emit_curve_csv(curve_samples(test, 101)) == curve
            assert render_screening_plane(spec) == plot

    def test_absent_points_for_jointly_degenerate_test(self):
        samples = curve_samples(ScreeningTest(0.0, 1.0), 5)
        assert len(samples) == 5
        assert all(p.rho is None and not p.defined for p in samples)

    def test_one_sided_degenerate_keeps_good_points(self):
        samples = curve_samples(ScreeningTest(0.0, 0.5), 5)
        assert [p.rho for p in samples] == [0.0, 0.0, 0.0, 0.0, None]

    @pytest.mark.parametrize("bad", [1, 0, -3, 2.0, True])
    def test_rejects_bad_counts(self, bad):
        with pytest.raises(ParameterError):
            curve_samples(ScreeningTest(0.5, 0.5), bad)

    def test_point_count_and_spacing(self):
        samples = curve_samples(ScreeningTest(0.9, 0.8), 101)
        assert len(samples) == 101
        assert samples[34].phi == pytest.approx(0.34, abs=1e-15)
        assert samples[34].rho == pytest.approx(
            ppv(ScreeningTest(0.9, 0.8), 0.34), rel=1e-15
        )

    @given(a=unit, b=unit, n=st.integers(min_value=2, max_value=300))
    @example(a=5e-324, b=1.0, n=257)
    @example(a=1e-320, b=1.0, n=3)
    @example(a=0.0, b=0.5, n=2)
    @example(a=0.0, b=1.0 - 2.0**-53, n=257)
    def test_defined_samples_are_contiguous(self, a, b, n):
        # The SVG renderer draws the defined samples as a single polyline.
        pattern = "".join(
            "1" if point.defined else "0"
            for point in curve_samples(ScreeningTest(a, b), n)
        )
        assert "0" not in pattern.strip("0")

    def test_curve_point_defined_flag(self):
        assert CurvePoint(0.5, 0.5).defined
        assert not CurvePoint(0.5, None).defined

    @given(a=unit, b=unit, n=st.integers(min_value=2, max_value=300))
    @example(a=5e-324, b=1.0, n=257)
    @example(a=1e-320, b=0.0, n=3)
    @example(a=0.0, b=1.0 - 2.0**-53, n=2)
    @example(a=1.0, b=1.0, n=101)
    @example(a=1.0 - 2.0**-53, b=5e-324, n=300)
    @example(a=1.0, b=1e-320, n=257)
    def test_samples_are_the_points_a_user_would_build(self, a, b, n):
        for point in curve_samples(ScreeningTest(a, b), n):
            rebuilt = CurvePoint(point.phi, point.rho)
            assert point == rebuilt
            assert hash(point) == hash(rebuilt)
            assert repr(point) == repr(rebuilt)
            assert type(point) is CurvePoint
            assert type(point.phi) is float and 0.0 <= point.phi <= 1.0
            assert point.rho is None or (type(point.rho) is float and 0.0 <= point.rho <= 1.0)

    @pytest.mark.parametrize("n", [2, 3, 257])
    @pytest.mark.parametrize("a, b", [
        (0.0, 1.0), (0.0, 0.5), (0.5, 1.0), (5e-324, 1.0), (5e-324, 0.5), (0.9, 1.0 - 2.0**-53),
    ])
    def test_rhos_are_ppv_at_each_grid_point(self, a, b, n):
        # The curve's batch form and the single-point form give the same
        # float, bit for bit, and the same 0/0 positions.
        grid = _grid(n)
        expected = [_ppv(a, 1 - b, phi) for phi in grid]
        got = _rhos(ScreeningTest(a, b), grid)
        assert [None if r is None else r.hex() for r in got] == \
            [None if r is None else r.hex() for r in expected]

    def test_samples_are_frozen_curve_points(self):
        point = curve_samples(ScreeningTest(0.9, 0.8), 3)[1]
        with pytest.raises(dataclasses.FrozenInstanceError):
            point.phi = 0.25
        assert [field.name for field in dataclasses.fields(CurvePoint)] == ["phi", "rho"]

    @pytest.mark.parametrize(
        "phi, rho", [(1.5, 0.5), (0.5, -0.1), (0.5, float("nan")), (True, 0.5)]
    )
    def test_user_built_points_are_validated(self, phi, rho):
        with pytest.raises(ParameterError):
            CurvePoint(phi, rho)


def test_epsilon_is_not_nan_for_valid_tests():
    assert not math.isnan(ScreeningTest(0.0, 0.0).epsilon)


@pytest.mark.parametrize(
    "module", ["core", "geometry", "analysis", "cohort", "emit", "cli", "catalog", "svgplot"]
)
def test_numpy_stays_in_the_cohort_simulator(module):
    # cohort imports numpy inside its numpy kernel, once past the SWAR budget.
    namespace = vars(importlib.import_module(f"screencurve.{module}"))
    numpy_modules = [
        name
        for name, value in namespace.items()
        if isinstance(value, types.ModuleType) and value.__name__.split(".")[0] == "numpy"
    ]
    assert numpy_modules == []


def run_fresh(script, *argv):
    """Run ``script`` in a fresh interpreter that imports this package; return its stdout."""
    src = str(Path(screencurve.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run(
        [sys.executable, "-c", script, *argv], env=env, capture_output=True, text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_numpy_loads_only_past_the_swar_budget():
    # simulate runs on the SWAR kernel until this process has simulated
    # _SWAR_BUDGET subjects; past that it loads numpy, and the bytes are the same.
    run_fresh("""
import io, sys
import screencurve
from screencurve.cli import cli_dispatch
from screencurve.cohort import _SWAR_BUDGET
assert "numpy" not in sys.modules, "numpy loaded by the import"
argv = ["analyze", "--sens", "0.95", "--spec", "0.75", "--json"]
assert cli_dispatch(argv, io.StringIO(), io.StringIO()) == 0
assert "numpy" not in sys.modules, "numpy loaded by analyze"

def simulate(n):
    out = io.StringIO()
    argv = ["simulate", "--sens", "0.95", "--spec", "0.75", "--prev", "0.34", "--n", str(n)]
    assert cli_dispatch(argv, out, io.StringIO()) == 0
    return out.getvalue()

before = simulate(1000)
assert "numpy" not in sys.modules and "cohort size: 1000" in before
simulate(_SWAR_BUDGET - 1000)
assert "numpy" not in sys.modules, "numpy loaded within the budget"
simulate(1)
assert "numpy" in sys.modules, "numpy not loaded past the budget"
assert simulate(1000) == before
""")


#: ``python -m screencurve`` with the arguments after ``-c``.
RUN_THE_PACKAGE = """
import runpy
runpy.run_module("screencurve", run_name="__main__", alter_sys=True)
"""

#: An import finder that refuses numpy, put first on ``sys.meta_path``; it
#: lists each name it refuses in ``refused``.
REFUSE_NUMPY = """
import sys
refused = []

class RefuseNumpy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "numpy":
            refused.append(name)
            raise ImportError(f"{name} is refused")

sys.meta_path.insert(0, RefuseNumpy())
"""


def test_simulate_at_its_default_size_runs_without_numpy():
    argv = ["simulate", "--sens", "0.95", "--spec", "0.75", "--prev", "0.34",
            "--n", "100000", "--seed", "-7", "--json"]
    refused = run_fresh(REFUSE_NUMPY + RUN_THE_PACKAGE, *argv)
    assert '"n": 100000' in refused
    assert refused == run_fresh(RUN_THE_PACKAGE, *argv)


def test_simulate_past_the_swar_budget_runs_without_numpy():
    # Without numpy every call takes the SWAR kernel, which counts alike.
    argv = ["simulate", "--sens", "0.95", "--spec", "0.75", "--prev", "0.34",
            "--n", "600000", "--seed", "11", "--json"]
    refused = run_fresh(REFUSE_NUMPY + RUN_THE_PACKAGE, *argv)
    assert '"n": 600000' in refused
    assert refused == run_fresh(RUN_THE_PACKAGE, *argv)


def test_a_refused_numpy_import_is_tried_once():
    out = run_fresh(REFUSE_NUMPY + """
from screencurve import ScreeningTest, simulate_cohort
from screencurve.cohort import _SWAR_BUDGET
counts = {simulate_cohort(ScreeningTest(0.9, 0.8), 0.3, _SWAR_BUDGET // 2 + 1, 5)
          for _ in range(4)}
print(len(counts), refused)
""")
    assert out == "1 ['numpy']\n"


#: Prints the package's loaded submodules (and numpy) after ``import
#: screencurve`` and after one CLI call with the given arguments, then which
#: of dataclasses and inspect that call loaded.
LOADED_BY_A_SUBCOMMAND = """
import io, sys
def loaded():
    names = {m.split(".")[1] for m in sys.modules if m.startswith("screencurve.")}
    return " ".join(sorted(names | ({"numpy"} & sys.modules.keys())))
import screencurve
print(loaded())
from screencurve.cli import cli_dispatch
assert cli_dispatch(sys.argv[1:], io.StringIO(), io.StringIO()) == 0
print(loaded())
print(" ".join(sorted({"dataclasses", "inspect"} & sys.modules.keys())))
"""

REPORTING = "analysis cli core emit errors geometry"


@pytest.mark.parametrize(
    "argv, modules",
    [
        (["curve", "--sens", "0.9", "--spec", "0.8"], "cli core emit errors"),
        (["analyze", "--sens", "0.9", "--spec", "0.8"], REPORTING),
        (["compare", "--test1", "0.9,0.8", "--test2", "0.8,0.9", "--json"], REPORTING),
        (["limit-sweep", "--steps", "3"], REPORTING),
        (["catalog", "{catalog}"], "analysis catalog cli core emit errors geometry"),
        (["plot", "--catalog", "{catalog}", "--out", "{svg}"],
         "catalog cli core errors geometry svgplot"),
        (["simulate", "--sens", "0.9", "--spec", "0.8", "--prev", "0.3", "--n", "100"],
         "cli cohort core emit errors"),
        (["catalog", "{catalog}", "--json"], "analysis catalog cli core emit errors geometry"),
    ],
)
def test_each_subcommand_loads_only_its_modules(tmp_path, argv, modules):
    catalog = tmp_path / "tests.csv"
    catalog.write_text("name,sensitivity,specificity\nA,0.9,0.8\n", encoding="utf-8")
    argv = [arg.format(catalog=catalog, svg=tmp_path / "plot.svg") for arg in argv]
    # No record builds its dataclass fields, which would load dataclasses,
    # and no subcommand loads numpy, which would load inspect.
    assert run_fresh(LOADED_BY_A_SUBCOMMAND, *argv).splitlines() == ["", modules, ""]


class TestLazyNamespace:
    def test_the_import_loads_no_submodule_until_a_name_is_used(self):
        run_fresh("""
import sys
import screencurve
assert [m for m in sys.modules if m.startswith("screencurve.")] == []
assert screencurve.cohort is sys.modules["screencurve.cohort"]
assert screencurve.ScreeningTest is sys.modules["screencurve.core"].ScreeningTest
""")

    def test_every_public_name_is_its_modules_object(self):
        for name in screencurve.__all__:
            value = getattr(screencurve, name)
            if name != "__version__":
                assert getattr(sys.modules[value.__module__], name) is value, name

    def test_star_import_binds_every_public_name(self):
        namespace = {}
        exec("from screencurve import *", namespace)
        assert set(screencurve.__all__) <= namespace.keys()
        assert all(namespace[name] is getattr(screencurve, name) for name in screencurve.__all__)

    @pytest.mark.parametrize("module", [*screencurve._EXPORTS, "cli"])
    def test_the_export_table_and_each_modules_all_agree(self, module):
        # The lazy table restates each module's public names for the import.
        loaded = importlib.import_module(f"screencurve.{module}")
        assert set(screencurve._EXPORTS.get(module, ())) <= set(loaded.__all__)
        assert [name for name in loaded.__all__ if name not in vars(loaded)] == []

    def test_dir_covers_the_public_names(self):
        assert set(screencurve.__all__) <= set(dir(screencurve))

    def test_unknown_names_are_attribute_errors(self):
        assert not hasattr(screencurve, "no_such_name")
        with pytest.raises(AttributeError, match="no_such_name"):
            screencurve.no_such_name


#: Emits ``object()``, then a cohort, in an interpreter where ``analysis``
#: is loaded first only when asked.
EMIT_BEFORE_ITS_RECORDS_LOAD = """
import sys
from screencurve.emit import emit_report, report_text
if sys.argv[1:] == ["analysis"]:
    import screencurve.analysis
else:
    assert "screencurve.analysis" not in sys.modules
assert "screencurve.cohort" not in sys.modules
for emit in (emit_report, report_text):
    try:
        emit(object())
    except TypeError:
        pass
    else:
        raise AssertionError(f"{emit.__name__} accepted an object")
from screencurve.cohort import CohortResult
result = CohortResult(n=10, seed=3, true_pos=2, false_pos=1, true_neg=6, false_neg=1,
                      empirical_ppv=2 / 3, empirical_lr_plus=None, lr_reason="no reason")
print(emit_report(result) + report_text(result), end="")
"""


def test_emit_refuses_other_objects_before_the_report_modules_load():
    from screencurve.cohort import CohortResult
    from screencurve.emit import emit_report, report_text

    result = CohortResult(n=10, seed=3, true_pos=2, false_pos=1, true_neg=6, false_neg=1,
                          empirical_ppv=2 / 3, empirical_lr_plus=None, lr_reason="no reason")
    expected = emit_report(result) + report_text(result)
    assert run_fresh(EMIT_BEFORE_ITS_RECORDS_LOAD) == expected
    assert run_fresh(EMIT_BEFORE_ITS_RECORDS_LOAD, "analysis") == expected
