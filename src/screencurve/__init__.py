"""Predictive-value geometry of binary screening tests.

A screening test with sensitivity ``a`` and specificity ``b`` maps disease
prevalence ``phi`` to positive predictive value through

    rho(phi) = a * phi / (a * phi + (1 - b) * (1 - phi)),

a rectangular-hyperbola arc through (0, 0) and (1, 1) inside the unit
square.  This package computes the curve's exact geometry — the prevalence
threshold where ``rho`` crosses the falling diagonal, the origin-chord
angle, chord slopes and the positive likelihood ratio they encode, and the
area under the curve — plus a counter-based synthetic-cohort simulator for
empirical cross-checks, CSV/JSON/SVG emitters, and a command-line front
end.

``import screencurve`` loads no submodule: each public name is imported
from its module on first use (PEP 562) and then read as a plain global.
"""

from __future__ import annotations

import importlib

__version__ = "0.1.0"

#: The public names of each submodule.
_EXPORTS = {
    "core": ("ScreeningTest", "CurvePoint", "ppv", "epsilon", "curve_samples"),
    "geometry": (
        "ThresholdPoint", "BetaGeometry", "ChordPair", "ChordLine", "prevalence_threshold",
        "threshold_equivalence_check", "beta_geometry", "chords_at", "endpoint_chord_line",
        "lr_positive_direct", "lr_positive_from_beta", "lr_positive_from_chords",
    ),
    "analysis": (
        "TestReport", "ComparisonReport", "MetricOrdering", "auc_closed_form", "auc_quadrature",
        "build_test_report", "compare_tests", "fts_limit_sweep",
    ),
    "cohort": ("CohortResult", "EmpiricalPoint", "simulate_cohort", "empirical_ppv_curve"),
    "catalog": ("CatalogEntry", "parse_catalog", "emit_catalog"),
    "emit": ("emit_report", "emit_curve_csv", "render_json"),
    "svgplot": ("PlotSpec", "render_screening_plane"),
    "errors": (
        "ScreeningError", "ParameterError", "DomainError", "IndeterminateError",
        "DegenerateTestError", "InfiniteLRError", "ZeroLRError", "DegenerateAngleError",
        "EpsilonOneError", "NonConvergenceError", "AbsentEstimateError",
        "ComparatorInconsistencyError", "ParseError",
    ),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = frozenset({*_EXPORTS, "cli"})

__all__ = ["__version__", *_OWNER]


def __getattr__(name: str):
    """Import a public name's module, or a submodule, on first access."""
    if name in _OWNER:
        value = getattr(importlib.import_module(f".{_OWNER[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
