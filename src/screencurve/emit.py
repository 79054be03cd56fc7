"""Deterministic JSON and CSV emitters.

Output is meant to be diffable and byte-stable: field order is fixed by
construction, every real number is rendered with 12 significant digits
(``%.12g``), absent values become explicit ``null`` with a sibling
``*_reason`` string, and no locale-dependent formatting is used anywhere.
The JSON writer is local because the stock serializer renders floats with
shortest-roundtrip precision, which is not the 12-digit contract.
"""

from __future__ import annotations

import math
from typing import Iterable

from .analysis import ComparisonReport, TestReport
from .cohort import CohortResult
from .core import CurvePoint

__all__ = ["format_real", "render_json", "emit_report", "emit_curve_csv"]


def format_real(value: float) -> str:
    """Render a real number with 12 significant digits."""
    return f"{float(value):.12g}"


def _escape(text: str) -> str:
    out = []
    for ch in text:
        if ch == '"':
            out.append('\\"')
        elif ch == "\\":
            out.append("\\\\")
        elif ord(ch) < 0x20:
            out.append(f"\\u{ord(ch):04x}")
        else:
            out.append(ch)
    return "".join(out)


def render_json(value, indent: int = 0) -> str:
    """Serialize dicts/lists/strings/numbers/bools/None, in insertion order.

    Raises ValueError for an infinite or NaN float, which JSON cannot hold.
    """
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"cannot serialize {value!r}: JSON has no non-finite numbers")
        return format_real(value)
    if isinstance(value, str):
        return f'"{_escape(value)}"'
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = ",\n".join(
            f'{inner}"{_escape(str(k))}": {render_json(v, indent + 1)}'
            for k, v in value.items()
        )
        return "{\n" + items + "\n" + pad + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        items = ",\n".join(f"{inner}{render_json(v, indent + 1)}" for v in value)
        return "[\n" + items + "\n" + pad + "]"
    raise TypeError(f"cannot serialize {type(value).__name__}")


def _with_reason(payload: dict, key: str, value, reasons) -> None:
    """Insert value or an explicit null plus its sibling reason."""
    payload[key] = value
    if value is None:
        payload[f"{key}_reason"] = reasons.get(key, "value is undefined here")


def test_report_payload(report: TestReport) -> dict:
    """Fixed-order JSON payload for a single-test report."""
    payload: dict = {
        "test": {
            "sensitivity": report.test.sensitivity,
            "specificity": report.test.specificity,
        },
        "epsilon": report.epsilon,
    }
    reasons = report.absent_reasons
    _with_reason(payload, "lr_plus", report.lr_plus, reasons)
    threshold = report.threshold
    _with_reason(
        payload,
        "threshold",
        None if threshold is None else {"phi_e": threshold.phi_e, "rho_e": threshold.rho_e},
        reasons,
    )
    beta = report.beta
    _with_reason(
        payload,
        "beta",
        None
        if beta is None
        else {
            "beta_rad": beta.beta_rad,
            "psi": beta.psi,
            "origin_slope": beta.origin_slope,
        },
        reasons,
    )
    chord = report.endpoint_chord
    _with_reason(
        payload,
        "endpoint_chord",
        None if chord is None else {"slope": chord.slope, "intercept": chord.intercept},
        reasons,
    )
    _with_reason(payload, "auc", report.auc, reasons)
    return payload


def comparison_payload(report: ComparisonReport) -> dict:
    return {
        "first": test_report_payload(report.first),
        "second": test_report_payload(report.second),
        "equal_epsilon": report.equal_epsilon,
        "epsilon_difference": report.epsilon_difference,
        "dominant": report.dominant,
        "beta_order": {
            "winner": report.beta_order.winner,
            "difference": report.beta_order.difference,
        },
        "auc_order": {
            "winner": report.auc_order.winner,
            "difference": report.auc_order.difference,
        },
    }


def cohort_payload(result: CohortResult) -> dict:
    payload: dict = {
        "n": result.n,
        "seed": result.seed,
        "true_pos": result.true_pos,
        "false_pos": result.false_pos,
        "true_neg": result.true_neg,
        "false_neg": result.false_neg,
    }
    payload["empirical_ppv"] = result.empirical_ppv
    if result.empirical_ppv is None:
        payload["empirical_ppv_reason"] = result.ppv_reason or "estimate absent"
    payload["empirical_lr_plus"] = result.empirical_lr_plus
    if result.empirical_lr_plus is None:
        payload["empirical_lr_plus_reason"] = result.lr_reason or "estimate absent"
    return payload


def emit_report(report: TestReport | ComparisonReport | CohortResult) -> str:
    """JSON document for a test report, a comparison, or a simulated cohort."""
    if isinstance(report, TestReport):
        payload = test_report_payload(report)
    elif isinstance(report, ComparisonReport):
        payload = comparison_payload(report)
    elif isinstance(report, CohortResult):
        payload = cohort_payload(report)
    else:
        raise TypeError(f"cannot emit a report for {type(report).__name__}")
    return render_json(payload) + "\n"


def emit_curve_csv(samples: Iterable[CurvePoint]) -> str:
    """CSV rows ``phi,ppv`` with an empty ppv field where the value is 0/0."""
    lines = ["phi,ppv"]
    # Each row inlines format_real's "%.12g" of float(value).
    for point in samples:
        if point.rho is None:
            lines.append(f"{float(point.phi):.12g},")
        else:
            lines.append(f"{float(point.phi):.12g},{float(point.rho):.12g}")
    return "\n".join(lines) + "\n"
