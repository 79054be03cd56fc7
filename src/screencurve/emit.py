"""Deterministic JSON, CSV and plain-text emitters.

Output is meant to be diffable and byte-stable: field order is fixed by
construction, every real number is rendered with 12 significant digits
(``%.12g``), absent values become explicit ``null`` with a sibling
``*_reason`` string, and no locale-dependent formatting is used anywhere.
The JSON writer is local because the stock serializer renders floats with
shortest-roundtrip precision, which is not the 12-digit contract.

This is the only module that knows the report documents' layout.  A JSON
record is the object of its type's declared fields, in declaration order,
so a report's keys are the names of its fields.  The plain-text report of
one test (``report_text``) follows one table of labels per derived field.
"""

from __future__ import annotations

import math
from typing import Iterable

from .analysis import ComparisonReport, TestReport
from .cohort import CohortResult
from .core import CurvePoint

__all__ = ["format_real", "render_json", "emit_report", "report_text", "emit_curve_csv"]


def format_real(value: float) -> str:
    """Render a real number with 12 significant digits."""
    return f"{float(value):.12g}"


#: JSON string escapes: the quote, the backslash and every control character.
_ESCAPES = {ord('"'): '\\"', ord("\\"): "\\\\", **{c: f"\\u{c:04x}" for c in range(0x20)}}


def _escape(text: str) -> str:
    # A printable string holds no control character; most keys and reasons are.
    if text.isprintable() and '"' not in text and "\\" not in text:
        return text
    return text.translate(_ESCAPES)


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


#: Each derived field of a test report, in document order, with its text lines
#: as (label, attribute of the field's value, or None for the value itself).
#: An undefined field prints one line: its first label and the reason.
_REPORT_TEXT = (
    ("lr_plus", (("LR+", None),)),
    ("threshold", (("prevalence threshold phi_e", "phi_e"),
                   ("predictive value at threshold", "rho_e"))),
    ("beta", (("beta (rad)", "beta_rad"), ("origin-chord slope", "origin_slope"))),
    ("endpoint_chord", (("endpoint-chord slope", "slope"),
                        ("endpoint-chord intercept", "intercept"))),
    ("auc", (("area under curve", None),)),
)

_UNDEFINED = "value is undefined here"


def _record(value):
    """A record's declared fields, in order, as a JSON object; other values as they are.

    A dataclass's ``__dataclass_fields__`` is what ``dataclasses.fields``
    reads; the records here declare no ClassVar or InitVar it would also hold.
    """
    names = getattr(value, "_fields", None) or getattr(value, "__dataclass_fields__", None)
    return {name: getattr(value, name) for name in names} if names else value


def _with_reasons(fields: dict, reasons) -> dict:
    """JSON object of a record's fields, each None field followed by its reason."""
    payload: dict = {}
    for key, value in fields.items():
        payload[key] = _record(value)
        if value is None:
            payload[f"{key}_reason"] = reasons.get(key, _UNDEFINED)
    return payload


def test_report_payload(report: TestReport) -> dict:
    """Fixed-order JSON payload for a single-test report."""
    fields = _record(report)
    return _with_reasons(fields, fields.pop("absent_reasons"))


def report_text(report: TestReport) -> str:
    """Plain-text document for a single-test report."""
    lines = [
        f"sensitivity: {format_real(report.test.sensitivity)}",
        f"specificity: {format_real(report.test.specificity)}",
        f"gain index (sens + spec): {report.epsilon:.6g}",
    ]
    for key, rows in _REPORT_TEXT:
        value = getattr(report, key)
        if value is None:
            reason = report.absent_reasons.get(key, _UNDEFINED)
            lines.append(f"{rows[0][0]}: undefined ({reason})")
            continue
        for label, attribute in rows:
            number = value if attribute is None else getattr(value, attribute)
            lines.append(f"{label}: {number:.6g}")
    return "\n".join(lines) + "\n"


def comparison_payload(report: ComparisonReport) -> dict:
    return {
        key: test_report_payload(value) if isinstance(value, TestReport) else _record(value)
        for key, value in _record(report).items()
    }


def cohort_payload(result: CohortResult) -> dict:
    fields = _record(result)
    reasons = {"empirical_ppv": fields.pop("ppv_reason") or "estimate absent",
               "empirical_lr_plus": fields.pop("lr_reason") or "estimate absent"}
    return _with_reasons(fields, reasons)


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
