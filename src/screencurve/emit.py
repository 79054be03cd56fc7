"""Deterministic JSON, CSV and plain-text emitters.

Output is meant to be diffable and byte-stable: field order is fixed by
construction, every real number is rendered with 12 significant digits
(``%.12g``), absent values become explicit ``null`` with a sibling
``*_reason`` string, and no locale-dependent formatting is used anywhere.
The JSON writer is local because the stock serializer renders floats with
shortest-roundtrip precision, which is not the 12-digit contract.

This is the only module that knows the layout of the report documents (a
test report, a comparison, a simulated cohort) in both forms.  A JSON
record is the object of its type's declared fields, in declaration order.
The text of a test report or a cohort is that payload with one label per
key (``report_text``), so it prints the JSON's own reasons.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Iterable, Iterator

from .core import CurvePoint

if TYPE_CHECKING:
    from .analysis import ComparisonReport, TestReport
    from .cohort import CohortResult

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
        brackets = "{}"
        items = [f'"{_escape(str(k))}": {render_json(v, indent + 1)}' for k, v in value.items()]
    elif isinstance(value, (list, tuple)):
        brackets, items = "[]", [render_json(v, indent + 1) for v in value]
    else:
        raise TypeError(f"cannot serialize {type(value).__name__}")
    if not items:
        return brackets
    inner = "\n" + "  " * (indent + 1)
    return brackets[0] + inner + f",{inner}".join(items) + "\n" + "  " * indent + brackets[1]


#: Text label of each JSON key of a test report or a cohort.  A record's key
#: holds its first field's label, which the record prints when undefined;
#: ``test``, ``psi`` and the ``*_reason`` keys print no line of their own.
#: Accuracies print at the JSON's 12 digits, other reals at 6, integers in full.
_LABELS = {
    "sensitivity": "sensitivity", "specificity": "specificity",
    "epsilon": "gain index (sens + spec)", "lr_plus": "LR+",
    "threshold": "prevalence threshold phi_e", "phi_e": "prevalence threshold phi_e",
    "rho_e": "predictive value at threshold",
    "beta": "beta (rad)", "beta_rad": "beta (rad)", "origin_slope": "origin-chord slope",
    "endpoint_chord": "endpoint-chord slope", "slope": "endpoint-chord slope",
    "intercept": "endpoint-chord intercept", "auc": "area under curve",
    "n": "cohort size", "seed": "seed", "true_pos": "true positives",
    "false_pos": "false positives", "true_neg": "true negatives", "false_neg": "false negatives",
    "empirical_ppv": "empirical predictive value", "empirical_lr_plus": "empirical LR+",
}

_UNDEFINED = "value is undefined here"


def _record(value):
    """A record's declared fields, in order, as a JSON object; other values as they are."""
    names = getattr(value, "_fields", None)
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


def _comparison_payload(report: ComparisonReport) -> dict:
    """Both sides as test-report payloads, every other field as its record."""
    return {
        key: (_builder(type(value)) or _record)(value) for key, value in _record(report).items()
    }


def _cohort_payload(result: CohortResult) -> dict:
    """The cohort's fields, each absent estimate followed by its reason."""
    fields = _record(result)
    reasons = {"empirical_ppv": fields.pop("ppv_reason") or "estimate absent",
               "empirical_lr_plus": fields.pop("lr_reason") or "estimate absent"}
    return _with_reasons(fields, reasons)


#: The payload builder of each report record, keyed by the record's module and
#: class name: emit imports neither module, and a record exists only once its
#: module is loaded.
_REPORTS = {
    f"{__package__}.analysis.TestReport": test_report_payload,
    f"{__package__}.analysis.ComparisonReport": _comparison_payload,
    f"{__package__}.cohort.CohortResult": _cohort_payload,
}


def _builder(kind: type):
    """The payload builder of ``kind`` or of its nearest base that has one, or None."""
    for base in kind.__mro__:
        build = _REPORTS.get(f"{base.__module__}.{base.__qualname__}")
        if build is not None:
            return build
    return None


def _payload(report: TestReport | ComparisonReport | CohortResult) -> dict:
    """Fixed-order JSON payload of a report record; TypeError for anything else."""
    build = _builder(type(report))
    if build is None:
        raise TypeError(f"cannot emit a report for {type(report).__name__}")
    return build(report)


def _labelled_lines(payload: dict) -> Iterator[str]:
    """One ``label: value`` line per labelled leaf of ``payload``, in order."""
    for key, value in payload.items():
        if isinstance(value, dict):
            yield from _labelled_lines(value)
        elif key in _LABELS and value is None:
            yield f"{_LABELS[key]}: undefined ({payload[key + '_reason']})"
        elif key in _LABELS:
            digits = ".12g" if key in ("sensitivity", "specificity") else ".6g"
            yield f"{_LABELS[key]}: {value if isinstance(value, int) else format(value, digits)}"


def report_text(report: TestReport | ComparisonReport | CohortResult) -> str:
    """Plain-text document for a test report, a comparison, or a simulated cohort."""
    if _builder(type(report)) is _comparison_payload:
        dominant = {"first": "test1", "second": "test2", "neither": "neither (curves coincide)"}
        lines = [
            f"test1: {report.first.test.describe()}",
            f"test2: {report.second.test.describe()}",
            f"gain index difference (test2 - test1): {report.epsilon_difference:.6g}",
            f"equal gain index: {'yes' if report.equal_epsilon else 'no'}",
            f"dominant: {dominant[report.dominant]}",
            *(f"{name} order: {order.winner} (difference {order.difference:.6g})"
              for name, order in (("beta", report.beta_order), ("area", report.auc_order))),
        ]
    else:
        lines = _labelled_lines(_payload(report))
    return "\n".join(lines) + "\n"


def emit_report(report: TestReport | ComparisonReport | CohortResult) -> str:
    """JSON document for a test report, a comparison, or a simulated cohort."""
    return render_json(_payload(report)) + "\n"


def emit_curve_csv(samples: Iterable[CurvePoint]) -> str:
    """CSV rows ``phi,ppv`` with an empty ppv field where the value is 0/0."""
    # One pattern per row and one "%" over the whole document: each value is
    # format_real's "%.12g" of float(value).  A point's rho is converted before
    # its phi, so a point with two bad fields raises rho's error.
    rows, values = ["phi,ppv"], []
    for point in samples:
        if point.rho is None:
            rows.append("%.12g,")
            values.append(float(point.phi))
        else:
            rho = float(point.rho)
            rows.append("%.12g,%.12g")
            values += (float(point.phi), rho)
    return ("\n".join(rows) + "\n") % tuple(values)
