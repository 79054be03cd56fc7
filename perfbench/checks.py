"""Checks of the program's outputs against ``refs`` and method properties.

No check compares against a stored copy of earlier output.  Outputs that
must repeat (same seed, same spec) are compared with what the same run
produced before.
"""

from __future__ import annotations

import json
import xml.etree.ElementTree as ET

import refs

#: Relative tolerance for 12-digit fields (JSON, CSV) and 6-digit text fields.
TOL_12 = 1e-10
TOL_6 = 1e-5

#: Order of the JSON report keys for a nondegenerate test.
REPORT_KEYS = ("test", "epsilon", "lr_plus", "threshold", "beta", "endpoint_chord", "auc")

#: LR+ ratios closer than this (relative) are not used to predict dominance.
CLEAR_LR_GAP = 1e-6


class Checker:
    """Collects failed checks; the run is correct only if none failed."""

    #: Failure messages kept for the report; the rest are only counted.
    KEEP = 20

    def __init__(self):
        self.failures = 0
        self.messages: list[str] = []

    def expect(self, condition: bool, message) -> bool:
        if not condition:
            self.failures += 1
            if len(self.messages) < self.KEEP:
                self.messages.append(message() if callable(message) else message)
        return condition

    def close(self, got, want, rel: float, what: str, scale: float = 0.0) -> bool:
        """``got`` equals ``want`` to ``rel`` times the larger of |want| and ``scale``."""
        ok = (
            isinstance(got, (int, float)) and not isinstance(got, bool)
            and abs(got - want) <= rel * max(abs(want), scale)
        )
        return self.expect(ok, lambda: f"{what}: got {got!r}, want {want!r} (rel {rel:g})")

    @property
    def ok(self) -> bool:
        return self.failures == 0


def guarded(ck: Checker, what: str, check, *args) -> None:
    """Run ``check``; output it cannot read at all counts as one failed check."""
    try:
        check(*args)
    except (KeyError, IndexError, TypeError, ValueError, AttributeError) as exc:
        ck.expect(False, f"{what}: unreadable output ({exc!r})")


_REF_CACHE: dict[tuple[float, float], dict] = {}


def reference(a: float, b: float) -> dict:
    key = (a, b)
    if key not in _REF_CACHE:
        _REF_CACHE[key] = refs.report_reference(a, b)
    return _REF_CACHE[key]


def _scale(field: str) -> float:
    # The intercept is 1 - slope: its rounding error is relative to 1.
    return 1.0 if field == "intercept" else 0.0


def report_payload(ck: Checker, payload: dict, a: float, b: float, what: str) -> None:
    """A JSON test report: values to 1e-10, or null plus a reason when degenerate."""
    ref = reference(a, b)
    ck.close(payload.get("test", {}).get("sensitivity"), a, TOL_12, f"{what} sensitivity")
    ck.close(payload.get("test", {}).get("specificity"), b, TOL_12, f"{what} specificity")
    ck.close(payload.get("epsilon"), a + b, TOL_12, f"{what} epsilon")
    degenerate = refs.degenerate(a, b)
    keys = []
    for key in REPORT_KEYS:
        keys.append(key)
        if degenerate and key not in ("test", "epsilon"):
            keys.append(f"{key}_reason")
    ck.expect(list(payload) == keys, lambda: f"{what}: keys {list(payload)} != {keys}")
    fields = {
        "lr_plus": payload.get("lr_plus"),
        "phi_e": (payload.get("threshold") or {}).get("phi_e"),
        "rho_e": (payload.get("threshold") or {}).get("rho_e"),
        "beta_rad": (payload.get("beta") or {}).get("beta_rad"),
        "psi": (payload.get("beta") or {}).get("psi"),
        "origin_slope": (payload.get("beta") or {}).get("origin_slope"),
        "slope": (payload.get("endpoint_chord") or {}).get("slope"),
        "intercept": (payload.get("endpoint_chord") or {}).get("intercept"),
        "auc": payload.get("auc"),
    }
    if degenerate:
        for key in ("lr_plus", "threshold", "beta", "endpoint_chord", "auc"):
            ck.expect(payload.get(key, 0) is None, f"{what}: {key} should be null")
            reason = payload.get(f"{key}_reason")
            ck.expect(isinstance(reason, str) and reason.strip() != "",
                      f"{what}: {key}_reason missing")
        return
    for field, want in ref.items():
        ck.close(fields[field], want, TOL_12, f"{what} {field}", _scale(field))


#: Text report labels and the reference field each carries.
TEXT_LABELS = {
    "LR+": "lr_plus",
    "prevalence threshold phi_e": "phi_e",
    "predictive value at threshold": "rho_e",
    "beta (rad)": "beta_rad",
    "origin-chord slope": "origin_slope",
    "endpoint-chord slope": "slope",
    "endpoint-chord intercept": "intercept",
    "area under curve": "auc",
}

#: Labels that print "undefined (reason)" for a degenerate test.  The
#: endpoint-chord lines are left out instead, a known gap in the text report.
TEXT_UNDEFINED = ("LR+", "prevalence threshold phi_e", "beta (rad)", "area under curve")


def text_report(ck: Checker, lines: list[str], a: float, b: float, what: str) -> None:
    """A text report block: 6-digit values, or ``undefined (reason)``."""
    values = {}
    for line in lines:
        label, sep, value = line.partition(": ")
        if sep:
            values[label] = value
    try:
        ck.close(float(values.get("sensitivity")), a, TOL_12, f"{what} sensitivity")
        ck.close(float(values.get("specificity")), b, TOL_12, f"{what} specificity")
        ck.close(float(values.get("gain index (sens + spec)")), a + b, TOL_6, f"{what} gain")
    except (TypeError, ValueError):
        ck.expect(False, f"{what}: unreadable accuracy lines {lines[:3]!r}")
        return
    if refs.degenerate(a, b):
        for label in TEXT_UNDEFINED:
            text = values.get(label, "")
            ck.expect(text.startswith("undefined (") and len(text) > len("undefined ()"),
                      lambda: f"{what}: {label} should be undefined with a reason, got {text!r}")
        return
    ref = reference(a, b)
    for label, field in TEXT_LABELS.items():
        try:
            got = float(values.get(label))
        except (TypeError, ValueError):
            ck.expect(False, f"{what}: {label} missing or unreadable")
            continue
        ck.close(got, ref[field], TOL_6, f"{what} {label}", _scale(field))


def text_blocks(text: str) -> list[list[str]]:
    """Split blank-line separated blocks of lines."""
    return [block.splitlines() for block in text.strip("\n").split("\n\n")]


def curve_csv(ck: Checker, text: str, a: float, b: float, samples: int, what: str) -> None:
    """``phi,ppv`` rows on the uniform grid, matching the posterior-odds form."""
    lines = text.splitlines()
    if not ck.expect(len(lines) == samples + 1 and lines[0] == "phi,ppv",
                     f"{what}: {len(lines)} lines, header {lines[:1]!r}"):
        return
    step = samples - 1
    for k, line in enumerate(lines[1:]):
        phi_text, _, rho_text = line.partition(",")
        phi = k / step
        ck.close(float(phi_text), phi, TOL_12, f"{what} phi[{k}]")
        want = refs.ppv_odds(a, b, phi)
        if want is None:
            ck.expect(rho_text == "", f"{what}: ppv[{k}] should be empty, got {rho_text!r}")
        elif ck.expect(rho_text != "", f"{what}: ppv[{k}] is empty"):
            ck.close(float(rho_text), want, TOL_12, f"{what} ppv[{k}]")


def comparison(ck: Checker, got: dict, first: tuple[float, float], second: tuple[float, float],
               eps_tol: float, what: str, rel: float = TOL_12) -> None:
    """A comparison: dominance by LR+ order, winners and gaps by the references."""
    (a1, b1), (a2, b2) = first, second
    r1, r2 = reference(a1, b1), reference(a2, b2)
    l1, l2 = r1["lr_plus"], r2["lr_plus"]
    if abs(l2 - l1) > CLEAR_LR_GAP * max(l1, l2):
        want = "second" if l2 > l1 else "first"
        ck.expect(got["dominant"] == want,
                  lambda: f"{what}: dominant {got['dominant']!r}, LR+ {l1:g} vs {l2:g}")
    ck.expect(got["equal_epsilon"] == (abs((a2 + b2) - (a1 + b1)) <= eps_tol),
              f"{what}: equal_epsilon {got['equal_epsilon']!r}")
    ck.close(got["epsilon_difference"], (a2 + b2) - (a1 + b1), rel, f"{what} eps gap", 2.0)
    for order, field, prefer in (("beta_order", "beta_rad", -1.0), ("auc_order", "auc", 1.0)):
        gap = r2[field] - r1[field]
        scale = max(abs(r1[field]), abs(r2[field]))
        ck.close(got[order]["difference"], gap, rel, f"{what} {order}", scale)
        if abs(gap) > 1e-8 * scale:
            want = "second" if gap * prefer > 0 else "first"
            ck.expect(got[order]["winner"] == want,
                      lambda: f"{what}: {order} winner {got[order]['winner']!r}, want {want!r}")


def cohort(ck: Checker, counts: dict, a: float, b: float, phi: float, n: int, what: str,
           rel: float = TOL_12) -> None:
    """Counts sum to n and lie within the binomial bounds; estimates follow the counts."""
    tp, fp, tn, fn = (counts[k] for k in ("true_pos", "false_pos", "true_neg", "false_neg"))
    if not ck.expect(tp + fp + tn + fn == n and min(tp, fp, tn, fn) >= 0,
                     lambda: f"{what}: counts {tp, fp, tn, fn} do not sum to {n}"):
        return
    c = 1.0 - b
    diseased, healthy, positives = tp + fn, fp + tn, tp + fp
    ck.expect(refs.within_binomial(diseased, n, phi),
              lambda: f"{what}: {diseased} diseased of {n} at phi={phi!r}")
    if diseased:
        ck.expect(refs.within_binomial(tp, diseased, a),
                  lambda: f"{what}: {tp} true positives of {diseased} at a={a!r}")
    if healthy:
        ck.expect(refs.within_binomial(fp, healthy, c),
                  lambda: f"{what}: {fp} false positives of {healthy} at b={b!r}")
    ppv = counts["empirical_ppv"]
    if positives:
        exact = refs.ppv_odds(a, b, phi)
        ck.close(ppv, tp / positives, rel, f"{what} empirical ppv")
        if exact is not None:
            ck.expect(refs.within_binomial(tp, positives, exact),
                      lambda: f"{what}: ppv {tp}/{positives} vs exact {exact!r}")
    else:
        ck.expect(ppv is None and counts["ppv_reason"], f"{what}: ppv should be absent")
    lr = counts["empirical_lr_plus"]
    if diseased and healthy and tp and fp:
        ck.close(lr, (tp / diseased) / (fp / healthy), rel, f"{what} empirical LR+")
        low, high = refs.lr_plus_interval(a, b, diseased, healthy)
        ck.expect(low <= lr <= high if lr is not None else False,
                  lambda: f"{what}: LR+ {lr!r} outside [{low!r}, {high!r}]")
    else:
        ck.expect(lr is None and counts["lr_reason"], f"{what}: LR+ should be absent")


def limit_sweep(ck: Checker, rows: list[tuple[float, float]], steps: int, what: str) -> None:
    """Rows k = 1..steps of a = b = 1 - 2^-k: epsilon, and areas rising toward 1."""
    ck.expect(len(rows) == steps, f"{what}: {len(rows)} rows for {steps} steps")
    for k, (eps, auc) in enumerate(rows, start=1):
        level = 1.0 - 2.0**-k
        ck.close(eps, 2.0 * level, TOL_12, f"{what} epsilon[{k}]")
        ck.close(auc, reference(level, level)["auc"], TOL_12, f"{what} auc[{k}]")
    areas = [auc for _, auc in rows]
    ck.expect(all(x < y for x, y in zip(areas, areas[1:])), f"{what}: areas do not rise")


def svg(ck: Checker, document: str, names: list[str], tests: list[tuple[float, float]],
        overlays: bool, what: str) -> None:
    """Well-formed XML with one curve per entry that has a defined sample."""
    try:
        root = ET.fromstring(document.encode("utf-8"))
    except ET.ParseError as exc:
        ck.expect(False, f"{what}: not well-formed XML: {exc}")
        return
    ns = "{http://www.w3.org/2000/svg}"
    curves = [
        el for el in root.iter(f"{ns}polyline")
        if el.get("class") == "curve" and "-s" not in el.get("id", "").partition("curve-")[2]
    ]
    ids = [el.get("id") for el in curves]
    drawn = [i for i, (a, b) in enumerate(tests) if not (a == 0.0 and b == 1.0)]
    ck.expect(ids == [f"curve-{i}" for i in drawn],
              lambda: f"{what}: curve ids {ids} for entries {drawn}")
    ck.expect([el.get("data-name") for el in curves] == [names[i] for i in drawn],
              lambda: f"{what}: curve names do not match the catalog")
    if overlays:
        thresholds = sum(1 for el in root.iter(f"{ns}line") if el.get("class") == "threshold")
        defined = sum(1 for a, b in tests if not refs.degenerate(a, b))
        ck.expect(thresholds == defined,
                  lambda: f"{what}: {thresholds} threshold lines for {defined} defined entries")
        skipped = document.count("<!-- warning:")
        ck.expect(skipped == 3 * (len(tests) - defined),
                  lambda: f"{what}: {skipped} overlay warnings for {len(tests) - defined} degenerate")


def parse_json(ck: Checker, text: str, what: str):
    try:
        return json.loads(text)
    except ValueError as exc:
        ck.expect(False, f"{what}: invalid JSON: {exc}")
        return None
