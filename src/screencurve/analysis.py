"""Curve-level analysis: exact area, adaptive quadrature, limits, comparison.

Area under the curve.  With c = 1 - b and d = epsilon - 1 = a - c the curve
is rho(phi) = a*phi / (c + d*phi), and

    integral_0^1 rho dphi = a/d - (a*c/d^2) * ln(a/c)      for d != 0,
                          = 1/2                            for d = 0.

The implementation evaluates the algebraically equal form

    (a/c) * (r - ln(1 + r)) / r^2,    r = d/c,

which isolates the cancellation into (r - log1p(r)) and switches to a
nine-term alternating series

    (a/c) * (1/2 - r/3 + r^2/4 - ... + r^8/10)

for |r| < 0.02 (next term below 1e-16 relative), so values near
epsilon = 1 are computed to full precision instead of losing digits to the
subtraction.
Below r = -1/2 (LR+ = a/c < 1/2) the logarithm is taken of a/c itself:
1 + r rounds away the low digits of a small a/c, and to zero below
a/c = 2^-53.

The quadrature companion is an independent oracle: depth-limited adaptive
Simpson in plain Python over the curve kernel of ``core``, with error
estimated from the two-scale rule difference |S2 - S|/15 and a Richardson
correction on acceptance.  The two routes are compared in tests; neither
is derived from the other.

A fictitious perfectly informative test appears in the limit epsilon -> 2,
where the area tends to 1; ``fts_limit_sweep`` walks a = b = 1 - 2^-k
toward that corner.

Comparison.  In odds form the curve is rho/(1 - rho) = L * phi/(1 - phi)
with L = LR+ = a/c, so the test with the larger L has the larger predictive
value at every interior prevalence, and the largest gap between two curves
is tanh(|ln(L2/L1)|/4).  ``compare_tests`` orders tests by L alone; for
tests of equal epsilon this is the sign rule (epsilon - 1)(b2 - b1).
"""

from __future__ import annotations

import math
from typing import Literal, Mapping

from .core import _NEW_DICT, ScreeningTest, _Record, _ppv, _require_int, _require_real
from .errors import (
    DegenerateTestError,
    NonConvergenceError,
    ParameterError,
)
from .geometry import BetaGeometry, ChordLine, ThresholdPoint, _checked, _degenerate, _derive

__all__ = [
    "TestReport",
    "MetricOrdering",
    "ComparisonReport",
    "auc_closed_form",
    "auc_quadrature",
    "fts_limit_sweep",
    "build_test_report",
    "compare_tests",
]

#: Quadrature tolerances below this are refused (double precision floor).
MIN_QUADRATURE_TOL = 1e-13

#: Curve-value differences at or below this are treated as numerically zero.
NEGLIGIBLE_DIFFERENCE = 1e-12

#: |r| = |epsilon - 1| / (1 - b) below which the series branch is used.
SERIES_SWITCH = 0.02


def auc_closed_form(test: ScreeningTest) -> float:
    """Exact area under the curve on [0, 1].

    Returns 0.5 exactly when epsilon = 1 (to float precision, when the
    computed a - (1 - b) is exactly zero).  Raises DegenerateTestError for
    sensitivity 0 or specificity 1, carrying the limiting area.
    """
    _checked(_degenerate(test, "area under the curve"))
    a = test.sensitivity
    c = 1.0 - test.specificity
    r = (a - c) / c
    if r == 0.0:
        return 0.5
    if abs(r) < SERIES_SWITCH:
        # Sum of (-r)^k / (k + 2) for k = 0..8, by Horner's rule.
        core = 0.0
        for k in range(10, 1, -1):
            core = 1.0 / k - r * core
    else:
        log_lr = math.log(a / c) if r < -0.5 else math.log1p(r)
        core = (r - log_lr) / (r * r)
    return (a / c) * core


def auc_quadrature(
    test: ScreeningTest, tol: float = 1e-10, max_depth: int = 60
) -> float:
    """Area under the curve by depth-limited adaptive Simpson bisection.

    Each interval carries an error budget proportional to its length; an
    interval is accepted when the two-scale Simpson difference satisfies
    |S2 - S| <= 15 * budget, contributing S2 + (S2 - S)/15.  Rejected
    intervals are bisected, halving their budget, and the pending intervals
    are processed breadth first: every interval at one depth before any at
    the next.

    Raises:
        ParameterError: unless tol is a finite number >= 1e-13 and max_depth >= 1.
        DegenerateTestError: for sensitivity 0 or specificity 1 (the
            integrand is 0/0 at an endpoint).
        NonConvergenceError: if some interval is still unresolved after
            ``max_depth`` bisections.
    """
    _require_real("tol", tol, MIN_QUADRATURE_TOL)
    _require_int("max_depth", max_depth, 1)
    _checked(_degenerate(test, "area under the curve"))
    a = test.sensitivity
    c = 1.0 - test.specificity

    # (left, right, f(left), f(mid), f(right), Simpson estimate, error budget)
    f_left, f_mid, f_right = _ppv(a, c, 0.0), _ppv(a, c, 0.5), _ppv(a, c, 1.0)
    estimate = 1.0 / 6.0 * (f_left + 4.0 * f_mid + f_right)
    pending = [(0.0, 1.0, f_left, f_mid, f_right, estimate, tol)]
    total = 0.0

    for _ in range(max_depth):
        bisected = []
        for left, right, f_left, f_mid, f_right, estimate, budget in pending:
            mid = 0.5 * (left + right)
            f_lm = _ppv(a, c, 0.5 * (left + mid))
            f_rm = _ppv(a, c, 0.5 * (mid + right))
            s_left = (mid - left) / 6.0 * (f_left + 4.0 * f_lm + f_mid)
            s_right = (right - mid) / 6.0 * (f_mid + 4.0 * f_rm + f_right)
            refined = s_left + s_right
            error = refined - estimate
            if abs(error) <= 15.0 * budget:
                total += refined + error / 15.0
            else:
                bisected.append((left, mid, f_left, f_lm, f_mid, s_left, budget / 2.0))
                bisected.append((mid, right, f_mid, f_rm, f_right, s_right, budget / 2.0))
        if not bisected:
            return total
        pending = bisected

    raise NonConvergenceError(
        f"quadrature did not reach tol={tol:g} within {max_depth} bisections "
        f"({len(pending)} intervals unresolved)"
    )


def fts_limit_sweep(steps: int) -> list[tuple[float, float]]:
    """Walk a = b = 1 - 2^-k for k = 1..steps toward the epsilon = 2 corner.

    Returns [(epsilon_k, auc_k)] in order.  The first point is always
    (1.0, 0.5); the areas increase strictly toward 1.

    Raises ParameterError unless ``steps`` is an integer in [1, 53]: from
    k = 54 on, 1 - 2^-k rounds to 1, a perfect test with no area defined.
    """
    _require_int("steps", steps, 1)
    if steps > 53:
        raise ParameterError(
            f"steps must be at most 53, got {steps!r}: 1 - 2^-{steps} rounds to 1"
        )
    rows: list[tuple[float, float]] = []
    for k in range(1, steps + 1):
        level = 1.0 - 2.0 ** (-k)
        test = ScreeningTest(level, level)
        rows.append((test.epsilon, auc_closed_form(test)))
    return rows


class TestReport(_Record):
    """All derived quantities for one test.

    Fields that are undefined for a degenerate test hold None, with a
    human-readable explanation under the same key in ``absent_reasons``.
    """

    test: ScreeningTest
    epsilon: float
    lr_plus: float | None
    threshold: ThresholdPoint | None
    beta: BetaGeometry | None
    endpoint_chord: ChordLine | None
    auc: float | None
    absent_reasons: Mapping[str, str] = _NEW_DICT


class MetricOrdering(_Record):
    """Which test wins one metric, with the signed gap (second minus first)."""

    winner: Literal["first", "second", "tie"]
    difference: float


class ComparisonReport(_Record):
    """Side-by-side comparison of two tests on the same prevalence axis."""

    first: TestReport
    second: TestReport
    equal_epsilon: bool
    epsilon_difference: float
    dominant: Literal["first", "second", "neither"]
    beta_order: MetricOrdering
    auc_order: MetricOrdering


def build_test_report(test: ScreeningTest, strict: bool = True) -> TestReport:
    """Assemble the full report for one test.

    With ``strict=True`` degenerate-test errors propagate; with
    ``strict=False`` the affected fields are reported as None plus a reason,
    which is what batch processing and the JSON emitter want.
    """
    auc = _degenerate(test, "area under the curve") or auc_closed_form(test)
    names = ("lr_plus", "threshold", "beta", "endpoint_chord", "auc")
    fields: dict[str, object] = {}
    reasons: dict[str, str] = {}
    for name, value in zip(names, (*_derive(test), auc)):
        if isinstance(value, DegenerateTestError):
            if strict:
                raise value
            reasons[name] = str(value)
            value = None
        fields[name] = value
    return TestReport(test=test, epsilon=test.epsilon, **fields, absent_reasons=reasons)


def _ordering(first_value: float, second_value: float, prefer: str) -> MetricOrdering:
    difference = second_value - first_value
    if difference == 0.0:
        return MetricOrdering(winner="tie", difference=0.0)
    second_wins = (difference < 0.0) if prefer == "smaller" else (difference > 0.0)
    return MetricOrdering(winner="second" if second_wins else "first",
                          difference=difference)


def compare_tests(
    first: ScreeningTest, second: ScreeningTest, eps_tol: float = 1e-9
) -> ComparisonReport:
    """Compare two tests: epsilon equality, pointwise dominance, orderings.

    The test with the larger LR+ dominates: its curve lies above the other's
    at every interior prevalence.  Pairs whose largest curve gap,
    tanh(|ln(LR+_2 / LR+_1)| / 4), is at most 1e-12 are reported as
    "neither" (numerically indistinguishable curves).  ``eps_tol`` only
    decides ``equal_epsilon``.

    Degenerate tests raise with the offending side named.  ``beta_order``
    prefers the smaller angle, ``auc_order`` the larger area; both carry the
    signed gap second-minus-first.
    """
    _require_real("eps_tol", eps_tol, 0.0)

    def report_or_blame(test: ScreeningTest, role: str) -> TestReport:
        try:
            return build_test_report(test, strict=True)
        except DegenerateTestError as exc:
            raise type(exc)(
                f"{role} test ({test.describe()}): {exc}", limit=exc.limit
            ) from exc

    report_1 = report_or_blame(first, "first")
    report_2 = report_or_blame(second, "second")
    eps_1, eps_2 = report_1.epsilon, report_2.epsilon
    equal = abs(eps_2 - eps_1) <= eps_tol

    assert report_1.lr_plus is not None and report_2.lr_plus is not None
    assert report_1.beta is not None and report_2.beta is not None
    assert report_1.auc is not None and report_2.auc is not None
    # Strict reports hold LR+ within [1e-32, 1e16], so the ratio is finite and positive.
    log_ratio = math.log(report_2.lr_plus / report_1.lr_plus)
    if math.tanh(abs(log_ratio) / 4.0) <= NEGLIGIBLE_DIFFERENCE:
        dominant: Literal["first", "second", "neither"] = "neither"
    else:
        dominant = "second" if log_ratio > 0.0 else "first"
    return ComparisonReport(
        first=report_1,
        second=report_2,
        equal_epsilon=equal,
        epsilon_difference=eps_2 - eps_1,
        dominant=dominant,
        beta_order=_ordering(report_1.beta.beta_rad, report_2.beta.beta_rad, "smaller"),
        auc_order=_ordering(report_1.auc, report_2.auc, "larger"),
    )
