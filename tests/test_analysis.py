"""Area under the curve, the limit sweep, reports, and the comparator."""

import math
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from screencurve import (
    BetaGeometry,
    ChordLine,
    ComparatorInconsistencyError,
    DegenerateAngleError,
    DegenerateTestError,
    InfiniteLRError,
    NonConvergenceError,
    ParameterError,
    ScreeningTest,
    ThresholdPoint,
    ZeroLRError,
    auc_closed_form,
    auc_quadrature,
    beta_geometry,
    build_test_report,
    compare_tests,
    endpoint_chord_line,
    fts_limit_sweep,
    lr_positive_direct,
    ppv,
    prevalence_threshold,
)

from _oracles import (
    AUC,
    AUC_DIFF_0906_0609,
    AUC_DIFF_PAIR,
    AUC_NEAR_ONE_B05,
    AUC_SMALL_LR_B05,
    BETA_DIFF_PAIR,
    SWEEP20_FINAL_AUC,
    grid_gaps,
    trapezoid_auc,
)

interior = st.floats(min_value=0.02, max_value=0.98)


class TestAucClosedForm:
    @pytest.mark.parametrize("key,expected", sorted(AUC.items()))
    def test_frozen_values(self, key, expected):
        assert auc_closed_form(ScreeningTest(*key)) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("a,b", [(0.5, 0.5), (0.3, 0.7), (0.9, 0.1)])
    def test_exactly_half_on_the_identity_line(self, a, b):
        assert auc_closed_form(ScreeningTest(a, b)) == 0.5

    def test_trapezoid_cross_check(self):
        assert auc_closed_form(ScreeningTest(0.9, 0.6)) == pytest.approx(
            trapezoid_auc(0.9, 0.6), abs=1e-9
        )

    @given(a=interior, b=interior)
    def test_range_and_gain_index_sides(self, a, b):
        value = auc_closed_form(ScreeningTest(a, b))
        assert 0.0 < value < 1.0
        eps = a + b
        if eps > 1.0 + 1e-9:
            assert value > 0.5
        elif eps < 1.0 - 1e-9:
            assert value < 0.5

    @given(a=interior, b=interior)
    def test_point_reflection_symmetry(self, a, b):
        # Reflecting the plane through (1/2, 1/2) maps the curve of (a, b)
        # onto the curve of (1-b, 1-a), so the two areas sum to 1.
        total = auc_closed_form(ScreeningTest(a, b)) + auc_closed_form(
            ScreeningTest(1.0 - b, 1.0 - a)
        )
        assert total == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize(
        "a,b",
        [(0.5, 0.5 + 1e-6), (0.7, 0.3 + 1e-10), (0.42, 0.58 - 1e-5), (0.9, 0.1 + 1e-13)],
    )
    def test_series_branch_matches_quadrature_near_gain_one(self, a, b):
        t = ScreeningTest(a, b)
        assert auc_closed_form(t) == pytest.approx(
            auc_quadrature(t, tol=1e-12), abs=1e-11
        )

    @pytest.mark.parametrize("a,expected", sorted(AUC_SMALL_LR_B05.items()))
    def test_small_likelihood_ratio_keeps_its_digits(self, a, expected):
        assert auc_closed_form(ScreeningTest(a, 0.5)) == pytest.approx(expected, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("a,expected", sorted(AUC_NEAR_ONE_B05.items()))
    def test_near_unit_likelihood_ratio_keeps_its_digits(self, a, expected):
        # r - log1p(r) cancels here; the series branch keeps full precision.
        assert auc_closed_form(ScreeningTest(a, 0.5)) == pytest.approx(expected, rel=1e-14, abs=0.0)

    @given(a=st.floats(min_value=1e-300, max_value=0.3), b=st.floats(min_value=0.0, max_value=0.7))
    def test_small_likelihood_ratio_is_positive_and_below_half(self, a, b):
        value = auc_closed_form(ScreeningTest(a, b))
        assert 0.0 < value < 0.5

    def test_degenerate_limits(self):
        with pytest.raises(DegenerateTestError) as info:
            auc_closed_form(ScreeningTest(0.0, 0.5))
        assert info.value.limit == 0.0
        with pytest.raises(DegenerateTestError) as info:
            auc_closed_form(ScreeningTest(0.5, 1.0))
        assert info.value.limit == 1.0
        with pytest.raises(DegenerateTestError) as info:
            auc_closed_form(ScreeningTest(0.0, 1.0))
        assert info.value.limit is None


class TestAucQuadrature:
    @given(a=interior, b=interior)
    def test_matches_closed_form(self, a, b):
        t = ScreeningTest(a, b)
        assert auc_quadrature(t, tol=1e-10) == pytest.approx(
            auc_closed_form(t), abs=1e-9
        )

    def test_tolerance_floor(self):
        with pytest.raises(ParameterError):
            auc_quadrature(ScreeningTest(0.5, 0.5), tol=1e-14)

    def test_integer_tolerance_is_accepted(self):
        t = ScreeningTest(0.95, 0.75)
        assert auc_quadrature(t, tol=1) == pytest.approx(auc_closed_form(t), abs=1e-2)
        assert compare_tests(t, ScreeningTest(0.75, 0.95), eps_tol=1).equal_epsilon
        assert compare_tests(t, ScreeningTest(0.75, 0.95), eps_tol=10**308).equal_epsilon

    @pytest.mark.parametrize("bad", [True, math.nan, math.inf, -math.inf, "1e-10", 10**400])
    def test_tolerances_refuse_what_is_not_a_finite_number(self, bad):
        t = ScreeningTest(0.95, 0.75)
        with pytest.raises(ParameterError, match="tol must be a finite number >= 1e-13"):
            auc_quadrature(t, tol=bad)
        with pytest.raises(ParameterError, match="eps_tol must be a finite number >= 0"):
            compare_tests(t, ScreeningTest(0.75, 0.95), eps_tol=bad)

    @pytest.mark.parametrize("bad_depth", [0, -1, 2.5])
    def test_depth_validation(self, bad_depth):
        with pytest.raises(ParameterError):
            auc_quadrature(ScreeningTest(0.5, 0.5), max_depth=bad_depth)

    def test_nonconvergence_is_reported(self):
        for max_depth, unresolved in [(1, 2), (5, 32)]:
            with pytest.raises(NonConvergenceError) as info:
                auc_quadrature(ScreeningTest(0.95, 0.75), tol=1e-12, max_depth=max_depth)
            assert str(info.value) == (
                f"quadrature did not reach tol=1e-12 within {max_depth} bisections "
                f"({unresolved} intervals unresolved)"
            )

    def test_richardson_corrected_accuracy_on_the_acceptance_grid(self):
        # The accepted S2 + (S2 - S)/15 lands far inside the requested tol;
        # plain S2 would sit near it.
        grid = [0.02 + 0.96 * k / 49.0 for k in range(50)]

        def gap(test):
            return abs(auc_quadrature(test, tol=1e-10) - auc_closed_form(test))

        assert max(gap(ScreeningTest(a, b)) for a in grid for b in grid) <= 1e-12

    def test_sharp_curve_converges(self):
        t = ScreeningTest(0.98, 0.98)
        assert auc_quadrature(t, tol=1e-11) == pytest.approx(
            auc_closed_form(t), abs=1e-10
        )


class TestLimitSweep:
    def test_single_step_is_the_coin_flip_curve(self):
        assert fts_limit_sweep(1) == [(1.0, 0.5)]

    def test_frozen_three_steps(self):
        rows = fts_limit_sweep(3)
        assert [eps for eps, _ in rows] == pytest.approx([1.0, 1.5, 1.75], abs=1e-15)
        assert rows[1][1] == pytest.approx(AUC[(0.75, 0.75)], rel=1e-12)
        assert rows[2][1] == pytest.approx(AUC[(0.875, 0.875)], rel=1e-12)

    def test_twenty_steps_strictly_increasing_toward_one(self):
        rows = fts_limit_sweep(20)
        aucs = [auc for _, auc in rows]
        assert all(x < y for x, y in zip(aucs, aucs[1:]))
        assert aucs[-1] == pytest.approx(SWEEP20_FINAL_AUC, rel=1e-12)
        assert aucs[-1] < 1.0

    @pytest.mark.parametrize("bad", [0, -2, 1.5])
    def test_step_validation(self, bad):
        with pytest.raises(ParameterError):
            fts_limit_sweep(bad)

    def test_fifty_three_steps_still_rise_strictly(self):
        # 1 - 2^-53 is the last level below 1 a double can hold.
        rows = fts_limit_sweep(53)
        aucs = [auc for _, auc in rows]
        assert all(x < y for x, y in zip(aucs, aucs[1:]))
        assert aucs[-1] < 1.0 and rows[-1][0] < 2.0

    @pytest.mark.parametrize("steps", [54, 60])
    def test_steps_past_the_last_double_below_one_are_refused(self, steps):
        with pytest.raises(ParameterError, match="at most 53"):
            fts_limit_sweep(steps)


_ZERO_SENSITIVITY = "degenerate at sensitivity=0"
_UNIT_SPECIFICITY = "degenerate at specificity=1"
_JOINT = "sensitivity=0 specificity=1"

#: (sensitivity, specificity) -> (report fields, absent_reasons in order, and
#: what the strict report raises as (class, message, limit), or None).
FROZEN_REPORTS = {
    (0.95, 0.75): (
        dict(
            epsilon=1.7,
            lr_plus=3.8,
            threshold=ThresholdPoint(phi_e=0.33905673891492605, rho_e=0.6609432610850741),
            beta=BetaGeometry(
                beta_rad=0.4739848706914468,
                psi=0.512989176042577,
                origin_slope=1.9493588689617927,
            ),
            endpoint_chord=ChordLine(slope=0.5129891760425771, intercept=0.4870108239574229),
            auc=0.7100760135736107,
        ),
        [],
        None,
    ),
    (0.0, 0.5): (
        dict(epsilon=0.5, lr_plus=None, threshold=None, beta=None, endpoint_chord=None, auc=None),
        [
            ("lr_plus", "LR+ collapses to 0 at sensitivity=0"),
            ("threshold", f"prevalence threshold is {_ZERO_SENSITIVITY} (limit 1 as sensitivity -> 0)"),
            ("beta", f"curve angle is {_ZERO_SENSITIVITY} (limit pi/2)"),
            ("endpoint_chord", f"prevalence threshold is {_ZERO_SENSITIVITY} (limit 1 as sensitivity -> 0)"),
            ("auc", f"area under the curve is {_ZERO_SENSITIVITY} (limit 0)"),
        ],
        (ZeroLRError, "LR+ collapses to 0 at sensitivity=0", 0.0),
    ),
    (0.5, 1.0): (
        dict(epsilon=1.5, lr_plus=None, threshold=None, beta=None, endpoint_chord=None, auc=None),
        [
            ("lr_plus", "LR+ diverges at specificity=1 with positive sensitivity"),
            ("threshold", f"prevalence threshold is {_UNIT_SPECIFICITY} (limit 0 as specificity -> 1)"),
            ("beta", f"curve angle is {_UNIT_SPECIFICITY} (limit 0)"),
            ("endpoint_chord", f"prevalence threshold is {_UNIT_SPECIFICITY} (limit 0 as specificity -> 1)"),
            ("auc", f"area under the curve is {_UNIT_SPECIFICITY} (limit 1)"),
        ],
        (InfiniteLRError, "LR+ diverges at specificity=1 with positive sensitivity", math.inf),
    ),
    (0.0, 1.0): (
        dict(epsilon=1.0, lr_plus=None, threshold=None, beta=None, endpoint_chord=None, auc=None),
        [
            ("lr_plus", f"LR+ is 0/0 for {_JOINT}"),
            ("threshold", f"prevalence threshold is indeterminate for {_JOINT}: "
                          "sensitivity 0 and specificity 1 jointly leave it 0/0"),
            ("beta", f"curve angle is indeterminate for {_JOINT}"),
            ("endpoint_chord", f"prevalence threshold is indeterminate for {_JOINT}: "
                               "sensitivity 0 and specificity 1 jointly leave it 0/0"),
            ("auc", f"area under the curve is indeterminate for {_JOINT}"),
        ],
        (DegenerateTestError, f"LR+ is 0/0 for {_JOINT}", None),
    ),
    (1e-40, 0.5): (
        dict(epsilon=0.5, lr_plus=2e-40, threshold=None, beta=None, endpoint_chord=None,
             auc=1.8082051307840375e-38),
        [
            ("threshold", "prevalence threshold rounds to its limit 1 at sensitivity=1e-40 specificity=0.5"),
            ("beta", "curve angle rounds to its limit pi/2 at sensitivity=1e-40 specificity=0.5"),
            ("endpoint_chord", "prevalence threshold rounds to its limit 1 at sensitivity=1e-40 specificity=0.5"),
        ],
        (DegenerateTestError,
         "prevalence threshold rounds to its limit 1 at sensitivity=1e-40 specificity=0.5", 1.0),
    ),
    (5e-324, 0.5): (
        dict(epsilon=0.5, lr_plus=1e-323, threshold=None, beta=None, endpoint_chord=None, auc=7.337e-321),
        [
            ("threshold", "prevalence threshold rounds to its limit 1 at sensitivity=4.94066e-324 specificity=0.5"),
            ("beta", "curve angle rounds to its limit pi/2 at sensitivity=4.94066e-324 specificity=0.5"),
            ("endpoint_chord", "prevalence threshold rounds to its limit 1 at sensitivity=4.94066e-324 specificity=0.5"),
        ],
        (DegenerateTestError,
         "prevalence threshold rounds to its limit 1 at sensitivity=4.94066e-324 specificity=0.5", 1.0),
    ),
    # The threshold is defined while the angle rounds to pi/2.
    (2e-32, 0.0): (
        dict(
            epsilon=2e-32,
            lr_plus=2e-32,
            threshold=ThresholdPoint(phi_e=0.9999999999999998, rho_e=1.4142135623730949e-16),
            beta=None,
            endpoint_chord=ChordLine(slope=7071067811865475.0, intercept=-7071067811865474.0),
            auc=1.4397915159049905e-30,
        ),
        [("beta", "curve angle rounds to its limit pi/2 at sensitivity=2e-32 specificity=0")],
        (DegenerateAngleError,
         "curve angle rounds to its limit pi/2 at sensitivity=2e-32 specificity=0", math.pi / 2.0),
    ),
}


class TestReports:
    def test_complete_report(self):
        report = build_test_report(ScreeningTest(0.95, 0.75))
        assert report.epsilon == pytest.approx(1.7, abs=1e-12)
        assert report.lr_plus == pytest.approx(3.8, rel=1e-12)
        assert report.threshold is not None
        assert report.beta is not None
        assert report.endpoint_chord is not None
        assert report.auc == pytest.approx(AUC[(0.95, 0.75)], rel=1e-12)
        assert report.absent_reasons == {}

    def test_strict_report_raises_on_degenerate(self):
        with pytest.raises(DegenerateTestError):
            build_test_report(ScreeningTest(0.0, 0.5), strict=True)

    def test_tolerant_report_collects_reasons(self):
        report = build_test_report(ScreeningTest(0.0, 0.5), strict=False)
        assert report.lr_plus is None
        assert report.threshold is None
        assert report.beta is None
        assert report.auc is None
        assert set(report.absent_reasons) == {
            "lr_plus",
            "threshold",
            "beta",
            "endpoint_chord",
            "auc",
        }
        assert all(isinstance(v, str) and v for v in report.absent_reasons.values())

    @pytest.mark.parametrize("key", sorted(FROZEN_REPORTS))
    def test_frozen_report(self, key):
        fields, reasons, raised = FROZEN_REPORTS[key]
        test = ScreeningTest(*key)
        report = build_test_report(test, strict=False)
        assert report.test == test
        for name, expected in fields.items():
            got = getattr(report, name)
            assert got == expected and type(got) is type(expected), name
        assert list(report.absent_reasons.items()) == reasons
        if raised is None:
            assert build_test_report(test, strict=True) == report
            return
        error, message, limit = raised
        with pytest.raises(DegenerateTestError) as caught:
            build_test_report(test, strict=True)
        assert type(caught.value) is error
        assert str(caught.value) == message
        assert caught.value.limit == limit and type(caught.value.limit) is type(limit)


#: Each report field and the public function that computes it on its own.
FIELD_FUNCTIONS = (
    ("lr_plus", lr_positive_direct),
    ("threshold", prevalence_threshold),
    ("beta", beta_geometry),
    ("endpoint_chord", endpoint_chord_line),
    ("auc", auc_closed_form),
)

accuracy = st.floats(min_value=0.0, max_value=1.0)
zero_or_one = st.sampled_from([0.0, 1.0])

#: Tests from the regions where a field is degenerate or rounds to its limit:
#: an accuracy of 0 or 1, a subnormal sensitivity, and LR+ below 1e-32.
edge_tests = st.one_of(
    st.builds(ScreeningTest, zero_or_one, accuracy),
    st.builds(ScreeningTest, accuracy, zero_or_one),
    st.builds(
        ScreeningTest,
        st.floats(min_value=0.0, max_value=sys.float_info.min, exclude_max=True),
        accuracy,
    ),
    st.builds(
        lambda exponent, b: ScreeningTest(10.0**exponent * (1.0 - b), b),
        st.floats(min_value=-45.0, max_value=-32.0),
        st.floats(min_value=0.0, max_value=0.999),
    ),
)


class TestReportFieldsAreTheirFunctions:
    """Each report field is what its public function returns, or its error's text."""

    @staticmethod
    def check(test):
        report = build_test_report(test, strict=False)
        first_error = None
        for name, function in FIELD_FUNCTIONS:
            try:
                expected = function(test)
            except DegenerateTestError as exc:
                assert getattr(report, name) is None, name
                assert report.absent_reasons[name] == str(exc), name
                first_error = first_error or exc
            else:
                got = getattr(report, name)
                assert got == expected and type(got) is type(expected), name
                assert name not in report.absent_reasons, name
        if first_error is None:
            assert build_test_report(test, strict=True) == report
            return
        # The strict report raises the first undefined field's error itself.
        with pytest.raises(DegenerateTestError) as caught:
            build_test_report(test, strict=True)
        assert type(caught.value) is type(first_error)
        assert str(caught.value) == str(first_error)
        assert caught.value.limit == first_error.limit
        assert type(caught.value.limit) is type(first_error.limit)

    @pytest.mark.parametrize(
        "a,b",
        [(0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0), (0.0, 0.5), (0.5, 1.0),
         (1.0, 0.5), (0.5, 0.0), (5e-324, 0.0), (5e-324, 0.5), (5e-324, 1.0),
         (2.2e-308, 0.5), (1e-40, 0.5), (2e-32, 0.0), (1e-32, 0.0), (0.95, 0.75)],
    )
    def test_at_the_edges(self, a, b):
        self.check(ScreeningTest(a, b))

    @given(test=edge_tests)
    def test_near_the_limits(self, test):
        self.check(test)

    @given(a=accuracy, b=accuracy)
    def test_over_the_unit_square(self, a, b):
        self.check(ScreeningTest(a, b))


class TestCompareTests:
    def test_equal_gain_pair_from_the_motivating_example(self):
        report = compare_tests(ScreeningTest(0.95, 0.75), ScreeningTest(0.75, 0.95))
        assert report.equal_epsilon
        assert report.epsilon_difference == pytest.approx(0.0, abs=1e-12)
        assert report.dominant == "second"
        assert report.beta_order.winner == "second"
        assert report.beta_order.difference == pytest.approx(BETA_DIFF_PAIR, abs=1e-11)
        assert report.auc_order.winner == "second"
        assert report.auc_order.difference == pytest.approx(AUC_DIFF_PAIR, abs=1e-11)
        assert report.first.auc == pytest.approx(AUC[(0.95, 0.75)], rel=1e-12)
        assert report.second.auc == pytest.approx(AUC[(0.75, 0.95)], rel=1e-12)
        assert report.second.beta.beta_rad < report.first.beta.beta_rad

    def test_identical_tests_tie(self):
        report = compare_tests(ScreeningTest(0.5, 0.5), ScreeningTest(0.5, 0.5))
        assert report.dominant == "neither"
        assert report.equal_epsilon
        assert report.beta_order.winner == "tie"
        assert report.auc_order.winner == "tie"
        assert report.beta_order.difference == 0.0
        assert report.auc_order.difference == 0.0

    def test_unequal_gain_pair(self):
        report = compare_tests(ScreeningTest(0.9, 0.6), ScreeningTest(0.6, 0.9))
        assert report.equal_epsilon
        assert report.dominant == "second"
        assert report.auc_order.difference == pytest.approx(AUC_DIFF_0906_0609, abs=1e-11)

    def test_reversed_ordering_below_gain_one(self):
        # Same gain index 0.7; the higher-specificity test now loses.
        report = compare_tests(ScreeningTest(0.3, 0.4), ScreeningTest(0.2, 0.5))
        assert report.equal_epsilon
        assert report.dominant == "first"

    def test_offending_test_is_identified(self):
        with pytest.raises(DegenerateTestError, match="first test"):
            compare_tests(ScreeningTest(0.0, 0.5), ScreeningTest(0.5, 0.5))
        with pytest.raises(DegenerateTestError, match="second test"):
            compare_tests(ScreeningTest(0.5, 0.5), ScreeningTest(0.5, 1.0))

    @pytest.mark.parametrize("sensitivity,shown", [(1e-40, "1e-40"), (5e-324, "4.94066e-324")])
    def test_tiny_likelihood_ratio_side_is_named(self, sensitivity, shown):
        tiny, fair = ScreeningTest(sensitivity, 0.5), ScreeningTest(0.5, 0.5)
        described = f"sensitivity={shown} specificity=0.5"
        reason = f"prevalence threshold rounds to its limit 1 at {described}"
        for role, pair in (("first", (tiny, fair)), ("second", (fair, tiny))):
            with pytest.raises(DegenerateTestError) as caught:
                compare_tests(*pair)
            assert type(caught.value) is DegenerateTestError
            assert str(caught.value) == f"{role} test ({described}): {reason}"
            assert caught.value.limit == 1.0

    def test_eps_tol_validation(self):
        with pytest.raises(ParameterError):
            compare_tests(
                ScreeningTest(0.5, 0.5), ScreeningTest(0.5, 0.5), eps_tol=-1.0
            )

    @pytest.mark.parametrize("flag", [True, False])
    def test_eps_tol_refuses_a_bool(self, flag):
        with pytest.raises(ParameterError, match="eps_tol must be a finite number"):
            compare_tests(ScreeningTest(0.5, 0.5), ScreeningTest(0.6, 0.6), eps_tol=flag)

    @given(
        eps=st.floats(min_value=1.02, max_value=1.96),
        f1=st.floats(min_value=0.01, max_value=0.99),
        f2=st.floats(min_value=0.01, max_value=0.99),
    )
    def test_equal_gain_sign_rule(self, eps, f1, f2):
        # Construct an exactly-equal-gain pair and check the comparator
        # verdict against the analytic prediction.  The specificities must
        # be genuinely separated so the pointwise gap clears the
        # coincidence guard.
        lo, hi = eps - 1.0, 1.0
        specs = []
        for f in (f1, f2):
            b_val = lo + f * (hi - lo)
            specs.append((eps - b_val, b_val))
        (a1, bb1), (a2, bb2) = specs
        if a1 + bb1 != a2 + bb2 or abs(bb1 - bb2) < 1e-6:
            return
        report = compare_tests(ScreeningTest(a1, bb1), ScreeningTest(a2, bb2))
        expected = "second" if bb2 > bb1 else "first"
        assert report.dominant == expected

    @given(
        a1=st.floats(min_value=1e-9, max_value=1.0),
        b1=st.floats(min_value=0.0, max_value=1.0 - 1e-9),
        a2=st.floats(min_value=1e-9, max_value=1.0),
        b2=st.floats(min_value=0.0, max_value=1.0 - 1e-9),
    )
    def test_dominance_matches_the_grid_oracle(self, a1, b1, a2, b2):
        gaps = grid_gaps((a1, b1), (a2, b2))
        if all(gap > 1e-9 for gap in gaps):
            expected = "second"
        elif all(gap < -1e-9 for gap in gaps):
            expected = "first"
        else:
            return
        assert compare_tests(ScreeningTest(a1, b1), ScreeningTest(a2, b2)).dominant == expected

    @pytest.mark.parametrize(
        "first,second,expected",
        [
            # Gains 1e-11 apart near 1: an equal-gain sign rule mis-orders them.
            ((0.62, 0.38000000001), (0.18, 0.82), "first"),
            # LR+ near 1e13 on both sides: curves a 1000-point grid cannot tell apart.
            ((0.44810392978928293, 0.9999999999999719),
             (0.8188817267609976, 0.9999999999999677), "second"),
            # LR+ near 8e15 against 1e-30.
            ((0.9, 1.0 - 2.0**-53), (1e-30, 0.0), "first"),
        ],
    )
    def test_dominance_at_the_edges(self, first, second, expected):
        report = compare_tests(ScreeningTest(*first), ScreeningTest(*second))
        assert report.dominant == expected

    def test_equal_likelihood_ratios_coincide(self):
        report = compare_tests(ScreeningTest(0.5, 0.75), ScreeningTest(0.25, 0.875))
        assert report.first.lr_plus == report.second.lr_plus
        assert report.dominant == "neither"

    def test_pointwise_gap_sanity(self):
        # Spot-check the grid verdict against direct evaluation.
        t1, t2 = ScreeningTest(0.95, 0.75), ScreeningTest(0.75, 0.95)
        for phi in (0.1, 0.34, 0.5, 0.9):
            assert ppv(t2, phi) > ppv(t1, phi)


def test_comparator_inconsistency_error_is_exported():
    assert issubclass(ComparatorInconsistencyError, Exception)
    assert not math.isnan(auc_closed_form(ScreeningTest(0.6, 0.6)))
