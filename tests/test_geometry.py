"""Threshold point, origin-chord angle, chord slopes, and their identities."""

import math
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from screencurve import (
    DegenerateAngleError,
    DegenerateTestError,
    DomainError,
    EpsilonOneError,
    InfiniteLRError,
    ParameterError,
    ScreeningTest,
    ZeroLRError,
    auc_closed_form,
    auc_quadrature,
    beta_geometry,
    chords_at,
    endpoint_chord_line,
    lr_positive_direct,
    lr_positive_from_beta,
    lr_positive_from_chords,
    ppv,
    prevalence_threshold,
    threshold_equivalence_check,
)

from _oracles import (
    BETA_7595,
    BETA_9575,
    ENDPOINT_INTERCEPT_7595,
    ENDPOINT_INTERCEPT_9575,
    ENDPOINT_SLOPE_9575,
    ORIGIN_SLOPE_7595,
    ORIGIN_SLOPE_9575,
    PHI_E_7595,
    PHI_E_9575,
    PSI_7595,
    PSI_9575,
    RHO_E_7595,
    RHO_E_9575,
    THRESHOLD_EXTREMES,
    bisect_root,
    central_diff,
)

interior = st.floats(min_value=0.02, max_value=0.98)


class TestPrevalenceThreshold:
    @pytest.mark.parametrize(
        "a,b,phi_e,rho_e",
        [
            (0.95, 0.75, PHI_E_9575, RHO_E_9575),
            (0.75, 0.95, PHI_E_7595, RHO_E_7595),
        ],
    )
    def test_frozen_values(self, a, b, phi_e, rho_e):
        point = prevalence_threshold(ScreeningTest(a, b))
        assert point.phi_e == pytest.approx(phi_e, rel=1e-12)
        assert point.rho_e == pytest.approx(rho_e, rel=1e-12)

    @pytest.mark.parametrize("a,b", [(0.9, 0.6), (0.3, 0.8), (0.02, 0.02), (0.5, 0.5)])
    def test_against_bisection_oracle(self, a, b):
        t = ScreeningTest(a, b)
        root = bisect_root(lambda phi: ppv(t, phi) - (1.0 - phi), 1e-12, 1.0 - 1e-12)
        assert prevalence_threshold(t).phi_e == pytest.approx(root, abs=1e-12)

    @given(a=interior, b=interior)
    def test_lies_on_curve_and_antidiagonal(self, a, b):
        t = ScreeningTest(a, b)
        point = prevalence_threshold(t)
        assert 0.0 < point.phi_e < 1.0
        assert point.phi_e + point.rho_e == pytest.approx(1.0, abs=1e-12)
        assert ppv(t, point.phi_e) == pytest.approx(point.rho_e, rel=1e-12)

    @given(a=interior, b=interior)
    def test_unit_slope_at_threshold(self, a, b):
        # The curve crosses the falling diagonal with derivative exactly 1.
        t = ScreeningTest(a, b)
        point = prevalence_threshold(t)
        slope = central_diff(lambda phi: ppv(t, phi), point.phi_e, 1e-6)
        assert slope == pytest.approx(1.0, abs=1e-6)

    def test_degenerate_limits(self):
        with pytest.raises(DegenerateTestError) as info:
            prevalence_threshold(ScreeningTest(0.0, 0.5))
        assert info.value.limit == 1.0
        with pytest.raises(DegenerateTestError) as info:
            prevalence_threshold(ScreeningTest(0.5, 1.0))
        assert info.value.limit == 0.0
        with pytest.raises(DegenerateTestError) as info:
            prevalence_threshold(ScreeningTest(0.0, 1.0))
        assert info.value.limit is None


class TestThresholdEquivalence:
    @given(a=interior, b=interior)
    def test_dual_forms_agree(self, a, b):
        if abs(a + b - 1.0) < 1e-8:
            return
        ratio_form, surd_form = threshold_equivalence_check(ScreeningTest(a, b))
        assert ratio_form == pytest.approx(surd_form, rel=1e-12)

    def test_gain_index_one_is_rejected(self):
        with pytest.raises(EpsilonOneError):
            threshold_equivalence_check(ScreeningTest(0.5, 0.5))

    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateTestError):
            threshold_equivalence_check(ScreeningTest(0.0, 1.0))


class TestBetaGeometry:
    @pytest.mark.parametrize(
        "a,b,beta,psi,origin_slope",
        [
            (0.95, 0.75, BETA_9575, PSI_9575, ORIGIN_SLOPE_9575),
            (0.75, 0.95, BETA_7595, PSI_7595, ORIGIN_SLOPE_7595),
        ],
    )
    def test_frozen_values(self, a, b, beta, psi, origin_slope):
        geom = beta_geometry(ScreeningTest(a, b))
        assert geom.beta_rad == pytest.approx(beta, rel=1e-12)
        assert geom.psi == pytest.approx(psi, rel=1e-12)
        assert geom.origin_slope == pytest.approx(origin_slope, rel=1e-12)

    @given(a=interior, b=interior)
    def test_internal_identities(self, a, b):
        geom = beta_geometry(ScreeningTest(a, b))
        assert math.tan(geom.beta_rad) == pytest.approx(geom.psi, rel=1e-12)
        assert geom.origin_slope * geom.psi == pytest.approx(1.0, rel=1e-12)
        assert 0.0 < geom.beta_rad < math.pi / 2.0

    @given(a=interior, b=interior)
    def test_origin_slope_is_chord_to_threshold(self, a, b):
        t = ScreeningTest(a, b)
        geom = beta_geometry(t)
        point = prevalence_threshold(t)
        assert geom.origin_slope == pytest.approx(point.rho_e / point.phi_e, rel=1e-12)

    def test_degenerate_limits(self):
        with pytest.raises(DegenerateAngleError) as info:
            beta_geometry(ScreeningTest(0.0, 0.5))
        assert info.value.limit == pytest.approx(math.pi / 2.0)
        with pytest.raises(DegenerateAngleError) as info:
            beta_geometry(ScreeningTest(0.5, 1.0))
        assert info.value.limit == 0.0
        with pytest.raises(DegenerateAngleError) as info:
            beta_geometry(ScreeningTest(0.0, 1.0))
        assert info.value.limit is None


class TestLikelihoodRatioRoutes:
    def test_direct_value(self):
        assert lr_positive_direct(ScreeningTest(0.95, 0.75)) == pytest.approx(3.8, rel=1e-15)
        assert lr_positive_direct(ScreeningTest(0.75, 0.95)) == pytest.approx(15.0, rel=1e-12)

    @given(a=interior, b=interior, phi=st.floats(min_value=1e-6, max_value=1.0 - 1e-6))
    def test_three_routes_agree(self, a, b, phi):
        t = ScreeningTest(a, b)
        direct = lr_positive_direct(t)
        assert lr_positive_from_beta(t) == pytest.approx(direct, rel=1e-12)
        assert lr_positive_from_chords(t, phi) == pytest.approx(direct, rel=1e-12)

    def test_degenerate_routes(self):
        with pytest.raises(InfiniteLRError) as info:
            lr_positive_direct(ScreeningTest(0.5, 1.0))
        assert info.value.limit == math.inf
        with pytest.raises(ZeroLRError) as info:
            lr_positive_direct(ScreeningTest(0.0, 0.5))
        assert info.value.limit == 0.0
        with pytest.raises(DegenerateTestError):
            lr_positive_direct(ScreeningTest(0.0, 1.0))


class TestChords:
    def test_worked_example(self):
        pair = chords_at(ScreeningTest(0.75, 0.95), 0.5)
        assert pair.slope_origin == pytest.approx(1.875, rel=1e-15)
        assert pair.slope_endpoint == pytest.approx(0.125, rel=1e-15)
        assert pair.slope_origin / pair.slope_endpoint == pytest.approx(15.0, rel=1e-12)

    @given(a=interior, b=interior, phi=st.floats(min_value=1e-6, max_value=1.0 - 1e-6))
    def test_slope_ratio_is_prevalence_free(self, a, b, phi):
        t = ScreeningTest(a, b)
        here = chords_at(t, phi)
        reference = chords_at(t, 0.5)
        assert here.slope_origin / here.slope_endpoint == pytest.approx(
            reference.slope_origin / reference.slope_endpoint, rel=1e-12
        )

    def test_stable_near_the_upper_fixpoint(self):
        t = ScreeningTest(0.95, 0.75)
        assert lr_positive_from_chords(t, 1.0 - 1e-9) == pytest.approx(3.8, rel=1e-10)
        assert lr_positive_from_chords(t, 1e-9) == pytest.approx(3.8, rel=1e-10)

    def test_domain_and_parameter_errors(self):
        t = ScreeningTest(0.5, 0.5)
        with pytest.raises(DomainError):
            chords_at(t, 0.0)
        with pytest.raises(DomainError):
            chords_at(t, 1.0)
        with pytest.raises(ParameterError):
            chords_at(t, 1.5)
        with pytest.raises(DegenerateTestError):
            chords_at(ScreeningTest(0.0, 0.5), 0.5)


class TestEndpointChordLine:
    def test_frozen_values(self):
        line = endpoint_chord_line(ScreeningTest(0.95, 0.75))
        assert line.slope == pytest.approx(ENDPOINT_SLOPE_9575, rel=1e-12)
        assert line.intercept == pytest.approx(ENDPOINT_INTERCEPT_9575, rel=1e-12)
        line2 = endpoint_chord_line(ScreeningTest(0.75, 0.95))
        assert line2.intercept == pytest.approx(ENDPOINT_INTERCEPT_7595, rel=1e-12)

    @pytest.mark.parametrize("key,expected", sorted(THRESHOLD_EXTREMES.items()))
    def test_extreme_tests_keep_their_digits(self, key, expected):
        # 1 - rho_e and 1 - phi_e cancel here; rho_e and the slope must not.
        rho_e, slope = expected
        t = ScreeningTest(*key)
        assert prevalence_threshold(t).rho_e == pytest.approx(rho_e, rel=1e-14, abs=0.0)
        line = endpoint_chord_line(t)
        assert line.slope == pytest.approx(slope, rel=1e-14, abs=0.0)
        assert line.intercept == 1.0 - line.slope

    @given(a=interior, b=interior)
    def test_line_passes_through_both_anchor_points(self, a, b):
        t = ScreeningTest(a, b)
        point = prevalence_threshold(t)
        line = endpoint_chord_line(t)
        assert line.slope + line.intercept == pytest.approx(1.0, abs=1e-12)
        assert line.slope * point.phi_e + line.intercept == pytest.approx(
            point.rho_e, abs=1e-12
        )

    @given(a=interior, b=interior)
    def test_endpoint_slope_equals_psi(self, a, b):
        t = ScreeningTest(a, b)
        assert endpoint_chord_line(t).slope == pytest.approx(
            beta_geometry(t).psi, rel=1e-12
        )


JOINT, SENS_0, SPEC_1 = (0.0, 1.0), (0.0, 0.5), (0.5, 1.0)


class TestDegenerateReasons:
    """Class, message and limit of every degenerate-test error.

    The messages reach users verbatim as JSON ``*_reason`` fields, text
    report lines and SVG warnings, so they are pinned byte for byte.
    """

    @pytest.mark.parametrize(
        "compute,test,error,message,limit",
        [
            (prevalence_threshold, JOINT, DegenerateTestError,
             "prevalence threshold is indeterminate for sensitivity=0 specificity=1: "
             "sensitivity 0 and specificity 1 jointly leave it 0/0", None),
            (prevalence_threshold, SENS_0, DegenerateTestError,
             "prevalence threshold is degenerate at sensitivity=0 "
             "(limit 1 as sensitivity -> 0)", 1.0),
            (prevalence_threshold, SPEC_1, DegenerateTestError,
             "prevalence threshold is degenerate at specificity=1 "
             "(limit 0 as specificity -> 1)", 0.0),
            (lambda t: chords_at(t, 0.5), JOINT, DegenerateTestError,
             "chord pair is indeterminate for sensitivity=0 specificity=1: "
             "sensitivity 0 and specificity 1 jointly leave it 0/0", None),
            (lambda t: chords_at(t, 0.5), SENS_0, DegenerateTestError,
             "chord pair is degenerate at sensitivity=0 "
             "(limit 0 as sensitivity -> 0)", 0.0),
            (lambda t: chords_at(t, 0.5), SPEC_1, DegenerateTestError,
             "chord pair is degenerate at specificity=1 "
             "(limit 0 as specificity -> 1)", 0.0),
            (beta_geometry, JOINT, DegenerateAngleError,
             "curve angle is indeterminate for sensitivity=0 specificity=1", None),
            (beta_geometry, SENS_0, DegenerateAngleError,
             "curve angle is degenerate at sensitivity=0 (limit pi/2)", math.pi / 2.0),
            (beta_geometry, SPEC_1, DegenerateAngleError,
             "curve angle is degenerate at specificity=1 (limit 0)", 0.0),
            (lr_positive_direct, JOINT, DegenerateTestError,
             "LR+ is 0/0 for sensitivity=0 specificity=1", None),
            (lr_positive_direct, SENS_0, ZeroLRError,
             "LR+ collapses to 0 at sensitivity=0", 0.0),
            (lr_positive_direct, SPEC_1, InfiniteLRError,
             "LR+ diverges at specificity=1 with positive sensitivity", math.inf),
            (auc_closed_form, JOINT, DegenerateTestError,
             "area under the curve is indeterminate for sensitivity=0 specificity=1", None),
            (auc_closed_form, SENS_0, DegenerateTestError,
             "area under the curve is degenerate at sensitivity=0 (limit 0)", 0.0),
            (auc_closed_form, SPEC_1, DegenerateTestError,
             "area under the curve is degenerate at specificity=1 (limit 1)", 1.0),
            (auc_quadrature, JOINT, DegenerateTestError,
             "area under the curve is indeterminate for sensitivity=0 specificity=1", None),
            (auc_quadrature, SENS_0, DegenerateTestError,
             "area under the curve is degenerate at sensitivity=0 (limit 0)", 0.0),
            (auc_quadrature, SPEC_1, DegenerateTestError,
             "area under the curve is degenerate at specificity=1 (limit 1)", 1.0),
            (threshold_equivalence_check, JOINT, DegenerateTestError,
             "threshold forms are 0/0 when sensitivity is 0 and specificity is 1", None),
        ],
    )
    def test_class_message_and_limit(self, compute, test, error, message, limit):
        with pytest.raises(DegenerateTestError) as info:
            compute(ScreeningTest(*test))
        assert type(info.value) is error
        assert str(info.value) == message
        assert info.value.limit == limit

    @pytest.mark.parametrize("test", [SENS_0, SPEC_1])
    def test_threshold_forms_survive_one_sided_degeneracy(self, test):
        ratio_form, surd_form = threshold_equivalence_check(ScreeningTest(*test))
        assert ratio_form == pytest.approx(surd_form, abs=1e-15)


class TestTinySensitivity:
    """Below LR+ of about 1e-32 the threshold and angle round onto their limits."""

    def test_threshold_rounds_to_its_sensitivity_limit(self):
        with pytest.raises(DegenerateTestError) as info:
            prevalence_threshold(ScreeningTest(1e-40, 0.5))
        assert type(info.value) is DegenerateTestError
        assert str(info.value) == (
            "prevalence threshold rounds to its limit 1 at sensitivity=1e-40 specificity=0.5"
        )
        assert info.value.limit == 1.0
        with pytest.raises(DegenerateTestError):
            endpoint_chord_line(ScreeningTest(1e-40, 0.5))

    def test_angle_rounds_to_its_sensitivity_limit(self):
        with pytest.raises(DegenerateAngleError) as info:
            beta_geometry(ScreeningTest(1e-40, 0.5))
        assert str(info.value) == (
            "curve angle rounds to its limit pi/2 at sensitivity=1e-40 specificity=0.5"
        )
        assert info.value.limit == math.pi / 2.0
        with pytest.raises(DegenerateAngleError):
            lr_positive_from_beta(ScreeningTest(1e-40, 0.5))

    def test_the_likelihood_ratio_stays_defined(self):
        assert lr_positive_direct(ScreeningTest(1e-40, 0.5)) == 2e-40

    @pytest.mark.parametrize(
        "sensitivity, phi, shown",
        [(5e-324, 0.5, "4.94066e-324"), (1e-300, 1e-30, "1e-300"), (1e-300, 1e-17, "1e-300")],
    )
    def test_chords_round_to_their_limit_below_the_normal_range(self, sensitivity, phi, shown):
        # sensitivity*phi below the smallest normal float: the rise is
        # subnormal (digits lost) or 0, so the origin slope is not computable.
        test = ScreeningTest(sensitivity, 0.5)
        for compute in (chords_at, lr_positive_from_chords):
            with pytest.raises(DegenerateTestError) as info:
                compute(test, phi)
            assert type(info.value) is DegenerateTestError
            assert str(info.value) == (
                f"chord pair rounds to its limit 0 at sensitivity={shown} "
                f"specificity=0.5 phi={phi:g}"
            )
            assert info.value.limit == 0.0

    def test_chords_keep_their_digits_just_above_the_normal_range(self):
        test = ScreeningTest(1e-300, 0.5)
        phi = 1.0001 * sys.float_info.min / 1e-300
        assert 1e-300 * phi >= sys.float_info.min
        assert lr_positive_from_chords(test, phi) == pytest.approx(
            lr_positive_direct(test), rel=1e-12
        )
