"""The records that check their fields: each bad field is refused by name.

A record that checks its fields raises ParameterError for a bad one, naming
that field, and when several fields are bad it reports the first of them in
declaration order.
"""

import itertools
import math
import re
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from screencurve import (
    BetaGeometry,
    CatalogEntry,
    ChordPair,
    CurvePoint,
    ParameterError,
    PlotSpec,
    ScreeningTest,
    ThresholdPoint,
    auc_quadrature,
    chords_at,
    curve_samples,
    empirical_ppv_curve,
    lr_positive_from_chords,
    ppv,
    simulate_cohort,
)

ENTRY = CatalogEntry("A", ScreeningTest(0.9, 0.8))

#: Each checked record with valid arguments for every field in declaration
#: order, and for each checked field a pattern its error message matches
#: (None: it starts with the field's name) and the bad values.
CHECKED = [
    (ScreeningTest, {"sensitivity": 0.9, "specificity": 0.8}, {
        "sensitivity": (None, [1.5, -0.1, float("nan"), "x", True, "0.5", b"0.5", 10**400]),
        "specificity": (None, [-0.5, float("inf"), None, False, -10**400, Fraction(10**400, 3)]),
    }),
    (CurvePoint, {"phi": 0.5, "rho": 0.75}, {
        "phi": (None, [2.0, -1e-300, None, "x", "0.5"]),
        "rho": (None, [1.5, float("nan"), "x"]),
    }),
    (ThresholdPoint, {"phi_e": 0.25, "rho_e": 0.5}, {
        "phi_e": (None, [0.0, 1.0, -0.5, float("nan"), "x"]),
        "rho_e": (None, [0.0, 1.0, 2.0, None]),
    }),
    (BetaGeometry, {"beta_rad": 0.5, "psi": 0.6, "origin_slope": 1.2}, {
        "beta_rad": (None, [0.0, 2.0, -1.0, float("nan"), math.pi / 2, "x", None, True]),
        "psi": (None, [0.0, -1.0, float("inf"), float("nan"), "x", True]),
        "origin_slope": (None, [0.0, -2.0, float("inf"), None]),
    }),
    (ChordPair, {"at_phi": 0.5, "slope_origin": 1.5, "slope_endpoint": 0.5}, {
        "at_phi": (None, [0.0, 1.0, float("nan"), "x", None, True]),
        "slope_origin": (None, [0.0, -1.0, float("inf"), "x", True]),
        "slope_endpoint": (None, [0.0, float("nan"), float("-inf"), None]),
    }),
    (CatalogEntry, {"name": "A", "test": ScreeningTest(0.9, 0.8)}, {
        "name": (None, [5, None, b"A", ("A",)]),
        "test": (None, [(0.5, 0.5), None, "test", ENTRY]),
    }),
    (PlotSpec, {"entries": (ENTRY,), "samples": 101, "show_threshold": True, "show_beta": False,
                "show_chords": True, "width_px": 400, "height_px": 300}, {
        "entries": ("at least one catalog entry|XML 1.0|^entries must be (a tuple of )?CatalogEntry",
                    [(), (CatalogEntry("a\x01b", ScreeningTest(0.5, 0.5)),), ("x",), 5, [ENTRY]]),
        "samples": (None, [1, 2.5, True, None]),
        "show_threshold": (None, ["no", 1, None]),
        "show_beta": (None, ["no", 1, None]),
        "show_chords": (None, ["no", 1, None]),
        "width_px": (None, [121, 400.0]),
        "height_px": (None, [107, "300"]),
    }),
]

CASES = [(cls, valid, name, pattern or rf"^{name} ", bad)
         for cls, valid, fields in CHECKED
         for name, (pattern, values) in fields.items()
         for bad in values]


def case_id(cls, name, bad):
    return f"{cls.__name__}-{name}-{bad!r}"


@pytest.mark.parametrize("cls, valid, name, pattern, bad", CASES,
                         ids=[case_id(c[0], c[2], c[4]) for c in CASES])
def test_a_bad_field_is_refused_by_name(cls, valid, name, pattern, bad):
    arguments = {**valid, name: bad}
    with pytest.raises(ParameterError, match=pattern):
        cls(**arguments)
    with pytest.raises(ParameterError, match=pattern):
        cls(*arguments.values())


PAIRS = [(cls, valid, first, second, fields)
         for cls, valid, fields in CHECKED
         for first, second in itertools.combinations(fields, 2)]


@pytest.mark.parametrize("cls, valid, first, second, fields", PAIRS,
                         ids=[f"{p[0].__name__}-{p[2]}-{p[3]}" for p in PAIRS])
def test_of_two_bad_fields_the_first_declared_is_reported(cls, valid, first, second, fields):
    first_pattern = fields[first][0] or rf"^{first} "
    for bad_first, bad_second in itertools.product(fields[first][1], fields[second][1]):
        with pytest.raises(ParameterError) as caught:
            cls(**{**valid, second: bad_second, first: bad_first})
        message = str(caught.value)
        assert re.search(first_pattern, message) and not re.search(rf"\b{second}\b", message)


@pytest.mark.parametrize("call", [
    lambda: ChordPair("x", 1, 1),
    lambda: BetaGeometry("x", 1, 1),
    lambda: BetaGeometry(0.5, float("inf"), 1.0),
    lambda: ChordPair(0.5, True, 1.0),
], ids=["chord-text", "beta-text", "beta-infinite-psi", "chord-bool-slope"])
def test_geometry_records_refuse_bad_values_with_a_typed_error(call):
    # Each once raised a bare TypeError or was accepted.
    with pytest.raises(ParameterError, match=r"must lie in \(0, "):
        call()


#: The calls that take a prevalence, each given ``phi`` in its own way.
PREVALENCE_CALLS = {
    "ppv": lambda phi: ppv(ENTRY.test, phi),
    "simulate_cohort": lambda phi: simulate_cohort(ENTRY.test, phi, 10, 1),
    "chords_at": lambda phi: chords_at(ENTRY.test, phi),
    "empirical_ppv_curve": lambda phi: empirical_ppv_curve(ENTRY.test, [phi], 10, 1),
    "lr_positive_from_chords": lambda phi: lr_positive_from_chords(ENTRY.test, phi),
}


@pytest.mark.parametrize("call", PREVALENCE_CALLS.values(), ids=PREVALENCE_CALLS.keys())
@pytest.mark.parametrize("text", ["0.3", b"0.3", bytearray(b"0.3")], ids=repr)
def test_a_prevalence_given_as_text_is_refused(call, text):
    # float() parses each of these; a probability must be a number.
    with pytest.raises(ParameterError, match=r"must be a real number, got "):
        call(text)


@pytest.mark.parametrize("call", PREVALENCE_CALLS.values(), ids=PREVALENCE_CALLS.keys())
def test_exact_and_numpy_reals_stay_accepted_as_probabilities(call):
    reals = [Fraction(3, 10), Decimal("0.3"), np.float64(0.3), np.float32(0.5)]
    assert [call(phi) for phi in reals] == [call(float(phi)) for phi in reals]
    assert ScreeningTest(Fraction(9, 10), Decimal("0.8")) == ENTRY.test


@pytest.mark.parametrize("call", PREVALENCE_CALLS.values(), ids=PREVALENCE_CALLS.keys())
@pytest.mark.parametrize("big", [10**400, -10**400, Fraction(10**400, 3)],
                         ids=["int", "-int", "fraction"])
def test_a_prevalence_beyond_float_range_is_refused(call, big):
    # float() of each raises OverflowError, which once escaped bare.
    with pytest.raises(ParameterError, match=r"^phi(s\[0\])? must lie in \[0, 1\], got "):
        call(big)


#: Past CPython's 4300-digit limit on int-to-text conversion, so repr() of it raises.
HUGE = 10**5000

#: Calls given a value repr() cannot show, and the whole message each raises.
UNSHOWABLE = {
    "ScreeningTest": (lambda: ScreeningTest(HUGE, 0.5),
                      "sensitivity must lie in [0, 1], got int of 5001 digits"),
    "ScreeningTest-fraction": (lambda: ScreeningTest(0.5, Fraction(HUGE, 3)),
                               "specificity must lie in [0, 1], got Fraction too long to show"),
    "curve_samples": (lambda: curve_samples(ENTRY.test, -HUGE),
                      "n must be an integer >= 2, got int of 5001 digits"),
    "simulate_cohort": (lambda: simulate_cohort(ENTRY.test, 0.5, -HUGE, 1),
                        "n must be an integer >= 1, got int of 5001 digits"),
    "simulate_cohort-seed": (lambda: simulate_cohort(ENTRY.test, 0.5, 10, Fraction(HUGE, 3)),
                             "seed must be an integer, got Fraction too long to show"),
    "auc_quadrature": (lambda: auc_quadrature(ENTRY.test, tol=HUGE),
                       "tol must be a finite number >= 1e-13, got int of 5001 digits"),
    "empirical_ppv_curve": (lambda: empirical_ppv_curve(ENTRY.test, -HUGE, 10, 1),
                            "phis must be an iterable of probabilities, got int of 5001 digits"),
    "CatalogEntry": (lambda: CatalogEntry(10**4300, ENTRY.test),
                     "name must be a string, got int of 4301 digits"),
    "ThresholdPoint": (lambda: ThresholdPoint(HUGE, 0.5),
                       "phi_e must lie in (0, 1), got int of 5001 digits"),
    "PlotSpec-entries": (lambda: PlotSpec(HUGE),
                         "entries must be a tuple of CatalogEntry records, got int of 5001 digits"),
    "PlotSpec-entry": (lambda: PlotSpec((HUGE,)),
                       "entries must be CatalogEntry records, got int of 5001 digits"),
    "PlotSpec-flag": (lambda: PlotSpec((ENTRY,), show_beta=HUGE),
                      "show_beta must be True or False, got int of 5001 digits"),
}


@pytest.mark.parametrize("call, message", UNSHOWABLE.values(), ids=UNSHOWABLE.keys())
def test_a_value_too_long_to_show_is_refused_by_its_type(call, message):
    # Building the message once raised a bare ValueError from repr().
    with pytest.raises(ParameterError) as caught:
        call()
    assert str(caught.value) == message


@pytest.mark.parametrize("call, message", [
    (lambda: ScreeningTest(1.5, 0.5), "sensitivity must lie in [0, 1], got 1.5"),
    (lambda: ScreeningTest("x", 0.5), "sensitivity must be a real number, got 'x'"),
    (lambda: curve_samples(ENTRY.test, 1 - 10**4300),  # 4300 digits: repr() shows it
     f"n must be an integer >= 2, got -{'9' * 4300}"),
    (lambda: auc_quadrature(ENTRY.test, tol="1e-10"),
     "tol must be a finite number >= 1e-13, got '1e-10'"),
], ids=["range", "text", "long-int", "tolerance"])
def test_a_value_repr_can_show_is_shown_by_its_repr(call, message):
    with pytest.raises(ParameterError) as caught:
        call()
    assert str(caught.value) == message
