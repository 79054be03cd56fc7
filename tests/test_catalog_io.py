"""Catalog parsing/round-tripping and the deterministic JSON/CSV emitters."""

import hashlib
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from screencurve import (
    CatalogEntry,
    CohortResult,
    CurvePoint,
    ParameterError,
    ParseError,
    ScreeningTest,
    TestReport as Report,
    build_test_report,
    compare_tests,
    curve_samples,
    emit_catalog,
    emit_curve_csv,
    emit_report,
    parse_catalog,
    render_json,
    simulate_cohort,
)
from screencurve.emit import report_text

from _oracles import AUC_9575, PHI_E_9575


class TestParseCatalog:
    def test_happy_path(self):
        text = (
            "# screening tests\n"
            "name,sensitivity,specificity\n"
            "\n"
            "alpha,0.95,0.75\n"
            "beta,0.75,0.95\n"
        )
        entries = parse_catalog(text)
        assert [e.name for e in entries] == ["alpha", "beta"]
        assert entries[0].test == ScreeningTest(0.95, 0.75)

    def test_crlf_and_inline_whitespace(self):
        entries = parse_catalog("name,sensitivity,specificity\r\nx, 0.5 , 0.25\r\n")
        assert entries[0].name == "x"
        assert entries[0].test == ScreeningTest(0.5, 0.25)

    def test_missing_header(self):
        with pytest.raises(ParseError) as info:
            parse_catalog("alpha,0.95,0.75\n")
        assert info.value.line == 1
        with pytest.raises(ParseError):
            parse_catalog("")

    @pytest.mark.parametrize("text, line, message", [
        ("", 1, "missing header line 'name,sensitivity,specificity'"),
        ("# only\n", 1, "missing header line 'name,sensitivity,specificity'"),
        ("\n# c\n\nalpha,0.9,0.8\n", 4,
         "expected header 'name,sensitivity,specificity', got 'alpha,0.9,0.8'"),
        ("name,sensitivity,specificity \nb,0.5,0.5\n", 1,
         "expected header 'name,sensitivity,specificity', got 'name,sensitivity,specificity '"),
        (" \t\nname,sensitivity,specificity\n\n# x\nb,0.5,2\n", 5,
         "specificity must lie in [0, 1], got '2'"),
    ], ids=["empty", "comment-only", "row-first", "header-trailing-space", "row-after-header"])
    def test_header_errors_cite_their_line(self, text, line, message):
        with pytest.raises(ParseError) as info:
            parse_catalog(text)
        assert (str(info.value), info.value.line) == (f"line {line}: {message}", line)

    @pytest.mark.parametrize("cell", ["nan", "NaN", "-nan"])
    def test_nan_cell_gives_the_range_message(self, cell):
        with pytest.raises(ParseError) as info:
            parse_catalog(f"name,sensitivity,specificity\nT1,{cell},0.5\n")
        assert str(info.value) == f"line 2: sensitivity must lie in [0, 1], got {cell!r}"

    def test_wrong_field_count(self):
        with pytest.raises(ParseError) as info:
            parse_catalog("name,sensitivity,specificity\nalpha,0.95\n")
        assert info.value.line == 2

    def test_out_of_range_value_cites_line(self):
        with pytest.raises(ParseError) as info:
            parse_catalog("name,sensitivity,specificity\nT1,1.2,0.5\n")
        assert info.value.line == 2
        assert "sensitivity" in str(info.value)

    def test_non_numeric_value(self):
        with pytest.raises(ParseError) as info:
            parse_catalog("name,sensitivity,specificity\nT1,high,0.5\n")
        assert info.value.line == 2

    def test_duplicate_name_cites_first_occurrence(self):
        text = "name,sensitivity,specificity\nT,0.5,0.5\n# note\nT,0.6,0.6\n"
        with pytest.raises(ParseError) as info:
            parse_catalog(text)
        assert info.value.line == 4
        assert "2" in str(info.value)

    def test_empty_name(self):
        with pytest.raises(ParseError):
            parse_catalog("name,sensitivity,specificity\n ,0.5,0.5\n")

    def test_comment_only_after_header(self):
        assert parse_catalog("name,sensitivity,specificity\n# nothing\n") == []

    def test_lone_cr_ends_a_line(self):
        entries = parse_catalog("name,sensitivity,specificity\rx,0.5,0.25\r")
        assert [(e.name, e.test) for e in entries] == [("x", ScreeningTest(0.5, 0.25))]

    @pytest.mark.parametrize("mark", ["\x85", "\u2028", "\u2029", "\x0b", "\x0c", "\x1c", "\x1e"])
    def test_unicode_line_breaks_do_not_end_a_line(self, mark):
        text = f"name,sensitivity,specificity\n# note{mark} with a tail\nT1,1.2,0.5\n"
        with pytest.raises(ParseError) as info:
            parse_catalog(text)
        assert info.value.line == 3
        assert "sensitivity must lie in [0, 1]" in str(info.value)
        entries = parse_catalog(f"name,sensitivity,specificity\na{mark}b,0.5,0.25\n")
        assert [e.name for e in entries] == [f"a{mark}b"]


class TestCatalogRoundTrip:
    def test_exact_round_trip(self):
        entries = [
            CatalogEntry("a", ScreeningTest(0.95, 0.75)),
            CatalogEntry("b", ScreeningTest(0.333333333333, 0.125)),
            CatalogEntry("c", ScreeningTest(0.0, 1.0)),
        ]
        assert parse_catalog(emit_catalog(entries)) == entries

    # Most arbitrary name lists hold one unwritable name, so run enough
    # examples that the values still round-trip in a few dozen of them.
    @settings(max_examples=300)
    @given(
        rows=st.lists(
            st.tuples(
                st.text(),
                st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
                st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
            ),
            min_size=1,
            max_size=8,
        )
    )
    def test_round_trip_after_12_digit_rounding(self, rows):
        entries = [
            CatalogEntry(name, ScreeningTest(float(f"{a:.12g}"), float(f"{b:.12g}")))
            for name, a, b in rows
        ]
        try:
            text = emit_catalog(entries)
        except ParameterError:
            return
        assert parse_catalog(text) == entries

    @pytest.mark.parametrize(
        "names",
        [[""], ["#x"], [" y "], ["y "], ["a,b"], ["a\nb"], ["a\rb"], ["a\u2028"], ["t", "t"]],
    )
    def test_refuses_names_that_would_not_read_back(self, names):
        entries = [CatalogEntry(name, ScreeningTest(0.5, 0.5)) for name in names]
        with pytest.raises(ParameterError, match="would not read back as written"):
            emit_catalog(entries)

    @pytest.mark.parametrize("name", ["a\u2028b", "a\u0085b", "a\x0bb", "a\x1cb"])
    def test_round_trips_names_holding_other_line_breaks(self, name):
        # parse_catalog ends lines only at \n and \r, so these stay in the name.
        text = f"name,sensitivity,specificity\n{name},0.5,0.5\n"
        entries = parse_catalog(text)
        assert entries == [CatalogEntry(name, ScreeningTest(0.5, 0.5))]
        assert emit_catalog(entries) == text


class TestRenderJson:
    def test_scalar_types(self):
        payload = {
            "flag": True,
            "off": False,
            "none": None,
            "int": 3,
            "real": 0.1,
            "text": 'quo"te\nline',
        }
        text = render_json(payload)
        parsed = json.loads(text)
        assert parsed == payload

    def test_insertion_order_is_preserved(self):
        text = render_json({"z": 1, "a": 2, "m": {"y": 1, "b": 2}})
        assert text.index('"z"') < text.index('"a"') < text.index('"m"')
        assert text.index('"y"') < text.index('"b"')

    def test_twelve_significant_digit_reals(self):
        assert '"x": 0.339056738915' in render_json({"x": 0.3390567389149261})
        assert '"x": 1' in render_json({"x": 1.0})

    def test_string_escapes(self):
        controls = "".join(map(chr, range(0x20)))
        others = '\x7f\x85\xa0\u2028\U0001f600\u00e9 plain'
        text = controls + '"\\' + others
        want = "".join(f"\\u{code:04x}" for code in range(0x20)) + '\\"\\\\' + others
        assert render_json(text) == f'"{want}"'
        assert render_json({text: text}) == f'{{\n  "{want}": "{want}"\n}}'

    @given(st.text())
    def test_strings_round_trip(self, text):
        assert json.loads(render_json([text])) == [text]

    def test_lists(self):
        assert json.loads(render_json([1, 2.5, "s", None])) == [1, 2.5, "s", None]

    @pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
    def test_refuses_non_finite_reals(self, value):
        with pytest.raises(ValueError, match="non-finite"):
            render_json({"x": [value]})

    @pytest.mark.parametrize("value, want", [({}, "{}"), ([], "[]"), ((), "[]")])
    def test_empty_containers(self, value, want):
        assert render_json(value) == want

    def test_nested_empty_containers(self):
        assert render_json({"a": {}, "b": [], "c": ()}) == (
            '{\n  "a": {},\n  "b": [],\n  "c": []\n}'
        )
        assert render_json([{}, [[]], ()]) == "[\n  {},\n  [\n    []\n  ],\n  []\n]"

    @pytest.mark.parametrize("value, name", [
        (set(), "set"), ({1}, "set"), (object(), "object"), (b"x", "bytes"),
    ])
    def test_refuses_unsupported_values_by_type(self, value, name):
        for document in (value, {"x": [value]}):
            with pytest.raises(TypeError, match=f"^cannot serialize {name}$"):
                render_json(document)


def as_subclass(record):
    """A copy of ``record`` as an instance of a subclass of its type, sides included."""
    fields = {name: getattr(record, name) for name in record._fields}
    if "first" in fields:
        fields.update(first=as_subclass(record.first), second=as_subclass(record.second))
    return type(f"Derived{type(record).__name__}", (type(record),), {})(**fields)


#: One record of each report kind: a full and a degenerate test report, a
#: comparison and a cohort.
SAMPLE_REPORTS = (
    build_test_report(ScreeningTest(0.95, 0.75)),
    build_test_report(ScreeningTest(0.0, 0.5), strict=False),
    compare_tests(ScreeningTest(0.95, 0.75), ScreeningTest(0.75, 0.95)),
    simulate_cohort(ScreeningTest(0.95, 0.75), 0.0, 100, 7),
)


class TestEmitReport:
    def test_coin_flip_report(self):
        payload = json.loads(emit_report(build_test_report(ScreeningTest(0.5, 0.5))))
        assert payload["epsilon"] == 1.0
        assert payload["lr_plus"] == 1.0
        assert payload["auc"] == 0.5
        assert payload["threshold"]["phi_e"] == 0.5

    def test_anchor_report_values(self):
        payload = json.loads(emit_report(build_test_report(ScreeningTest(0.95, 0.75))))
        assert payload["test"] == {"sensitivity": 0.95, "specificity": 0.75}
        assert payload["threshold"]["phi_e"] == pytest.approx(PHI_E_9575, rel=1e-11)
        assert payload["auc"] == pytest.approx(AUC_9575, rel=1e-11)

    def test_stable_key_order(self):
        text = emit_report(build_test_report(ScreeningTest(0.95, 0.75)))
        order = ["test", "epsilon", "lr_plus", "threshold", "beta", "endpoint_chord", "auc"]
        positions = [text.index(f'"{key}"') for key in order]
        assert positions == sorted(positions)

    def test_null_with_sibling_reason(self):
        report = build_test_report(ScreeningTest(0.0, 0.5), strict=False)
        text = emit_report(report)
        payload = json.loads(text)
        assert payload["lr_plus"] is None
        assert isinstance(payload["lr_plus_reason"], str)
        assert payload["threshold"] is None
        assert isinstance(payload["threshold_reason"], str)
        assert text.index('"lr_plus"') < text.index('"lr_plus_reason"')

    def test_comparison_report(self):
        report = compare_tests(ScreeningTest(0.95, 0.75), ScreeningTest(0.75, 0.95))
        payload = json.loads(emit_report(report))
        assert payload["dominant"] == "second"
        assert payload["equal_epsilon"] is True
        assert payload["auc_order"]["winner"] == "second"

    def test_cohort_result(self):
        result = simulate_cohort(ScreeningTest(0.95, 0.75), 0.34, 10_000, 42)
        payload = json.loads(emit_report(result))
        assert payload["true_pos"] == 3233
        assert payload["seed"] == 42
        assert payload["empirical_ppv"] == pytest.approx(3233 / (3233 + 1610))

    def test_cohort_estimates_without_reasons(self):
        result = CohortResult(n=0, seed=1, true_pos=0, false_pos=0, true_neg=0,
                              false_neg=0, empirical_ppv=None, empirical_lr_plus=None)
        payload = json.loads(emit_report(result))
        assert payload["empirical_ppv"] is None
        assert payload["empirical_ppv_reason"] == "estimate absent"
        assert payload["empirical_lr_plus"] is None
        assert payload["empirical_lr_plus_reason"] == "estimate absent"

    def test_test_report_field_without_reason(self):
        full = build_test_report(ScreeningTest(0.95, 0.75))
        report = Report(test=full.test, epsilon=full.epsilon, lr_plus=full.lr_plus,
                        threshold=None, beta=full.beta,
                        endpoint_chord=full.endpoint_chord, auc=full.auc)
        payload = json.loads(emit_report(report))
        assert payload["threshold"] is None
        assert payload["threshold_reason"] == "value is undefined here"
        assert "lr_plus_reason" not in payload
        text = report_text(report)
        assert "\nprevalence threshold phi_e: undefined (value is undefined here)\n" in text
        assert "predictive value at threshold" not in text

    def test_unknown_payload_type(self):
        with pytest.raises(TypeError):
            emit_report(object())

    @pytest.mark.parametrize("report", SAMPLE_REPORTS, ids=lambda r: type(r).__name__)
    def test_a_subclass_emits_as_its_base(self, report):
        derived = as_subclass(report)
        assert type(derived) is not type(report)
        assert emit_report(derived) == emit_report(report)
        assert report_text(derived) == report_text(report)

    @pytest.mark.parametrize("report", SAMPLE_REPORTS, ids=lambda r: type(r).__name__)
    def test_a_namesake_from_another_module_is_refused(self, report):
        # Same class name and the same fields, but not the package's record.
        namesake = type(type(report).__name__, (), {
            "_fields": report._fields, **{name: getattr(report, name) for name in report._fields}
        })()
        with pytest.raises(TypeError):
            emit_report(namesake)
        with pytest.raises(TypeError):
            report_text(namesake)

    def test_byte_determinism(self):
        report = build_test_report(ScreeningTest(0.85, 0.95))
        assert emit_report(report) == emit_report(report)


class TestEmitCurveCsv:
    def test_three_point_diagonal(self):
        samples = curve_samples(ScreeningTest(0.5, 0.5), 3)
        assert emit_curve_csv(samples) == "phi,ppv\n0,0\n0.5,0.5\n1,1\n"

    def test_anchor_row_at_034(self):
        samples = curve_samples(ScreeningTest(0.95, 0.75), 101)
        lines = emit_curve_csv(samples).splitlines()
        row = lines[1 + 34]
        phi_text, rho_text = row.split(",")
        assert phi_text == "0.34"
        assert float(rho_text) == pytest.approx(0.6619, abs=5e-5)

    def test_indeterminate_rows_have_empty_field(self):
        samples = curve_samples(ScreeningTest(0.0, 1.0), 3)
        assert emit_curve_csv(samples) == "phi,ppv\n0,\n0.5,\n1,\n"

    @pytest.mark.parametrize("rhos, rows", [
        ((None, 0.25, 1.0), "0,\n0.5,0.25\n1,1\n"),
        ((0.0, None, 1.0), "0,0\n0.5,\n1,1\n"),
        ((0.0, 0.125, None), "0,0\n0.5,0.125\n1,\n"),
    ], ids=["first", "middle", "last"])
    def test_hand_built_points_with_an_undefined_sample(self, rhos, rows):
        points = [CurvePoint(phi, rho) for phi, rho in zip((0.0, 0.5, 1.0), rhos)]
        assert emit_curve_csv(points) == "phi,ppv\n" + rows

    def test_a_generator_of_points(self):
        points = (CurvePoint(k / 4.0, None if k == 2 else k / 8.0) for k in range(5))
        assert emit_curve_csv(points) == "phi,ppv\n0,0\n0.25,0.125\n0.5,\n0.75,0.375\n1,0.5\n"

    def test_no_points_give_the_header_alone(self):
        assert emit_curve_csv([]) == "phi,ppv\n"
        assert emit_curve_csv(iter(())) == "phi,ppv\n"

    def test_byte_determinism(self):
        samples = curve_samples(ScreeningTest(0.9, 0.8), 33)
        assert emit_curve_csv(samples) == emit_curve_csv(samples)

    def test_bytes_are_pinned(self):
        # A healthy row plus every way a sample can be undefined or extreme:
        # sensitivity 0, specificity 1, both, a subnormal sensitivity, and
        # tiny likelihood ratios with and without a false-positive rate of 1.
        rows = [
            (0.9, 0.8), (0.0, 0.5), (0.9, 1.0), (0.0, 1.0),
            (5e-324, 1.0), (1e-40, 0.5), (2e-32, 0.0),
        ]
        digest = hashlib.sha256()
        for a, b in rows:
            for n in (2, 3, 101, 257):
                text = emit_curve_csv(curve_samples(ScreeningTest(a, b), n))
                digest.update(text.encode("utf-8"))
        assert digest.hexdigest() == (
            "7f511329cacf720550aa3cd9d63c0d60304423d16eae22d3b36893e171cea5ca"
        )
