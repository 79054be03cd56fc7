"""Structure and determinism of the SVG screening-plane renderer."""

import hashlib
import itertools
import re
import xml.etree.ElementTree as ET

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from screencurve import (
    CatalogEntry,
    ParameterError,
    PlotSpec,
    ScreeningTest,
    curve_samples,
    render_screening_plane,
)

from _oracles import PHI_E_9575

ANCHOR_ENTRY = CatalogEntry("anchor", ScreeningTest(0.95, 0.75))
MIRROR_ENTRY = CatalogEntry("mirror", ScreeningTest(0.75, 0.95))
BROKEN_ENTRY = CatalogEntry("broken", ScreeningTest(0.0, 0.5))
VOID_ENTRY = CatalogEntry("void", ScreeningTest(0.0, 1.0))
SVG = "{http://www.w3.org/2000/svg}"


def render(**kwargs) -> str:
    defaults = {"entries": (ANCHOR_ENTRY, MIRROR_ENTRY)}
    defaults.update(kwargs)
    return render_screening_plane(PlotSpec(**defaults))


class TestDocumentShape:
    def test_well_formed_and_standalone(self):
        text = render()
        assert text.startswith('<?xml version="1.0" encoding="UTF-8"?>\n')
        root = ET.fromstring(text)
        assert root.tag.endswith("svg")
        assert root.get("viewBox") == "0 0 640 640"
        assert root.get("version") == "1.1"
        assert "http" not in text.replace("http://www.w3.org/2000/svg", "")

    def test_byte_determinism(self):
        spec = PlotSpec(
            entries=(ANCHOR_ENTRY, MIRROR_ENTRY, BROKEN_ENTRY),
            show_threshold=True,
            show_beta=True,
            show_chords=True,
        )
        assert render_screening_plane(spec) == render_screening_plane(spec)

    def test_bytes_are_pinned(self):
        # A healthy row plus every way an overlay or curve sample can be
        # undefined: sensitivity 0, specificity 1, both, a subnormal
        # sensitivity, a threshold that rounds to 1, and a threshold that is
        # defined while beta rounds to pi/2.
        rows = [
            ("healthy", 0.95, 0.75),
            ("blind", 0.0, 0.5),
            ("certain", 0.9, 1.0),
            ("void", 0.0, 1.0),
            ("tiniest", 5e-324, 1.0),
            ("faint", 1e-40, 0.5),
            ("steep", 2e-32, 0.0),
        ]
        entries = tuple(CatalogEntry(name, ScreeningTest(a, b)) for name, a, b in rows)
        digest = hashlib.sha256()
        for samples in (2, 3, 257):
            for threshold, beta, chords in itertools.product((False, True), repeat=3):
                spec = PlotSpec(
                    entries=entries,
                    samples=samples,
                    show_threshold=threshold,
                    show_beta=beta,
                    show_chords=chords,
                )
                digest.update(render_screening_plane(spec).encode("utf-8"))
        assert digest.hexdigest() == (
            "dcc6a55318827ca3462e48688ba01c8f1d9cf8fa61d82a85e86c567417b55ec9"
        )

    def test_other_sizes_are_pinned(self):
        # The smallest plot and a wide one, with and without every overlay:
        # every width- and height-derived coordinate differs from 640x640.
        # One name holds all four characters that markup escapes.
        rows = [
            ("healthy", 0.95, 0.75),
            ('a<b>&"c', 0.75, 0.95),
            ("blind", 0.0, 0.5),
            ("void", 0.0, 1.0),
            ("steep", 2e-32, 0.0),
        ]
        entries = tuple(CatalogEntry(name, ScreeningTest(a, b)) for name, a, b in rows)
        digest = hashlib.sha256()
        for width, height in ((122, 108), (800, 500)):
            for samples in (2, 257):
                for overlays in (False, True):
                    spec = PlotSpec(
                        entries=entries,
                        samples=samples,
                        show_threshold=overlays,
                        show_beta=overlays,
                        show_chords=overlays,
                        width_px=width,
                        height_px=height,
                    )
                    digest.update(render_screening_plane(spec).encode("utf-8"))
        assert digest.hexdigest() == (
            "d45f5c60870a8a48d5278c931f271f61c2eec3e9e90140793ef15e843e337b84"
        )

    @pytest.mark.parametrize("pinned", ["test_bytes_are_pinned", "test_other_sizes_are_pinned"])
    def test_pins_hold_after_plots_of_other_and_equal_sizes(self, monkeypatch, pinned):
        # Each pinned spec is drawn right after a plot of another size, then
        # again right after a plot of its own size (itself): same bytes.
        plain, drawn = render_screening_plane, []

        def render_after_others(spec):
            drawn.append(spec)
            plain(PlotSpec(entries=(ANCHOR_ENTRY,), samples=spec.samples + 1,
                           width_px=spec.width_px + 1, height_px=spec.height_px))
            first = plain(spec)
            assert plain(spec) == first
            return first

        monkeypatch.setitem(globals(), "render_screening_plane", render_after_others)
        getattr(self, pinned)()
        assert drawn

    def test_a_curve_with_an_undefined_sample_after_a_full_one_of_its_size(self):
        # (0.5, 1.0) is 0/0 at phi = 0, so its polyline keeps two of the
        # three columns, whatever was drawn before at this size or another.
        partial = PlotSpec(entries=(CatalogEntry("p", ScreeningTest(0.5, 1.0)),), samples=3)
        full = PlotSpec(entries=(ANCHOR_ENTRY,), samples=3)
        other = PlotSpec(entries=(ANCHOR_ENTRY,), samples=4)
        render_screening_plane(other)
        first = render_screening_plane(partial)
        assert 'points="341.00,20.00 620.00,20.00"' in first
        render_screening_plane(full)
        assert render_screening_plane(partial) == first

    def test_custom_size(self):
        text = render(width_px=800, height_px=500)
        assert 'viewBox="0 0 800 500"' in text

    def test_size_validation(self):
        with pytest.raises(ParameterError, match=r"^width_px must be an integer >= 122, got 50$"):
            PlotSpec(entries=(ANCHOR_ENTRY,), width_px=50)
        with pytest.raises(ParameterError, match=r"^height_px must be an integer >= 108, got 9\.5$"):
            PlotSpec(entries=(ANCHOR_ENTRY,), height_px=9.5)
        with pytest.raises(ParameterError, match=r"^samples must be an integer >= 2, got 1$"):
            PlotSpec(entries=(ANCHOR_ENTRY,), samples=1)
        with pytest.raises(ParameterError):
            PlotSpec(entries=())


class TestCurves:
    def test_one_polyline_per_entry(self):
        text = render()
        assert 'id="curve-0"' in text
        assert 'id="curve-1"' in text
        assert 'id="curve-2"' not in text

    def test_polyline_spans_the_plot_box(self):
        text = render(entries=(ANCHOR_ENTRY,))
        line = next(l for l in text.splitlines() if 'id="curve-0"' in l)
        points = line.split('points="')[1].split('"')[0].split()
        first_x, first_y = map(float, points[0].split(","))
        last_x, last_y = map(float, points[-1].split(","))
        assert (first_x, first_y) == (62.0, 592.0)  # (0, 0) in data space
        assert (last_x, last_y) == (620.0, 20.0)  # (1, 1) in data space

    def test_fully_indeterminate_curve_is_omitted_but_named_in_legend(self):
        text = render(entries=(VOID_ENTRY, ANCHOR_ENTRY))
        assert 'id="curve-0"' not in text
        assert 'id="curve-1"' in text
        assert ">void</text>" in text

    def test_name_escaping(self):
        wicked = CatalogEntry('a<b>&"c', ScreeningTest(0.5, 0.5))
        text = render(entries=(wicked,))
        assert "a&lt;b&gt;&amp;&quot;c" in text
        assert "a<b>" not in text
        ET.fromstring(text)

    @pytest.mark.parametrize("name", ["100%", "%.2f", "%s", "%%", "%(x)s"])
    def test_percent_signs_in_names_render_literally(self, name):
        # The curve's points are formatted through a "%" template; a name
        # never enters it.
        root = ET.fromstring(render(entries=(CatalogEntry(name, ScreeningTest(0.5, 0.5)),)))
        assert root.find(f".//{SVG}polyline").get("data-name") == name
        assert root.find(f".//{SVG}g[@class='legend']/{SVG}text").text == name

    @pytest.mark.parametrize("name", ["a\x01b", "x\ufffey", "\ud800"])
    def test_names_xml_cannot_hold_are_refused(self, name):
        # No character reference encodes these either, so no document can
        # carry the name.
        with pytest.raises(ParameterError, match="XML 1.0"):
            PlotSpec(entries=(CatalogEntry(name, ScreeningTest(0.5, 0.5)),))

    def test_tab_and_astral_names_render_well_formed(self):
        entry = CatalogEntry("a\tb \U0001F600 \u00e9", ScreeningTest(0.5, 0.5))
        ET.fromstring(render(entries=(entry,)))

    @pytest.mark.parametrize("name", ["a\tb", "a\nb", "a\rb", "\r\n\t "])
    def test_whitespace_in_names_reads_back(self, name):
        # A parser turns a tab, LF or CR in an attribute into a space, and a
        # CR in text into LF, unless the document writes them as references.
        root = ET.fromstring(render(entries=(CatalogEntry(name, ScreeningTest(0.5, 0.5)),)))
        assert root.find(f".//{SVG}polyline").get("data-name") == name
        assert root.find(f".//{SVG}g[@class='legend']/{SVG}text").text == name


class TestOverlays:
    def test_absent_by_default(self):
        text = render()
        assert 'class="threshold"' not in text
        assert 'class="beta-arc"' not in text
        assert 'class="origin-chord"' not in text

    def test_threshold_marker_position(self):
        text = render(entries=(ANCHOR_ENTRY,), show_threshold=True)
        line = next(l for l in text.splitlines() if 'class="threshold"' in l)
        x1 = float(line.split('x1="')[1].split('"')[0])
        expected = 62.0 + PHI_E_9575 * 558.0
        assert x1 == pytest.approx(expected, abs=0.005)

    def test_chords_and_beta(self):
        text = render(entries=(ANCHOR_ENTRY,), show_chords=True, show_beta=True)
        assert text.count('class="origin-chord"') == 1  # not duplicated by beta
        assert 'class="endpoint-chord"' in text
        assert 'class="beta-arc"' in text
        assert ">β</text>" in text

    def test_beta_draws_its_own_chord_when_chords_off(self):
        text = render(entries=(ANCHOR_ENTRY,), show_beta=True)
        assert text.count('class="origin-chord"') == 1

    def test_degenerate_overlay_warns_and_continues(self):
        text = render(
            entries=(ANCHOR_ENTRY, BROKEN_ENTRY),
            show_threshold=True,
            show_beta=True,
            show_chords=True,
        )
        assert "<!-- warning: threshold overlay skipped for broken:" in text
        assert "<!-- warning: beta overlay skipped for broken:" in text
        assert "<!-- warning: chords overlay skipped for broken:" in text
        # The healthy entry still gets all three overlays.
        assert 'class="threshold"' in text
        assert 'class="beta-arc"' in text
        ET.fromstring(text)

    def test_comment_never_contains_double_hyphen(self):
        dashed = CatalogEntry("a--b", ScreeningTest(0.0, 0.5))
        text = render(entries=(dashed,), show_threshold=True)
        for line in text.splitlines():
            if line.startswith("<!--"):
                assert "--" not in line[4:-3]
        ET.fromstring(text)

    def test_comment_text_is_pinned(self):
        # Each run of hyphens becomes one, and each line break one space.
        entry = CatalogEntry("a--b---c----d\r\ne", ScreeningTest(0.0, 0.5))
        text = render(entries=(entry,), show_threshold=True)
        assert [line for line in text.splitlines() if line.startswith("<!--")] == [
            "<!-- warning: threshold overlay skipped for a-b-c-d  e: prevalence threshold "
            "is degenerate at sensitivity=0 (limit 1 as sensitivity -> 0) -->"
        ]

    @pytest.mark.parametrize("name", ["a\nb", "a\r\nb", "a\rb"])
    def test_a_warning_stays_on_one_line(self, name):
        entry = CatalogEntry(name, ScreeningTest(0.0, 0.5))
        text = render(entries=(entry,), show_threshold=True, show_beta=True, show_chords=True)
        warnings = [line for line in text.splitlines() if "warning" in line]
        assert len(warnings) == text.count("<!--") == 3
        assert all(line.startswith("<!--") and line.endswith("-->") for line in warnings)
        ET.fromstring(text)


class TestAxesAndLegend:
    def test_axis_labels(self):
        text = render()
        assert "prevalence φ" in text
        assert "positive predictive value ρ(φ)" in text

    def test_tick_labels(self):
        text = render()
        for value in ("0.0", "0.2", "0.4", "0.6", "0.8", "1.0"):
            assert f">{value}</text>" in text

    def test_legend_lists_entries_in_order(self):
        text = render()
        assert text.index(">anchor</text>") < text.index(">mirror</text>")


#: Every character XML 1.0 can hold: no C0 control but tab, LF and CR, no
#: surrogate, no U+FFFE or U+FFFF.
XML_CHARS = st.characters(
    exclude_categories=("Cs",),
    exclude_characters=[chr(c) for c in (*range(0x09), 0x0B, 0x0C, *range(0x0E, 0x20))]
    + ["\ufffe", "\uffff"],
)
ACCURACIES = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))
PIXEL = re.compile(r"-?\d+\.\d\d")


@st.composite
def plot_specs(draw):
    entries = draw(st.lists(
        st.builds(CatalogEntry, st.text(XML_CHARS, max_size=12),
                  st.builds(ScreeningTest, ACCURACIES, ACCURACIES)),
        min_size=1, max_size=4,
    ))
    return PlotSpec(
        entries=tuple(entries),
        samples=draw(st.integers(2, 64)),
        show_threshold=draw(st.booleans()),
        show_beta=draw(st.booleans()),
        show_chords=draw(st.booleans()),
        width_px=draw(st.integers(122, 2000)),
        height_px=draw(st.integers(108, 2000)),
    )


@settings(deadline=None)
@given(plot_specs())
def test_any_spec_renders_a_document_that_reads_back(spec):
    root = ET.fromstring(render_screening_plane(spec))
    names = [entry.name for entry in spec.entries]
    legend = root.findall(f".//{SVG}g[@class='legend']/{SVG}text")
    assert [text.text or "" for text in legend] == names

    # One curve per entry with two defined samples, through all of them.
    curves = root.findall(f".//{SVG}polyline")
    defined = [
        [point for point in curve_samples(entry.test, spec.samples) if point.rho is not None]
        for entry in spec.entries
    ]
    drawn = [i for i, points in enumerate(defined) if len(points) >= 2]
    assert [curve.get("id") for curve in curves] == [f"curve-{i}" for i in drawn]
    assert [curve.get("data-name") for curve in curves] == [names[i] for i in drawn]
    # Only the (0, 1) test has no curve, once a grid has an inner sample and
    # the sensitivity is too large for a * phi to underflow.
    for i, entry in enumerate(spec.entries):
        a, b = entry.test.sensitivity, entry.test.specificity
        if spec.samples >= 3 and (a, b) != (0.0, 1.0) and (a == 0.0 or a >= 1e-300):
            assert i in drawn

    # Each point is its curve_samples point in pixels, formatted alone.
    left, right = 62.0, spec.width_px - 20.0
    top, bottom = 20.0, spec.height_px - 48.0
    plot_w, plot_h = right - left, bottom - top
    for curve, i in zip(curves, drawn):
        pairs = curve.get("points").split()
        assert pairs == [
            f"{62.0 + point.phi * plot_w:.2f},{20.0 + (1.0 - point.rho) * plot_h:.2f}"
            for point in defined[i]
        ]
        for px, py in (map(float, pair.split(",")) for pair in pairs):
            assert left <= px <= right and top <= py <= bottom

    for element in root.iter():
        if element.tag in (f"{SVG}line", f"{SVG}text"):
            for attribute in ("x1", "y1", "x2", "y2", "x", "y"):
                value = element.get(attribute)
                assert value is None or PIXEL.fullmatch(value), (element.tag, attribute, value)
