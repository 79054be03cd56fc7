"""Deterministic SVG rendering of the screening plane.

The plane is the unit square with prevalence phi on the horizontal axis and
predictive value rho(phi) on the vertical axis (inverted into pixel space).
Rendering is a pure function of the plot specification: fixed element
order, fixed 2-decimal pixel formatting, a fixed color palette keyed by
entry order, and no timestamps or external references, so identical specs
produce byte-identical documents.

Optional per-test overlays, drawn from the test's ``build_test_report``:

* threshold: vertical line at phi_e with dashed guides to the axes;
* chords: the origin chord (0,0)->(phi_e, rho_e) and the endpoint chord
  (phi_e, rho_e)->(1,1);
* beta: the origin chord plus an angle arc at the origin between the chord
  and the vertical, labeled beta (needs both beta and the threshold point).

An overlay the report leaves undefined is skipped and recorded, with the
report's reason, as an XML comment warning near the top of the document;
the curve is still drawn as one polyline through its defined samples.
"""

from __future__ import annotations

import math
import re

from .analysis import build_test_report
from .catalog import CatalogEntry
from .core import _Record, _require_int, curve_samples
from .errors import ParameterError

__all__ = ["PALETTE", "PlotSpec", "render_screening_plane"]

PALETTE = (
    "#1f77b4",
    "#d62728",
    "#2ca02c",
    "#9467bd",
    "#ff7f0e",
    "#8c564b",
    "#17becf",
    "#7f7f7f",
)

_MARGIN_LEFT = 62.0
_MARGIN_RIGHT = 20.0
_MARGIN_TOP = 20.0
_MARGIN_BOTTOM = 48.0
_ARC_RADIUS = 44.0

#: The characters outside XML 1.0's Char production, which no SVG document
#: can hold, not even as character references.  A pattern, not a compiled
#: regex, so that importing the module compiles nothing.
_NOT_XML_CHAR = "[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]"

#: The least value of each integer field of a ``PlotSpec``.
_MINIMUM = {"samples": 2, "width_px": int(_MARGIN_LEFT + _MARGIN_RIGHT) + 40,
            "height_px": int(_MARGIN_TOP + _MARGIN_BOTTOM) + 40}


class PlotSpec(_Record):
    """What to draw: named tests, sample count, overlay switches, pixel size."""

    entries: tuple[CatalogEntry, ...]
    samples: int = 257
    show_threshold: bool = False
    show_beta: bool = False
    show_chords: bool = False
    width_px: int = 640
    height_px: int = 640

    @staticmethod
    def _check(name: str, value):
        if name != "entries":
            return _require_int(name, value, _MINIMUM[name]) if name in _MINIMUM else value
        if not value:
            raise ParameterError("a plot needs at least one catalog entry")
        for entry in value:
            if re.search(_NOT_XML_CHAR, entry.name):
                raise ParameterError(f"name {entry.name!r} holds a character XML 1.0 cannot hold")
        return value


def _xml_escape(text: str) -> str:
    return (
        text.replace("&", "&amp;")
        .replace("<", "&lt;")
        .replace(">", "&gt;")
        .replace('"', "&quot;")
    )


def _comment_safe(text: str) -> str:
    while "--" in text:
        text = text.replace("--", "-")
    return text


def render_screening_plane(spec: PlotSpec) -> str:
    """Render the plane described by ``spec`` to a standalone SVG 1.1 document."""
    plot_w = spec.width_px - _MARGIN_LEFT - _MARGIN_RIGHT
    plot_h = spec.height_px - _MARGIN_TOP - _MARGIN_BOTTOM

    def x(phi: float) -> float:
        return _MARGIN_LEFT + phi * plot_w

    def y(rho: float) -> float:
        return _MARGIN_TOP + (1.0 - rho) * plot_h

    def px(value: float) -> str:
        return f"{value:.2f}"

    warnings: list[str] = []
    body: list[str] = []

    body.append(
        f'<rect x="0" y="0" width="{spec.width_px}" height="{spec.height_px}" '
        'fill="#ffffff"/>'
    )

    # Grid, frame, ticks.
    body.append('<g class="grid" stroke="#dddddd" stroke-width="1">')
    for k in range(1, 5):
        t = k / 5.0
        body.append(
            f'<line x1="{px(x(t))}" y1="{px(y(0.0))}" x2="{px(x(t))}" y2="{px(y(1.0))}"/>'
        )
        body.append(
            f'<line x1="{px(x(0.0))}" y1="{px(y(t))}" x2="{px(x(1.0))}" y2="{px(y(t))}"/>'
        )
    body.append("</g>")
    body.append(
        f'<rect class="frame" x="{px(x(0.0))}" y="{px(y(1.0))}" '
        f'width="{px(plot_w)}" height="{px(plot_h)}" fill="none" '
        'stroke="#333333" stroke-width="1"/>'
    )
    body.append('<g class="ticks" font-family="sans-serif" font-size="12" fill="#333333">')
    for k in range(6):
        t = k / 5.0
        body.append(
            f'<text x="{px(x(t))}" y="{px(y(0.0) + 16.0)}" text-anchor="middle">{t:.1f}</text>'
        )
        body.append(
            f'<text x="{px(x(0.0) - 8.0)}" y="{px(y(t) + 4.0)}" text-anchor="end">{t:.1f}</text>'
        )
    body.append("</g>")
    body.append('<g class="axis-labels" font-family="sans-serif" font-size="14" fill="#000000">')
    body.append(
        f'<text x="{px(x(0.5))}" y="{px(spec.height_px - 10.0)}" text-anchor="middle">'
        "prevalence φ</text>"
    )
    label_x = 16.0
    label_y = y(0.5)
    body.append(
        f'<text x="{px(label_x)}" y="{px(label_y)}" text-anchor="middle" '
        f'transform="rotate(-90 {px(label_x)} {px(label_y)})">'
        "positive predictive value ρ(φ)</text>"
    )
    body.append("</g>")

    # Curves.
    body.append('<g class="curves" fill="none" stroke-width="1.5">')
    for i, entry in enumerate(spec.entries):
        # rho is 0/0 only in a leading run (b = 1) or at phi = 1 (a = 0): one run.
        # px(x(phi)) and px(y(rho)) inlined: the same expressions and bytes.
        points = [
            f"{_MARGIN_LEFT + point.phi * plot_w:.2f},"
            f"{_MARGIN_TOP + (1.0 - point.rho) * plot_h:.2f}"
            for point in curve_samples(entry.test, spec.samples)
            if point.rho is not None
        ]
        if len(points) >= 2:
            body.append(
                f'<polyline class="curve" id="curve-{i}" '
                f'data-name="{_xml_escape(entry.name)}" stroke="{PALETTE[i % len(PALETTE)]}" '
                f'points="{" ".join(points)}"/>'
            )
    body.append("</g>")

    # Overlays, per entry, fixed order: threshold, chords, beta.
    body.append('<g class="overlays" font-family="sans-serif" font-size="13">')
    overlaid = spec.show_threshold or spec.show_chords or spec.show_beta
    ox, oy = x(0.0), y(0.0)
    for i, entry in enumerate(spec.entries if overlaid else ()):
        color = PALETTE[i % len(PALETTE)]
        report = build_test_report(entry.test, strict=False)
        point, reasons = report.threshold, report.absent_reasons
        # Beta also needs the threshold point; its own reason comes first.
        for overlay, shown, reason in (
            ("threshold", spec.show_threshold, reasons.get("threshold")),
            ("chords", spec.show_chords, reasons.get("threshold")),
            ("beta", spec.show_beta, reasons.get("beta", reasons.get("threshold"))),
        ):
            if shown and reason is not None:
                # Entities are not parsed inside XML comments; only "--" is forbidden.
                warnings.append(
                    f"<!-- warning: {overlay} overlay skipped for "
                    f"{_comment_safe(entry.name)}: {_comment_safe(reason)} -->"
                )
        if point is None:
            continue
        tx, ty = x(point.phi_e), y(point.rho_e)
        origin_chord = (
            f'<line class="origin-chord" stroke="{color}" stroke-width="1" '
            f'x1="{px(ox)}" y1="{px(oy)}" x2="{px(tx)}" y2="{px(ty)}"/>'
        )
        if spec.show_threshold:
            body.append(
                f'<line class="threshold" stroke="{color}" stroke-dasharray="5 3" '
                f'x1="{px(tx)}" y1="{px(oy)}" x2="{px(tx)}" y2="{px(ty)}"/>'
            )
            body.append(
                f'<line class="threshold-guide" stroke="{color}" stroke-dasharray="5 3" '
                f'x1="{px(ox)}" y1="{px(ty)}" x2="{px(tx)}" y2="{px(ty)}"/>'
            )
            body.append(
                f'<text class="threshold-label" fill="{color}" '
                f'x="{px(tx + 4.0)}" y="{px(oy - 6.0)}">φ_e</text>'
            )
        if spec.show_chords:
            body.append(origin_chord)
            body.append(
                f'<line class="endpoint-chord" stroke="{color}" stroke-width="1" '
                f'x1="{px(tx)}" y1="{px(ty)}" x2="{px(x(1.0))}" y2="{px(y(1.0))}"/>'
            )
        if not spec.show_beta or report.beta is None:
            continue
        if not spec.show_chords:
            body.append(origin_chord)
        # Angle arc at the origin, from the chord direction up to the
        # vertical axis, drawn in pixel space.
        dx, dy = tx - ox, ty - oy
        norm = math.hypot(dx, dy)
        sx = ox + _ARC_RADIUS * dx / norm
        sy = oy + _ARC_RADIUS * dy / norm
        body.append(
            f'<path class="beta-arc" fill="none" stroke="{color}" '
            f'stroke-width="1" d="M {px(sx)} {px(sy)} '
            f'A {px(_ARC_RADIUS)} {px(_ARC_RADIUS)} 0 0 0 {px(ox)} {px(oy - _ARC_RADIUS)}"/>'
        )
        mid_angle = 0.5 * (math.atan2(dy, dx) - math.pi / 2.0)
        lx = ox + (_ARC_RADIUS + 14.0) * math.cos(mid_angle)
        ly = oy + (_ARC_RADIUS + 14.0) * math.sin(mid_angle)
        body.append(
            f'<text class="beta-label" fill="{color}" text-anchor="middle" '
            f'x="{px(lx)}" y="{px(ly + 4.0)}">β</text>'
        )
    body.append("</g>")

    # Legend, entry order, top-left corner of the plot box.
    body.append('<g class="legend" font-family="sans-serif" font-size="13">')
    for i, entry in enumerate(spec.entries):
        color = PALETTE[i % len(PALETTE)]
        ly = _MARGIN_TOP + 16.0 + 18.0 * i
        lx = _MARGIN_LEFT + 12.0
        body.append(
            f'<line x1="{px(lx)}" y1="{px(ly - 4.0)}" x2="{px(lx + 24.0)}" '
            f'y2="{px(ly - 4.0)}" stroke="{color}" stroke-width="2"/>'
        )
        body.append(
            f'<text x="{px(lx + 30.0)}" y="{px(ly)}" fill="#000000">'
            f"{_xml_escape(entry.name)}</text>"
        )
    body.append("</g>")

    document = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{spec.width_px}" height="{spec.height_px}" '
        f'viewBox="0 0 {spec.width_px} {spec.height_px}">',
        "<title>screening plane: predictive value versus prevalence</title>",
        *warnings,
        *body,
        "</svg>",
    ]
    return "\n".join(document) + "\n"
