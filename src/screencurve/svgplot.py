"""Deterministic SVG rendering of the screening plane.

The plane is the unit square with prevalence phi on the horizontal axis and
predictive value rho(phi) on the vertical axis (inverted into pixel space).
Rendering is a pure function of the plot specification: fixed element
order, fixed 2-decimal pixel formatting, a fixed color palette keyed by
entry order, and no timestamps or external references, so identical specs
produce byte-identical documents.

The repeated element kinds are each written once: ``_line`` and ``_text`` own
their markup and the 2-decimal pixel format, and every draw site passes only
its class, colour and coordinates.  Names are escaped for both attributes
and text, tab, LF and CR included, so each reads back from the document as
given.

One pass per entry fills the curve, legend and overlay groups and collects
the entry's warnings, with its colour and escaped name computed once.  The
document's group order is fixed regardless of that pass: warnings, frame,
curves, overlays, legend, so every overlay draws over every curve.

Optional per-test overlays, drawn from the threshold point and the angle
that ``geometry`` derives for the test (the values its report records):

* threshold: vertical line at phi_e with dashed guides to the axes;
* chords: the origin chord (0,0)->(phi_e, rho_e) and the endpoint chord
  (phi_e, rho_e)->(1,1);
* beta: the origin chord plus an angle arc at the origin between the chord
  and the vertical, labeled beta (needs both beta and the threshold point).

An overlay whose quantity is undefined is skipped and recorded, with the
text the report gives as its reason, as an XML comment warning near the top
of the document; the curve is still drawn as one polyline through its
defined samples.
"""

from __future__ import annotations

import functools
import math
import re

from .catalog import CatalogEntry
from .core import _grid, _Record, _require_int, _rhos, _shown
from .errors import DegenerateTestError, ParameterError
from .geometry import _derive

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
        if name in _MINIMUM:
            return _require_int(name, value, _MINIMUM[name])
        if name != "entries":
            if not isinstance(value, bool):
                raise ParameterError(f"{name} must be True or False, got {_shown(value)}")
            return value
        if not isinstance(value, tuple):
            raise ParameterError(
                f"entries must be a tuple of CatalogEntry records, got {_shown(value)}")
        if not value:
            raise ParameterError("a plot needs at least one catalog entry")
        for entry in value:
            if not isinstance(entry, CatalogEntry):
                raise ParameterError(f"entries must be CatalogEntry records, got {_shown(entry)}")
            if re.search(_NOT_XML_CHAR, entry.name):
                raise ParameterError(f"name {entry.name!r} holds a character XML 1.0 cannot hold")
        return value


#: XML escapes for both attributes and text.  Tab, LF and CR become references:
#: a parser turns them into spaces in an attribute, and CR into LF in text, so
#: the name would not read back.
_XML_ESCAPES = str.maketrans({"&": "&amp;", "<": "&lt;", ">": "&gt;", '"': "&quot;",
                              "\t": "&#9;", "\n": "&#10;", "\r": "&#13;"})


def _comment_safe(text: str) -> str:
    # A comment holds no character references, so each line break becomes a
    # space and a warning stays on one line; each run of hyphens becomes one.
    return re.sub("-{2,}", "-", text.replace("\r", " ").replace("\n", " "))


def _line(head: str, x1: float, y1: float, x2: float, y2: float, tail: str = "") -> str:
    """A ``<line>``: ``head`` and ``tail`` are the attributes before and after the points."""
    return f'<line {head}x1="{x1:.2f}" y1="{y1:.2f}" x2="{x2:.2f}" y2="{y2:.2f}"{tail}/>'


def _text(head: str, x: float, y: float, text: str, tail: str = "") -> str:
    """A ``<text>`` holding ``text`` (already escaped), attributes as for ``_line``."""
    return f'<text {head}x="{x:.2f}" y="{y:.2f}"{tail}>{text}</text>'


@functools.lru_cache(maxsize=1)
def _x_template(samples: int, plot_w: float) -> str:
    """The curve grid's x columns, ``"x,%.2f"`` each, joined: kept for the last size drawn."""
    return " ".join([f"{_MARGIN_LEFT + phi * plot_w:.2f},%.2f" for phi in _grid(samples)])


def render_screening_plane(spec: PlotSpec) -> str:
    """Render the plane described by ``spec`` to a standalone SVG 1.1 document."""
    plot_w = spec.width_px - _MARGIN_LEFT - _MARGIN_RIGHT
    plot_h = spec.height_px - _MARGIN_TOP - _MARGIN_BOTTOM

    def x(phi: float) -> float:
        return _MARGIN_LEFT + phi * plot_w

    def y(rho: float) -> float:
        return _MARGIN_TOP + (1.0 - rho) * plot_h

    ticks = [k / 5.0 for k in range(6)]
    ox, oy = x(0.0), y(0.0)
    # The grid of curve_samples: every entry shares its x columns, one template
    # whose "%.2f" slots take an entry's y values.  _grid and _x_template keep
    # their sizes' results, so renders of one size build no grid or x column.
    phis = _grid(spec.samples)
    template = _x_template(spec.samples, plot_w)
    lx = _MARGIN_LEFT + 12.0
    warnings: list[str] = []
    curves: list[str] = []
    legend: list[str] = []
    overlays: list[str] = []
    for i, entry in enumerate(spec.entries):
        color, name = PALETTE[i % len(PALETTE)], entry.name.translate(_XML_ESCAPES)
        # y(rho) of _rhos's rho = u / v inlined, skipping each 0/0: the same
        # floats and bytes.  One "%" formats every y; a name never enters the
        # template.  (u and v, not x and y: the walrus binds in this scope.)
        a, c = entry.test.sensitivity, entry.test.false_positive_rate
        ys = tuple([_MARGIN_TOP + (1.0 - u / v) * plot_h for phi in phis
                    if (v := (u := a * phi) + c * (1.0 - phi)) != 0.0])
        if len(ys) >= 2:
            kept = template if len(ys) == len(phis) else " ".join(
                [column for column, rho in zip(template.split(" "), _rhos(entry.test, phis))
                 if rho is not None])
            curves.append(f'<polyline class="curve" id="curve-{i}" data-name="{name}" '
                          f'stroke="{color}" points="{kept % ys}"/>')
        # Legend row, top-left corner of the plot box.
        ly = _MARGIN_TOP + 16.0 + 18.0 * i
        legend += [
            _line("", lx, ly - 4.0, lx + 24.0, ly - 4.0, f' stroke="{color}" stroke-width="2"'),
            _text("", lx + 30.0, ly, name, ' fill="#000000"'),
        ]
        # Overlays, fixed order: threshold, chords, beta.
        point, angle = _derive(entry.test)[1:3]
        # Beta also needs the threshold point; its own error comes first.
        for overlay, shown, value in (
            ("threshold", spec.show_threshold, point),
            ("chords", spec.show_chords, point),
            ("beta", spec.show_beta, angle if isinstance(angle, DegenerateTestError) else point),
        ):
            if shown and isinstance(value, DegenerateTestError):
                # Entities are not parsed inside XML comments; only "--" is forbidden.
                warnings.append(
                    f"<!-- warning: {overlay} overlay skipped for "
                    f"{_comment_safe(entry.name)}: {_comment_safe(str(value))} -->"
                )
        if isinstance(point, DegenerateTestError):
            continue
        tx, ty = x(point.phi_e), y(point.rho_e)
        dashed = f'stroke="{color}" stroke-dasharray="5 3" '
        solid = f'stroke="{color}" stroke-width="1" '
        if spec.show_threshold:
            overlays += [
                _line(f'class="threshold" {dashed}', tx, oy, tx, ty),
                _line(f'class="threshold-guide" {dashed}', ox, ty, tx, ty),
                _text(f'class="threshold-label" fill="{color}" ', tx + 4.0, oy - 6.0, "φ_e"),
            ]
        beta = spec.show_beta and not isinstance(angle, DegenerateTestError)
        if spec.show_chords or beta:
            overlays.append(_line(f'class="origin-chord" {solid}', ox, oy, tx, ty))
        if spec.show_chords:
            overlays.append(_line(f'class="endpoint-chord" {solid}', tx, ty, x(1.0), y(1.0)))
        if not beta:
            continue
        # Angle arc at the origin, from the chord direction up to the
        # vertical axis, drawn in pixel space.
        dx, dy = tx - ox, ty - oy
        norm = math.hypot(dx, dy)
        sx = ox + _ARC_RADIUS * dx / norm
        sy = oy + _ARC_RADIUS * dy / norm
        overlays.append(f'<path class="beta-arc" fill="none" {solid}d="M {sx:.2f} {sy:.2f} A '
                        f'{_ARC_RADIUS:.2f} {_ARC_RADIUS:.2f} 0 0 0 {ox:.2f} '
                        f'{oy - _ARC_RADIUS:.2f}"/>')
        mid_angle = 0.5 * (math.atan2(dy, dx) - math.pi / 2.0)
        bx = ox + (_ARC_RADIUS + 14.0) * math.cos(mid_angle)
        by = oy + (_ARC_RADIUS + 14.0) * math.sin(mid_angle)
        overlays.append(_text(f'class="beta-label" fill="{color}" text-anchor="middle" ',
                              bx, by + 4.0, "β"))

    document = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{spec.width_px}" height="{spec.height_px}" '
        f'viewBox="0 0 {spec.width_px} {spec.height_px}">',
        "<title>screening plane: predictive value versus prevalence</title>",
        *warnings,
        f'<rect x="0" y="0" width="{spec.width_px}" height="{spec.height_px}" fill="#ffffff"/>',
        '<g class="grid" stroke="#dddddd" stroke-width="1">',
        *(line for t in ticks[1:5]
          for line in (_line("", x(t), oy, x(t), y(1.0)), _line("", ox, y(t), x(1.0), y(t)))),
        "</g>",
        f'<rect class="frame" x="{ox:.2f}" y="{y(1.0):.2f}" width="{plot_w:.2f}" '
        f'height="{plot_h:.2f}" fill="none" stroke="#333333" stroke-width="1"/>',
        '<g class="ticks" font-family="sans-serif" font-size="12" fill="#333333">',
        *(text for t in ticks
          for text in (_text("", x(t), oy + 16.0, f"{t:.1f}", ' text-anchor="middle"'),
                       _text("", ox - 8.0, y(t) + 4.0, f"{t:.1f}", ' text-anchor="end"'))),
        "</g>",
        '<g class="axis-labels" font-family="sans-serif" font-size="14" fill="#000000">',
        _text("", x(0.5), spec.height_px - 10.0, "prevalence φ", ' text-anchor="middle"'),
        _text("", 16.0, y(0.5), "positive predictive value ρ(φ)",
              f' text-anchor="middle" transform="rotate(-90 16.00 {y(0.5):.2f})"'),
        "</g>",
        '<g class="curves" fill="none" stroke-width="1.5">', *curves, "</g>",
        '<g class="overlays" font-family="sans-serif" font-size="13">', *overlays, "</g>",
        '<g class="legend" font-family="sans-serif" font-size="13">', *legend, "</g>",
        "</svg>",
    ]
    return "\n".join(document) + "\n"
