"""Named-test catalogs: a small comma-separated table format.

Layout: one exact header line ``name,sensitivity,specificity``, then one
row per test.  Lines end at ``\n``, ``\r\n`` or ``\r``.  Blank lines and
lines starting with ``#`` are ignored.
Names are case-sensitive and must be unique; values are decimals in [0, 1].
Documents are UTF-8 text.
"""

from __future__ import annotations

from typing import Iterable

from .core import ScreeningTest, _Record
from .errors import ParameterError, ParseError

__all__ = ["HEADER", "CatalogEntry", "parse_catalog", "emit_catalog"]

HEADER = "name,sensitivity,specificity"


#: The type each field of a ``CatalogEntry`` must have, and how its error names it.
_KINDS = {"name": (str, "a string"), "test": (ScreeningTest, "a ScreeningTest")}


class CatalogEntry(_Record):
    """One named test of a catalog."""

    name: str
    test: ScreeningTest

    @staticmethod
    def _check(name: str, value):
        kind, noun = _KINDS[name]
        if not isinstance(value, kind):
            raise ParameterError(f"{name} must be {noun}, got {value!r}")
        return value


def _parse_value(field: str, column: str, line_no: int) -> float:
    try:
        value = float(field)
    except ValueError:
        raise ParseError(f"{column} is not a decimal number: {field!r}", line=line_no) from None
    if not 0.0 <= value <= 1.0:  # NaN fails both comparisons
        raise ParseError(f"{column} must lie in [0, 1], got {field!r}", line=line_no)
    return value


def parse_catalog(text: str) -> list[CatalogEntry]:
    """Parse a catalog document into entries, preserving file order.

    Raises ParseError, carrying the 1-based line number, for a missing or
    wrong header, a row without exactly three fields, an empty or duplicate
    name, or a value that is not a decimal in [0, 1].
    """
    entries: list[CatalogEntry] = []
    seen: dict[str, int] = {}
    # Lines end only where open() would end them: str.splitlines() also breaks
    # at U+0085, U+2028 and other characters a comment or a name may hold.
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    content = [(line_no, line) for line_no, line in enumerate(lines, start=1)
               if line.strip() and not line.lstrip().startswith("#")]
    if not content:
        raise ParseError(f"missing header line {HEADER!r}", line=1)
    (first_no, first), *rows = content
    if first != HEADER:
        raise ParseError(f"expected header {HEADER!r}, got {first!r}", line=first_no)
    for line_no, line in rows:
        fields = line.split(",")
        if len(fields) != 3:
            raise ParseError(
                f"expected 3 comma-separated fields, got {len(fields)}", line=line_no
            )
        name = fields[0].strip()
        if not name:
            raise ParseError("name must not be empty", line=line_no)
        if name in seen:
            raise ParseError(
                f"duplicate name {name!r} (first seen on line {seen[name]})",
                line=line_no,
            )
        sensitivity = _parse_value(fields[1].strip(), "sensitivity", line_no)
        specificity = _parse_value(fields[2].strip(), "specificity", line_no)
        seen[name] = line_no
        entries.append(CatalogEntry(name, ScreeningTest(sensitivity, specificity)))
    return entries


def emit_catalog(entries: Iterable[CatalogEntry]) -> str:
    """Render entries back to catalog text (12 significant digits per value).

    Raises ParameterError for a name that ``parse_catalog`` would not read
    back as written: empty, duplicate, starting with ``#``, padded with
    whitespace, or holding a comma, ``\n`` or ``\r`` (its only line ends).
    """
    lines = [HEADER]
    seen: set[str] = set()
    for entry in entries:
        name = entry.name
        unreadable = not name or name in seen or name.startswith("#") or "," in name
        if unreadable or name != name.strip() or "\n" in name or "\r" in name:
            raise ParameterError(f"catalog name {name!r} would not read back as written")
        seen.add(name)
        lines.append(f"{name},{entry.test.sensitivity:.12g},{entry.test.specificity:.12g}")
    return "\n".join(lines) + "\n"
