"""Seeded input generators.  The same seed always gives the same inputs.

Tests are (sensitivity, specificity) pairs written as decimal strings of at
most 12 significant digits, so a catalog survives the library's 12-digit
``emit_catalog`` unchanged.  The program only ever sees the generated text
or the floats parsed from it.
"""

from __future__ import annotations

import random

#: Name stems for catalog rows.  They exercise XML escaping, non-ASCII text
#: and "--" inside SVG comments, but hold no comma (the field separator), no
#: leading "#" (a comment line) and no surrounding spaces (stripped on read):
#: those three do not survive a catalog round trip.
NAME_STEMS = (
    "assay", "panel", "Ünïcode-test", "a&b", "<probe>", 'q"x', "x--y", "β-screen",
)

#: Catalog make-up per 1000 rows; the rest are ordinary tests.
SPECIAL_PER_1000 = {"a0": 10, "b1": 10, "both": 5, "near_eps1": 25}

#: Offsets of sensitivity + specificity from 1 for rows near epsilon = 1.
NEAR_EPS1_OFFSETS = ("0", "1e-11", "-1e-11", "1e-8", "-1e-6")


def decimal(value: float) -> str:
    """A decimal string with at most six digits after the point."""
    text = f"{value:.6f}".rstrip("0").rstrip(".")
    return text or "0"


def ordinary_test(rng: random.Random, low: float = 0.05, high: float = 0.999) -> tuple[str, str]:
    """A nondegenerate test with both accuracies in [low, high]."""
    return decimal(rng.uniform(low, high)), decimal(rng.uniform(low, high))


def near_eps1_test(rng: random.Random, k: int) -> tuple[str, str]:
    """A test whose sensitivity + specificity is 1 or within 1e-6 of it.

    One accuracy has two decimals and the other up to 12 digits; which one
    alternates with ``k``.
    """
    short = f"{rng.randint(5, 95) / 100:.2f}"
    offset = NEAR_EPS1_OFFSETS[k % len(NEAR_EPS1_OFFSETS)]
    long = repr(round(1.0 - float(short) + float(offset), 12))
    return (short, long) if k % 2 == 0 else (long, short)


def catalog_rows(rng: random.Random, count: int) -> list[tuple[str, str, str]]:
    """``count`` rows (name, sensitivity, specificity) in shuffled order."""
    rows: list[tuple[str, str]] = []
    specials = {kind: max(1, per * count // 1000) for kind, per in SPECIAL_PER_1000.items()}
    for _ in range(specials["a0"]):
        rows.append(("0", ordinary_test(rng)[1]))
    for _ in range(specials["b1"]):
        rows.append((ordinary_test(rng)[0], "1"))
    for _ in range(specials["both"]):
        rows.append(("0", "1"))
    for k in range(specials["near_eps1"]):
        rows.append(near_eps1_test(rng, k))
    while len(rows) < count:
        rows.append(ordinary_test(rng))
    rows = rows[:count]
    rng.shuffle(rows)
    return [
        (f"{NAME_STEMS[i % len(NAME_STEMS)]} {i:04d}", a, b)
        for i, (a, b) in enumerate(rows)
    ]


def catalog_text(rows: list[tuple[str, str, str]]) -> str:
    lines = ["name,sensitivity,specificity"]
    lines.extend(",".join(row) for row in rows)
    return "\n".join(lines) + "\n"


def seeds(rng: random.Random, count: int) -> list[int]:
    """Simulator seeds spread over the signed 64-bit range, every other one negative."""
    out = []
    for k in range(count):
        value = rng.randrange(1, 1 << 63)
        out.append(-value if k % 2 else value)
    return out
