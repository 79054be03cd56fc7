"""Print one SHA-256 over the bytes the package emits for a fixed-seed draw of tests.

A change that claims to keep every output byte runs this on the tree before
and after it; the two digests must match.  The tree is the one on
``PYTHONPATH``:

    PYTHONPATH=src python tools/digest.py

It takes no options.  The tests are drawn with a fixed seed from each region
where the arithmetic is easiest to get wrong: uniform; a = 10^U(-30, -3);
1 - b = 10^U(-15.9, -3); LR+ within 2% of 1; epsilon = 1 exactly; subnormal
a; b = 1 - 2^-53; a = 0; b = 1.  For each it hashes:

* the report as JSON and as text, strict and not, and the comparison with
  the next test drawn, as JSON and as text;
* the curve CSV at a drawn sample count, and the exact value (``float.hex``)
  of each public scalar function: LR+ by its three routes, the threshold
  forms, the chords, the two areas and the predictive value;
* SVG plots of up to eight tests with drawn overlays, at three sizes;
* catalogs written and read back, and rows with cells such as ``nan``;
* the counts of both cohort kernels on the same ranges, of
  ``simulate_cohort`` and of ``empirical_ppv_curve``.  Without numpy the
  numpy kernel's slot takes the SWAR kernel's counts, so the digest is the
  same.

A call the package refuses adds the error's class, text and ``limit``.
Documents and counts are hashed, never a record's repr.
"""

from __future__ import annotations

import hashlib
import random

import screencurve as sc
from screencurve import cohort
from screencurve.emit import report_text

#: The seed of every draw; changing it changes the digest.
SEED = 20201030

#: Tests drawn from each region.
PER_REGION = 200

#: Plot sizes (width, height): the least ``PlotSpec`` takes, the default, a wide one.
SIZES = ((122, 108), (640, 640), (1000, 420))

#: Plot names: XML's special characters, line breaks, hyphen runs, non-ASCII.
PLOT_NAMES = ("plain", "a&b", "<x>", 'q"uote', "tab\there", "line\nbreak", "cr\rhere",
              "dash--dash", "---", "φ-ρ", "#hash", " padded ")

#: Catalog cells that are not plain decimals in [0, 1].
CELLS = ("nan", "NaN", "-nan", "inf", "-inf", "-0", "-0.0", "1", "1.0000000001", "-1e-300",
         "1e-400", "5e-324", "0x1p-3", "", " ", "0.5.5", "1_0", "½")


class Digest:
    """A SHA-256 fed one record at a time, each part separated so no two records run together."""

    def __init__(self) -> None:
        self.sha = hashlib.sha256()

    def put(self, *parts) -> None:
        for part in parts:
            self.sha.update(_text(part).encode("utf-8", "surrogatepass") + b"\x1f")
        self.sha.update(b"\x1e")

    def call(self, label: str, function, *args):
        """``function(*args)``, or None once its refusal is hashed."""
        try:
            return function(*args)
        except sc.ScreeningError as exc:
            self.put(label, "refused", type(exc).__name__, str(exc), getattr(exc, "limit", None))
            return None


def _text(value) -> str:
    """Exact text of a document, a count or a value: floats by ``float.hex``, records by field."""
    if isinstance(value, str):
        return value
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, (bool, int)) or value is None:
        return repr(value)
    if isinstance(value, (tuple, list)):
        return "(" + ",".join(_text(item) for item in value) + ")"
    return _text(tuple(vars(value).values()))


def draw_tests(rng: random.Random) -> list[tuple[float, float]]:
    """(sensitivity, specificity) pairs, PER_REGION from each region in turn."""
    def uniform():
        return rng.random(), rng.random()

    def tiny_a():
        return 10.0 ** rng.uniform(-30.0, -3.0), rng.random()

    def tiny_c():
        return rng.random(), 1.0 - 10.0 ** rng.uniform(-15.9, -3.0)

    def near_one_lr():
        a = rng.uniform(0.01, 0.97)
        return a, 1.0 - a * (1.0 + rng.uniform(-0.02, 0.02))

    def epsilon_one():
        a = rng.getrandbits(20) / 2.0**20  # dyadic, so a + (1 - a) is exactly 1
        return a, 1.0 - a

    def subnormal_a():
        return rng.randrange(1, 1 << 52) * 5e-324, rng.random()

    def b_below_one():
        return rng.random(), 1.0 - 2.0**-53

    def a_zero():
        return 0.0, rng.choice((0.0, 1.0, rng.random()))

    def b_one():
        return rng.choice((0.0, 1.0, rng.random())), 1.0

    regions = (uniform, tiny_a, tiny_c, near_one_lr, epsilon_one, subnormal_a, b_below_one,
               a_zero, b_one)
    return [region() for region in regions for _ in range(PER_REGION)]


def digest_reports(d: Digest, rng: random.Random, tests: list) -> None:
    for k, test in enumerate(tests):
        d.put("test", test.sensitivity, test.specificity)
        report = sc.build_test_report(test, strict=False)
        d.put("report", sc.emit_report(report), report_text(report))
        strict = d.call("strict", sc.build_test_report, test)
        if strict is not None:
            d.put("strict", sc.emit_report(strict))
        other = tests[(k + 1) % len(tests)]
        eps_tol = rng.choice((0.0, 1e-12, 1e-9, 0.5))
        comparison = d.call("compare", sc.compare_tests, test, other, eps_tol)
        if comparison is not None:
            d.put("compare", sc.emit_report(comparison), report_text(comparison))
        samples = rng.choice((2, 3, 5, 11, 101))
        d.put("csv", sc.emit_curve_csv(sc.curve_samples(test, samples)))
        phi = rng.choice((0.0, 1.0, 0.5, 5e-324, 1.0 - 2.0**-53, rng.random()))
        for name, function, args in (
            ("lr-direct", sc.lr_positive_direct, ()),
            ("lr-beta", sc.lr_positive_from_beta, ()),
            ("lr-chords", sc.lr_positive_from_chords, (phi,)),
            ("chords", sc.chords_at, (phi,)),
            ("forms", sc.threshold_equivalence_check, ()),
            ("threshold", sc.prevalence_threshold, ()),
            ("beta", sc.beta_geometry, ()),
            ("endpoint", sc.endpoint_chord_line, ()),
            ("area", sc.auc_closed_form, ()),
            ("quadrature", sc.auc_quadrature, (1e-8, 40)),
            ("ppv", sc.ppv, (phi,)),
        ):
            value = d.call(name, function, test, *args)
            if value is not None:
                d.put(name, value)


def digest_plots(d: Digest, rng: random.Random, tests: list) -> None:
    start = 0
    while start < len(tests):
        count = rng.randint(1, 8)
        entries = tuple(sc.CatalogEntry(f"{rng.choice(PLOT_NAMES)}{j}", test)
                        for j, test in enumerate(tests[start:start + count]))
        start += count
        samples = rng.choice((2, 3, 17, 257))
        overlays = [rng.random() < 0.5 for _ in range(3)]
        for width, height in SIZES:
            spec = sc.PlotSpec(entries, samples, *overlays, width, height)
            d.put("plot", sc.render_screening_plane(spec))


def digest_catalogs(d: Digest, rng: random.Random, tests: list) -> None:
    header = sc.catalog.HEADER
    for start in range(0, len(tests), 16):
        names = [f"t{start + j}" + rng.choice(("", "&", " x", "é", "\t1", "#")) for j in range(16)]
        entries = [sc.CatalogEntry(name, test) for name, test in zip(names, tests[start:])]
        text = d.call("emit-catalog", sc.emit_catalog, entries)
        if text is not None:
            d.put("catalog", text, sc.emit_catalog(sc.parse_catalog(text)))
    for cell in CELLS:
        for row in (f"x,{cell},0.5", f"x,0.5,{cell}"):
            entries = d.call("parse-catalog", sc.parse_catalog, f"{header}\n{row}\n")
            if entries is not None:
                d.put("catalog-cells", sc.emit_catalog(entries))
    d.call("bad-name", sc.emit_catalog, [sc.CatalogEntry("a,b", sc.ScreeningTest(0.5, 0.5))])


def digest_cohorts(d: Digest, rng: random.Random, tests: list) -> None:
    for _ in range(60):
        seed = rng.getrandbits(64)
        cutoffs = tuple(cohort._cutoff(rng.choice((0.0, 1.0, 0.5, rng.random())))
                        for _ in range(3))
        lo = rng.choice((0, rng.randrange(1 << 16)))
        hi = lo + rng.randrange(1, 5000)
        d.put("swar", cohort._tally_swar(seed, cutoffs, lo, hi))
        # Without numpy the slot takes the SWAR kernel's counts, which are the same.
        tally = cohort._tally_swar if cohort._numpy() is None else cohort._tally_numpy
        d.put("numpy", tally(seed, cutoffs, lo, hi))
    for test in rng.sample(tests, 40):
        phi, n, seed = rng.random(), rng.randrange(1, 3000), rng.randrange(-(1 << 65), 1 << 65)
        result = sc.simulate_cohort(test, phi, n, seed)
        d.put("cohort", sc.emit_report(result), report_text(result))
    for test in rng.sample(tests, 6):
        points = sc.empirical_ppv_curve(test, [0.0, rng.random(), 1.0], 500, rng.getrandbits(64))
        for p in points:
            c = p.cohort
            d.put("empirical", p.phi, p.ppv, p.reason, c.seed, c.true_pos, c.false_pos,
                  c.true_neg, c.false_neg)


def main() -> int:
    rng = random.Random(SEED)
    tests = [sc.ScreeningTest(a, b) for a, b in draw_tests(rng)]
    d = Digest()
    digest_reports(d, rng, tests)
    digest_plots(d, rng, tests)
    digest_catalogs(d, rng, tests)
    digest_cohorts(d, rng, tests)
    print(d.sha.hexdigest())
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
