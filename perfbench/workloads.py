"""The three workloads, and the direct layer probes of the traced run.

Each workload builds its inputs from the seed in ``setup`` and then runs
whole rounds: every round is the same fixed set of operations, so a run's
share of failed operations does not depend on its length.  Outputs are
checked after each operation, outside its timing.
"""

from __future__ import annotations

import io
import os
import random
import resource
import shutil
import subprocess
import sys
from pathlib import Path

import checks
import inputs
import refs

#: Simulated subjects in a cohort checked subject by subject against the
#: pure-Python splitmix64: more than one 2^20-subject simulator chunk.
REFERENCE_COHORT = (1 << 20) + 3

LARGE_COHORT = 1_000_000
SMALL_COHORT = 10_000


def large_cohort(span) -> bool:
    return span.counts.get("subjects", 0) >= LARGE_COHORT


def small_cohort(span) -> bool:
    return span.counts.get("subjects", 0) <= SMALL_COHORT


def _rss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def _import_screencurve(tracer):
    """Import the package, recording its cost as the ``import.screencurve`` span."""
    before = len(sys.modules)
    with tracer.span("import.screencurve") as span:
        import screencurve
    span.counts["modules"] = len(sys.modules) - before
    span.counts["numpy"] = int("numpy" in sys.modules)
    return screencurve


def _cohort_counts(result) -> dict:
    return {
        "true_pos": result.true_pos, "false_pos": result.false_pos,
        "true_neg": result.true_neg, "false_neg": result.false_neg,
        "empirical_ppv": result.empirical_ppv, "empirical_lr_plus": result.empirical_lr_plus,
        "ppv_reason": result.ppv_reason, "lr_reason": result.lr_reason,
    }


def _comparison_dict(report) -> dict:
    return {
        "dominant": report.dominant,
        "equal_epsilon": report.equal_epsilon,
        "epsilon_difference": report.epsilon_difference,
        "beta_order": {"winner": report.beta_order.winner,
                       "difference": report.beta_order.difference},
        "auc_order": {"winner": report.auc_order.winner,
                      "difference": report.auc_order.difference},
    }


class Workload:
    name = ""
    #: Percentile reported as op_tail_ms, and the fewest operations a run
    #: makes so that at least ten latencies lie beyond it.
    tail_pct = 0
    min_ops = 0
    #: The host-speed probe (speed.PROBES) whose readings scale the latencies.
    speed_probe = ""

    def __init__(self, root: Path, seed: int, scale: float, tracer):
        self.root = root
        self.seed = seed
        self.scale = scale
        self.tracer = tracer
        self.rng = random.Random(f"{self.name}:{seed}")
        self.work = root / "perfbench" / "out" / f"{self.name}-{os.getpid()}"
        self.sc = None

    def setup(self) -> None:
        raise NotImplementedError

    def run_round(self, index: int, rec, ck) -> None:
        raise NotImplementedError

    def final_checks(self, ck) -> None:
        """Checks too slow to repeat, made once after the measured rounds."""

    def probe_inputs(self) -> tuple[list, str, tuple]:
        """(tests, catalog text, (test, phi, seed)) for the direct layer probes."""
        raise NotImplementedError

    def peak_rss_mb(self) -> float:
        return _rss_mb(resource.RUSAGE_SELF)

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)


# --------------------------------------------------------------------------
# cli-cold


_MAIN = "from screencurve.cli import main; main()"

#: The same entry point, timing the import and the dispatch from inside the
#: child and leaving them for the parent in the file named by argv.
_TRACED_MAIN = """\
import sys, time
record = sys.argv.pop(1)
t0 = time.perf_counter_ns(); m0 = len(sys.modules)
import screencurve.cli
t1 = time.perf_counter_ns(); m1 = len(sys.modules); np = int("numpy" in sys.modules)
try:
    rc = screencurve.cli.cli_dispatch(sys.argv[1:])
finally:
    with open(record, "w") as f:
        f.write(f"{t0} {t1} {time.perf_counter_ns()} {m1 - m0} {np}")
sys.exit(rc)
"""


class CliCold(Workload):
    """Fresh interpreters, one subcommand each, cycling through all seven."""

    name = "cli-cold"
    tail_pct = 80
    min_ops = 50
    speed_probe = "process"

    def setup(self) -> None:
        rng = self.rng
        self.work.mkdir(parents=True, exist_ok=True)
        n = max(1000, round(100_000 * self.scale))
        analyze = inputs.ordinary_test(rng)
        curve = inputs.ordinary_test(rng)
        first, second = inputs.ordinary_test(rng), inputs.ordinary_test(rng)
        sim = inputs.ordinary_test(rng, 0.3, 0.99)
        prev = inputs.decimal(rng.uniform(0.05, 0.5))
        sim_seed = -rng.randrange(1, 1 << 63)
        self.plot_rows = inputs.catalog_rows(rng, 24)
        self.catalog_rows = inputs.catalog_rows(rng, 30)
        steps = rng.randint(12, 30)
        plot_csv, catalog_csv = self.work / "plot.csv", self.work / "catalog.csv"
        plot_csv.write_text(inputs.catalog_text(self.plot_rows), encoding="utf-8")
        catalog_csv.write_text(inputs.catalog_text(self.catalog_rows), encoding="utf-8")
        self.out_csv = self.work / "curve.csv"
        self.svg_all, self.svg_bare = self.work / "plot-all.svg", self.work / "plot-bare.svg"

        def tsv(test):
            return ["--sens", test[0], "--spec", test[1]]

        pair = ["--test1", ",".join(first), "--test2", ",".join(second)]
        sim_args = ["simulate", *tsv(sim), "--prev", prev, "--n", str(n), "--seed", str(sim_seed)]
        self.inputs = {
            "analyze": analyze, "curve": curve, "first": first, "second": second,
            "sim": sim, "prev": prev, "n": n, "sim_seed": sim_seed, "steps": steps,
        }
        # (op, interpreter options (None: -c with the CLI entry point), arguments,
        #  exit code the documented contract gives)
        self.ops = [
            ("analyze", None, ["analyze", *tsv(analyze)], 0),
            ("analyze-json", None, ["analyze", *tsv(analyze), "--json"], 0),
            ("curve", None, ["curve", *tsv(curve)], 0),
            ("curve-out", None, ["curve", *tsv(curve), "--out", str(self.out_csv)], 0),
            ("compare", None, ["compare", *pair], 0),
            ("compare-json", None, ["compare", *pair, "--json"], 0),
            ("plot-all", None, ["plot", "--catalog", str(plot_csv), "--out", str(self.svg_all),
                               "--threshold", "--beta", "--chords"], 0),
            ("plot-bare", None, ["plot", "--catalog", str(plot_csv), "--out", str(self.svg_bare)], 0),
            ("simulate", None, sim_args, 0),
            ("simulate-json", None, [*sim_args, "--json"], 0),
            ("catalog", None, ["catalog", str(catalog_csv)], 0),
            ("catalog-json", None, ["catalog", str(catalog_csv), "--json"], 0),
            ("limit-sweep", None, ["limit-sweep", "--steps", str(steps)], 0),
            ("limit-sweep-json", None, ["limit-sweep", "--steps", str(steps), "--json"], 0),
            # Known faults: each fails every time until the program is fixed.
            ("module-main", ["-m", "screencurve"], ["analyze", *tsv(analyze), "--json"], 0),
            ("module-cli", ["-m", "screencurve.cli"], ["analyze", *tsv(analyze), "--json"], 0),
            ("curve-samples-1", None, ["curve", *tsv(curve), "--samples", "1"], 2),
            ("eps-tol-negative", None, ["compare", *pair, "--eps-tol", "-1"], 2),
            ("eps-tol-nan", None, ["compare", *pair, "--eps-tol", "nan"], 2),
        ]
        self.env = dict(os.environ, PYTHONPATH=str(self.root / "src"))
        self.first_outputs: dict[str, str] = {}
        self.record = self.work / "child-record.txt"

    def _command(self, options: list[str] | None, args: list[str]) -> list[str]:
        if options is not None:
            return [sys.executable, *options, *args]
        if self.tracer.enabled:
            return [sys.executable, "-c", _TRACED_MAIN, str(self.record), *args]
        return [sys.executable, "-c", _MAIN, *args]

    def _run_child(self, command: list[str]):
        done = subprocess.run(command, capture_output=True, text=True, encoding="utf-8",
                              env=self.env, cwd=self.root)
        if self.tracer.enabled and command[1] == "-c" and self.record.exists():
            t0, t1, t2, modules, numpy = map(int, self.record.read_text().split())
            self.record.unlink()
            parent = self.tracer.stack[-1]
            self.tracer.add("import.screencurve", t0, t1, parent, modules=modules, numpy=numpy)
            self.tracer.add("cli.cli_dispatch", t1, t2, parent)
        return done

    def run_round(self, index: int, rec, ck) -> None:
        for op, options, args, want_exit in self.ops:
            done, exc = rec.op(op, lambda: self._run_child(self._command(options, args)))
            if exc is not None:
                raise exc
            what = f"{self.name} round {index} {op}"
            if done.returncode != want_exit or (want_exit == 0 and not done.stdout
                                                and "--out" not in args):
                rec.mark_failed()
                continue
            if op == "simulate" or op == "simulate-json":
                rec.subjects += self.inputs["n"]
            first = self.first_outputs.setdefault(op, done.stdout)
            ck.expect(done.stdout == first, f"{what}: output differs from round 0")
            if want_exit == 0:
                checks.guarded(ck, what, self._check, ck, op, done.stdout, what)

    def _check(self, ck, op: str, out: str, what: str) -> None:
        i = self.inputs
        if op in ("analyze", "analyze-json", "module-main", "module-cli"):
            a, b = map(float, i["analyze"])
            if op == "analyze":
                checks.text_report(ck, out.splitlines(), a, b, what)
            elif (payload := checks.parse_json(ck, out, what)) is not None:
                checks.report_payload(ck, payload, a, b, what)
        elif op in ("curve", "curve-out"):
            if op == "curve-out":
                out = self.out_csv.read_text(encoding="utf-8")
            checks.curve_csv(ck, out, *map(float, i["curve"]), 101, what)
        elif op in ("compare", "compare-json"):
            first, second = tuple(map(float, i["first"])), tuple(map(float, i["second"]))
            if op == "compare":
                got, rel = _compare_text(out), checks.TOL_6
            else:
                got, rel = checks.parse_json(ck, out, what), checks.TOL_12
                if got is not None:
                    checks.report_payload(ck, got["first"], *first, what + " first")
                    checks.report_payload(ck, got["second"], *second, what + " second")
            if got is not None:
                checks.comparison(ck, got, first, second, 1e-9, what, rel)
        elif op in ("plot-all", "plot-bare"):
            path = self.svg_all if op == "plot-all" else self.svg_bare
            document = path.read_text(encoding="utf-8")
            first = self.first_outputs.setdefault(op + ":svg", document)
            ck.expect(document == first, f"{what}: SVG bytes differ from round 0")
            names = [row[0] for row in self.plot_rows]
            tests = [(float(row[1]), float(row[2])) for row in self.plot_rows]
            checks.svg(ck, document, names, tests, op == "plot-all", what)
        elif op in ("simulate", "simulate-json"):
            a, b = map(float, i["sim"])
            if op == "simulate":
                counts, rel = _simulate_text(out), checks.TOL_6
            else:
                counts, rel = checks.parse_json(ck, out, what), checks.TOL_12
                if counts is not None:
                    counts["ppv_reason"] = counts.get("empirical_ppv_reason")
                    counts["lr_reason"] = counts.get("empirical_lr_plus_reason")
            if counts is not None:
                ck.expect(counts.get("n") == i["n"] and counts.get("seed") == i["sim_seed"] % (1 << 64),
                          f"{what}: n or seed misreported")
                checks.cohort(ck, counts, a, b, float(i["prev"]), i["n"], what, rel)
        elif op in ("catalog", "catalog-json"):
            rows = self.catalog_rows
            if op == "catalog":
                blocks = checks.text_blocks(out)
                ck.expect([blk[0] for blk in blocks] == [f"[{r[0]}]" for r in rows],
                          f"{what}: block names do not match the catalog")
                for block, (name, a, b) in zip(blocks, rows):
                    checks.text_report(ck, block[1:], float(a), float(b), f"{what} {name}")
            elif (payload := checks.parse_json(ck, out, what)) is not None:
                ck.expect([row.get("name") for row in payload] == [r[0] for r in rows],
                          f"{what}: names do not match the catalog")
                for row, (name, a, b) in zip(payload, rows):
                    row = dict(row)
                    row.pop("name", None)
                    checks.report_payload(ck, row, float(a), float(b), f"{what} {name}")
        elif op in ("limit-sweep", "limit-sweep-json"):
            if op == "limit-sweep":
                lines = out.splitlines()
                ck.expect(lines[:1] == ["step,epsilon,auc"], f"{what}: bad header")
                rows = [tuple(map(float, line.split(",")[1:])) for line in lines[1:]]
            elif (payload := checks.parse_json(ck, out, what)) is not None:
                rows = [(row["epsilon"], row["auc"]) for row in payload]
            else:
                return
            checks.limit_sweep(ck, rows, i["steps"], what)

    def probe_inputs(self):
        i = self.inputs
        tests = [tuple(map(float, i[k])) for k in ("analyze", "curve", "first", "second", "sim")]
        tests += [(float(a), float(b)) for _, a, b in self.catalog_rows + self.plot_rows]
        cohort = (tuple(map(float, i["sim"])), float(i["prev"]), i["sim_seed"])
        return tests, inputs.catalog_text(self.catalog_rows), cohort

    def peak_rss_mb(self) -> float:
        return _rss_mb(resource.RUSAGE_CHILDREN)


def _compare_text(out: str) -> dict:
    values = dict(line.split(": ", 1) for line in out.splitlines() if ": " in line)

    def order(text: str) -> dict:
        winner, _, rest = text.partition(" (difference ")
        return {"winner": winner, "difference": float(rest.rstrip(")"))}

    dominant = values.get("dominant", "")
    return {
        "dominant": {"test1": "first", "test2": "second"}.get(dominant, "neither"),
        "equal_epsilon": values.get("equal gain index") == "yes",
        "epsilon_difference": float(values["gain index difference (test2 - test1)"]),
        "beta_order": order(values["beta order"]),
        "auc_order": order(values["area order"]),
    }


def _simulate_text(out: str) -> dict:
    values = dict(line.split(": ", 1) for line in out.splitlines() if ": " in line)

    def estimate(text: str):
        return (None, text) if text.startswith("undefined") else (float(text), None)

    ppv, ppv_reason = estimate(values["empirical predictive value"])
    lr, lr_reason = estimate(values["empirical LR+"])
    return {
        "n": int(values["cohort size"]), "seed": int(values["seed"]),
        "true_pos": int(values["true positives"]), "false_pos": int(values["false positives"]),
        "true_neg": int(values["true negatives"]), "false_neg": int(values["false negatives"]),
        "empirical_ppv": ppv, "ppv_reason": ppv_reason,
        "empirical_lr_plus": lr, "lr_reason": lr_reason,
    }


# --------------------------------------------------------------------------
# cohort-bulk


class CohortBulk(Workload):
    """Large simulate_cohort calls: the simulator kernel is nearly all the time."""

    name = "cohort-bulk"
    tail_pct = 80
    min_ops = 50
    speed_probe = "numpy"

    def setup(self) -> None:
        self.sc = _import_screencurve(self.tracer)
        rng = self.rng
        self.n = max(10_000, round(10_000_000 * self.scale))
        mids = [float(inputs.decimal(rng.uniform(0.05, 0.6))) for _ in range(2)]
        prevalences = [1e-6, mids[0], 0.999, 1e-6, mids[1], 0.999]
        tests = [tuple(map(float, inputs.ordinary_test(rng, 0.5, 0.99))) for _ in prevalences]
        self.calls = list(zip(tests, prevalences, inputs.seeds(rng, len(prevalences))))
        self.tests = [self.sc.ScreeningTest(a, b) for a, b in tests]
        self.first_counts: dict[int, tuple] = {}

    def run_round(self, index: int, rec, ck) -> None:
        sc, n, tracer = self.sc, self.n, self.tracer
        for k, ((a, b), phi, seed) in enumerate(self.calls):
            test = self.tests[k]

            def simulate():
                with tracer.span("cohort.simulate_cohort", subjects=n):
                    return sc.simulate_cohort(test, phi, n, seed)

            result, exc = rec.op(f"cohort-{k}", simulate)
            if exc is not None:
                continue
            rec.subjects += n
            what = f"{self.name} round {index} call {k}"
            counts = _cohort_counts(result)
            ck.expect(result.n == n and result.seed == seed % (1 << 64), f"{what}: n or seed")
            checks.cohort(ck, counts, a, b, phi, n, what)
            key = (result.true_pos, result.false_pos, result.true_neg, result.false_neg)
            ck.expect(self.first_counts.setdefault(k, key) == key,
                      f"{what}: counts differ from round 0 for the same seed")

    def final_checks(self, ck) -> None:
        (a, b), phi, seed = self.calls[1]
        got = self.sc.simulate_cohort(self.tests[1], phi, REFERENCE_COHORT, seed)
        want = refs.cohort_counts(a, b, phi, REFERENCE_COHORT, seed)
        have = (got.true_pos, got.false_pos, got.true_neg, got.false_neg)
        ck.expect(have == want, f"{self.name}: counts {have} != splitmix64 reference {want}")

    def probe_inputs(self):
        tests = [t for t, _, _ in self.calls]
        rows = [(f"call {k}", repr(a), repr(b)) for k, (a, b) in enumerate(tests)]
        return tests, inputs.catalog_text(rows), self.calls[1]


# --------------------------------------------------------------------------
# catalog-batch


class CatalogBatch(Workload):
    """About a thousand named tests, each carried through every layer."""

    name = "catalog-batch"
    tail_pct = 99
    min_ops = 1000
    speed_probe = "interpreter"

    #: Curve samples per entry, small-cohort size, entries per SVG, the
    #: stride of the entries that also get adaptive quadrature, its
    #: tolerance, and the comparator's gain-index tolerance (its default).
    SAMPLES = 101
    COHORT_N = 2000
    GROUP = 8
    QUAD_EVERY = 4
    QUAD_TOL = 1e-10
    EPS_TOL = 1e-9

    def setup(self) -> None:
        self.sc = _import_screencurve(self.tracer)
        rng = self.rng
        self.rows = inputs.catalog_rows(rng, max(16, round(1000 * self.scale)))
        self.text = inputs.catalog_text(self.rows)
        self.expected = [(name, float(a), float(b)) for name, a, b in self.rows]
        self.cohort_seeds = inputs.seeds(rng, len(self.rows))
        # compare_tests raises ComparatorInconsistencyError for a valid pair
        # whose gain indices differ by a nonzero amount within its tolerance
        # (its equal-gain sign rule assumes them equal).  Only some seeds
        # produce such a neighbour pair, so those comparisons are left out.
        gains = [a + b for _, a, b in self.expected]
        self.compare_next = [
            not 0.0 < abs(second - first) <= self.EPS_TOL
            for first, second in zip(gains, gains[1:])
        ] + [False]
        self.first_counts: dict[int, tuple] = {}
        self.first_svg: dict[int, str] = {}

    def run_round(self, index: int, rec, ck) -> None:
        sc, tracer = self.sc, self.tracer
        rows = len(self.rows)
        with tracer.span("catalog.parse_catalog", rows=rows):
            entries = rec.step("parse", lambda: sc.parse_catalog(self.text))
        with tracer.span("catalog.emit_catalog", rows=rows):
            text = rec.step("emit", lambda: sc.emit_catalog(entries))
        with tracer.span("catalog.parse_catalog", rows=rows):
            again = rec.step("reparse", lambda: sc.parse_catalog(text))
        what = f"{self.name} round {index}"
        got = [(e.name, e.test.sensitivity, e.test.specificity) for e in entries]
        ck.expect(got == self.expected, f"{what}: parsed catalog differs from the generated rows")
        ck.expect([(e.name, e.test) for e in again] == [(e.name, e.test) for e in entries],
                  f"{what}: emit_catalog round trip changed the catalog")
        for i, entry in enumerate(entries):
            out, exc = rec.op(f"entry-{i}", lambda: self._carry(i, entries))
            if exc is None:
                rec.subjects += self.COHORT_N
                checks.guarded(ck, what, self._check, ck, i, out, f"{what} entry {i}")

    def _carry(self, i: int, entries) -> dict:
        sc, span = self.sc, self.tracer.span
        test = entries[i].test
        out = {}
        with span("analysis.build_test_report"):
            report = sc.build_test_report(test, strict=False)
        with span("emit.emit_report") as s:
            out["doc"] = sc.emit_report(report)
            s.counts["bytes"] = len(out["doc"])
        if self.compare_next[i]:
            with span("analysis.compare_tests"):
                try:
                    out["compare"] = sc.compare_tests(test, entries[i + 1].test)
                except sc.DegenerateTestError as exc:
                    out["compare"] = exc
        if i % self.QUAD_EVERY == 0:
            with span("analysis.auc_quadrature"):
                try:
                    out["quad"] = sc.auc_quadrature(test, tol=self.QUAD_TOL)
                except sc.DegenerateTestError as exc:
                    out["quad"] = exc
        with span("core.curve_samples", points=self.SAMPLES):
            samples = sc.curve_samples(test, self.SAMPLES)
        with span("emit.emit_curve_csv", rows=self.SAMPLES):
            out["csv"] = sc.emit_curve_csv(samples)
        out["phi"] = report.threshold.phi_e if report.threshold is not None else 0.5
        with span("cohort.simulate_cohort", subjects=self.COHORT_N):
            out["cohort"] = sc.simulate_cohort(test, out["phi"], self.COHORT_N, self.cohort_seeds[i])
        if i % self.GROUP == self.GROUP - 1 or i == len(entries) - 1:
            group = tuple(entries[i - i % self.GROUP: i + 1])
            with span("svgplot.render_screening_plane") as s:
                out["svg"] = sc.render_screening_plane(sc.PlotSpec(
                    entries=group, show_threshold=True, show_beta=True, show_chords=True))
                s.counts["bytes"] = len(out["svg"])
        return out

    def _check(self, ck, i: int, out: dict, what: str) -> None:
        _, a, b = self.expected[i]
        if (payload := checks.parse_json(ck, out["doc"], what)) is not None:
            checks.report_payload(ck, payload, a, b, what)
        if "compare" in out:
            _, a2, b2 = self.expected[i + 1]
            got = out["compare"]
            if refs.degenerate(a, b) or refs.degenerate(a2, b2):
                role = "first" if refs.degenerate(a, b) else "second"
                ck.expect(isinstance(got, self.sc.DegenerateTestError)
                          and str(got).startswith(f"{role} test"),
                          lambda: f"{what}: compare with a degenerate {role} test gave {got!r}")
            else:
                checks.comparison(ck, _comparison_dict(got), (a, b), (a2, b2), self.EPS_TOL, what)
        if "quad" in out:
            got = out["quad"]
            if refs.degenerate(a, b):
                ck.expect(isinstance(got, self.sc.DegenerateTestError), f"{what}: quadrature {got!r}")
            else:
                want = checks.reference(a, b)["auc"]
                ck.expect(abs(got - want) <= self.QUAD_TOL,
                          lambda: f"{what}: quadrature {got!r} vs area {want!r}")
        checks.curve_csv(ck, out["csv"], a, b, self.SAMPLES, what)
        result = out["cohort"]
        checks.cohort(ck, _cohort_counts(result), a, b, out["phi"], self.COHORT_N, what)
        key = (result.true_pos, result.false_pos, result.true_neg, result.false_neg)
        ck.expect(self.first_counts.setdefault(i, key) == key, f"{what}: cohort counts changed")
        if "svg" in out:
            start = i - i % self.GROUP
            group = self.expected[start: i + 1]
            first = self.first_svg.setdefault(i, out["svg"])
            ck.expect(out["svg"] == first, f"{what}: SVG differs from the first rendering")
            checks.svg(ck, out["svg"], [g[0] for g in group], [(g[1], g[2]) for g in group],
                       True, what)

    def probe_inputs(self):
        tests = [(a, b) for _, a, b in self.expected]
        first = next(k for k, (a, b) in enumerate(tests) if not refs.degenerate(a, b))
        return tests, self.text, (tests[first], 0.3, self.cohort_seeds[first])


WORKLOADS = {cls.name: cls for cls in (CliCold, CohortBulk, CatalogBatch)}


# --------------------------------------------------------------------------
# direct probes (traced run only)


def probe_layers(sc, tracer, tests, catalog: str, cohort) -> None:
    """Time each public layer function directly on the workload's own inputs.

    A probe runs only where the traced workload recorded no span of its
    kind, so a layer reached only through another one (geometry through
    analysis, core through svgplot, every layer through the CLI) still gets
    a number of its own.
    """
    span = tracer.span
    all_tests = [sc.ScreeningTest(a, b) for a, b in tests][:32]
    good = [t for t in all_tests if not refs.degenerate(t.sensitivity, t.specificity)]
    entries = sc.parse_catalog(catalog)
    (ca, cb), phi, seed = cohort
    cohort_test = sc.ScreeningTest(ca, cb)

    def batch(name, fn, calls=16):
        for test in good:
            with span(name, calls=calls):
                for _ in range(calls):
                    fn(test)

    def ppv():
        for test in good:
            with span("core.ppv", calls=64):
                for k in range(64):
                    sc.ppv(test, (k + 0.5) / 64)

    def curve():
        for test in all_tests:
            with span("core.curve_samples", points=101):
                sc.curve_samples(test, 101)

    def reports():
        for test in all_tests:
            with span("analysis.build_test_report"):
                sc.build_test_report(test, strict=False)

    def compare():
        for first, second in zip(good, good[1:]):
            with span("analysis.compare_tests"):
                sc.compare_tests(first, second)

    def quadrature():
        for test in good[:8]:
            with span("analysis.auc_quadrature"):
                sc.auc_quadrature(test, tol=CatalogBatch.QUAD_TOL)

    def cohort_small():
        for test in good[:16]:
            with span("cohort.simulate_cohort", subjects=4096):
                sc.simulate_cohort(test, phi, 4096, seed)

    def cohort_large():
        for _ in range(2):
            with span("cohort.simulate_cohort", subjects=1 << 21):
                sc.simulate_cohort(cohort_test, phi, 1 << 21, seed)

    def parse():
        for _ in range(5):
            with span("catalog.parse_catalog", rows=len(entries)):
                sc.parse_catalog(catalog)

    def emit_catalog():
        for _ in range(5):
            with span("catalog.emit_catalog", rows=len(entries)):
                sc.emit_catalog(entries)

    def emit_report():
        for test in all_tests:
            report = sc.build_test_report(test, strict=False)
            with span("emit.emit_report") as s:
                s.counts["bytes"] = len(sc.emit_report(report))

    def emit_csv():
        for test in all_tests:
            samples = sc.curve_samples(test, 101)
            with span("emit.emit_curve_csv", rows=101):
                sc.emit_curve_csv(samples)

    def svg():
        for start in range(0, min(len(entries), 32), 8):
            spec = sc.PlotSpec(entries=tuple(entries[start:start + 8]), show_threshold=True,
                               show_beta=True, show_chords=True)
            with span("svgplot.render_screening_plane") as s:
                s.counts["bytes"] = len(sc.render_screening_plane(spec))

    def dispatch():
        from screencurve.cli import cli_dispatch

        for test in good[:8]:
            argv = ["analyze", "--sens", repr(test.sensitivity),
                    "--spec", repr(test.specificity), "--json"]
            with span("cli.cli_dispatch"):
                cli_dispatch(argv, stdout=io.StringIO(), stderr=io.StringIO())

    probes = [
        ("core.ppv", None, ppv),
        ("core.curve_samples", None, curve),
        ("geometry.prevalence_threshold", None,
         lambda: batch("geometry.prevalence_threshold", sc.prevalence_threshold)),
        ("geometry.beta_geometry", None, lambda: batch("geometry.beta_geometry", sc.beta_geometry)),
        ("geometry.chords_at", None,
         lambda: batch("geometry.chords_at", lambda t: sc.chords_at(t, 0.5))),
        ("analysis.build_test_report", None, reports),
        ("analysis.compare_tests", None, compare),
        ("analysis.auc_closed_form", None,
         lambda: batch("analysis.auc_closed_form", sc.auc_closed_form)),
        ("analysis.auc_quadrature", None, quadrature),
        ("cohort.simulate_cohort", small_cohort, cohort_small),
        ("cohort.simulate_cohort", large_cohort, cohort_large),
        ("catalog.parse_catalog", None, parse),
        ("catalog.emit_catalog", None, emit_catalog),
        ("emit.emit_report", None, emit_report),
        ("emit.emit_curve_csv", None, emit_csv),
        ("svgplot.render_screening_plane", None, svg),
        ("cli.cli_dispatch", None, dispatch),
    ]
    tracer.op = "probe"
    for name, accept, probe in probes:
        if not tracer.has(name, accept):
            probe()
    tracer.op = None
