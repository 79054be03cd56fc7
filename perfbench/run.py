"""screencurve benchmark: one command, three workloads, checked outputs.

Run from the root of a checkout:

    python3 perfbench/run.py --workload cli-cold --seed 1 --seconds 30 --trace 0

It builds the workload's inputs from ``--seed``, runs whole rounds of the
workload's operations for ``--seconds`` in a closed loop (one client, one
operation at a time), checks every output, and prints as its last line one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` the
same workload runs with spans recorded around each call into a layer, the
spans are written to ``perfbench/out/`` and the metrics are per layer.
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter, perf_counter_ns

import checks
import workloads
from spans import Tracer
from speed import Speed

ROOT = Path(__file__).resolve().parent.parent

#: Fresh processes timed for setup_s; the median is reported.
SETUP_SAMPLES = 9

#: Key prefix of round-level steps, which are timed but are no operation.
STEP = "step:"


class Recorder:
    """Latencies and operation counts of one run.

    Every latency is kept with its midpoint, where the host-speed readings
    scale it (see speed.py); ``timings`` gives them scaled, by operation or
    step.
    """

    def __init__(self, tracer: Tracer, speed: Speed):
        self.tracer = tracer
        self.speed = speed
        #: (operation id or STEP + step, latency, midpoint), in ns.
        self.timed: list[tuple[str, int, int]] = []
        self.rounds = 0
        self.attempted = 0
        self.failed = 0
        self.subjects = 0

    def begin_round(self) -> None:
        self.rounds += 1

    def _timed(self, key: str, fn):
        self.speed.before()
        start = perf_counter_ns()
        try:
            return fn()
        finally:
            end = perf_counter_ns()
            self.timed.append((key, end - start, (start + end) // 2))
            self.speed.after(end - start)

    def step(self, key: str, fn):
        """Time a round-level step that is part of the round but no operation."""
        return self._timed(STEP + key, fn)

    def op(self, op_id: str, fn):
        """Run one operation; return (value, None), or (None, exception) if it raised."""
        self.tracer.op = op_id
        value = exc = None

        def attempt():
            with self.tracer.span("op"):
                try:
                    return fn(), None
                except Exception as error:  # a failed operation; the run goes on
                    return None, error

        value, exc = self._timed(op_id, attempt)
        self.tracer.op = None
        self.attempted += 1
        if exc is not None:
            self.mark_failed()
            if self.failed == 1:
                traceback.print_exception(exc, file=sys.stderr)
        return value, exc

    def mark_failed(self) -> None:
        self.failed += 1

    def timings(self) -> dict[str, list[float]]:
        """Scaled latencies in ns, by operation id or ``STEP`` + step name."""
        by_key: dict[str, list[float]] = {}
        for key, elapsed, at in self.timed:
            by_key.setdefault(key, []).append(elapsed * self.speed.scale(at))
        return by_key


def op_latencies(timings: dict[str, list[float]]) -> list[float]:
    """Every operation latency of ``timings``, steps left out."""
    return [ns for key, values in timings.items() if not key.startswith(STEP) for ns in values]


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100.0 * len(ordered)) - 1)]


def setup_seconds(args, speed: Speed) -> list[float]:
    """Scaled wall time of fresh processes that start, set up the workload and exit."""
    command = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", "1", "--trace", "0",
               "--scale", repr(args.scale), "--setup-only"]
    times = []
    for _ in range(SETUP_SAMPLES):
        speed.read()
        start = perf_counter_ns()
        subprocess.run(command, check=True, cwd=ROOT, stdout=subprocess.DEVNULL)
        end = perf_counter_ns()
        times.append((end - start, (start + end) // 2))
    speed.read()
    return [elapsed / 1e9 * speed.scale(at) for elapsed, at in times]


def end_to_end(workload, rec: Recorder, setup_s: float) -> dict:
    # One round: every operation and step at its median scaled latency over
    # the run's rounds.  The rates are one round's work over it.
    timings = rec.timings()
    wall_s = sum(statistics.median(ns) for ns in timings.values()) / 1e9
    latencies = op_latencies(timings)
    values = {
        "setup_s": (setup_s, "s"),
        "wall_s": (wall_s, "s"),
        "ops_per_s": ((rec.attempted - rec.failed) / rec.rounds / wall_s, "ops/s"),
        "op_p50_ms": (statistics.median(latencies) / 1e6, "ms"),
        "op_tail_ms": (percentile(latencies, workload.tail_pct) / 1e6, "ms"),
        "peak_rss_mb": (workload.peak_rss_mb(), "MB"),
        "subjects_per_s": (rec.subjects / rec.rounds / wall_s, "subjects/s"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}


def per_layer(tracer: Tracer, rec: Recorder) -> dict:
    def spans(name, accept=None):
        found = [s for s in tracer.spans if s.name == name and (accept is None or accept(s))]
        if not found:
            raise RuntimeError(f"no {name} span was recorded")
        return found

    def per(name, key=None, unit_ns=1.0, accept=None):
        return statistics.median(
            s.duration_ns / s.counts.get(key or "calls", 1) / unit_ns for s in spans(name, accept)
        )

    cohorts = spans("cohort.simulate_cohort")
    self_ns = tracer.self_times_ns()
    op_self = [t for s, t in zip(tracer.spans, self_ns) if s.name == "op"]
    values = {
        "import.screencurve_ms": (per("import.screencurve", unit_ns=1e6), "ms"),
        "import.modules_count": (statistics.median(
            s.counts["modules"] for s in spans("import.screencurve")), "count"),
        "import.numpy_loaded": (max(s.counts["numpy"] for s in spans("import.screencurve")), "count"),
        "cli.dispatch_ms": (per("cli.cli_dispatch", unit_ns=1e6), "ms"),
        "core.ppv_ns": (per("core.ppv"), "ns"),
        "core.curve_samples_us_per_point": (per("core.curve_samples", "points", 1e3), "us"),
        "geometry.threshold_us": (per("geometry.prevalence_threshold", unit_ns=1e3), "us"),
        "geometry.beta_us": (per("geometry.beta_geometry", unit_ns=1e3), "us"),
        "geometry.chords_us": (per("geometry.chords_at", unit_ns=1e3), "us"),
        "analysis.report_us": (per("analysis.build_test_report", unit_ns=1e3), "us"),
        "analysis.compare_us": (per("analysis.compare_tests", unit_ns=1e3), "us"),
        "analysis.auc_closed_us": (per("analysis.auc_closed_form", unit_ns=1e3), "us"),
        "analysis.quadrature_ms": (per("analysis.auc_quadrature", unit_ns=1e6), "ms"),
        "cohort.ns_per_subject": (
            per("cohort.simulate_cohort", "subjects", accept=workloads.large_cohort), "ns"),
        "cohort.call_us": (
            per("cohort.simulate_cohort", unit_ns=1e3, accept=workloads.small_cohort), "us"),
        "cohort.subjects": (sum(s.counts["subjects"] for s in cohorts), "count"),
        "cohort.calls": (len(cohorts), "count"),
        "catalog.parse_us_per_row": (per("catalog.parse_catalog", "rows", 1e3), "us"),
        "catalog.emit_us_per_row": (per("catalog.emit_catalog", "rows", 1e3), "us"),
        "emit.report_json_us": (per("emit.emit_report", unit_ns=1e3), "us"),
        "emit.curve_csv_us_per_row": (per("emit.emit_curve_csv", "rows", 1e3), "us"),
        "emit.bytes": (statistics.median(s.counts["bytes"] for s in spans("emit.emit_report")),
                       "bytes"),
        "svgplot.render_ms": (per("svgplot.render_screening_plane", unit_ns=1e6), "ms"),
        "svgplot.bytes": (statistics.median(
            s.counts["bytes"] for s in spans("svgplot.render_screening_plane")), "bytes"),
        "op.self_ms": (statistics.median(op_self) / 1e6, "ms"),
        "trace.spans": (len(tracer.spans), "count"),
        "trace.op_p50_ms": (statistics.median(op_latencies(rec.timings())) / 1e6, "ms"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("cli-cold", "cohort-bulk", "catalog-batch"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="input size factor; the smoke tests use small values")
    parser.add_argument("--setup-only", action="store_true",
                        help="set up the workload and exit (timed for setup_s)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "screencurve" / "__init__.py").is_file():
        print(f"perfbench: no screencurve source under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    tracer = Tracer(enabled=args.trace == 1)
    workload = workloads.WORKLOADS[args.workload](ROOT, args.seed, args.scale, tracer)
    if not args.setup_only:
        # Timed before this process sets up, so that each fresh process starts
        # from a parent holding no more than the benchmark's own modules.
        setup_s = statistics.median(setup_seconds(args, Speed("process")))
    try:
        workload.setup()
        if args.setup_only:
            return 0

        rec, ck = Recorder(tracer, Speed(workload.speed_probe)), checks.Checker()
        deadline = perf_counter() + args.seconds
        index = 0
        while index < 2 or rec.attempted < workload.min_ops or perf_counter() < deadline:
            rec.begin_round()
            workload.run_round(index, rec, ck)
            index += 1
        workload.final_checks(ck)

        if tracer.enabled:
            import screencurve

            workloads.probe_layers(screencurve, tracer, *workload.probe_inputs())
            tracer.write(ROOT / "perfbench" / "out" / f"spans-{args.workload}-{args.seed}.jsonl")
            metrics = per_layer(tracer, rec)
        else:
            metrics = end_to_end(workload, rec, setup_s)
    finally:
        workload.close()

    for message in ck.messages:
        print(f"check failed: {message}", file=sys.stderr)
    print(f"{args.workload}: {index} rounds, {rec.attempted} operations, "
          f"{ck.failures} failed checks, {len(tracer.spans)} spans", file=sys.stderr)
    print(json.dumps({
        "correct": ck.ok,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
