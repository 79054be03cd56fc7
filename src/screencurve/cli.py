"""Command-line interface.

Subcommands mirror the library surface: ``analyze`` (single-test report),
``curve`` (CSV samples), ``compare`` (two-test verdict), ``plot`` (SVG of
the screening plane), ``simulate`` (synthetic cohort), ``catalog`` (batch
reports from a CSV catalog), and ``limit-sweep`` (area trajectory as
sensitivity and specificity approach 1 together).

Exit codes: 0 on success, 1 when the inputs are valid numbers but the
requested quantity is undefined for them (degenerate tests) or an output
file cannot be written, 2 for usage errors (including arguments outside
their documented domain), malformed catalog files, or unreadable inputs.
"""

from __future__ import annotations

import argparse
import contextlib
import sys
from typing import TextIO

from . import __version__
from .core import ScreeningTest, curve_samples
from .errors import ParameterError, ParseError, ScreeningError

# Each runner imports the rest of the package it uses, so a subcommand loads
# only its own modules.

__all__ = ["build_parser", "cli_dispatch", "main"]


class _InputError(Exception):
    """An input file could not be read; maps to exit code 2."""


def _read_text(path: str) -> str:
    try:
        # utf-8-sig drops a leading byte-order mark, as spreadsheet exports write one.
        with open(path, "r", encoding="utf-8-sig") as handle:
            return handle.read()
    except OSError as exc:
        raise _InputError(f"cannot read {path!r}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise _InputError(f"cannot read {path!r}: not UTF-8 text ({exc.reason})") from exc


def _probability(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a number")
    if not 0.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError(f"{text!r} is not in [0, 1]")
    return value


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer")
    if value < 1:
        raise argparse.ArgumentTypeError("value must be >= 1")
    return value


def _seed(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer")


def _pair(text: str) -> ScreeningTest:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(
            f"expected SENSITIVITY,SPECIFICITY, got {text!r}"
        )
    try:
        return ScreeningTest(float(parts[0]), float(parts[1]))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


#: Each subcommand's "--" options besides ``--help``: those that take a value,
#: then its flags.  argparse reads a value such as "-1e-3" or "-inf" as an
#: option name, so ``_join_negative_values`` joins it to a value option
#: before it as "--opt=value" and the option's own type names it.
_OPTIONS = {
    "analyze": (("--sens", "--spec"), ("--json",)),
    "curve": (("--sens", "--spec", "--samples", "--out"), ()),
    "compare": (("--test1", "--test2", "--eps-tol"), ("--json",)),
    "plot": (("--catalog", "--out", "--samples"), ("--threshold", "--beta", "--chords")),
    "simulate": (("--sens", "--spec", "--prev", "--n", "--seed"), ("--json",)),
    "catalog": ((), ("--json",)),
    "limit-sweep": (("--steps",), ("--json",)),
}


def _is_number(text: str) -> bool:
    try:
        float(text.partition(",")[0])
    except ValueError:
        return False
    return True


def _takes_value(command: str | None, arg: str) -> bool:
    """Whether ``arg`` names a value option of ``command``, in full or as a unique prefix."""
    values, flags = _OPTIONS.get(command, ((), ()))
    if arg in values:
        return True
    if len(arg) < 3 or not arg.startswith("--"):  # a bare "--" ends the options
        return False
    matches = [name for name in (*values, *flags, "--help") if name.startswith(arg)]
    return len(matches) == 1 and matches[0] in values


def _join_negative_values(argv: list[str]) -> list[str]:
    """``argv`` with each number that starts with "-" joined to the value option before it."""
    # No option before the subcommand takes a value, so its first word names it.
    command = next((arg for arg in argv if not arg.startswith("-")), None)
    joined: list[str] = []
    for arg in argv:
        if joined and arg.startswith("-") and _is_number(arg) and _takes_value(command, joined[-1]):
            joined[-1] = f"{joined[-1]}={arg}"
        else:
            joined.append(arg)
    return joined


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="screencurve",
        description="Predictive-value geometry of binary screening tests.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze", help="report all derived quantities for one test")
    analyze.add_argument("--sens", type=_probability, required=True, help="sensitivity in [0, 1]")
    analyze.add_argument("--spec", type=_probability, required=True, help="specificity in [0, 1]")
    analyze.add_argument("--json", action="store_true", help="emit a JSON report")

    curve = sub.add_parser("curve", help="sample the predictive-value curve to CSV")
    curve.add_argument("--sens", type=_probability, required=True)
    curve.add_argument("--spec", type=_probability, required=True)
    curve.add_argument("--samples", type=_positive_int, default=101, help="grid size (default 101)")
    curve.add_argument("--out", help="output path (default: stdout)")

    compare = sub.add_parser("compare", help="order two tests by curve, angle, and area")
    compare.add_argument("--test1", type=_pair, required=True, metavar="SENS,SPEC")
    compare.add_argument("--test2", type=_pair, required=True, metavar="SENS,SPEC")
    compare.add_argument("--eps-tol", type=float, default=1e-9,
                         help="tolerance for treating the gain indices as equal")
    compare.add_argument("--json", action="store_true")

    plot = sub.add_parser("plot", help="render curves from a catalog file to SVG")
    plot.add_argument("--catalog", required=True, help="CSV catalog of named tests")
    plot.add_argument("--out", required=True, help="SVG output path")
    plot.add_argument("--samples", type=_positive_int, default=257)
    plot.add_argument("--threshold", action="store_true", help="mark each prevalence threshold")
    plot.add_argument("--beta", action="store_true", help="draw each origin-chord angle")
    plot.add_argument("--chords", action="store_true", help="draw origin and endpoint chords")

    simulate = sub.add_parser("simulate", help="draw a synthetic cohort and report tallies")
    simulate.add_argument("--sens", type=_probability, required=True)
    simulate.add_argument("--spec", type=_probability, required=True)
    simulate.add_argument("--prev", type=_probability, required=True, help="prevalence in [0, 1]")
    simulate.add_argument("--n", type=_positive_int, default=100000, help="cohort size")
    simulate.add_argument("--seed", type=_seed, default=0)
    simulate.add_argument("--json", action="store_true")

    catalog = sub.add_parser("catalog", help="batch-report every test in a catalog file")
    catalog.add_argument("path", help="CSV catalog of named tests")
    catalog.add_argument("--json", action="store_true")

    sweep = sub.add_parser("limit-sweep", help="area trajectory as both accuracies approach 1")
    sweep.add_argument("--steps", type=_positive_int, default=20)
    sweep.add_argument("--json", action="store_true")

    return parser


def _write_text(path: str | None, text: str, out: TextIO) -> None:
    if path is None or path == "-":
        out.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)


def _write_report(report, args: argparse.Namespace, out: TextIO) -> int:
    from .emit import emit_report, report_text
    out.write(emit_report(report) if args.json else report_text(report))
    return 0


def _run_analyze(args: argparse.Namespace, out: TextIO) -> int:
    from .analysis import build_test_report
    # Strict: a single-test report on a degenerate test is an error (exit 1),
    # unlike the batch `catalog` command which tolerates absent quantities.
    report = build_test_report(ScreeningTest(args.sens, args.spec), strict=True)
    return _write_report(report, args, out)


def _run_curve(args: argparse.Namespace, out: TextIO) -> int:
    from .emit import emit_curve_csv
    test = ScreeningTest(args.sens, args.spec)
    samples = curve_samples(test, args.samples)
    _write_text(args.out, emit_curve_csv(samples), out)
    return 0


def _run_compare(args: argparse.Namespace, out: TextIO) -> int:
    from .analysis import compare_tests
    report = compare_tests(args.test1, args.test2, eps_tol=args.eps_tol)
    return _write_report(report, args, out)


def _run_plot(args: argparse.Namespace, out: TextIO) -> int:
    from .catalog import parse_catalog
    from .svgplot import PlotSpec, render_screening_plane
    entries = parse_catalog(_read_text(args.catalog))
    spec = PlotSpec(
        entries=tuple(entries),
        samples=args.samples,
        show_threshold=args.threshold,
        show_beta=args.beta,
        show_chords=args.chords,
    )
    _write_text(args.out, render_screening_plane(spec), out)
    return 0


def _run_simulate(args: argparse.Namespace, out: TextIO) -> int:
    from .cohort import simulate_cohort
    test = ScreeningTest(args.sens, args.spec)
    return _write_report(simulate_cohort(test, args.prev, args.n, args.seed), args, out)


def _run_catalog(args: argparse.Namespace, out: TextIO) -> int:
    from .analysis import build_test_report
    from .catalog import parse_catalog
    from .emit import render_json, report_text, test_report_payload
    entries = parse_catalog(_read_text(args.path))
    reports = [(entry.name, build_test_report(entry.test, strict=False)) for entry in entries]
    if args.json:
        payload = [{"name": name, **test_report_payload(report)} for name, report in reports]
        out.write(render_json(payload) + "\n")
    else:
        out.write("\n".join(f"[{name}]\n{report_text(report)}" for name, report in reports))
    return 0


def _run_limit_sweep(args: argparse.Namespace, out: TextIO) -> int:
    from .analysis import fts_limit_sweep
    from .emit import format_real, render_json
    rows = fts_limit_sweep(args.steps)
    if args.json:
        payload = [{"epsilon": eps, "auc": auc} for eps, auc in rows]
        out.write(render_json(payload) + "\n")
        return 0
    out.write("step,epsilon,auc\n")
    for k, (eps, auc) in enumerate(rows, start=1):
        out.write(f"{k},{format_real(eps)},{format_real(auc)}\n")
    return 0


_RUNNERS = {
    "analyze": _run_analyze,
    "curve": _run_curve,
    "compare": _run_compare,
    "plot": _run_plot,
    "simulate": _run_simulate,
    "catalog": _run_catalog,
    "limit-sweep": _run_limit_sweep,
}


def cli_dispatch(argv: list[str], stdout: TextIO | None = None, stderr: TextIO | None = None) -> int:
    """Parse ``argv`` and run the selected subcommand; return the exit code."""
    out = stdout if stdout is not None else sys.stdout
    err = stderr if stderr is not None else sys.stderr
    parser = build_parser()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            args = parser.parse_args(_join_negative_values(argv))
    except SystemExit as exc:
        return int(exc.code or 0)

    runner = _RUNNERS[args.command]
    try:
        return runner(args, out)
    except (ParseError, ParameterError, _InputError) as exc:
        err.write(f"screencurve: error: {exc}\n")
        return 2
    except (ScreeningError, OSError) as exc:
        err.write(f"screencurve: error: {exc}\n")
        return 1


def main() -> None:
    sys.exit(cli_dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
