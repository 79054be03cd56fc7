"""Command-line interface.

Subcommands mirror the library surface: ``analyze`` (single-test report),
``curve`` (CSV samples), ``compare`` (two-test verdict), ``plot`` (SVG of
the screening plane), ``simulate`` (synthetic cohort), ``catalog`` (batch
reports from a CSV catalog), and ``limit-sweep`` (area trajectory as
sensitivity and specificity approach 1 together).

The table ``_COMMANDS`` is the one place a subcommand or option is declared:
the parser, the joiner of negative values and dispatch all read it.

Each runner builds its whole document and returns it as a string; it writes
nothing.  ``cli_dispatch`` is the one place output is written (to ``--out``,
or to stdout when that is absent or ``-``) and the one place errors become
exit codes: 0 on success, 1 when the inputs are valid numbers but the
requested quantity is undefined for them (degenerate tests) or the output
cannot be written, 2 for usage errors (including arguments outside their
documented domain), malformed catalog files, or unreadable inputs.
"""

from __future__ import annotations

import argparse
import contextlib
import os
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


def _integer(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer")


def _positive_int(text: str) -> int:
    value = _integer(text)
    if value < 1:
        raise argparse.ArgumentTypeError("value must be >= 1")
    return value


#: The largest ``--samples`` grid.  Each point holds ~300 bytes, so a much larger
#: grid would exhaust memory instead of exiting.
_MAX_SAMPLES = 1_000_000


def _samples(text: str) -> int:
    value = _positive_int(text)
    if value > _MAX_SAMPLES:
        raise argparse.ArgumentTypeError(f"value must be <= {_MAX_SAMPLES}")
    return value


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


def _report(report, args: argparse.Namespace) -> str:
    from .emit import emit_report, report_text
    return emit_report(report) if args.json else report_text(report)


def _run_analyze(args: argparse.Namespace) -> str:
    from .analysis import build_test_report
    # Strict: a single-test report on a degenerate test is an error (exit 1),
    # unlike the batch `catalog` command which tolerates absent quantities.
    return _report(build_test_report(ScreeningTest(args.sens, args.spec), strict=True), args)


def _run_curve(args: argparse.Namespace) -> str:
    from .emit import emit_curve_csv
    return emit_curve_csv(curve_samples(ScreeningTest(args.sens, args.spec), args.samples))


def _run_compare(args: argparse.Namespace) -> str:
    from .analysis import compare_tests
    return _report(compare_tests(args.test1, args.test2, eps_tol=args.eps_tol), args)


def _run_plot(args: argparse.Namespace) -> str:
    from .catalog import parse_catalog
    from .svgplot import PlotSpec, render_screening_plane
    return render_screening_plane(PlotSpec(
        entries=tuple(parse_catalog(_read_text(args.catalog))),
        samples=getattr(args, "samples", PlotSpec.samples),
        show_threshold=args.threshold,
        show_beta=args.beta,
        show_chords=args.chords,
    ))


def _run_simulate(args: argparse.Namespace) -> str:
    from .cohort import simulate_cohort
    test = ScreeningTest(args.sens, args.spec)
    return _report(simulate_cohort(test, args.prev, args.n, args.seed), args)


def _run_catalog(args: argparse.Namespace) -> str:
    from .analysis import build_test_report
    from .catalog import parse_catalog
    from .emit import render_json, report_text, test_report_payload
    entries = parse_catalog(_read_text(args.path))
    reports = [(entry.name, build_test_report(entry.test, strict=False)) for entry in entries]
    if args.json:
        return render_json([{"name": name, **test_report_payload(report)}
                            for name, report in reports]) + "\n"
    return "\n".join(f"[{name}]\n{report_text(report)}" for name, report in reports)


def _run_limit_sweep(args: argparse.Namespace) -> str:
    from .analysis import fts_limit_sweep
    from .emit import format_real, render_json
    rows = fts_limit_sweep(args.steps)
    if args.json:
        return render_json([{"epsilon": eps, "auc": auc} for eps, auc in rows]) + "\n"
    return "step,epsilon,auc\n" + "".join(
        f"{k},{format_real(eps)},{format_real(auc)}\n" for k, (eps, auc) in enumerate(rows, 1)
    )


#: Each subcommand: its runner, its help line and its arguments in ``--help``
#: order, each as (name, ``add_argument`` keywords).
_COMMANDS = {
    "analyze": (_run_analyze, "report all derived quantities for one test", (
        ("--sens", dict(type=_probability, required=True, help="sensitivity in [0, 1]")),
        ("--spec", dict(type=_probability, required=True, help="specificity in [0, 1]")),
        ("--json", dict(action="store_true", help="emit a JSON report")),
    )),
    "curve": (_run_curve, "sample the predictive-value curve to CSV", (
        ("--sens", dict(type=_probability, required=True)),
        ("--spec", dict(type=_probability, required=True)),
        ("--samples", dict(type=_samples, default=101, help="grid size (default 101)")),
        ("--out", dict(help="output path (default: stdout)")),
    )),
    "compare": (_run_compare, "order two tests by curve, angle, and area", (
        ("--test1", dict(type=_pair, required=True, metavar="SENS,SPEC")),
        ("--test2", dict(type=_pair, required=True, metavar="SENS,SPEC")),
        ("--eps-tol", dict(type=float, default=1e-9,
                           help="tolerance for treating the gain indices as equal")),
        ("--json", dict(action="store_true")),
    )),
    "plot": (_run_plot, "render curves from a catalog file to SVG", (
        ("--catalog", dict(required=True, help="CSV catalog of named tests")),
        ("--out", dict(required=True, help="SVG output path")),
        ("--samples", dict(type=_samples, default=argparse.SUPPRESS)),
        ("--threshold", dict(action="store_true", help="mark each prevalence threshold")),
        ("--beta", dict(action="store_true", help="draw each origin-chord angle")),
        ("--chords", dict(action="store_true", help="draw origin and endpoint chords")),
    )),
    "simulate": (_run_simulate, "draw a synthetic cohort and report tallies", (
        ("--sens", dict(type=_probability, required=True)),
        ("--spec", dict(type=_probability, required=True)),
        ("--prev", dict(type=_probability, required=True, help="prevalence in [0, 1]")),
        ("--n", dict(type=_positive_int, default=100000, help="cohort size")),
        ("--seed", dict(type=_integer, default=0)),
        ("--json", dict(action="store_true")),
    )),
    "catalog": (_run_catalog, "batch-report every test in a catalog file", (
        ("path", dict(help="CSV catalog of named tests")),
        ("--json", dict(action="store_true")),
    )),
    "limit-sweep": (_run_limit_sweep, "area trajectory as both accuracies approach 1", (
        ("--steps", dict(type=_positive_int, default=20)),
        ("--json", dict(action="store_true")),
    )),
}


def _is_number(text: str) -> bool:
    try:
        float(text.partition(",")[0])
    except ValueError:
        return False
    return True


def _takes_value(command: str | None, arg: str) -> bool:
    """Whether ``arg`` names a value option of ``command``, in full or as a unique prefix."""
    rows = _COMMANDS[command][2] if command in _COMMANDS else ()
    values = [name for name, keywords in rows if name.startswith("--") and "action" not in keywords]
    if arg in values:
        return True
    if len(arg) < 3 or not arg.startswith("--"):  # a bare "--" ends the options
        return False
    names = [name for name, _ in rows] + ["--help"]
    matches = [name for name in names if name.startswith(arg)]
    return len(matches) == 1 and matches[0] in values


def _join_negative_values(argv: list[str]) -> list[str]:
    """``argv`` with each number that starts with "-" joined to the value option before it.

    argparse reads a value such as "-1e-3" or "-inf" as an option name; joined
    as "--opt=value", the option's own type names it.
    """
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
    for command, (_, help_line, rows) in _COMMANDS.items():
        subparser = sub.add_parser(command, help=help_line)
        for name, keywords in rows:
            subparser.add_argument(name, **keywords)
    return parser


def cli_dispatch(
    argv: list[str], stdout: TextIO | None = None, stderr: TextIO | None = None
) -> int:
    """Parse ``argv`` and run the selected subcommand; return the exit code."""
    out = stdout if stdout is not None else sys.stdout
    err = stderr if stderr is not None else sys.stderr
    parser = build_parser()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            args = parser.parse_args(_join_negative_values(argv))
    except SystemExit as exc:
        return int(exc.code or 0)

    path = getattr(args, "out", None)
    try:
        text = _COMMANDS[args.command][0](args)
        if path is None or path == "-":
            out.write(text)
            out.flush()
        else:
            with open(path, "w", encoding="utf-8", newline="") as handle:
                handle.write(text)
    except (ParseError, ParameterError, _InputError) as exc:
        err.write(f"screencurve: error: {exc}\n")
        return 2
    except ScreeningError as exc:
        err.write(f"screencurve: error: {exc}\n")
        return 1
    except OSError as exc:  # runners read through _read_text, so this is the write
        target = "standard output" if path is None or path == "-" else repr(path)
        err.write(f"screencurve: error: cannot write {target}: {exc.strerror or exc}\n")
        return 1
    return 0


def main() -> None:
    code = cli_dispatch(sys.argv[1:])
    try:
        sys.stdout.flush()
    except OSError:
        # cli_dispatch has reported the failed write; what stdout still
        # buffers goes to os.devnull, so the flush at exit cannot fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(code)


if __name__ == "__main__":
    main()
