"""Typed exceptions for screening-curve computations.

Every failure mode with mathematical meaning gets its own class so callers
can branch on the condition instead of parsing messages, and so the CLI can
map families of errors onto exit codes.  Errors raised at parameter values
where a quantity diverges carry the one-sided limit whenever one exists.
"""

from __future__ import annotations

__all__ = [
    "ScreeningError",
    "ParameterError",
    "IndeterminateError",
    "DegenerateTestError",
    "InfiniteLRError",
    "ZeroLRError",
    "DegenerateAngleError",
    "EpsilonOneError",
    "DomainError",
    "NonConvergenceError",
    "AbsentEstimateError",
    "ComparatorInconsistencyError",
    "ParseError",
]


class ScreeningError(Exception):
    """Base class for every error raised by this package."""


class ParameterError(ScreeningError, ValueError):
    """An argument lies outside its documented domain.

    Raised for malformed inputs (probabilities outside [0, 1], sample counts
    below one, tolerances below the supported floor) as opposed to
    mathematically singular but well-formed ones.
    """


class IndeterminateError(ScreeningError, ZeroDivisionError):
    """The predictive value is 0/0: no subject can test positive here.

    Happens at prevalence 0 with specificity 1, at prevalence 1 with
    sensitivity 0, and everywhere when both degeneracies hold at once.
    """


class DegenerateTestError(ScreeningError):
    """A derived quantity is undefined because sensitivity is 0 or specificity is 1.

    ``limit`` holds the limiting value of the quantity as the offending
    parameter approaches its degenerate value, or None when no one-sided
    limit exists (for instance when both degeneracies hold at once).
    """

    def __init__(self, message: str, limit: float | None = None):
        super().__init__(message)
        self.limit = limit


class InfiniteLRError(DegenerateTestError):
    """The positive likelihood ratio diverges (specificity 1, sensitivity > 0)."""


class ZeroLRError(DegenerateTestError):
    """The positive likelihood ratio collapses to zero (sensitivity 0)."""


class DegenerateAngleError(DegenerateTestError):
    """The curve angle is degenerate (0 at specificity 1, pi/2 at sensitivity 0)."""


class EpsilonOneError(ScreeningError):
    """The ratio form of the threshold is 0/0 because sensitivity + specificity = 1."""


class DomainError(ScreeningError, ValueError):
    """A chord was requested at prevalence 0 or 1, where it degenerates to a point."""


class NonConvergenceError(ScreeningError):
    """Adaptive refinement hit its depth limit before reaching the tolerance."""


class AbsentEstimateError(ScreeningError):
    """A required empirical estimate is absent (the simulation produced no positives)."""


class ComparatorInconsistencyError(ScreeningError):
    """No longer raised: ``compare_tests`` orders tests by LR+ alone.

    Kept so that code which imports or catches it keeps working.
    """


class ParseError(ScreeningError, ValueError):
    """A catalog document is malformed.  ``line`` is the 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line
