"""Screening-curve fundamentals: tests, predictive values, curve sampling.

A test with sensitivity ``a`` and specificity ``b``, applied to a population
with disease prevalence ``phi``, has positive predictive value

    rho(phi) = a*phi / (a*phi + (1 - b)*(1 - phi)).

Conventions used throughout the package:

* ``a`` = sensitivity, ``b`` = specificity, both probabilities in [0, 1];
* ``phi`` = prevalence in [0, 1]; ``rho`` = positive predictive value;
* ``epsilon`` = a + b, the screening coefficient.  epsilon = 1 makes the
  curve the identity (an uninformative test), epsilon = 2 a perfect one.

The curve fixes the points (0, 0) and (1, 1) whenever its denominator is
nonzero there, and is strictly increasing in between for any test with
a > 0 and b < 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import IndeterminateError, ParameterError

__all__ = ["ScreeningTest", "CurvePoint", "epsilon", "ppv", "curve_samples"]


def _require_probability(name: str, value: float) -> float:
    """Validate a probability-like argument, returning it as a float."""
    # numpy.bool_ (named "bool" since numpy 2) is not a bool subclass; matching
    # the type's name refuses it without importing numpy.  Floats, the common
    # case on hot paths such as curve sampling, skip the match.
    if type(value) is not float and type(value).__name__ in ("bool", "bool_"):
        raise ParameterError(f"{name} must be a real number, got {value!r}")
    try:
        value = float(value)
    except (TypeError, ValueError):
        raise ParameterError(f"{name} must be a real number, got {value!r}") from None
    if math.isnan(value) or not 0.0 <= value <= 1.0:
        raise ParameterError(f"{name} must lie in [0, 1], got {value!r}")
    return value + 0.0  # -0.0 becomes +0.0; every other value is unchanged


def _require_int(name: str, value: int, minimum: int) -> int:
    """Validate an integer argument of at least ``minimum``, returning it."""
    if not isinstance(value, int) or isinstance(value, bool) or value < minimum:
        raise ParameterError(f"{name} must be an integer >= {minimum}, got {value!r}")
    return value


def _require_real(name: str, value: float, minimum: float) -> None:
    """Validate a finite int or float (not a bool) of at least ``minimum``."""
    real = isinstance(value, (int, float)) and not isinstance(value, bool)
    if not (real and minimum <= value < math.inf):
        raise ParameterError(f"{name} must be a finite number >= {minimum:g}, got {value!r}")


def _ppv(a: float, c: float, phi: float) -> float | None:
    """rho(phi) for sensitivity ``a`` and false-positive rate ``c``; None where 0/0."""
    positives = a * phi
    denominator = positives + c * (1.0 - phi)
    if denominator == 0.0:
        return None
    return positives / denominator


@dataclass(frozen=True)
class ScreeningTest:
    """An ideal binary screening test, summarized by sensitivity and specificity."""

    sensitivity: float
    specificity: float

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "sensitivity", _require_probability("sensitivity", self.sensitivity)
        )
        object.__setattr__(
            self, "specificity", _require_probability("specificity", self.specificity)
        )

    @property
    def epsilon(self) -> float:
        """Screening coefficient: sensitivity + specificity, in [0, 2]."""
        return self.sensitivity + self.specificity

    @property
    def false_positive_rate(self) -> float:
        return 1.0 - self.specificity

    def describe(self) -> str:
        return f"sensitivity={self.sensitivity:g} specificity={self.specificity:g}"


@dataclass(frozen=True)
class CurvePoint:
    """One sampled point of the curve.  ``rho`` is None where the value is 0/0."""

    phi: float
    rho: float | None

    def __post_init__(self) -> None:
        object.__setattr__(self, "phi", _require_probability("phi", self.phi))
        if self.rho is not None:
            object.__setattr__(self, "rho", _require_probability("rho", self.rho))

    @property
    def defined(self) -> bool:
        return self.rho is not None


def epsilon(test: ScreeningTest) -> float:
    """Screening coefficient of ``test`` (sensitivity + specificity)."""
    return test.epsilon


def ppv(test: ScreeningTest, phi: float) -> float:
    """Positive predictive value of ``test`` at prevalence ``phi``.

    Exact at the endpoints where defined: returns 0.0 at phi = 0 (when
    specificity < 1) and 1.0 at phi = 1 (when sensitivity > 0).

    Raises:
        ParameterError: if ``phi`` is outside [0, 1].
        IndeterminateError: when the denominator a*phi + (1-b)*(1-phi) is
            zero, i.e. no subject can test positive at this prevalence
            (phi = 0 with b = 1, phi = 1 with a = 0, or a = 0 and b = 1).
    """
    phi = _require_probability("phi", phi)
    rho = _ppv(test.sensitivity, 1.0 - test.specificity, phi)
    if rho is None:
        raise IndeterminateError(
            "ppv is 0/0 at phi="
            f"{phi:g} for {test.describe()}: no subject tests positive here"
        )
    return rho


def curve_samples(test: ScreeningTest, n: int) -> list[CurvePoint]:
    """Sample the curve at n uniformly spaced prevalences phi_k = k/(n-1).

    Points where the predictive value is indeterminate are returned with
    ``rho=None`` rather than interpolated or dropped, so emitters can report
    them explicitly.

    Every sample is in range by construction (phi a float in [0, 1], rho a
    float in [0, 1] or None), so the points skip ``CurvePoint``'s checks.
    Each equals ``CurvePoint(p.phi, p.rho)``; a caller's ``CurvePoint`` is
    still validated.

    Raises:
        ParameterError: if ``n`` is not an integer >= 2.
    """
    n = _require_int("n", n, 2)
    a, c = test.sensitivity, 1.0 - test.specificity
    new, set_field = object.__new__, object.__setattr__
    last = n - 1
    points = []
    for k in range(n):
        # k <= n-1 and division rounds monotonically, so 0 <= phi <= 1;
        # _ppv returns None or x/y with 0 <= x <= y, y > 0.  Both are floats
        # that __post_init__ would return unchanged, so it is skipped.  The
        # fields are set as the dataclass __init__ sets them, which keeps the
        # instance layout (and attribute reads) of a validated point.
        phi = k / last
        point = new(CurvePoint)
        set_field(point, "phi", phi)
        set_field(point, "rho", _ppv(a, c, phi))
        points.append(point)
    return points
