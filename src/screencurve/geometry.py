"""Geometry of the screening plane: threshold point, curve angle, chords, area.

For a test with sensitivity ``a`` and specificity ``b`` (write c = 1 - b):

* The prevalence threshold is the unique prevalence where the curve has
  unit slope,

      phi_e = sqrt(c) / (sqrt(a) + sqrt(c))
            = (sqrt(a*c) + b - 1) / (a + b - 1),     the ratio form,

  the two forms agreeing whenever epsilon = a + b differs from 1.  The
  threshold point (phi_e, rho(phi_e)) always lies on the antidiagonal:
  rho(phi_e) = 1 - phi_e.

* The chord from the origin to the threshold point makes an angle beta
  with the vertical axis, where

      tan(beta) = psi = sqrt(c / a),

  so that chord has slope sqrt(a / c) = 1 / psi.  Hence cot^2(beta) = a / c,
  which is exactly the positive likelihood ratio LR+ = a / (1 - b).  The
  endpoint chord, from the threshold point to (1, 1), has slope psi and so
  makes the same angle beta with the horizontal through (1, 1).

* More generally, at any interior prevalence phi the chord from the origin
  to (phi, rho(phi)) has slope rho/phi, the chord from (phi, rho(phi)) to
  (1, 1) has slope (1 - rho)/(1 - phi), and their ratio equals LR+
  independently of phi.  ``chords_at`` computes both slopes numerically
  from the curve so that tests can assert this identity rather than assume
  it.

* The area under the curve.  With d = epsilon - 1 = a - c the curve is
  rho(phi) = a*phi / (c + d*phi), and

      integral_0^1 rho dphi = a/d - (a*c/d^2) * ln(a/c)      for d != 0,
                            = 1/2                            for d = 0.

  ``_area`` evaluates the algebraically equal form

      (a/c) * (r - ln(1 + r)) / r^2,    r = d/c,

  which isolates the cancellation into (r - ln(1 + r)) and switches to a
  nine-term alternating series

      (a/c) * (1/2 - r/3 + r^2/4 - ... + r^8/10)

  for |r| < 0.02 (next term below 1e-16 relative), so values near
  epsilon = 1 are computed to full precision instead of losing digits to
  the subtraction; at r = 0 the series is 1/2 exactly.  Below r = -1/2
  (LR+ = a/c < 1/2) the logarithm is taken of a/c itself: 1 + r rounds away
  the low digits of a small a/c, and to zero below a/c = 2^-53.

Degenerate parameters (a = 0 or b = 1) make these quantities collapse onto
the boundary of their domains; the operations raise typed errors carrying
the limiting value where a one-sided limit exists.  One table decides, per
quantity, which error class, message and limit each degenerate case gets.
"""

from __future__ import annotations

import math
import sys
from typing import NamedTuple

from .core import ScreeningTest, _Record, _require_probability
from .errors import (
    DegenerateAngleError,
    DegenerateTestError,
    DomainError,
    EpsilonOneError,
    InfiniteLRError,
    ParameterError,
    ZeroLRError,
)

__all__ = [
    "ThresholdPoint",
    "BetaGeometry",
    "ChordPair",
    "ChordLine",
    "prevalence_threshold",
    "threshold_equivalence_check",
    "beta_geometry",
    "lr_positive_direct",
    "lr_positive_from_beta",
    "chords_at",
    "lr_positive_from_chords",
    "endpoint_chord_line",
]

#: |epsilon - 1| below which the ratio form of the threshold is refused.
EPSILON_ONE_TOLERANCE = 1e-12

#: |r| = |epsilon - 1| / (1 - b) below which the area's series branch is used.
SERIES_SWITCH = 0.02


def _open_range(default: float = math.inf, **uppers: float):
    """A record's ``_check`` hook: each field is a real number in (0, upper).

    ``uppers`` maps a field name to its upper end; every other field's is ``default``.
    """

    def check(name: str, value: float) -> float:
        upper = uppers.get(name, default)
        if type(value) is bool or not (isinstance(value, (int, float)) and 0.0 < value < upper):
            raise ParameterError(f"{name} must lie in (0, {upper:g}), got {value!r}")
        return value

    return staticmethod(check)


class ThresholdPoint(_Record):
    """The unit-slope point of the curve, strictly inside the unit square."""

    phi_e: float
    rho_e: float

    _check = _open_range(1.0)


class BetaGeometry(_Record):
    """Angle geometry of the threshold chords.

    ``beta_rad`` is the angle between the vertical and the chord from the
    origin to the threshold point, ``psi = tan(beta_rad)``, and
    ``origin_slope = 1/psi`` is that chord's slope.
    """

    beta_rad: float
    psi: float
    origin_slope: float

    _check = _open_range(beta_rad=math.pi / 2.0)


class ChordPair(_Record):
    """Chord slopes through one interior point of the curve."""

    at_phi: float
    slope_origin: float
    slope_endpoint: float

    _check = _open_range(at_phi=1.0)


class ChordLine(NamedTuple):
    """A line rho = slope * phi + intercept in the screening plane."""

    slope: float
    intercept: float


_JOINTLY_0_0 = "is indeterminate for {test}: sensitivity 0 and specificity 1 jointly leave it 0/0"

#: What each derived quantity raises for a degenerate test, as (error class,
#: message after the quantity's name, limit) when sensitivity is 0 and
#: specificity 1 together, when only sensitivity is 0, and when only
#: specificity is 1.  ``{test}`` in a message stands for ``test.describe()``.
_DEGENERATE = {
    "prevalence threshold": (
        (DegenerateTestError, _JOINTLY_0_0, None),
        (DegenerateTestError, "is degenerate at sensitivity=0 (limit 1 as sensitivity -> 0)", 1.0),
        (DegenerateTestError, "is degenerate at specificity=1 (limit 0 as specificity -> 1)", 0.0),
    ),
    "chord pair": (
        (DegenerateTestError, _JOINTLY_0_0, None),
        (DegenerateTestError, "is degenerate at sensitivity=0 (limit 0 as sensitivity -> 0)", 0.0),
        (DegenerateTestError, "is degenerate at specificity=1 (limit 0 as specificity -> 1)", 0.0),
    ),
    "curve angle": (
        (DegenerateAngleError, "is indeterminate for {test}", None),
        (DegenerateAngleError, "is degenerate at sensitivity=0 (limit pi/2)", math.pi / 2.0),
        (DegenerateAngleError, "is degenerate at specificity=1 (limit 0)", 0.0),
    ),
    "LR+": (
        (DegenerateTestError, "is 0/0 for {test}", None),
        (ZeroLRError, "collapses to 0 at sensitivity=0", 0.0),
        (InfiniteLRError, "diverges at specificity=1 with positive sensitivity", math.inf),
    ),
    "area under the curve": (
        (DegenerateTestError, "is indeterminate for {test}", None),
        (DegenerateTestError, "is degenerate at sensitivity=0 (limit 0)", 0.0),
        (DegenerateTestError, "is degenerate at specificity=1 (limit 1)", 1.0),
    ),
}


def _degenerate(test: ScreeningTest, quantity: str) -> DegenerateTestError | None:
    """The error ``quantity`` raises for sensitivity 0 or specificity 1, if any."""
    a, b = test.sensitivity, test.specificity
    if a != 0.0 and b != 1.0:
        return None
    case = 0 if a == 0.0 and b == 1.0 else 1 if a == 0.0 else 2
    error, message, limit = _DEGENERATE[quantity][case]
    return error(f"{quantity} {message.format(test=test.describe())}", limit=limit)


def _checked(value):
    """``value``, raised instead when it is a DegenerateTestError."""
    if isinstance(value, DegenerateTestError):
        raise value
    return value


def _area(a: float, c: float) -> float:
    """Area under the curve of a test with sensitivity ``a`` > 0 and ``c`` = 1 - b > 0."""
    r = (a - c) / c
    if abs(r) < SERIES_SWITCH:
        # Sum of (-r)^k / (k + 2) for k = 0..8, by Horner's rule.
        core = 0.0
        for k in range(10, 1, -1):
            core = 1.0 / k - r * core
    else:
        log_lr = math.log(a / c) if r < -0.5 else math.log1p(r)
        core = (r - log_lr) / (r * r)
    return (a / c) * core


def _derive(test: ScreeningTest) -> tuple:
    """(LR+, threshold point, angle geometry, endpoint chord, area) of ``test``.

    Each entry is the value, or the DegenerateTestError that its public
    function raises.  The endpoint chord runs through the threshold point,
    so it holds the threshold's error when the threshold is undefined.
    """
    a, b = test.sensitivity, test.specificity
    if a == 0.0 or b == 1.0:
        threshold = _degenerate(test, "prevalence threshold")
        return (_degenerate(test, "LR+"), threshold, _degenerate(test, "curve angle"), threshold,
                _degenerate(test, "area under the curve"))
    c = 1.0 - b
    root_a, root_c = math.sqrt(a), math.sqrt(c)
    phi_e = root_c / (root_a + root_c)
    if phi_e == 1.0:
        threshold = chord = DegenerateTestError(
            f"prevalence threshold rounds to its limit 1 at {test.describe()}", limit=1.0
        )
    else:
        # rho_e = 1 - phi_e, taken from the roots: rho(phi_e) loses digits as phi_e -> 1.
        rho_e = root_a / (root_a + root_c)
        threshold = ThresholdPoint(phi_e=phi_e, rho_e=rho_e)
        slope = phi_e / rho_e
        chord = ChordLine(slope=slope, intercept=1.0 - slope)
    psi = math.sqrt(c / a)
    beta_rad = math.atan(psi)
    if beta_rad == math.pi / 2.0:
        beta = DegenerateAngleError(
            f"curve angle rounds to its limit pi/2 at {test.describe()}",
            limit=math.pi / 2.0,
        )
    else:
        beta = BetaGeometry(beta_rad=beta_rad, psi=psi, origin_slope=math.sqrt(a / c))
    return a / c, threshold, beta, chord, _area(a, c)


def prevalence_threshold(test: ScreeningTest) -> ThresholdPoint:
    """Unit-slope point of the curve for a nondegenerate test.

    Raises DegenerateTestError when sensitivity is 0 or specificity is 1
    (the threshold escapes to the corners of the unit square; the error
    carries the limiting prevalence where one exists), and when LR+ is so
    small (below about 1e-32) that phi_e rounds to its limit 1.
    """
    return _checked(_derive(test)[1])


def threshold_equivalence_check(test: ScreeningTest) -> tuple[float, float]:
    """Evaluate both algebraic forms of the threshold prevalence.

    Returns (ratio_form, surd_form).  The ratio form divides by epsilon - 1,
    so the check refuses tests with |epsilon - 1| < 1e-12 rather than return
    a 0/0 artifact.

    Raises:
        EpsilonOneError: when |epsilon - 1| < 1e-12.
        DegenerateTestError: when sensitivity 0 and specificity 1 jointly
            make the surd form 0/0.
    """
    a, b = test.sensitivity, test.specificity
    if a == 0.0 and b == 1.0:
        raise DegenerateTestError(
            "threshold forms are 0/0 when sensitivity is 0 and specificity is 1"
        )
    d = test.epsilon - 1.0
    if abs(d) < EPSILON_ONE_TOLERANCE:
        raise EpsilonOneError(
            f"ratio form of the threshold is 0/0 at epsilon={test.epsilon!r}; "
            "the curve is the identity and has unit slope everywhere"
        )
    c = 1.0 - b
    ratio_form = (math.sqrt(a * c) + b - 1.0) / d
    surd_form = math.sqrt(c) / (math.sqrt(a) + math.sqrt(c))
    return ratio_form, surd_form


def beta_geometry(test: ScreeningTest) -> BetaGeometry:
    """Angle geometry (beta, psi, origin slope) for a nondegenerate test.

    Raises DegenerateAngleError at sensitivity 0 (beta -> pi/2) or
    specificity 1 (beta -> 0), and when LR+ is so small (below about 1e-32)
    that beta rounds to pi/2; the error carries the limiting angle.
    """
    return _checked(_derive(test)[2])


def lr_positive_direct(test: ScreeningTest) -> float:
    """Positive likelihood ratio sensitivity / (1 - specificity).

    Raises:
        DegenerateTestError: 0/0 when sensitivity 0 and specificity 1 jointly.
        InfiniteLRError: specificity 1 with positive sensitivity (carries inf).
        ZeroLRError: sensitivity 0 (carries 0.0).
    """
    _checked(_degenerate(test, "LR+"))
    return test.sensitivity / (1.0 - test.specificity)


def lr_positive_from_beta(test: ScreeningTest) -> float:
    """Positive likelihood ratio recovered from the angle as cot(beta)^2.

    Deliberately routed through atan and tan so the trigonometric identity
    is computed, not algebraically simplified away.  Degeneracies raise as
    in ``beta_geometry``.
    """
    beta = beta_geometry(test).beta_rad
    cot_beta = 1.0 / math.tan(beta)
    return cot_beta * cot_beta


def chords_at(test: ScreeningTest, phi: float) -> ChordPair:
    """Slopes of the origin and endpoint chords through (phi, rho(phi)).

    The origin chord runs from (0, 0) to the curve point, the endpoint chord
    from the curve point to (1, 1).

    Raises:
        ParameterError: if phi is outside [0, 1].
        DomainError: at phi = 0 or phi = 1, where a chord degenerates to a point.
        DegenerateTestError: when sensitivity is 0 or specificity is 1, where
            one chord slope collapses to 0 (carries that limit), or when
            sensitivity*phi is below the smallest normal float (limit 0).
    """
    phi = _require_probability("phi", phi)
    if phi == 0.0 or phi == 1.0:
        raise DomainError(
            f"chords are undefined at phi={phi:g}: one chord degenerates to a point"
        )
    _checked(_degenerate(test, "chord pair"))
    a = test.sensitivity
    c = 1.0 - test.specificity
    positives = a * phi
    if positives < sys.float_info.min:
        raise DegenerateTestError(
            f"chord pair rounds to its limit 0 at {test.describe()} phi={phi:g}", limit=0.0
        )
    denominator = positives + c * (1.0 - phi)
    rho = positives / denominator
    # Rise of the endpoint chord, computed as the complement predictive value
    # c*(1-phi)/denominator instead of 1 - rho: the literal subtraction loses
    # up to half the significand as rho -> 1, which would wash out the
    # phi-independence of the slope ratio at the 1e-12 level.
    rho_complement = c * (1.0 - phi) / denominator
    return ChordPair(
        at_phi=phi,
        slope_origin=rho / phi,
        slope_endpoint=rho_complement / (1.0 - phi),
    )


def lr_positive_from_chords(test: ScreeningTest, phi: float) -> float:
    """Positive likelihood ratio as the ratio of chord slopes at ``phi``.

    Equals the direct ratio for every interior phi; errors as ``chords_at``.
    """
    pair = chords_at(test, phi)
    return pair.slope_origin / pair.slope_endpoint


def endpoint_chord_line(test: ScreeningTest) -> ChordLine:
    """Full line through the threshold point and (1, 1).

    The slope (1 - rho_e) / (1 - phi_e) equals phi_e / rho_e = sqrt(c / a),
    which is computed instead: the differences cancel as rho_e -> 1.  The
    intercept is exactly 1 - slope, so the line passes through (1, 1) by
    construction; near LR+ = 1 it is ill-conditioned and carries an
    absolute error of up to about 2.2e-16.  Degeneracies raise as in
    ``prevalence_threshold``.
    """
    return _checked(_derive(test)[3])
