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

import functools
import operator
import sys

from .errors import IndeterminateError, ParameterError

__all__ = ["ScreeningTest", "CurvePoint", "epsilon", "ppv", "curve_samples"]


def _require_probability(name: str, value: float) -> float:
    """Validate a probability-like argument, returning it as a float."""
    # numpy.bool_ (named "bool" since numpy 2) is not a bool subclass; matching
    # the type's name refuses it without importing numpy.  Text is refused
    # though float() parses "0.5" and b"0.5".  Floats, the common case (each
    # record built, each ppv and cohort call), skip both checks.
    if type(value) is not float and (isinstance(value, (str, bytes, bytearray))
                                     or type(value).__name__ in ("bool", "bool_")):
        raise ParameterError(f"{name} must be a real number, got {value!r}")
    try:
        value = float(value)
    except (TypeError, ValueError):
        raise ParameterError(f"{name} must be a real number, got {value!r}") from None
    except OverflowError:  # an int or Fraction beyond float range
        raise ParameterError(f"{name} must lie in [0, 1], got {value!r}") from None
    if not 0.0 <= value <= 1.0:  # NaN fails both comparisons
        raise ParameterError(f"{name} must lie in [0, 1], got {value!r}")
    return value + 0.0  # -0.0 becomes +0.0; every other value is unchanged


def _require_int(name: str, value: int, minimum: int) -> int:
    """Validate an integer argument of at least ``minimum``, returning it."""
    if not isinstance(value, int) or isinstance(value, bool) or value < minimum:
        raise ParameterError(f"{name} must be an integer >= {minimum}, got {value!r}")
    return value


def _require_real(name: str, value: float, minimum: float) -> None:
    """Validate an int or float (not a bool) of at least ``minimum`` that a float holds finite."""
    real = isinstance(value, (int, float)) and not isinstance(value, bool)
    if not (real and minimum <= value <= sys.float_info.max):  # an int compares exactly
        raise ParameterError(f"{name} must be a finite number >= {minimum:g}, got {value!r}")


def _ppv(a: float, c: float, phi: float) -> float | None:
    """rho(phi) for sensitivity ``a`` and false-positive rate ``c``; None where 0/0."""
    positives = a * phi
    denominator = positives + c * (1.0 - phi)
    if denominator == 0.0:
        return None
    return positives / denominator


@functools.lru_cache(maxsize=2)
def _grid(n: int) -> tuple[float, ...]:
    """The n prevalences phi_k = k/(n-1) that ``curve_samples`` and the plots sample.

    One immutable tuple per size, shared by every caller.  The grids of the
    last two sizes asked for stay in memory (two, so that a run alternating
    the curve's and the plot's sample counts builds neither again), as
    ``svgplot._x_template`` keeps the last size's x columns.
    """
    # k <= n-1 and division rounds monotonically, so 0 <= phi <= 1.
    last = n - 1
    return tuple([k / last for k in range(n)])


def _rhos(test: ScreeningTest, phis: tuple[float, ...]) -> list[float | None]:
    """rho at each of ``phis``: None where 0/0, else x/y with 0 <= x <= y, y > 0."""
    a, c = test.sensitivity, test.false_positive_rate
    # _ppv's operations in _ppv's order, with no call per sample: the same floats.
    return [x / y if (y := (x := a * phi) + c * (1.0 - phi)) != 0.0 else None for phi in phis]


#: Declared default of a field that gets a fresh ``{}`` per instance;
#: ``dataclasses.fields`` shows it as ``default_factory=dict``.
_NEW_DICT = object()


class _DataclassFields:
    """``__dataclass_fields__`` of one record class, built on first read and cached on it."""

    def __init__(self, record: type, defaults: dict) -> None:
        self.record = record
        self.defaults = defaults

    def __get__(self, instance, owner):
        from dataclasses import MISSING, field, make_dataclass

        record = self.record
        specs = []
        for name in record._fields:
            default = self.defaults.get(name, MISSING)
            spec = field(default_factory=dict) if default is _NEW_DICT else field(default=default)
            specs.append((name, record.__annotations__[name], spec))
        fields = make_dataclass(record.__name__, specs, frozen=True).__dataclass_fields__
        record.__dataclass_fields__ = fields
        return fields


def _compile_init(record: type, names: tuple[str, ...], defaults: dict):
    """``record.__init__``: take ``names`` in order, pass each through ``_check`` if any, store."""
    check = getattr(record, "_check", None)
    params = [f"{name}=_defaults[{name!r}]" if name in defaults else name for name in names]
    values = [f"{name}=_check({name!r}, {name})" if check else f"{name}={name}" for name in names]
    for k, name in enumerate(names):
        if defaults.get(name) is _NEW_DICT:
            values[k] = f"{name}={{}} if {name} is _NEW_DICT else {name}"
    source = (f"def __init__(self, {', '.join(params)}):\n"
              f"    self.__dict__.update({', '.join(values)})\n")
    namespace = {"__name__": record.__module__, "_check": check, "_defaults": defaults,
                 "_NEW_DICT": _NEW_DICT}
    exec(source, namespace)
    init = namespace["__init__"]
    init.__qualname__ = f"{record.__qualname__}.__init__"
    return init


class _Record:
    """Base of the package's frozen records, in place of ``@dataclass(frozen=True)``.

    A record declares each field once, as an annotation, in order.  A default
    is written on the same line (``samples: int = 257``) and stays a class
    attribute, as in a dataclass; ``_NEW_DICT`` instead gives each instance
    a fresh ``{}`` and leaves no class attribute.  ``__init_subclass__``
    compiles the record's ``__init__`` from these declarations: it takes the
    fields in order and stores them in ``self.__dict__``.  A record that
    checks its fields defines one hook, ``_check(name, value) -> value``,
    which the constructor calls on each argument in field order, storing what
    it returns; a record without one stores its arguments as given.  Where
    the package builds a record whose fields are in range by construction
    (``curve_samples``' points, ``geometry._derive``'s threshold point and
    angle), it skips ``_check``: ``object.__new__`` and a direct write into
    ``__dict__``, which equals what the constructor stores.
    Equality, hashing, repr, ``__match_args__`` and ``FrozenInstanceError``
    on setting or deleting an attribute are those of a frozen dataclass, and
    ``dataclasses.fields``, ``replace`` and ``asdict`` work on records.  The
    package does not import ``dataclasses`` (which imports ``inspect``) until
    a record is introspected that way.
    """

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        names = tuple(vars(cls).get("__annotations__", ()))
        if names:
            defaults = {name: vars(cls)[name] for name in names if name in vars(cls)}
            for name in [name for name in defaults if defaults[name] is _NEW_DICT]:
                delattr(cls, name)
            cls._fields = cls.__match_args__ = names
            cls.__dataclass_fields__ = _DataclassFields(cls, defaults)
            # An attrgetter is no descriptor: ``self._astuple(self)`` is the field tuple.
            cls._astuple = operator.attrgetter(*names)
            cls.__init__ = _compile_init(cls, names, defaults)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._astuple(self) == other._astuple(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._astuple(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        from dataclasses import FrozenInstanceError
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        from dataclasses import FrozenInstanceError
        raise FrozenInstanceError(f"cannot delete field {name!r}")


class ScreeningTest(_Record):
    """An ideal binary screening test, summarized by sensitivity and specificity."""

    sensitivity: float
    specificity: float

    _check = staticmethod(_require_probability)

    @property
    def epsilon(self) -> float:
        """Screening coefficient: sensitivity + specificity, in [0, 2]."""
        return self.sensitivity + self.specificity

    @property
    def false_positive_rate(self) -> float:
        """1 - specificity, the ``c`` of LR+ = a/c: the one place the package computes it."""
        return 1.0 - self.specificity

    def describe(self) -> str:
        return f"sensitivity={self.sensitivity:g} specificity={self.specificity:g}"


class CurvePoint(_Record):
    """One sampled point of the curve.  ``rho`` is None where the value is 0/0."""

    phi: float
    rho: float | None

    @staticmethod
    def _check(name: str, value: float | None) -> float | None:
        return None if value is None and name == "rho" else _require_probability(name, value)

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
    rho = _ppv(test.sensitivity, test.false_positive_rate, phi)
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
    phis = _grid(_require_int("n", n, 2))
    points = []
    for phi, rho in zip(phis, _rhos(test, phis)):
        # The constructor's checks would return phi and rho unchanged (see
        # _grid and _rhos), so they go straight into the fields its __init__ fills.
        point = object.__new__(CurvePoint)
        fields = point.__dict__
        fields["phi"], fields["rho"] = phi, rho
        points.append(point)
    return points
