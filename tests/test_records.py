"""The frozen records against reference frozen dataclasses of the same fields.

Each reference is built here with ``dataclasses`` from the field list written
below, so the oracle does not depend on how the package defines its records.
"""

import copy
import dataclasses
import pickle
from dataclasses import MISSING

import pytest

from screencurve import (
    BetaGeometry,
    CatalogEntry,
    ChordLine,
    ChordPair,
    CohortResult,
    ComparisonReport,
    CurvePoint,
    EmpiricalPoint,
    MetricOrdering,
    PlotSpec,
    ScreeningTest,
    ThresholdPoint,
)
from screencurve import TestReport as Report  # not a test class

TEST = ScreeningTest(0.9, 0.8)
THRESHOLD = ThresholdPoint(0.25, 0.5)
BETA = BetaGeometry(0.5, 0.6, 1.2)
REPORT = Report(TEST, 1.7, 4.5, THRESHOLD, BETA, ChordLine(0.5, 0.5), 0.8, {})
ORDER = MetricOrdering("first", -0.25)
ENTRY = CatalogEntry("A", TEST)
COHORT = CohortResult(100, 7, 20, 10, 60, 10, 2 / 3, 3.0)
FACTORY = dataclasses.field(default_factory=dict)

#: Each record with its fields as (name, annotation, default) and two valid
#: argument tuples that differ.
RECORDS = [
    (ScreeningTest, [("sensitivity", "float", MISSING), ("specificity", "float", MISSING)],
     (0.9, 0.8), (0.9, 0.7)),
    (CurvePoint, [("phi", "float", MISSING), ("rho", "float | None", MISSING)],
     (0.5, 0.75), (0.5, None)),
    (ThresholdPoint, [("phi_e", "float", MISSING), ("rho_e", "float", MISSING)],
     (0.25, 0.5), (0.25, 0.625)),
    (BetaGeometry,
     [("beta_rad", "float", MISSING), ("psi", "float", MISSING), ("origin_slope", "float", MISSING)],
     (0.5, 0.6, 1.2), (0.75, 0.6, 1.2)),
    (ChordPair,
     [("at_phi", "float", MISSING), ("slope_origin", "float", MISSING),
      ("slope_endpoint", "float", MISSING)],
     (0.5, 1.5, 0.5), (0.5, 1.5, 0.25)),
    (Report,
     [("test", "ScreeningTest", MISSING), ("epsilon", "float", MISSING),
      ("lr_plus", "float | None", MISSING), ("threshold", "ThresholdPoint | None", MISSING),
      ("beta", "BetaGeometry | None", MISSING), ("endpoint_chord", "ChordLine | None", MISSING),
      ("auc", "float | None", MISSING), ("absent_reasons", "Mapping[str, str]", FACTORY)],
     (TEST, 1.7, 4.5, THRESHOLD, BETA, ChordLine(0.5, 0.5), 0.8, {}),
     (TEST, 1.7, None, None, None, None, None, {"lr_plus": "undefined"})),
    (MetricOrdering,
     [("winner", "Literal['first', 'second', 'tie']", MISSING), ("difference", "float", MISSING)],
     ("first", -0.25), ("tie", 0.0)),
    (ComparisonReport,
     [("first", "TestReport", MISSING), ("second", "TestReport", MISSING),
      ("equal_epsilon", "bool", MISSING), ("epsilon_difference", "float", MISSING),
      ("dominant", "Literal['first', 'second', 'neither']", MISSING),
      ("beta_order", "MetricOrdering", MISSING), ("auc_order", "MetricOrdering", MISSING)],
     (REPORT, REPORT, True, 0.0, "neither", ORDER, ORDER),
     (REPORT, REPORT, False, 0.0, "neither", ORDER, ORDER)),
    (CatalogEntry, [("name", "str", MISSING), ("test", "ScreeningTest", MISSING)],
     ("A", TEST), ("B", TEST)),
    (CohortResult,
     [("n", "int", MISSING), ("seed", "int", MISSING), ("true_pos", "int", MISSING),
      ("false_pos", "int", MISSING), ("true_neg", "int", MISSING), ("false_neg", "int", MISSING),
      ("empirical_ppv", "float | None", MISSING), ("empirical_lr_plus", "float | None", MISSING),
      ("ppv_reason", "str | None", None), ("lr_reason", "str | None", None)],
     (100, 7, 20, 10, 60, 10, 2 / 3, 3.0, None, None),
     (100, 7, 0, 0, 70, 30, None, None, "no positives", "no positives")),
    (EmpiricalPoint,
     [("phi", "float", MISSING), ("ppv", "float | None", MISSING),
      ("reason", "str | None", MISSING), ("cohort", "CohortResult", MISSING)],
     (0.3, 2 / 3, None, COHORT), (0.3, None, "no positives", COHORT)),
    (PlotSpec,
     [("entries", "tuple[CatalogEntry, ...]", MISSING), ("samples", "int", 257),
      ("show_threshold", "bool", False), ("show_beta", "bool", False),
      ("show_chords", "bool", False), ("width_px", "int", 640), ("height_px", "int", 640)],
     ((ENTRY,), 101, True, False, True, 400, 300), ((ENTRY,), 257, False, False, False, 640, 640)),
]


@pytest.fixture(params=RECORDS, ids=[record[0].__name__ for record in RECORDS])
def record(request):
    """(record class, reference dataclass, field names, two argument tuples)."""
    cls, fields, args, other = request.param
    specs = [(name, kind, dataclasses.field(default=default) if default is not FACTORY else default)
             for name, kind, default in fields]
    reference = dataclasses.make_dataclass(cls.__name__, specs, frozen=True)
    reference.__qualname__ = cls.__qualname__
    return cls, reference, tuple(name for name, _, _ in fields), args, other


def outcome(call):
    """What ``call()`` returns, or the type and text of what it raises."""
    try:
        return call()
    except Exception as exc:
        return type(exc), str(exc)


def field_table(fields):
    return [(f.name, f.type, f.default, f.default_factory, f.init, f.repr, f.hash, f.compare,
             f.kw_only, dict(f.metadata)) for f in fields]


def test_equality_hash_and_repr_are_the_references(record):
    cls, reference, _, args, other = record
    for left, right in ((args, args), (args, other), (other, args)):
        assert (cls(*left) == cls(*right)) == (reference(*left) == reference(*right))
        assert (cls(*left) != cls(*right)) == (reference(*left) != reference(*right))
    assert cls(*args) != reference(*args)
    # Equal fields in a subclass are not equal, as the class must match exactly.
    assert type("Derived", (reference,), {})(*args) != reference(*args)
    assert type("Derived", (cls,), {})(*args) != cls(*args)
    assert cls(*args).__eq__(args) is NotImplemented
    assert outcome(lambda: hash(cls(*args))) == outcome(lambda: hash(reference(*args)))
    assert repr(cls(*args)) == repr(reference(*args))
    assert repr(cls(*other)) == repr(reference(*other))


def test_fields_are_the_references(record):
    cls, reference, names, args, _ = record
    expected = field_table(dataclasses.fields(reference))
    assert field_table(dataclasses.fields(cls)) == expected
    assert field_table(dataclasses.fields(cls(*args))) == expected
    assert [field.name for field in dataclasses.fields(cls)] == list(names)
    assert dataclasses.is_dataclass(cls) and dataclasses.is_dataclass(cls(*args))
    assert cls.__match_args__ == reference.__match_args__ == names


def test_defaults_are_the_references(record):
    cls, reference, names, args, _ = record
    required = len([f for f in dataclasses.fields(reference)
                    if f.default is MISSING and f.default_factory is MISSING])
    assert repr(cls(*args[:required])) == repr(reference(*args[:required]))
    # A default is a class attribute; a default_factory field leaves none.
    for name in names:
        assert getattr(cls, name, MISSING) == getattr(reference, name, MISSING), name


def test_fields_can_be_neither_set_nor_deleted(record):
    cls, _, names, args, _ = record
    value = cls(*args)
    for name in (names[0], "other"):
        with pytest.raises(dataclasses.FrozenInstanceError, match=f"cannot assign to field '{name}'"):
            setattr(value, name, args[0])
        with pytest.raises(dataclasses.FrozenInstanceError, match=f"cannot delete field '{name}'"):
            delattr(value, name)
    assert repr(value) == repr(cls(*args))


def test_replace_asdict_pickle_and_deepcopy_round_trip(record):
    cls, reference, names, args, other = record
    value = cls(*args)
    assert dataclasses.replace(value) == value
    changed = dict(zip(names, other))
    assert dataclasses.replace(value, **changed) == cls(*other) == cls(**changed)
    assert dataclasses.asdict(value) == dataclasses.asdict(reference(*args))
    assert dataclasses.astuple(value) == dataclasses.astuple(reference(*args))
    for copied in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value), copy.copy(value)):
        assert type(copied) is cls and copied == value and repr(copied) == repr(value)


def test_match_takes_the_fields_in_order(record):
    cls, _, _, args, _ = record
    match cls(*args):
        case cls(first, second):
            assert (first, second) == args[:2]
        case _:
            pytest.fail("no match")


def test_bad_arguments_raise_the_references_type_error(record):
    cls, reference, names, args, _ = record
    calls = [
        lambda kind: kind(),
        lambda kind: kind(*args, *args),
        lambda kind: kind(*args, **{names[0]: args[0]}),
        lambda kind: kind(*args, unknown=1),
    ]
    for call in calls:
        expected = outcome(lambda: call(reference))
        assert expected[0] is TypeError
        assert outcome(lambda: call(cls)) == expected


def test_each_report_gets_its_own_reasons():
    first = Report(TEST, 1.7, 4.5, THRESHOLD, BETA, ChordLine(0.5, 0.5), 0.8)
    second = Report(TEST, 1.7, 4.5, THRESHOLD, BETA, ChordLine(0.5, 0.5), 0.8)
    assert first.absent_reasons == {} and first.absent_reasons is not second.absent_reasons
