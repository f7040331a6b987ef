"""The frozen-record contract of the library's value classes.

Each class is built on `errors.Record`. The repr strings below are those the
classes printed as frozen dataclasses, which the records must keep.
"""

import copy
import importlib
import pickle

import pytest

from rmarith.cmrm import RMTriple
from rmarith.contfrac import BratteliBlockSequence, ContinuedFraction, QuadraticIrrational
from rmarith.errors import InvalidDiscriminant, Record
from rmarith.heights import ProjectivePoint, VarietyProfile
from rmarith.latimer import IntegerMatrix, ShaReport, SimilarityClassification
from rmarith.quadforms import BinaryQuadraticForm, ClassGroupStructure, QuadraticOrder

M = IntegerMatrix(((2, 1), (1, 1)))
CL2 = ClassGroupStructure((2,))

# class -> (positional arguments, field names, repr of the built value)
CASES = {
    BinaryQuadraticForm: ((1, 1, 6), ("a", "b", "c"), "BinaryQuadraticForm(a=1, b=1, c=6)"),
    QuadraticOrder: ((5, 3), ("d_k", "f"), "QuadraticOrder(d_k=5, f=3)"),
    ClassGroupStructure: (
        ((2, 3), 6),
        ("elementary_divisors", "h"),
        "ClassGroupStructure(elementary_divisors=(6,), h=6)",
    ),
    QuadraticIrrational: ((1, 2, 5), ("p", "q", "d"), "QuadraticIrrational(1, 2, 5)"),
    ContinuedFraction: (
        ((1, 2, 2), (2, 2)),
        ("preperiod", "period"),
        "ContinuedFraction(preperiod=(1,), period=(2,))",
    ),
    BratteliBlockSequence: (
        ((((1, 1), (1, 0)), ((2, 1), (1, 0))), 1),
        ("blocks", "periodic_tail_start"),
        "BratteliBlockSequence(blocks=(((1, 1), (1, 0)), ((2, 1), (1, 0))), periodic_tail_start=1)",
    ),
    ProjectivePoint: (((2, -4, 6),), ("coordinates",), "ProjectivePoint(coordinates=(1, -2, 3))"),
    VarietyProfile: (
        (1, (1, 2, 1), 2, 1),
        ("n", "betti", "rank_k0", "m"),
        "VarietyProfile(n=1, betti=(1, 2, 1), rank_k0=2, m=1)",
    ),
    IntegerMatrix: ((((2, 1), (1, 1)),), ("entries",), "IntegerMatrix(entries=((2, 1), (1, 1)))"),
    SimilarityClassification: (
        ((1, -3, 1), 2, ((M,),)),
        ("polynomial", "entry_bound", "classes"),
        "SimilarityClassification(polynomial=(1, -3, 1), entry_bound=2, "
        "classes=((IntegerMatrix(entries=((2, 1), (1, 1))),),))",
    ),
    ShaReport: (
        (1, CL2, (2,), 2),
        ("k", "cl", "sha_divisors", "sha_order"),
        "ShaReport(k=1, cl=ClassGroupStructure(elementary_divisors=(2,), h=2), "
        "sha_divisors=(2,), sha_order=2)",
    ),
    RMTriple: (
        (QuadraticOrder(5), (BinaryQuadraticForm(1, 1, -1),), 5),
        ("order", "ideal_classes", "field_discriminant"),
        "RMTriple(order=QuadraticOrder(d_k=5, f=1), "
        "ideal_classes=(BinaryQuadraticForm(a=1, b=1, c=-1),), field_discriminant=5)",
    ),
}
params = pytest.mark.parametrize("cls", list(CASES), ids=lambda cls: cls.__name__)


def build(cls):
    return cls(*CASES[cls][0])


def test_every_value_class_is_covered():
    modules = {cls.__module__ for cls in CASES}
    found = {
        value
        for name in modules
        for value in vars(importlib.import_module(name)).values()
        if isinstance(value, type) and issubclass(value, Record) and value is not Record
    }
    assert found == set(CASES)


@params
def test_positional_and_keyword_construction_agree(cls):
    args, fields, shown = CASES[cls]
    value = build(cls)
    assert repr(value) == shown
    assert cls(**dict(zip(fields, args))) == value
    assert tuple(cls.__annotations__) == fields


def test_class_level_defaults():
    assert QuadraticOrder(5) == QuadraticOrder(5, 1)
    assert ClassGroupStructure((6,)).h == 6
    assert VarietyProfile(1, (1, 2, 1), 2).m is None
    assert repr(VarietyProfile(1, [1, 2, 1], 2)) == "VarietyProfile(n=1, betti=(1, 2, 1), rank_k0=2, m=None)"


def test_post_init_normalises():
    assert repr(ClassGroupStructure((4, 2))) == "ClassGroupStructure(elementary_divisors=(2, 4), h=8)"
    assert repr(ClassGroupStructure((1, 6, 1))) == "ClassGroupStructure(elementary_divisors=(6,), h=6)"
    x = QuadraticIrrational(1, 3, 5)
    assert (x.p, x.q, x.d) == (3, 9, 45)
    assert repr(x) == "QuadraticIrrational(3, 9, 45)"
    assert (QuadraticIrrational(1, 2, 5).p, QuadraticIrrational(1, 2, 5).q) == (1, 2)
    assert repr(ContinuedFraction((1,), (2, 2, 2))) == "ContinuedFraction(preperiod=(1,), period=(2,))"
    assert repr(ContinuedFraction((1, 2, 3, 2, 3), (2, 3))) == (
        "ContinuedFraction(preperiod=(1,), period=(2, 3))"
    )
    assert repr(ProjectivePoint((0, -3, 6))) == "ProjectivePoint(coordinates=(0, 1, -2))"
    assert IntegerMatrix([[2, 1], [1, 1]]) == M
    with pytest.raises(ValueError):
        QuadraticOrder(5, 0)
    with pytest.raises(ValueError):
        ClassGroupStructure((2,), 3)
    with pytest.raises(ValueError, match="divisors must be positive"):
        ClassGroupStructure((2, -3))


@params
def test_wrong_arguments_raise_type_error(cls):
    args, fields, _ = CASES[cls]
    with pytest.raises(TypeError):
        cls(*args, None)
    with pytest.raises(TypeError):
        cls(*args, no_such_field=1)
    with pytest.raises(TypeError):
        cls()


def test_type_error_messages_name_the_class():
    with pytest.raises(TypeError, match=r"^BinaryQuadraticForm.__init__\(\) missing 1 required positional argument: 'c'$"):
        BinaryQuadraticForm(1, 2)
    with pytest.raises(TypeError, match=r"unexpected keyword argument 'd'$"):
        BinaryQuadraticForm(1, 2, d=3)


@params
def test_frozen(cls):
    value = build(cls)
    field = CASES[cls][1][0]
    with pytest.raises(AttributeError):
        setattr(value, field, 0)
    with pytest.raises(AttributeError):
        value.extra = 0
    with pytest.raises(AttributeError):
        delattr(value, field)
    assert repr(value) == CASES[cls][2]


@params
def test_equality_within_one_class(cls):
    args, _, _ = CASES[cls]
    value, again = build(cls), build(cls)
    assert value == again and not value != again
    assert hash(value) == hash(again)
    assert value != args and value != tuple(vars(value).values())
    assert all(value != build(other) for other in CASES if other is not cls)


def test_fields_take_part_in_equality():
    assert BinaryQuadraticForm(1, 1, 6) != BinaryQuadraticForm(1, -1, 6)
    assert BinaryQuadraticForm(1, 1, 6) != (1, 1, 6)
    assert QuadraticOrder(5, 1) != QuadraticOrder(5, 2)
    assert len({BinaryQuadraticForm(1, 1, 6), BinaryQuadraticForm(1, 1, 6), BinaryQuadraticForm(2, 1, 3)}) == 2

    class Twin(Record):
        a: int
        b: int
        c: int

    assert BinaryQuadraticForm(1, 1, 6) != Twin(1, 1, 6)
    assert repr(Twin(1, 1, 6)) == "test_fields_take_part_in_equality.<locals>.Twin(a=1, b=1, c=6)"
    # QuadraticIrrational keeps its own value equality and hash
    assert QuadraticIrrational(1, 3, 5) == QuadraticIrrational(3, 9, 45)
    assert hash(QuadraticIrrational(1, 3, 5)) == hash(QuadraticIrrational(3, 9, 45))


@params
def test_copy_and_pickle_round_trips(cls):
    value = build(cls)
    for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(twin) is cls
        assert twin == value and hash(twin) == hash(value)
        assert repr(twin) == CASES[cls][2]
        with pytest.raises(AttributeError):
            setattr(twin, CASES[cls][1][0], 0)


def test_trusted_construction_skips_the_checks():
    # for values the library has just computed: same record, no __post_init__
    order = QuadraticOrder._trusted(5, 3)
    assert type(order) is QuadraticOrder and order == QuadraticOrder(5, 3)
    assert hash(order) == hash(QuadraticOrder(5, 3)) and repr(order) == CASES[QuadraticOrder][2]
    with pytest.raises(AttributeError):
        order.f = 1
    triple = RMTriple._trusted(order, (BinaryQuadraticForm(1, 1, -1),), 5)
    assert triple.order is order and triple.field_discriminant == 5
    # every field is given: a default is not filled in
    with pytest.raises(TypeError, match=r"takes 2 fields, got 1"):
        QuadraticOrder._trusted(5)
    with pytest.raises(TypeError, match=r"takes 3 fields, got 4"):
        RMTriple._trusted(order, (), 5, 1)
    # the public constructors keep their checks
    assert QuadraticOrder._trusted(45, 1).d_k == 45
    with pytest.raises(InvalidDiscriminant):
        QuadraticOrder(45, 1)
    with pytest.raises(ValueError, match="representatives for class number"):
        RMTriple(order, (), 5)
