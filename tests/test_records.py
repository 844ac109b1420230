"""What the compiler's records promise: which compare by value, which by
identity, which are frozen, and that their constructors reject an unknown
keyword."""

import itertools

import pytest

from tydilang.drc import DrcDiagnostic
from tydilang.logical_types import (NULL, BitType, GroupType, StreamProperties,
                                    StreamType, UnionType)
from tydilang.model import Port
from tydilang.values import (ArrayValue, BoolValue, ClockDomainValue, FloatValue,
                             IntValue, StrValue)

# two values of each variant that are equal, and one that differs from both
VALUES = [
    (IntValue(1), IntValue(1), IntValue(2)),
    (StrValue("a"), StrValue("a"), StrValue("b")),
    (FloatValue(1.5), FloatValue(1.5), FloatValue(2.5)),
    (BoolValue(True), BoolValue(True), BoolValue(False)),
    (ClockDomainValue("fast"), ClockDomainValue("fast"), ClockDomainValue("slow")),
    (ArrayValue((IntValue(1), IntValue(2))), ArrayValue((IntValue(1), IntValue(2))),
     ArrayValue((IntValue(2), IntValue(1)))),
]


@pytest.mark.parametrize("a, b, other", VALUES, ids=lambda v: type(v).__name__)
def test_value_equality_and_hash_are_by_value(a, b, other):
    assert a is not b
    assert a == b and not a != b and hash(a) == hash(b)
    assert a != other and not a == other
    assert len({a, b, other}) == 2


def test_values_of_different_variants_are_unequal():
    """Even where the payloads are equal, as 1, True and 1.0 are."""
    traps = [IntValue(1), BoolValue(True), FloatValue(1.0),
             IntValue(0), BoolValue(False), FloatValue(0.0),
             StrValue("fast"), ClockDomainValue("fast"),
             ArrayValue(()), ArrayValue((IntValue(1),))]
    for a, b in itertools.combinations(traps, 2):
        assert a != b and not a == b, (a, b)
    assert len(set(traps)) == len(traps)
    assert IntValue(1) != 1 and StrValue("a") != "a"


def test_bit_types_compare_by_width():
    assert BitType(8) == BitType(8) and hash(BitType(8)) == hash(BitType(8))
    assert BitType(8) != BitType(9) and BitType(8) != NULL
    assert {BitType(8): "x"}[BitType(8)] == "x"


def test_stream_properties_compare_by_every_field():
    base = StreamProperties()
    assert base == StreamProperties() and hash(base) == hash(StreamProperties())
    assert StreamProperties(user=BitType(3)) == StreamProperties(user=BitType(3))
    for field, value in (("dimension", 1), ("user", BitType(1)), ("throughput", 2.0),
                         ("synchronicity", "Desync"), ("complexity", 4),
                         ("direction", "Reverse"), ("keep", True)):
        other = StreamProperties(**{field: value})
        assert other != base and not other == base, field
        assert other == StreamProperties(**{field: value})


def test_groups_unions_and_streams_compare_by_identity():
    fields = (("a", BitType(4)),)
    for make in (lambda: GroupType("g", None, fields),
                 lambda: UnionType("u", None, fields),
                 lambda: StreamType("s", BitType(4))):
        a, b = make(), make()
        assert a == a and hash(a) == hash(a)
        assert a != b and not a == b
        assert len({a, b}) == 2


def test_model_records_compare_by_identity():
    a, b = (Port(name="p", type_ast=None, direction="in") for _ in range(2))
    assert a == a and hash(a) == hash(a)
    assert a != b and not a == b
    assert len({a, b}) == 2 and [a, b].index(b) == 1


FROZEN = [
    (IntValue(1), "value"), (StrValue("a"), "value"), (FloatValue(1.0), "value"),
    (BoolValue(True), "value"), (ClockDomainValue("fast"), "expression"),
    (ArrayValue(()), "elements"), (BitType(1), "width"),
    (GroupType("g", None), "fields"), (UnionType("u", None), "name"),
    (StreamType("s"), "element"), (StreamProperties(), "dimension"),
    (DrcDiagnostic("Error", "R1", "p", "i", "c", "m"), "message"),
]


@pytest.mark.parametrize("record, field", FROZEN, ids=lambda r: type(r).__name__)
def test_frozen_records_refuse_assignment(record, field):
    before = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, before)
    with pytest.raises(AttributeError):
        record.unknown = 1
    assert getattr(record, field) is before


def test_unknown_constructor_keyword_is_a_type_error():
    with pytest.raises(TypeError):
        Port(name="p", type_ast=None, direction="in", widht=1)
    with pytest.raises(TypeError):
        IntValue(valeu=1)
    with pytest.raises(TypeError):
        StreamProperties(dimensoin=1)
