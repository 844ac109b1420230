"""Evaluated logical types: Null, Bit, Group, Union, Stream.

Aliases and template placeholders exist only in the unevaluated (AST) world;
evaluation resolves them away, so the classes here are always concrete.
They are frozen: `type_eval` builds each one once, complete. A group, union
or stream is compared by identity (`==` and `hash` are the object's own), and
that identity is what strict typing compares: every alias, member extraction
and template argument of a declaration passes on the one object the
declaration evaluated to, while a type written in place is a fresh object
each time it is evaluated. `types_compatible` is the structural comparison.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from .errors import TypeError_
from .values import format_float

if TYPE_CHECKING:
    from .model import Scope

SYNCHRONICITY_VALUES = ("Sync", "Flatten", "Desync", "FlatDesync")
DIRECTION_VALUES = ("Forward", "Reverse")


class NullType:
    _instance: Optional["NullType"] = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "NullType()"


NULL = NullType()


@dataclass(frozen=True)
class BitType:
    width: int


@dataclass(frozen=True, eq=False)
class GroupType:
    name: str
    scope: "Scope"
    fields: tuple[tuple[str, "LogicalType"], ...] = ()


@dataclass(frozen=True, eq=False)
class UnionType:
    name: str
    scope: "Scope"
    fields: tuple[tuple[str, "LogicalType"], ...] = ()


@dataclass(frozen=True)
class StreamProperties:
    dimension: int = 0
    user: "LogicalType" = NULL
    throughput: float = 1.0
    synchronicity: str = "Sync"
    complexity: int = 7
    direction: str = "Forward"
    keep: bool = False

    def summary(self) -> str:
        return (f"dimension={self.dimension}, user={data_type_display(self.user)}, "
                f"throughput={format_float(self.throughput)}, "
                f"synchronicity={self.synchronicity}, complexity={self.complexity}, "
                f"direction={self.direction}, keep={'true' if self.keep else 'false'}")


@dataclass(frozen=True, eq=False)
class StreamType:
    name: Optional[str]  # the id this Stream(...) expression was declared under
    element: "LogicalType" = NULL
    properties: StreamProperties = StreamProperties()


LogicalType = object  # NullType | BitType | GroupType | UnionType | StreamType


def bit_width(t: LogicalType) -> int:
    """Null is 0 wide, Group sums its children, Union takes the widest child."""
    if isinstance(t, NullType):
        return 0
    if isinstance(t, BitType):
        return t.width
    if isinstance(t, GroupType):
        return sum(bit_width(ft) for _, ft in t.fields)
    if isinstance(t, UnionType):
        return max((bit_width(ft) for _, ft in t.fields), default=0)
    raise TypeError_("bit_width is undefined for stream types")


def types_compatible(a: LogicalType, b: LogicalType) -> bool:
    """Structural equivalence; child order and names are significant."""
    if isinstance(a, NullType) and isinstance(b, NullType):
        return True
    if isinstance(a, BitType) and isinstance(b, BitType):
        return a.width == b.width
    if type(a) is not type(b):
        return False
    if isinstance(a, (GroupType, UnionType)):
        if len(a.fields) != len(b.fields):
            return False
        return all(an == bn and types_compatible(at, bt)
                   for (an, at), (bn, bt) in zip(a.fields, b.fields))
    pa, pb = a.properties, b.properties  # two StreamTypes
    return (types_compatible(a.element, b.element)
            and pa.dimension == pb.dimension
            and types_compatible(pa.user, pb.user)
            and pa.throughput == pb.throughput
            and pa.synchronicity == pb.synchronicity
            and pa.complexity == pb.complexity
            and pa.direction == pb.direction
            and pa.keep == pb.keep)


def data_type_display(t: LogicalType) -> str:
    """How a type renders in dumps: ``Bit(8)``, ``DataGroup(Date)``, ..."""
    if isinstance(t, NullType):
        return "DataNull"
    if isinstance(t, BitType):
        return f"Bit({t.width})"
    if isinstance(t, GroupType):
        return f"DataGroup({t.name})"
    if isinstance(t, UnionType):
        return f"DataUnion({t.name})"
    return f"Stream({stream_display_name(t)})"


def short_name(t: LogicalType) -> str:
    """How a type renders inside mangled template-instance names."""
    if isinstance(t, NullType):
        return "Null"
    if isinstance(t, BitType):
        return f"Bit({t.width})"
    if isinstance(t, (GroupType, UnionType)):
        return t.name
    return f"Stream({stream_display_name(t)})"


def stream_display_name(t: StreamType) -> str:
    if t.name is not None:
        return t.name
    return short_name(t.element)
