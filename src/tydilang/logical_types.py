"""Evaluated logical types: Null, Bit, Group, Union, Stream.

Aliases and template placeholders exist only in the unevaluated (AST) world;
evaluation resolves them away, so the classes here are always concrete.
They are frozen: `type_eval` builds each one once, complete. A `BitType`
and a `StreamProperties` compare and hash by their fields. A group, union
or stream is compared by identity (`==` and `hash` are the object's own), and
that identity is what strict typing compares: every alias, member extraction
and template argument of a declaration passes on the one object the
declaration evaluated to, while a type written in place is a fresh object
each time it is evaluated. `types_compatible` is the structural comparison.

`STREAM_PROPERTIES` lists the seven Tydi-spec stream properties once, in
dump order, as the letter a `Stream(...)` sets each by, the AST node kind
the parser makes of it and the `StreamProperties` field it evaluates to.
The parser, evaluator, dumps, IR and `types_compatible` derive theirs from it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from .errors import TydiError
from .values import ByValue, Frozen, set_field

if TYPE_CHECKING:
    from .model import Scope

STREAM_PROPERTIES = (
    ("d", "StreamPropertyDimension", "dimension"),
    ("u", "StreamPropertyUser", "user"),
    ("t", "StreamPropertyThroughput", "throughput"),
    ("s", "StreamPropertySynchronicity", "synchronicity"),
    ("c", "StreamPropertyComplexity", "complexity"),
    ("r", "StreamPropertyDirection", "direction"),
    ("x", "StreamPropertyKeep", "keep"),
)
SYNCHRONICITY_VALUES = ("Sync", "Flatten", "Desync", "FlatDesync")
DIRECTION_VALUES = ("Forward", "Reverse")


class NullType:
    pass


NULL = NullType()


class BitType(ByValue):
    def __init__(self, width: int):
        set_field(self, "width", width)


class _Compound(Frozen):
    """A group or union: its declared name, inner scope and fields in order."""

    def __init__(self, name: str, scope: "Scope", fields: tuple = ()):
        set_field(self, "name", name)
        set_field(self, "scope", scope)
        set_field(self, "fields", fields)  # ((name, LogicalType), ...)


class GroupType(_Compound):
    """A group holds all its fields at once."""


class UnionType(_Compound):
    """A union holds one of its fields at a time."""


class StreamProperties(ByValue):
    def __init__(self, dimension: int = 0, user: "LogicalType" = NULL,
                 throughput: float = 1.0, synchronicity: str = "Sync",
                 complexity: int = 7, direction: str = "Forward", keep: bool = False):
        set_field(self, "dimension", dimension)
        set_field(self, "user", user)
        set_field(self, "throughput", throughput)
        set_field(self, "synchronicity", synchronicity)
        set_field(self, "complexity", complexity)
        set_field(self, "direction", direction)
        set_field(self, "keep", keep)


class StreamType(Frozen):
    def __init__(self, name: Optional[str], element: "LogicalType" = NULL,
                 properties: StreamProperties = StreamProperties()):
        set_field(self, "name", name)  # the id this Stream(...) was declared under
        set_field(self, "element", element)
        set_field(self, "properties", properties)


LogicalType = object  # NullType | BitType | GroupType | UnionType | StreamType


def bit_width(t: LogicalType) -> int:
    """Null is 0 wide, Group sums its children, Union takes the widest child.
    Two loops over the types inside `t`, so a deep type takes no deep stack."""
    inside = [t]  # each type after the group or union that holds it
    for t in inside:
        if isinstance(t, (GroupType, UnionType)):
            inside += [ft for _, ft in t.fields]
        elif not isinstance(t, (NullType, BitType)):
            raise TydiError("type", "bit_width is undefined for stream types")
    widths = {}  # id of each type -> its width, children before parents
    for t in reversed(inside):
        fields = [widths[id(ft)] for _, ft in getattr(t, "fields", ())]
        if isinstance(t, BitType):
            widths[id(t)] = t.width
        elif isinstance(t, GroupType):
            widths[id(t)] = sum(fields)
        else:  # a union, or Null, which has no fields
            widths[id(t)] = max(fields, default=0)
    return widths[id(inside[0])]


def types_compatible(a: LogicalType, b: LogicalType) -> bool:
    """Structural equivalence; child order and names are significant. A loop
    over the pairs left to compare, so a deep type takes no deep stack."""
    pairs = [(a, b)]
    while pairs:
        a, b = pairs.pop()
        if type(a) is not type(b) or isinstance(a, BitType) and a.width != b.width:
            return False
        if isinstance(a, (GroupType, UnionType)):
            if [name for name, _ in a.fields] != [name for name, _ in b.fields]:
                return False
            pairs += [(at, bt) for (_, at), (_, bt) in zip(a.fields, b.fields)]
        elif isinstance(a, StreamType):
            pa, pb = a.properties, b.properties
            if any(getattr(pa, field) != getattr(pb, field)
                   for _, _, field in STREAM_PROPERTIES if field != "user"):
                return False
            pairs += [(a.element, b.element), (pa.user, pb.user)]
    return True


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
