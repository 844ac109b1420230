"""Hierarchy flattening and artifact emission (DOT graph, JSON IR).

Flattening walks the instance tree from a chosen top implementation; every
visited implementation becomes one flat component whose name is the instance
path joined by ``__`` (array elements as ``_AT_<i>`` segments). Connections
at every level become nets between flat components; a wrapper's own port
appears as both an inner and an outer endpoint.

A design instances the same few implementations many times, so `flatten`
analyses each distinct implementation once per call into a *stamp*: its
wrapper flag, its port list (one tuple shared by every copy), its children
as flat-name suffixes (``__inst`` or ``__inst_AT_i``) in sorted instance
order, and its nets with both ends resolved to a port anchor and a slot: the
implementation itself or one of its children. Walking the tree then only
joins each copy's flat name onto the child suffixes; a net takes its ends'
names from those, so a copy's nets and components share their name strings.
A stamp holds each net name escaped for a quoted DOT label (a backslash
before each backslash and double quote), so no copy escapes it again.
`emit_dot` likewise renders each distinct port list's record label once.
Components and nets are exact tuples of strings, a bool and the shared port
tuple, not objects or named tuples: a collection untracks an exact tuple
once its items are untracked, so a large circuit adds nothing to the
collections after it.

`emit_ir` builds its document of dicts and lists and writes the text that
the standard `json` module gives with ``indent=2, sort_keys=True``, but
without the pure-Python generator chain that any indent forces on it:
`_ir_text` appends shared pieces of text to one list and joins it once.
Strings are escaped by `json.encoder`'s C routine; each key's line head
(separator, newline, indent, quoted key) is made once per depth. Ports and
named types hold the `LogicalType` itself, and each type is rendered once
per depth at which it occurs, however many ports use it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii as _quote
from operator import itemgetter
from typing import NamedTuple

from .errors import TydiError
from .logical_types import (BitType, GroupType, NullType, StreamType,
                            UnionType, stream_display_name)
from .model import EndRef, EvalState, Implementation, Port, Project
from .values import escape, format_float


@dataclass
class FlatCircuit:
    top: str
    # (flat name, is wrapper, ports); ports are (display name, anchor) pairs
    components: list[tuple[str, bool, tuple]] = field(default_factory=list)
    # (label, source, source anchor, sink, sink anchor)
    nets: list[tuple[str, str, str, str, str]] = field(default_factory=list)


class _Stamp(NamedTuple):
    """What every flat copy of one implementation shares."""
    is_wrapper: bool
    ports: tuple[tuple[str, str], ...]
    children: tuple[tuple[str, Implementation], ...]  # (name suffix, target)
    # (DOT-escaped connection name, source slot, source anchor, sink slot,
    # sink anchor); slot 0 is the implementation itself, slot k its k-th child
    nets: tuple[tuple[str, int, str, int, str], ...]


def _segment(name: str, index) -> str:
    return name if index is None else f"{name}_AT_{index}"


def _stamp(impl: Implementation) -> _Stamp:
    ports = []
    for pname in sorted(impl.streamlet.ports):
        size = impl.streamlet.ports[pname].array_size
        if size is None:
            ports.append((pname, pname))
        else:
            ports += [(f"{pname}@{i}", f"{pname}_AT_{i}") for i in range(size)]
    children = []
    slots = {}  # (instance name, element index) -> slot
    for inst_name in sorted(impl.instances):
        inst = impl.instances[inst_name]
        for i in [None] if inst.array_size is None else range(inst.array_size):
            children.append(("__" + _segment(inst_name, i), inst.target))
            slots[inst_name, i] = len(children)

    # evaluation checked that every end names an instance element that exists
    def end_point(end: EndRef) -> tuple[int, str]:
        slot = 0 if end.is_self else slots[end.owner_name, end.owner_index]
        return slot, _segment(end.port_name, end.port_index)

    nets = tuple((escape(conn.name),
                  *end_point(conn.source), *end_point(conn.sink))
                 for conn in impl.connections)
    return _Stamp(bool(impl.instances), tuple(ports), tuple(children), nets)


def flatten(project: Project, top_package: str, top_impl: str) -> FlatCircuit:
    impl = project.top_implementation(f"{top_package}.{top_impl}")
    if impl.state is not EvalState.EVALUATED:
        raise TydiError("resolution",
                        f"top implementation {top_impl!r} is not evaluated")
    circuit = FlatCircuit(top=impl.id)
    stamps: dict[int, _Stamp] = {}  # by identity: ids repeat across packages
    components, nets = circuit.components, circuit.nets

    def walk(impl: Implementation, flat_name: str):
        stamp = stamps.get(id(impl))
        if stamp is None:
            stamp = stamps[id(impl)] = _stamp(impl)
        is_wrapper, ports, children, conns = stamp
        components.append((flat_name, is_wrapper, ports))
        names = [flat_name]  # by slot, shared by components and nets
        for suffix, target in children:
            names.append(flat_name + suffix)
            walk(target, names[-1])
        for name, src_slot, src_anchor, sink_slot, sink_anchor in conns:
            src, sink = names[src_slot], names[sink_slot]
            nets.append((f"{name}__{src}::{src_anchor}__{sink}",
                         src, src_anchor, sink, sink_anchor))

    walk(impl, impl.id)
    return circuit


def emit_dot(circuit: FlatCircuit) -> str:
    lines = ["digraph {"]
    tails: dict[tuple, str] = {}  # port list -> end of its record label
    for name, is_wrapper, ports in sorted(circuit.components, key=itemgetter(0)):
        tail = tails.get(ports)
        if tail is None:
            tail = tails[ports] = "".join(
                f"|<{anchor}>{display}" for display, anchor in ports) + '}"];'
        attrs = "color=red, shape=record" if is_wrapper else "shape=record"
        lines.append(f'{name} [{attrs}, label="{{<component>{name}{tail}')
    lines += [f'{src}:{src_anchor} -> {sink}:{sink_anchor} [label="{label}"] ;'
              for label, src, src_anchor, sink, sink_anchor
              in sorted(circuit.nets, key=itemgetter(0))]
    lines.append("}\n")  # no second copy of the text just to end it
    return "\n".join(lines)


# -- structured IR ---------------------------------------------------------------


def _type_json(t):
    if isinstance(t, NullType):
        return {"kind": "null"}
    if isinstance(t, BitType):
        return {"kind": "bit", "width": t.width}
    if isinstance(t, GroupType):
        return {"kind": "group", "name": t.name,
                "fields": [{"name": n, "type": _type_json(ft)} for n, ft in t.fields]}
    if isinstance(t, UnionType):
        return {"kind": "union", "name": t.name,
                "fields": [{"name": n, "type": _type_json(ft)} for n, ft in t.fields]}
    p = t.properties  # a StreamType
    return {
        "kind": "stream",
        "name": stream_display_name(t),
        "element": _type_json(t.element),
        "properties": {
            "dimension": p.dimension,
            "user": _type_json(p.user),
            "throughput": float(format_float(p.throughput)),
            "synchronicity": p.synchronicity,
            "complexity": p.complexity,
            "direction": p.direction,
            "keep": p.keep,
        },
    }


def _port_json(port: Port):
    out = {
        "type": port.logical_type,  # rendered once per depth by _ir_text
        "direction": port.direction,
        "clockdomain": port.clockdomain.expression,
    }
    if port.array_size is not None:
        out["array_size"] = port.array_size
    return out


def _end_json(end: EndRef):
    out = {"owner": end.owner_name, "port": end.port_name}
    if end.owner_index is not None:
        out["owner_index"] = end.owner_index
    if end.port_index is not None:
        out["port_index"] = end.port_index
    return out


def emit_ir(project: Project) -> str:
    """Serialize every evaluated streamlet, implementation and named type."""
    packages = {}
    for pkg_name, package in project.packages.items():
        scope = package.scope
        types = {tid: e.evaluated for tid, e in scope.types.items()
                 if e.state is EvalState.EVALUATED}
        streamlets = {}
        for sid, s in scope.streamlets.items():
            if s.state is not EvalState.EVALUATED:
                continue
            entry = {"ports": {p.name: _port_json(p) for p in s.ports.values()}}
            if s.doc:
                entry["doc"] = s.doc
            streamlets[sid] = entry
        implementations = {}
        for iid, impl in scope.implements.items():
            if impl.state is not EvalState.EVALUATED:
                continue
            entry = {
                "streamlet": impl.streamlet.id,
                "external": impl.external,
                "instances": {
                    inst.name: ({"target": inst.target.id, "array_size": inst.array_size}
                                if inst.array_size is not None
                                else {"target": inst.target.id})
                    for inst in impl.instances.values()
                },
                "connections": [
                    {
                        "name": c.name,
                        "source": _end_json(c.source),
                        "sink": _end_json(c.sink),
                        "fifo_depth": c.fifo_depth,
                        "no_strict_type": c.no_strict,
                    }
                    for c in impl.connections
                ],
            }
            if impl.doc:
                entry["doc"] = impl.doc
            implementations[iid] = entry
        packages[pkg_name] = {
            "types": types,
            "streamlets": streamlets,
            "implementations": implementations,
        }
    return _ir_text({"project": project.name, "packages": packages})


_LOGICAL_TYPES = (NullType, BitType, GroupType, UnionType, StreamType)
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}  # as json


class _Level:
    """The text shared by every container at one depth of the document."""
    __slots__ = ("inner", "heads", "types", "open_list", "next_item",
                 "close_dict", "close_list")

    def __init__(self, depth: int):
        pad = "\n" + "  " * depth
        self.inner = pad + "  "  # starts each line of a member
        self.heads: dict[str, tuple[str, str]] = {}  # key -> (later, first)
        self.types: dict[object, str] = {}  # type -> its text at this depth
        self.open_list, self.next_item = "[" + self.inner, "," + self.inner
        self.close_dict, self.close_list = pad + "}", pad + "]"


class _Levels(dict):
    def __missing__(self, depth: int) -> _Level:
        level = self[depth] = _Level(depth)
        return level


def _ir_text(doc: dict) -> str:
    """The `json` text of `doc` with ``indent=2, sort_keys=True``, plus a
    newline. `doc` holds dicts with string keys, lists, strings, numbers,
    booleans, None and logical types (each written as its `_type_json`)."""
    out: list[str] = []
    _write(out, _Levels(), doc, 0)
    out.append("\n")
    return "".join(out)


def _write(out: list[str], levels: _Levels, value, depth: int) -> None:
    if isinstance(value, str):
        out.append(_quote(value))
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        level = levels[depth]
        heads = level.heads
        first = True
        for key in sorted(value):
            head = heads.get(key)
            if head is None:
                line = f"{level.inner}{_quote(key)}: "
                head = heads[key] = ("," + line, "{" + line)
            out.append(head[first])
            _write(out, levels, value[key], depth + 1)
            first = False
        out.append(level.close_dict)
    elif isinstance(value, _LOGICAL_TYPES):
        memo = levels[depth].types
        text = memo.get(value)
        if text is None:
            start = len(out)
            _write(out, levels, _type_json(value), depth)
            text = memo[value] = "".join(out[start:])
            del out[start:]
        out.append(text)
    elif isinstance(value, list):
        if not value:
            out.append("[]")
            return
        level = levels[depth]
        sep = level.open_list
        for item in value:
            out.append(sep)
            _write(out, levels, item, depth + 1)
            sep = level.next_item
        out.append(level.close_list)
    elif value is None:
        out.append("null")
    elif value is True:  # before int: bool is an int
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    else:  # a float
        text = float.__repr__(value)
        out.append(_NON_FINITE.get(text, text))

