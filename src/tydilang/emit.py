"""Hierarchy flattening and artifact emission (DOT graph, JSON IR).

Flattening walks the instance tree from a chosen top implementation; every
visited implementation becomes one flat component whose name is the instance
path joined by ``__`` (array elements as ``_AT_<i>`` segments). Connections
at every level become nets between flat components; a wrapper's own port
appears as both an inner and an outer endpoint.

A design instances the same few implementations many times, so `flatten`
renders each distinct implementation once per call into a *stamp* of text:
the two pieces of its component line around the flat name (record
attributes, then the port cells), its children as flat-name suffixes
(``__inst`` or ``__inst_AT_i``) in sorted instance order, and for each net
five fragments: the DOT-escaped connection name (a backslash before each
backslash and double quote) with its ``__``, and the ends' suffixes and
anchors with the punctuation between them. A copy then costs one f-string
per component and two per net, its label and its line, each joining the
copy's flat name onto the stamp's fragments. `FlatCircuit` holds the flat
names and the net labels, the sort keys, beside two parallel lists of the
lines; all four hold only strings, so a circuit adds nothing to the
collector's lists. `emit_dot` sorts index lists by key, which keeps equal
keys in walk order, and joins the lines once. A stamp refuses a port list
whose record anchors repeat, and `emit_dot` two components of one flat name:
either would merge in the DOT.

`emit_ir` writes what `json.dumps` gives with ``indent=2, sort_keys=True``,
without the pure-Python generator chain that any indent forces on `json`, in
two tiers. The records that grow with a design (connections with their ends,
instances, ports) are one f-string each at their fixed depth; `_ir_text`
writes the dicts and lists around them into one list, copying that text and
making each key's line head once per depth. Strings are escaped by `json`'s C
routine; a logical type is rendered once per depth, however many ports use it.
"""

from __future__ import annotations

from json.encoder import encode_basestring_ascii as _quote

from .errors import TydiError
from .logical_types import (STREAM_PROPERTIES, BitType, GroupType, NullType,
                            StreamType, UnionType, stream_display_name)
from .model import EndRef, EvalState, Implementation, Port, Project
from .values import escape


class FlatCircuit:
    def __init__(self, top):
        self.top: Implementation = top
        self.components: list[str] = []  # flat names
        self.component_lines: list[str] = []
        self.nets: list[str] = []  # labels
        self.net_lines: list[str] = []


def _segment(name: str, index) -> str:
    return name if index is None else f"{name}_AT_{index}"


def _stamp(impl: Implementation) -> tuple:
    """The text every flat copy of `impl` shares: its component line after
    the first and after the second flat name, its children as (flat-name
    suffix, target), and each net as the five fragments that `_walk` joins
    a copy's flat name onto; ``src``/``sink`` below are the suffixes of the
    ends (empty for the implementation's own ports)."""
    streamlet = impl.streamlet
    cells = []
    givers = {"component": None}  # anchor -> the port that gives it
    for pname in sorted(streamlet.ports):
        port = streamlet.ports[pname]
        for display, anchor in ([(pname, pname)] if port.array_size is None else
                                [(f"{pname}@{i}", f"{pname}_AT_{i}")
                                 for i in range(port.array_size)]):
            if anchor in givers:
                other = givers[anchor]
                raise TydiError(
                    "resolution", f"port {pname!r} of streamlet {streamlet.id!r} "
                    f"gives the DOT record anchor {anchor!r}, as " +
                    ("the component itself" if other is None else f"port {other!r}")
                    + " does", streamlet.scope.package.path, port.span)
            givers[anchor] = pname
            cells.append(f"|<{anchor}>{display}")
    attrs = "color=red, shape=record" if impl.instances else "shape=record"
    children = []
    suffixes = {}  # (instance name, element index) -> flat-name suffix
    for inst_name in sorted(impl.instances):
        inst = impl.instances[inst_name]
        for i in [None] if inst.array_size is None else range(inst.array_size):
            suffix = suffixes[inst_name, i] = "__" + _segment(inst_name, i)
            children.append((suffix, inst.target))

    # evaluation checked that every end names an instance element that exists
    def end_point(end: EndRef) -> tuple[str, str]:
        suffix = "" if end.is_self else suffixes[end.owner_name, end.owner_index]
        return suffix, _segment(end.port_name, end.port_index)

    nets = []
    for conn in impl.connections:
        src, src_anchor = end_point(conn.source)
        sink, sink_anchor = end_point(conn.sink)
        nets.append((escape(conn.name) + "__", f"{src}::{src_anchor}__", sink,
                     f"{src}:{src_anchor} -> ", f'{sink}:{sink_anchor} [label="'))
    return (f' [{attrs}, label="{{<component>', "".join(cells) + '}"];',
            children, nets)


def _walk(circuit: FlatCircuit, stamps: dict, impl: Implementation,
          flat_name: str) -> None:
    stamp = stamps.get(id(impl))
    if stamp is None:
        stamp = stamps[id(impl)] = _stamp(impl)
    head, tail, children, nets = stamp
    circuit.components.append(flat_name)
    circuit.component_lines.append(f"{flat_name}{head}{flat_name}{tail}")
    for suffix, target in children:
        _walk(circuit, stamps, target, flat_name + suffix)
    labels, lines = circuit.nets, circuit.net_lines
    for name, src, sink, arrow, label_head in nets:
        label = f"{name}{flat_name}{src}{flat_name}{sink}"
        labels.append(label)
        lines.append(f'{flat_name}{arrow}{flat_name}{label_head}{label}"] ;')


def flatten(project: Project, top_package: str, top_impl: str) -> FlatCircuit:
    impl = project.top_implementation(f"{top_package}.{top_impl}")
    if impl.state is not EvalState.EVALUATED:
        raise TydiError("resolution",
                        f"top implementation {top_impl!r} is not evaluated")
    circuit = FlatCircuit(impl)
    _walk(circuit, {}, impl, impl.id)  # stamps by identity: ids repeat across packages
    return circuit


def emit_dot(circuit: FlatCircuit) -> str:
    names, labels = circuit.components, circuit.nets
    order = sorted(range(len(names)), key=names.__getitem__)
    for i, j in zip(order, order[1:]):
        if names[i] == names[j]:
            top = circuit.top
            raise TydiError("resolution", f"two components of {top.id!r} flatten "
                            f"to the name {names[i]!r}", top.scope.package.path,
                            top.span)
    return "\n".join(["digraph {", *map(circuit.component_lines.__getitem__, order),
                      *map(circuit.net_lines.__getitem__,
                           sorted(range(len(labels)), key=labels.__getitem__)),
                      "}\n"])


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
    properties = {field: getattr(p, field) for _, _, field in STREAM_PROPERTIES}
    properties["user"] = _type_json(p.user)
    return {
        "kind": "stream",
        "name": stream_display_name(t),
        "element": _type_json(t.element),
        "properties": properties,
    }


def emit_ir(project: Project) -> str:
    """Serialize every evaluated streamlet, implementation and named type."""
    levels = _Levels()
    packages = {}
    for pkg_name, package in project.packages.items():
        scope = package.scope
        types = {tid: e.evaluated for tid, e in scope.types.items()
                 if e.state is EvalState.EVALUATED}
        streamlets = {}
        for sid, s in scope.streamlets.items():
            if s.state is not EvalState.EVALUATED:
                continue
            entry = {"ports": _records("{}", [_port_text(levels, *p)
                                              for p in sorted(s.ports.items())])}
            if s.doc:
                entry["doc"] = s.doc
            streamlets[sid] = entry
        implementations = {}
        for iid, impl in scope.implements.items():
            if impl.state is not EvalState.EVALUATED:
                continue
            instances = sorted(impl.instances.items())
            entry = {
                "streamlet": impl.streamlet.id,
                "external": impl.external,
                "instances": _records("{}", [_instance_text(*i) for i in instances]),
                "connections": _records("[]", [_conn_text(c) for c in impl.connections]),
            }
            if impl.doc:
                entry["doc"] = impl.doc
            implementations[iid] = entry
        packages[pkg_name] = {
            "types": types,
            "streamlets": streamlets,
            "implementations": implementations,
        }
    return _ir_text({"project": project.name, "packages": packages}, levels)


class _Text(list):
    """Finished JSON text in pieces, which `_write` copies unchanged."""


_RECORDS = 5  # the depth of every connection list, instance map and port map
_CLOSE, _MEMBER, _KEY, _END_KEY = ("\n" + "  " * d for d in range(_RECORDS, _RECORDS + 4))


def _records(brackets: str, members: list[str]) -> _Text:
    """Finished members (``"key": record`` in a map, in key order) in `brackets`."""
    text = _Text([brackets[0]])
    for member in members:
        text += (_MEMBER, member, ",")
    text[-1] = _CLOSE + brackets[1] if members else brackets
    return text


def _port_text(levels: _Levels, name: str, port: Port) -> str:
    size = "" if port.array_size is None else f'{_KEY}"array_size": {port.array_size},'
    return (f'{_quote(name)}: {{{size}{_KEY}"clockdomain": '
            f'{_quote(port.clockdomain.expression)},{_KEY}"direction": '
            f'{_quote(port.direction)},{_KEY}"type": '
            f'{levels.type_text(port.logical_type, _RECORDS + 2)}{_MEMBER}}}')


def _instance_text(name: str, inst) -> str:
    size = "" if inst.array_size is None else f'{_KEY}"array_size": {inst.array_size},'
    return f'{_quote(name)}: {{{size}{_KEY}"target": {_quote(inst.target.id)}{_MEMBER}}}'


def _conn_text(c) -> str:
    return (f'{{{_KEY}"fifo_depth": {c.fifo_depth},{_KEY}"name": {_quote(c.name)},'
            f'{_KEY}"no_strict_type": {"true" if c.no_strict else "false"},{_KEY}"sink": '
            f'{_end_text(c.sink)},{_KEY}"source": {_end_text(c.source)}{_MEMBER}}}')


def _end_text(e: EndRef) -> str:
    owner = "null" if e.owner_name is None else _quote(e.owner_name)
    owner_i = "" if e.owner_index is None else f'{_END_KEY}"owner_index": {e.owner_index},'
    port_i = "" if e.port_index is None else f',{_END_KEY}"port_index": {e.port_index}'
    return (f'{{{_END_KEY}"owner": {owner},{owner_i}{_END_KEY}"port": '
            f'{_quote(e.port_name)}{port_i}{_KEY}}}')


_LOGICAL_TYPES = (NullType, BitType, GroupType, UnionType, StreamType)


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

    def type_text(self, t, depth: int) -> str:
        memo = self[depth].types
        if t not in memo:
            out: list[str] = []
            _write(out, self, _type_json(t), depth)
            memo[t] = "".join(out)
        return memo[t]


def _ir_text(doc: dict, levels: _Levels | None = None) -> str:
    """The `json` text of `doc` with ``indent=2, sort_keys=True``, plus a
    newline. `doc` holds dicts with string keys, lists, strings, numbers,
    booleans, None, logical types (each written as its `_type_json`) and `_Text`."""
    out: list[str] = []
    _write(out, _Levels() if levels is None else levels, doc, 0)
    out.append("\n")
    return "".join(out)


def _write(out: list[str], levels: _Levels, value, depth: int) -> None:
    if type(value) is _Text:
        out += value
    elif isinstance(value, str):
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
        out.append(levels.type_text(value, depth))
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
    else:  # a float, finite as evaluation keeps it
        out.append(float.__repr__(value))

