"""Hierarchy flattening and artifact emission (DOT graph, JSON IR).

Flattening walks the instance tree from a chosen top implementation; every
visited implementation becomes one flat component whose name is the instance
path joined by ``__`` (array elements as ``_AT_<i>`` segments). Connections
at every level become nets between flat components; a wrapper's own port
appears as both an inner and an outer endpoint.

A design instances the same few implementations many times, so `flatten`
renders each distinct implementation once per call into a *stamp* of text:
the two fragments of its component line that follow the first and the
second flat name (record attributes, then the port cells), its children as
flat-name suffixes (``__inst`` or ``__inst_AT_i``) in sorted instance order,
and five fragments per connection, a *stamp net*: the DOT-escaped
connection name (a backslash before each backslash and double quote) with
its ``__``, the source's suffix and anchor with ``::`` and ``__``, the
sink's suffix, and the two line fragments that follow the copy's flat name
at each end. A copy builds no string of its own but its flat name, which it
adds to the components and to its stamp's list of copies. After the walk,
`flatten` lays the nets out stamp by stamp, in the order in which each
stamp's first copy finishes (so a contained implementation comes before
every one that contains it), a stamp's nets stamp net by stamp net, and a
stamp net's copies in walk order. `FlatCircuit` holds the flat names and
the pieces of each line: for a component its DOT ID and its stamp's two
fragments, for a net its copy's flat name; each stamp net's five fragments
it holds once, and the stamps' sizes as bytes. Its lists hold only strings,
so a circuit adds nothing to the collector's lists, and it holds less text
than the DOT repeats. `emit_dot` builds each net's label, the flat name
joined onto the name, source and sink fragments, only as a sort key, with
one comprehension per stamp. It sorts index lists by key, which keeps equal
keys in the layout's order, and that is the walk's: flat names and anchors
hold no ``:``, so equal labels share a source anchor and a sink component,
and belong to one copy or to a copy and its parent. It picks the flat names
and a stamp-net index column in that order, each fragment column from the
stamp nets through that index with one `itemgetter`, drops the keys and
index lists, fills one preallocated list and joins it once: no line is a
string of its own. A DOT ID is a flat name, quoted when it is a DOT keyword
(``node``, ``edge``, ``graph``, ``digraph``, ``subgraph``, ``strict``, in
any case), which Graphviz would read as the start of a statement; only the
top's flat name lacks ``__`` and can be one, so `flatten` quotes it after
the walk, in its IDs but not in its labels. A stamp refuses a port list
whose record anchors repeat, and `emit_dot` two components of one flat
name: either would merge in the DOT.

`emit_ir` writes what `json.dumps` gives with ``indent=2, sort_keys=True``,
plus a newline, as finished text into one list that it joins once. The
document has a fixed shape (project, packages, then each package's
implementations, streamlets and types), so each part is an f-string at its
known depth. Strings are escaped by `json`'s C routine, and ints and floats
(always finite) written by `repr`. `_type_text` writes a logical type, its
fields and elements straight into the list; a type is rendered once per
depth where a port or the types map places it. A type placed deeper than
`IR_DEPTH_LIMIT` is a resolution error, so deep nesting ends in a diagnostic
and every IR written stays readable by `json`.
"""

from __future__ import annotations

from array import array
from itertools import compress, islice
from json.encoder import encode_basestring_ascii as _quote
from operator import eq, itemgetter

from .errors import TydiError
from .logical_types import (STREAM_PROPERTIES, BitType, GroupType, NullType,
                            StreamType, stream_display_name)
from .model import EndRef, EvalState, Implementation, Port, Project
from .values import escape


class FlatCircuit:
    # no per-instance dict, which the collector would track on 3.10
    __slots__ = ("top", "components", "component_parts", "nets", "net_parts", "stamp_sizes")

    def __init__(self, top):
        self.top: Implementation = top
        self.components: list[str] = []  # flat names
        self.component_parts: list[str] = []  # per component: DOT ID, head, tail
        self.nets: list[str] = []  # per net, stamp by stamp: its copy's flat name
        # per stamp net: its name, source and sink fragments, arrow, label head
        self.net_parts: list[str] = []
        # per stamp: its copies and its stamp nets, the bytes of an
        # array("l"); bytes, unlike a list or an array, the collector ignores
        self.stamp_sizes = b""


_DOT_KEYWORDS = frozenset({"node", "edge", "graph", "digraph", "subgraph", "strict"})
_EDGE_END = '"] ;\n'  # every net line's last piece
# a net line's other pieces: its copy's flat name (0), and its stamp's name,
# source, sink, arrow and label-head fragments (1 to 5)
_NET_LINE = (0, 4, 0, 5, 1, 0, 2, 0, 3)


def _segment(name: str, index) -> str:
    return name if index is None else f"{name}_AT_{index}"


def _stamp(impl: Implementation) -> tuple:
    """The text every flat copy of `impl` shares: its component line after
    the first and after the second flat name, its children as (flat-name
    suffix, target), for each net, one after another, the three fragments
    that a copy's label joins its flat name onto and the two line fragments
    that follow the copy's flat name, and an empty list for its copies'
    flat names; ``src``/``sink`` below are the suffixes of the ends (empty
    for the implementation's own ports)."""
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
        nets += (escape(conn.name) + "__", f"{src}::{src_anchor}__", sink,
                 f"{src}:{src_anchor} -> ", f'{sink}:{sink_anchor} [label="')
    return (f' [{attrs}, label="{{<component>', "".join(cells) + '}"];\n',
            children, nets, [])


def _walk(circuit: FlatCircuit, stamps: dict, impl: Implementation,
          flat_name: str) -> None:
    stamp = stamps.get(id(impl))
    first = stamp is None
    if first:
        stamp = _stamp(impl)
    head, tail, children, _, copies = stamp
    circuit.components.append(flat_name)
    circuit.component_parts.extend((flat_name, head, tail))
    copies.append(flat_name)
    for suffix, target in children:
        _walk(circuit, stamps, target, flat_name + suffix)
    if first:  # the stamps in the order in which their first copies finish
        stamps[id(impl)] = stamp


def _quote_top(circuit: FlatCircuit) -> None:
    """Quote the top's flat name, a DOT keyword, where it is a DOT ID: at its
    node, walked first, and at its own ports' ends. The top's stamp is the
    last, with one copy. Its nets get an empty flat name: their name and
    source fragments take the raw name onto their ends, so their labels keep
    it, and their arrows and label heads, which start with an end's suffix
    (empty at the top's own ports), take the end's ID in front."""
    name = circuit.components[0]
    quoted = circuit.component_parts[0] = f'"{name}"'
    flats, parts, count = circuit.nets, circuit.net_parts, len(circuit.top.connections)
    flats[len(flats) - count:] = [""] * count
    for i in range(len(parts) - 5 * count, len(parts), 5):
        label_name, src, sink, arrow, label_head = parts[i:i + 5]
        parts[i:i + 5] = (
            label_name + name, src + name, sink,
            (quoted if arrow.startswith(":") else name) + arrow,
            (quoted if label_head.startswith(":") else name) + label_head)


def flatten(project: Project, top_package: str, top_impl: str) -> FlatCircuit:
    impl = project.top_implementation(f"{top_package}.{top_impl}")
    if impl.state is not EvalState.EVALUATED:
        raise TydiError("resolution",
                        f"top implementation {top_impl!r} is not evaluated")
    circuit = FlatCircuit(impl)
    stamps: dict = {}  # by identity: ids repeat across packages
    _walk(circuit, stamps, impl, impl.id)
    sizes = array("l")
    for _, _, _, nets, copies in stamps.values():
        count = len(nets) // 5
        circuit.nets += copies * count
        circuit.net_parts += nets
        sizes.extend((len(copies), count))
    circuit.stamp_sizes = sizes.tobytes()
    if impl.id.lower() in _DOT_KEYWORDS:
        _quote_top(circuit)
    return circuit


def _picker(order: list[int]):
    """A function from a list to its items at the indices `order`."""
    return itemgetter(*order) if len(order) > 1 else lambda items: [items[i] for i in order]


def emit_dot(circuit: FlatCircuit) -> str:
    """The DOT text: the component lines sorted by flat name, then the net
    lines sorted by label, each label built only as a sort key. Each line
    is the pieces the circuit refers to: the columns are picked in sorted
    order, a net's fragments through its stamp net's index, and once the
    keys and index lists are gone they fill one list that is joined
    once."""
    names, flats, parts = circuit.components, circuit.nets, circuit.net_parts
    pick = _picker(sorted(range(len(names)), key=names.__getitem__))
    sorted_names = pick(names)
    name = next(compress(sorted_names, map(eq, sorted_names, islice(sorted_names, 1, None))),
                None)
    if name is not None:
        top = circuit.top
        raise TydiError("resolution", f"two components of {top.id!r} flatten "
                        f"to the name {name!r}", top.scope.package.path, top.span)
    cparts = circuit.component_parts
    components = [pick(cparts[0::3]), pick(cparts[1::3]), sorted_names, pick(cparts[2::3])]
    keys: list[str] = []
    stamp_nets: list[int] = []  # per net: its stamp net's index
    sizes, at, start = array("l", circuit.stamp_sizes), 0, 0
    for copies, count in zip(sizes[0::2], sizes[1::2]):
        owners, table = flats[at:at + copies], parts[5 * start:5 * (start + count)]
        keys += [f"{name}{flat}{src}{flat}{sink}" for name, src, sink
                 in zip(table[0::5], table[1::5], table[2::5]) for flat in owners]
        stamp_nets += [j for j in range(start, start + count) for _ in owners]
        at += copies * count
        start += count
    pick = _picker(sorted(range(len(keys)), key=keys.__getitem__))
    del keys, sorted_names
    flats, stamp_nets = pick(flats), pick(stamp_nets)
    pick = _picker(stamp_nets)
    nets = [flats] + [pick(parts[i::5]) for i in range(5)]
    del pick, flats, stamp_nets
    nets_at = 1 + 4 * len(names)
    out = [_EDGE_END] * (nets_at + 10 * len(circuit.nets) + 1)
    out[0], out[-1] = "digraph {\n", "}\n"
    for i in range(4):
        out[1 + i:nets_at:4] = components[i]
    for i, column in enumerate(_NET_LINE, nets_at):
        out[i:-1:10] = nets[column]
    del components, nets
    return "".join(out)


# -- structured IR ---------------------------------------------------------------

# The deepest level of the IR document a logical type may take; its keys sit
# one level deeper, its containers at most two. Every chain of `type Group`
# fields that compiled from the CLI before the bound still does (the deepest
# placed a field at level 985), and `json.loads` in a fresh Python 3.11 reads
# back the deepest document it allows (it stops past 994 nested containers).
IR_DEPTH_LIMIT = 985

_RECORDS = 5  # the depth of every connection list, instance map and port map
_MEMBER, _KEY, _END_KEY = ("\n" + "  " * d for d in range(_RECORDS + 1, _RECORDS + 4))
_PROPERTIES = sorted(field for _, _, field in STREAM_PROPERTIES)


def emit_ir(project: Project) -> str:
    """Serialize every evaluated streamlet, implementation and named type as
    the text `json.dumps` gives with ``indent=2, sort_keys=True``, plus a
    newline. Each container is opened by its own item of `out` and each
    member ends in a ``","`` item, which `_end` replaces."""
    types: dict = {}  # (type, depth) -> its text, where a port or a type entry places it
    out = ['{\n  "packages": ', "{"]
    for pkg_name in sorted(project.packages):
        scope = project.packages[pkg_name].scope
        out += (f'\n    {_quote(pkg_name)}: {{\n      "implementations": ', "{")
        for iid, impl in _evaluated(scope.implements):
            out += (f'\n        {_quote(iid)}: {{\n          "connections": ', "[")
            for c in impl.connections:
                out += (_MEMBER, _conn_text(c), ",")
            _end(out, _RECORDS, "[]")
            if impl.doc:
                out.append(f',\n          "doc": {_quote(impl.doc)}')
            out += (f',\n          "external": {"true" if impl.external else "false"},'
                    '\n          "instances": ', "{")
            for name, inst in sorted(impl.instances.items()):
                out += (_MEMBER, _instance_text(name, inst), ",")
            _end(out, _RECORDS)
            out += (f',\n          "streamlet": {_quote(impl.streamlet.id)}\n        }}', ",")
        _end(out, 3)
        out += (',\n      "streamlets": ', "{")
        for sid, s in _evaluated(scope.streamlets):
            doc = f'\n          "doc": {_quote(s.doc)},' if s.doc else ""
            out += (f'\n        {_quote(sid)}: {{{doc}\n          "ports": ', "{")
            for name, port in sorted(s.ports.items()):
                out += (_MEMBER, _port_text(types, name, port), ",")
            _end(out, _RECORDS)
            out += ("\n        }", ",")
        _end(out, 3)
        out += (',\n      "types": ', "{")
        for tid, entry in _evaluated(scope.types):
            out += (f"\n        {_quote(tid)}: ", _placed(types, entry.evaluated, 4), ",")
        _end(out, 3)
        out += ("\n    }", ",")
    _end(out, 1)
    out.append(f',\n  "project": {_quote(project.name)}\n}}\n')
    return "".join(out)


def _evaluated(table: dict):
    return sorted((key, e) for key, e in table.items() if e.state is EvalState.EVALUATED)


def _end(out: list[str], depth: int, brackets: str = "{}") -> None:
    """Close the container at `depth` whose opening bracket or last member's
    comma ends `out`."""
    out[-1] = brackets if out[-1] == brackets[0] else "\n" + "  " * depth + brackets[1]


def _port_text(types: dict, name: str, port: Port) -> str:
    size = "" if port.array_size is None else f'{_KEY}"array_size": {port.array_size},'
    return (f'{_quote(name)}: {{{size}{_KEY}"clockdomain": '
            f'{_quote(port.clockdomain.expression)},{_KEY}"direction": '
            f'{_quote(port.direction)},{_KEY}"type": '
            f'{_placed(types, port.logical_type, _RECORDS + 2)}{_MEMBER}}}')


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


def _placed(types: dict, t, depth: int) -> str:
    """The text of `t` at `depth`, rendered once per call of `emit_ir`."""
    text = types.get((t, depth))
    if text is None:
        out: list[str] = []
        _type_text(out, t, depth)
        text = types[t, depth] = "".join(out)
    return text


def _type_text(out: list[str], t, depth: int) -> None:
    """Write logical type `t` into `out` as the object at `depth`."""
    if depth > IR_DEPTH_LIMIT:
        raise TydiError("resolution", "nesting too deep while emitting")
    key = "\n" + "  " * (depth + 1)
    if isinstance(t, NullType):
        out.append(f'{{{key}"kind": "null"')
    elif isinstance(t, BitType):
        out.append(f'{{{key}"kind": "bit",{key}"width": {t.width!r}')
    elif isinstance(t, StreamType):
        out.append(f'{{{key}"element": ')
        _type_text(out, t.element, depth + 1)
        out.append(f',{key}"kind": "stream",{key}"name": {_quote(stream_display_name(t))},'
                   f'{key}"properties": {{')
        for field in _PROPERTIES:  # "user" sorts last
            value = getattr(t.properties, field)
            out.append(f'{key}  "{field}": ')
            if field == "user":
                _type_text(out, value, depth + 2)
            elif isinstance(value, str):
                out.append(_quote(value) + ",")
            elif isinstance(value, bool):
                out.append("true," if value else "false,")
            else:
                out.append(repr(value) + ",")
        out.append(f"{key}}}")
    else:  # a group or union
        kind = "group" if isinstance(t, GroupType) else "union"
        item = key + "  "
        sep = f'{{{key}"fields": [{item}{{'
        for name, field_type in t.fields:
            out.append(f'{sep}{item}  "name": {_quote(name)},{item}  "type": ')
            _type_text(out, field_type, depth + 3)
            sep = f"{item}}},{item}{{"
        out.append(f'{item}}}{key}],' if t.fields else f'{{{key}"fields": [],')
        out.append(f'{key}"kind": "{kind}",{key}"name": {_quote(t.name)}')
    out.append("\n" + "  " * depth + "}")
