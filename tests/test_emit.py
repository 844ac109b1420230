import gc
import importlib.util
import json
import os
import re
import sys
import tracemalloc
from decimal import Decimal

import pytest
from hypothesis import example, given, settings, strategies as st

from tydilang import compile_sources, emit
from tydilang.emit import emit_dot, emit_ir, flatten
from tydilang.errors import TydiError
from tydilang.logical_types import BitType, GroupType, NullType, StreamType, stream_display_name
from tydilang.model import EndRef, EvalState
from tydilang.pipeline import CompileConfig, compile_project
from tydilang.sugaring import sugar_project
from tydilang.values import escape

from conftest import DATA_DIR, compile_texts, evaluated_project
from goldens import ROOT
from test_sugaring import fan_out

TWO_LEVEL = """
type Group rgb {
  r: Bit(8),
};
type rgb_stream = Stream(rgb);

streamlet leaf_s { input: rgb_stream in, output: rgb_stream out, };
external impl leaf_i of leaf_s {
};

streamlet mid_s { input: rgb_stream in, output: rgb_stream out, };
impl mid_i of mid_s {
  instance accu(leaf_i),
  input => accu.input,
  accu.output => output,
};

streamlet main_s {
  err: rgb_stream out,
  feeds: rgb_stream [2] in,
};
impl main_i of main_s {
  instance inner(mid_i),
  instance direct(leaf_i) [2],
  feeds[0] => inner.input,
  feeds[1] => direct[0].input,
  direct[0].output => direct[1].input,
  direct[1].output => err "named_net",
  inner.output => void_sink.input,
  instance void_sink(leaf_i),
};
"""


def build_circuit():
    project, ctx = evaluated_project("package p;" + TWO_LEVEL, top="p.main_i")
    sugar_project(ctx, project)
    return project, flatten(project, "p", "main_i")


# -- flattening ----------------------------------------------------------------


# A DOT ID as the compiler writes one: a bare name, or a quoted one; the DOT
# keywords, in any case, are names only when quoted.
DOT_ID = r'([A-Za-z_][A-Za-z0-9_]*|"[A-Za-z_][A-Za-z0-9_]*")'
DOT_KEYWORDS = {"node", "edge", "graph", "digraph", "subgraph", "strict"}
NODE_RE = re.compile(rf'^{DOT_ID} \[(color=red, )?shape=record, label="\{{(.*)\}}"\];$')
EDGE_RE = re.compile(rf'^{DOT_ID}:(\w+) -> {DOT_ID}:(\w+) \[label="((?:[^"]|\\")*)"\] ;$')


def dot_name(dot_id: str) -> str:
    """The name that a DOT ID matched by `DOT_ID` stands for."""
    if dot_id.startswith('"'):
        return dot_id[1:-1]
    assert dot_id.lower() not in DOT_KEYWORDS, f"bare DOT keyword {dot_id!r}"
    return dot_id


def dot_lines(circuit) -> tuple[list, list]:
    """The node lines and the edge lines of the circuit's DOT."""
    lines = emit_dot(circuit).splitlines()
    assert (lines[0], lines[-1]) == ("digraph {", "}")
    nodes = len(circuit.components)
    return lines[1:1 + nodes], lines[1 + nodes:-1]


def components_of(circuit) -> dict:
    """{flat name: (is wrapper, [(display name, anchor), ...])}, read from
    each node line of the circuit's DOT, which must name the flat name that
    sorts to its place."""
    out = {}
    nodes, _ = dot_lines(circuit)
    for name, line in zip(sorted(circuit.components), nodes, strict=True):
        m = NODE_RE.match(line)
        assert m and dot_name(m.group(1)) == name, (name, line)
        cells = m.group(3).split("|")
        assert cells[0] == f"<component>{name}"
        ports = [re.match(r"^<(\w+)>(.+)$", cell).group(2, 1) for cell in cells[1:]]
        out[name] = (m.group(2) is not None, ports)
    return out


def nets_of(circuit) -> list:
    """(label, source, source anchor, sink, sink anchor) of each net, read
    from each edge line of the circuit's DOT: one line per net, in
    non-decreasing order of label."""
    out = []
    _, edges = dot_lines(circuit)
    for line in edges:
        m = EDGE_RE.match(line)
        assert m, line
        out.append((m.group(5), dot_name(m.group(1)), m.group(2), dot_name(m.group(3)),
                    m.group(4)))
    labels = [label for label, *_ in out]
    assert len(labels) == len(circuit.nets) and labels == sorted(labels), labels
    return out


def test_flat_names_join_instance_path_with_double_underscore():
    _, circuit = build_circuit()
    names = set(components_of(circuit))
    assert "main_i" in names
    assert "main_i__inner" in names
    assert "main_i__inner__accu" in names


def test_array_instances_flatten_per_element():
    _, circuit = build_circuit()
    names = set(components_of(circuit))
    assert "main_i__direct_AT_0" in names
    assert "main_i__direct_AT_1" in names


def test_array_ports_get_at_anchors():
    _, circuit = build_circuit()
    _, top_ports = components_of(circuit)["main_i"]
    assert ("feeds@0", "feeds_AT_0") in top_ports
    assert ("feeds@1", "feeds_AT_1") in top_ports


def test_wrappers_are_marked():
    _, circuit = build_circuit()
    is_wrapper = {name: wrapper for name, (wrapper, _) in components_of(circuit).items()}
    assert is_wrapper["main_i"]
    assert is_wrapper["main_i__inner"]
    assert not is_wrapper["main_i__inner__accu"]


def test_wrapper_port_has_inner_and_outer_net():
    _, circuit = build_circuit()
    touching = [label for label, src, src_anchor, sink, sink_anchor in nets_of(circuit)
                if (src, src_anchor) == ("main_i__inner", "input")
                or (sink, sink_anchor) == ("main_i__inner", "input")]
    # one arrow in from the parent level, one arrow out inside the wrapper
    assert len(touching) == 2


def test_net_count_equals_connection_count():
    project, circuit = build_circuit()
    total = 0
    seen = set()

    def count(impl):
        nonlocal total
        total += len(impl.connections)
        for inst in impl.instances.values():
            n = 1 if inst.array_size is None else inst.array_size
            for _ in range(n):
                count(inst.target)

    count(project.packages["p"].scope.implements["main_i"])
    assert len(circuit.nets) == total


def test_net_labels_follow_declared_format():
    _, circuit = build_circuit()
    named = next(label for label, *_ in nets_of(circuit)
                 if label.startswith("named_net"))
    assert named == "named_net__main_i__direct_AT_1::output__main_i"


def test_flatten_errors():
    """A bad top is the same usage error as `--top` gives the pipeline."""
    project, ctx = evaluated_project("package p;" + TWO_LEVEL, top="p.main_i")
    for pkg, impl in (("p", "ghost_i"), ("ghost", "main_i")):
        with pytest.raises(TydiError) as exc:
            flatten(project, pkg, impl)
        assert (exc.value.category, exc.value.message) == (
            "usage", f"top implementation '{pkg}.{impl}' not found")


def test_single_component_circuit():
    project, ctx = evaluated_project(
        "package p;\n"
        "type s = Stream(Bit(1));\n"
        "streamlet top_s { a: s in, b: s out, };\n"
        "impl top_i of top_s { a => b, };\n", top="p.top_i")
    circuit = flatten(project, "p", "top_i")
    assert list(components_of(circuit)) == ["top_i"]
    assert len(circuit.nets) == 1
    _, source, source_anchor, _, _ = nets_of(circuit)[0]
    assert (source, source_anchor) == ("top_i", "a")


def binary_tree(depth: int) -> str:
    """A binary instance tree: level k instances level k-1 twice, so one
    node implementation per level and one leaf serve 2**(depth+1)-1 copies."""
    lines = ["package p;",
             "type s = Stream(Bit(1));",
             "streamlet pair_s { input: s in, output: s out, };",
             "external impl lvl0_i of pair_s {\n};"]
    for k in range(1, depth + 1):
        lines.append(
            f"impl lvl{k}_i of pair_s {{ instance a(lvl{k - 1}_i), "
            f"instance b(lvl{k - 1}_i), input => a.input, "
            f"a.output => b.input, b.output => output, }};")
    return "\n".join(lines) + "\n"


def implementations(top) -> list:
    """Each distinct implementation in the instance tree under `top`."""
    impls, todo = {}, [top]
    while todo:
        impl = todo.pop()
        impls[id(impl)] = impl
        todo += [inst.target for inst in impl.instances.values()]
    return list(impls.values())


def test_same_named_implementations_in_two_packages_stay_apart():
    """Implementation ids are unique only within a package, so two `leaf_i`
    in one hierarchy must keep their own ports."""
    project, _ = evaluated_project(
        "package lib;\n"
        "type s = Stream(Bit(1));\n"
        "streamlet leaf_s { i: s in, };\n"
        "external impl leaf_i of leaf_s {\n};\n",
        "package app;\nimport lib;\n"
        "type s = Stream(Bit(1));\n"
        "streamlet leaf_s { x: s in, y: s out, };\n"
        "external impl leaf_i of leaf_s {\n};\n"
        "streamlet top_s { a: s in, b: s in, c: s out, };\n"
        "impl top_i of top_s {\n"
        "  instance l(lib.leaf_i), instance m(leaf_i),\n"
        "  a => l.i @NoStrictType@, b => m.x, m.y => c,\n"
        "};\n", top="app.top_i")
    circuit = flatten(project, "app", "top_i")
    ports = {name: ports for name, (_, ports) in components_of(circuit).items()}
    assert ports["top_i__l"] == [("i", "i")]
    assert ports["top_i__m"] == [("x", "x"), ("y", "y")]
    dot = emit_dot(circuit)
    assert "<component>top_i__l|<i>i}" in dot
    assert "<component>top_i__m|<x>x|<y>y}" in dot


def test_flat_records_are_untracked():
    """A circuit is its own object, four lists of strings (the flat
    names, per component and per net, and references to the fragments
    that the stamps hold) and the bytes of its stamps' sizes, which the
    collector does not track, so flattening the depth-8 tree (511
    components, 765 nets) leaves as few new objects for the collector to
    track as flattening a depth-2 one: no record per component, net or
    stamp, and the stamps are gone once `flatten` returns, the strings they
    held kept only by the lists. An `array` of the stamps' sizes read 6."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        added = []
        for depth in (2, 8):
            project, _ = evaluated_project(binary_tree(depth), top=f"p.lvl{depth}_i")
            gc.collect()
            before = len(gc.get_objects())
            circuit = flatten(project, "p", f"lvl{depth}_i")
            added.append(len(gc.get_objects()) - before)
            assert len(circuit.components) == 2 ** (depth + 1) - 1
            del circuit
    finally:
        if enabled:
            gc.enable()
    assert added[0] == added[1] <= 5, added


def test_flatten_leaves_no_garbage():
    """Flattening and rendering build no reference cycle: with the collector
    off, a circuit's text leaves nothing for it to collect, so the circuit
    is freed the moment its text is made."""
    project, _ = build_circuit()
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        assert emit_dot(flatten(project, "p", "main_i"))
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


def test_flatten_resolves_each_implementation_once(monkeypatch):
    """Connection ends are resolved, and connection names escaped, once per
    distinct implementation, not once per flat copy: every node
    implementation costs the same six `is_self` reads (three connections,
    two ends) and three `escape` calls at depth 6 and at depth 8, while the
    flat tree grows fourfold."""
    original = EndRef.is_self

    def flatten_tree(depth):
        project, _ = evaluated_project(binary_tree(depth), top=f"p.lvl{depth}_i")
        reads = escapes = 0

        def counting(end):
            nonlocal reads
            reads += 1
            return original.fget(end)

        def counting_escape(text):
            nonlocal escapes
            escapes += 1
            return escape(text)

        with monkeypatch.context() as m:
            m.setattr(EndRef, "is_self", property(counting))
            m.setattr("tydilang.emit.escape", counting_escape)
            circuit = flatten(project, "p", f"lvl{depth}_i")
        assert len(circuit.components) == 2 ** (depth + 1) - 1
        assert len(circuit.nets) == 3 * (2 ** depth - 1)
        return reads, escapes, len(circuit.components)

    (small_reads, small_escapes, small), (large_reads, large_escapes, large) = \
        flatten_tree(6), flatten_tree(8)
    assert large / small > 4
    assert (small_reads / 6, large_reads / 8) == (6, 6), (small_reads, large_reads)
    assert (small_escapes, large_escapes) == (3 * 6, 3 * 8)


# -- DOT ------------------------------------------------------------------------



def check_dot(text: str):
    """Mechanical well-formedness check: every line is a node or an edge
    statement whose IDs are names or quoted names, never a bare DOT keyword,
    record labels parse, and every edge endpoint anchor exists in its node's
    label. Returns the anchors by node name and the edges with their ends'
    names."""
    lines = text.splitlines()
    assert lines[0] == "digraph {"
    assert lines[-1] == "}"
    anchors: dict[str, set] = {}
    edges = []
    for line in lines[1:-1]:
        m = NODE_RE.match(line)
        if m:
            dot_id, _, label = m.groups()
            name = dot_name(dot_id)
            cells = label.split("|")
            assert cells[0] == f"<component>{name}"
            anchors[name] = set()
            for cell in cells[1:]:
                am = re.match(r"^<(\w+)>(.+)$", cell)
                assert am, cell
                anchors[name].add(am.group(1))
            continue
        m = EDGE_RE.match(line)
        assert m, line
        src, sanchor, dst, danchor, label = m.groups()
        edges.append((dot_name(src), sanchor, dot_name(dst), danchor, label))
    for src, sanchor, dst, danchor, label in edges:
        assert src in anchors and dst in anchors
        assert sanchor in anchors[src], (src, sanchor)
        assert danchor in anchors[dst], (dst, danchor)
    return anchors, edges


@pytest.mark.parametrize("name", ["golden_tpch1.dot", "golden_hier.dot", "golden_circuit.dot",
                                  "golden_templates/circuit.dot", "golden_for/circuit.dot"])
def test_golden_dots_are_well_formed(name):
    with open(os.path.join(DATA_DIR, name), encoding="utf-8") as f:
        anchors, edges = check_dot(f.read())
    assert anchors and edges


@pytest.mark.parametrize("line", [
    'node [shape=record, label="{<component>node|<i>i}"];',
    'Node:i -> top_i:o [label="c__Node::i__top_i"] ;',
    'top_i:i -> STRICT:o [label="c__top_i::i__STRICT"] ;'])
def test_check_dot_rejects_a_bare_keyword(line):
    text = ("digraph {\n" + line + "\n"
            'top_i [shape=record, label="{<component>top_i|<i>i|<o>o}"];\n}\n')
    with pytest.raises(AssertionError, match="bare DOT keyword"):
        check_dot(text)


def test_dot_well_formed():
    _, circuit = build_circuit()
    anchors, edges = check_dot(emit_dot(circuit))
    assert "main_i__direct_AT_0" in anchors
    assert edges


def test_dot_wrapper_color():
    _, circuit = build_circuit()
    text = emit_dot(circuit)
    assert re.search(r"^main_i \[color=red, shape=record", text, re.M)
    assert re.search(r"^main_i__inner__accu \[shape=record", text, re.M)


def test_dot_sorted_and_deterministic():
    _, c1 = build_circuit()
    _, c2 = build_circuit()
    assert emit_dot(c1) == emit_dot(c2)
    names = [l.split(" ")[0] for l in emit_dot(c1).splitlines()
             if "shape=record" in l]
    assert names == sorted(names)


def test_hierarchy_dot_is_pinned(golden_build):
    """In the `hier` golden's DOT, the named connection that holds `"` and
    `\\` labels three nets, the name two implementations share four, and
    the duplicator in the copy `row[1]` reads its child's array port."""
    build = golden_build("hier")
    assert build.mismatches("circuit.dot") == []
    _, edges = check_dot(build.text("circuit.dot"))
    labels = [label for *_, label in edges]
    assert sum(label.startswith('q\\"uote\\\\back__') for label in labels) == 3
    assert sum(label.startswith("shared__") for label in labels) == 4
    assert ("top_i__row_AT_1__x", "o_AT_1", "top_i__row_AT_1__duplicate_x_o_1_2",
            "input") in [edge[:4] for edge in edges]


def test_dot_escapes_quotes_and_backslashes_in_net_labels():
    """A net name may hold `"` and `\\` (string-literal escapes); in the DOT
    label they are escaped again, so the quoted label still ends where it
    should."""
    result = compile_texts(
        "package p;\n"
        "type s = Stream(Bit(1));\n"
        "streamlet top_s { a: s in, b: s in, x: s out, y: s out, };\n"
        'impl top_i of top_s { a => x "q\\"uote", b => y "back\\\\slash", };\n',
        top="p.top_i", dot=True)
    assert result.ok, result.diagnostics
    text = result.artifacts["circuit.dot"]
    _, edges = check_dot(text)
    assert len(edges) == 2
    assert text.splitlines()[2:4] == [
        'top_i:b -> top_i:y [label="back\\\\slash__top_i::b__top_i"] ;',
        'top_i:a -> top_i:x [label="q\\"uote__top_i::a__top_i"] ;']


def test_dot_edges_sorted_by_label_string():
    """Edges are ordered by the whole label string, not by its parts: `cA__...`
    comes before `c__...` because `A` sorts before `_`, although the net name
    `c` sorts before `cA`."""
    result = compile_texts(
        "package p;\n"
        "type s = Stream(Bit(1));\n"
        "streamlet top_s { a: s in, b: s in, x: s out, y: s out, };\n"
        'impl top_i of top_s { a => x "c", b => y "cA", };\n',
        top="p.top_i", dot=True)
    assert result.ok, result.diagnostics
    _, edges = check_dot(result.artifacts["circuit.dot"])
    assert [label for *_, label in edges] == ["cA__top_i::b__top_i",
                                              "c__top_i::a__top_i"]


def test_dot_empty_circuit():
    from tydilang.emit import FlatCircuit
    assert emit_dot(FlatCircuit(top="x")) == "digraph {\n}\n"


KEYWORD_TOP = """package p;
type s = Stream(Bit(1));
streamlet pass_s { i: s in, o: s out, };
external impl leaf_i of pass_s { };
impl wrap_i of pass_s { instance y(leaf_i), i => y.i "down", y.o => o "up", };
streamlet top_s { a: s in, b: s out, i: s in, o: s out, };
impl TOP of top_s { instance x(wrap_i), i => x.i "in", x.o => o "out", a => b "through", };
"""


def test_top_named_like_a_dot_keyword_is_quoted():
    """`Node` cannot be a bare DOT ID: Graphviz would read its node line as
    default node attributes and its edges as a syntax error. It is quoted in
    its node statement and at its own ports' ends, and nowhere else."""
    result = compile_texts(KEYWORD_TOP.replace("TOP", "Node"), top="p.Node", dot=True)
    assert result.ok, result.diagnostics
    text = result.artifacts["circuit.dot"]
    assert text == (
        'digraph {\n'
        '"Node" [color=red, shape=record, label="{<component>Node|<a>a|<b>b|<i>i|<o>o}"];\n'
        'Node__x [color=red, shape=record, label="{<component>Node__x|<i>i|<o>o}"];\n'
        'Node__x__y [shape=record, label="{<component>Node__x__y|<i>i|<o>o}"];\n'
        'Node__x:i -> Node__x__y:i [label="down__Node__x::i__Node__x__y"] ;\n'
        '"Node":i -> Node__x:i [label="in__Node::i__Node__x"] ;\n'
        'Node__x:o -> "Node":o [label="out__Node__x::o__Node"] ;\n'
        '"Node":a -> "Node":b [label="through__Node::a__Node"] ;\n'
        'Node__x__y:o -> Node__x:o [label="up__Node__x__y::o__Node__x"] ;\n'
        '}\n')
    anchors, edges = check_dot(text)
    assert set(anchors) == {"Node", "Node__x", "Node__x__y"}
    assert [(src, sink) for src, _, sink, _, _ in edges] == [
        ("Node__x", "Node__x__y"), ("Node", "Node__x"), ("Node__x", "Node"),
        ("Node", "Node"), ("Node__x__y", "Node__x")]


@pytest.mark.parametrize("top", ["node", "EDGE", "Graph", "digraph", "subGraph", "strict",
                                 "Nodes", "edge_i"])
def test_only_keyword_tops_are_quoted(top):
    result = compile_texts(KEYWORD_TOP.replace("TOP", top), top=f"p.{top}", dot=True)
    assert result.ok, result.diagnostics
    text = result.artifacts["circuit.dot"]
    check_dot(text)
    quoted = top.lower() in DOT_KEYWORDS
    dot_id = f'"{top}"' if quoted else top
    assert text.splitlines()[1].startswith(f"{dot_id} [color=red")
    assert text.count(f'"{top}"') == 5 * quoted
    assert f"{top}__x [color=red" in text


def test_components_sort_by_flat_name_not_walk_order():
    """`flatten` walks `a`'s child before `a0`, but `_` sorts after `0`, so
    the DOT lists `top_i__a0` before `top_i__a__x`."""
    result = compile_texts(
        "package p;\n"
        "type s = Stream(Bit(1));\n"
        "streamlet io_s { i: s in, o: s out, };\n"
        "external impl leaf_i of io_s { };\n"
        'impl wrap_i of io_s { instance x(leaf_i), i => x.i "down", x.o => o "up", };\n'
        "impl top_i of io_s { instance a(wrap_i), instance a0(leaf_i),\n"
        '  i => a.i "in", a.o => a0.i "mid", a0.o => o "out", };\n',
        top="p.top_i", dot=True)
    assert result.ok, result.diagnostics
    assert result.artifacts["circuit.dot"] == (
        'digraph {\n'
        'top_i [color=red, shape=record, label="{<component>top_i|<i>i|<o>o}"];\n'
        'top_i__a [color=red, shape=record, label="{<component>top_i__a|<i>i|<o>o}"];\n'
        'top_i__a0 [shape=record, label="{<component>top_i__a0|<i>i|<o>o}"];\n'
        'top_i__a__x [shape=record, label="{<component>top_i__a__x|<i>i|<o>o}"];\n'
        'top_i__a:i -> top_i__a__x:i [label="down__top_i__a::i__top_i__a__x"] ;\n'
        'top_i:i -> top_i__a:i [label="in__top_i::i__top_i__a"] ;\n'
        'top_i__a:o -> top_i__a0:i [label="mid__top_i__a::o__top_i__a0"] ;\n'
        'top_i__a0:o -> top_i:o [label="out__top_i__a0::o__top_i"] ;\n'
        'top_i__a__x:o -> top_i__a:o [label="up__top_i__a__x::o__top_i__a"] ;\n'
        '}\n')


def slot_values(circuit) -> list:
    return [getattr(circuit, slot) for slot in type(circuit).__slots__]


def test_circuit_holds_less_text_than_it_renders():
    """A circuit holds the flat names, and only refers to the text its
    copies share, so the distinct strings in its lists add up to less text
    than its DOT; a circuit holding each rendered line (1.39 times the DOT
    here) fails."""
    project, _ = evaluated_project(binary_tree(8), top="p.lvl8_i")
    circuit = flatten(project, "p", "lvl8_i")
    held = {id(text): len(text) for texts in slot_values(circuit)
            if isinstance(texts, list) for text in texts}
    assert sum(held.values()) < len(emit_dot(circuit))


def test_no_string_per_net_outlives_the_walk():
    """The circuit's lists hold no string of a net's own: their distinct
    strings are at most the flat names and the stamps' fragments (a head
    and a tail per implementation, five per connection). A label per net,
    765 of them at depth 8, breaks the bound."""
    project, _ = evaluated_project(binary_tree(8), top="p.lvl8_i")
    circuit = flatten(project, "p", "lvl8_i")
    fragments = sum(2 + 5 * len(impl.connections) for impl in implementations(circuit.top))
    held = {id(text) for texts in slot_values(circuit) if isinstance(texts, list)
            for text in texts}
    assert (len(circuit.components), len(circuit.nets), fragments) == (511, 765, 138)
    assert len(held) <= len(circuit.components) + fragments


def test_nets_are_laid_out_stamp_by_stamp():
    """A circuit keeps each stamp's five fragments per connection once, not
    once per copy: 120 references for the depth-8 tree's 24 connections in
    9 implementations, where five per net made 3,825. Its nets run stamp by
    stamp, a contained implementation's first; within a stamp, connection
    by connection; and within a connection, copy by copy in walk order."""
    project, _ = evaluated_project(binary_tree(8), top="p.lvl8_i")
    circuit = flatten(project, "p", "lvl8_i")
    impls = implementations(circuit.top)
    assert (len(impls), len(circuit.nets)) == (9, 765)
    assert len(circuit.net_parts) == 5 * sum(len(impl.connections) for impl in impls) == 120
    # a copy of level k has 8 - k segments after the top's name
    assert circuit.nets == [name for k in range(1, 9) for _ in range(3)
                            for name in circuit.components if name.count("__") == 8 - k]


def test_dot_peak_memory_is_bounded_by_its_length():
    """Flattening and rendering the depth-10 tree (2,047 components, 3,069
    nets) peaks at 1.68 times the DOT's length under `tracemalloc`: the
    circuit, the sort keys while they live, then the DOT and the one list of
    its pieces. Five fragment references per net read 1.82, and holding a
    label per net through the join 2.38."""
    project, _ = evaluated_project(binary_tree(10), top="p.lvl10_i")
    gc.collect()
    tracemalloc.start()
    try:
        text = emit_dot(flatten(project, "p", "lvl10_i"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / len(text) < 1.75, peak / len(text)


def naive_dot(project, package: str, top: str) -> str:
    """The DOT of `package.top`, rendered straight from the model with one
    f-string per line: the component lines sorted by flat name, then the net
    lines sorted stably by label. A copy's nets follow its children's in the
    walk, so equal labels keep that order."""
    components, nets = [], []

    def dot_id(name):
        return f'"{name}"' if name.lower() in DOT_KEYWORDS else name

    def segment(name, index):
        return name if index is None else f"{name}_AT_{index}"

    def walk(impl, flat):
        cells = ""
        for pname, port in sorted(impl.streamlet.ports.items()):
            if port.array_size is None:
                cells += f"|<{pname}>{pname}"
            for i in range(port.array_size or 0):
                cells += f"|<{pname}_AT_{i}>{pname}@{i}"
        color = "color=red, " if impl.instances else ""
        components.append((flat, f'{dot_id(flat)} [{color}shape=record, '
                                 f'label="{{<component>{flat}{cells}}}"];\n'))
        for inst_name, inst in sorted(impl.instances.items()):
            for i in [None] if inst.array_size is None else range(inst.array_size):
                walk(inst.target, f"{flat}__{segment(inst_name, i)}")
        for conn in impl.connections:
            (src, src_port), (sink, sink_port) = (
                (flat if end.owner_name is None else
                 f"{flat}__{segment(end.owner_name, end.owner_index)}",
                 segment(end.port_name, end.port_index))
                for end in (conn.source, conn.sink))
            name = conn.name.replace("\\", "\\\\").replace('"', '\\"')
            label = f"{name}__{src}::{src_port}__{sink}"
            nets.append((label, f'{dot_id(src)}:{src_port} -> {dot_id(sink)}:{sink_port} '
                                f'[label="{label}"] ;\n'))

    walk(project.top_implementation(f"{package}.{top}"), top)
    components.sort(key=lambda item: item[0])
    nets.sort(key=lambda item: item[0])
    return "".join(["digraph {\n", *(line for _, line in components + nets), "}\n"])


def naive_ir(project) -> str:
    """The IR of `project`, walked from the model into dicts and lists and
    written by the standard encoder: every evaluated implementation,
    streamlet and named type of every package, each logical type in full
    wherever it is placed."""
    def logical(t):
        if isinstance(t, NullType):
            return {"kind": "null"}
        if isinstance(t, BitType):
            return {"kind": "bit", "width": t.width}
        if isinstance(t, StreamType):
            p = t.properties
            return {"kind": "stream", "name": stream_display_name(t), "element": logical(t.element),
                    "properties": {"complexity": p.complexity, "dimension": p.dimension,
                                   "direction": p.direction, "keep": p.keep,
                                   "synchronicity": p.synchronicity,
                                   "throughput": p.throughput, "user": logical(p.user)}}
        return {"kind": "group" if isinstance(t, GroupType) else "union", "name": t.name,
                "fields": [{"name": name, "type": logical(field)} for name, field in t.fields]}

    def optional(record, **items):
        return {**record, **{key: value for key, value in items.items() if value is not None}}

    def end(e):
        return optional({"owner": e.owner_name, "port": e.port_name},
                        owner_index=e.owner_index, port_index=e.port_index)

    def implementation(impl):
        return optional({
            "connections": [{"fifo_depth": c.fifo_depth, "name": c.name,
                             "no_strict_type": c.no_strict, "sink": end(c.sink),
                             "source": end(c.source)} for c in impl.connections],
            "external": impl.external,
            "instances": {name: optional({"target": inst.target.id}, array_size=inst.array_size)
                          for name, inst in impl.instances.items()},
            "streamlet": impl.streamlet.id}, doc=impl.doc or None)

    def streamlet(s):
        return optional({"ports": {name: optional({
            "clockdomain": port.clockdomain.expression, "direction": port.direction,
            "type": logical(port.logical_type)}, array_size=port.array_size)
            for name, port in s.ports.items()}}, doc=s.doc or None)

    def evaluated(table, render):
        return {key: render(e) for key, e in table.items() if e.state is EvalState.EVALUATED}

    packages = {name: {"implementations": evaluated(package.scope.implements, implementation),
                       "streamlets": evaluated(package.scope.streamlets, streamlet),
                       "types": evaluated(package.scope.types,
                                          lambda entry: logical(entry.evaluated))}
                for name, package in project.packages.items()}
    return json.dumps({"packages": packages, "project": project.name},
                      indent=2, sort_keys=True) + "\n"


PREFIX_NAMES = """package p;
type s = Stream(Bit(1));
streamlet io_s { i: s in, o: s out, };
external impl leaf_i of io_s { };
streamlet quad_s { i: s in, o: s out, p: s in, q: s out, };
impl node_i of quad_s { instance x(leaf_i), i => x.i "a", x.o => o "a0", p => q "a_b", };
impl wrap_i of quad_s {
  instance n(node_i), i => n.i "a", n.o => o "a0", p => n.p "a_b", n.q => q,
};
impl top_i of quad_s {
  instance n(node_i), instance w(wrap_i),
  i => n.i "a", n.o => w.i "a0", w.o => o "a_b", p => w.p, w.q => n.p, n.q => q "a",
};
"""


# Left unsugared, one source feeds three sinks over nets of one name: two
# labels tie, and the third differs from them only in its sink and walks first.
FAN_OUT = """package p;
type s = Stream(Bit(1));
streamlet two_s { i: s in, j: s in, o: s out, };
external impl two_i of two_s { };
streamlet top_s { i: s in, o: s out, };
impl top_i of top_s {
  instance x(two_i), instance y(two_i),
  i => y.i "f", i => x.j "f", i => x.i "f", x.o => o,
};
"""


# Two connections of different names get one label: in a copy named `x`,
# `x.a => y.b "n"` and `a => y.c "n__x"` both read `n__x__x::a__x__y`. `w`
# declares the same pair for a copy named `w` in the opposite order, so equal
# labels must keep the order of declaration, not of name; `strict`, a DOT
# keyword, instances both.
LABEL_TIES = """package p;
type s = Stream(Bit(1));
streamlet src_s { a: s out, };
external impl src_i of src_s { };
streamlet y_s { b: s in, c: s in, };
external impl y_i of y_s { };
streamlet tie_s { a: s in, };
impl x of tie_s { instance x(src_i), instance y(y_i), x.a => y.b "n", a => y.c "n__x", };
impl w of tie_s { instance w(src_i), instance y(y_i), a => y.c "n__w", w.a => y.b "n", };
streamlet strict_s { a: s in, b: s in, };
impl strict of strict_s { instance x(x), instance w(w), a => x.a, b => w.a, };
"""


def oracle_cases():
    """(name, evaluated project, package, top) for each design whose DOT and
    IR `test_dot_matches_a_naive_renderer` checks; all but the fan-out are
    sugared."""
    cases = [(f"binary_tree_{depth}", (binary_tree(depth),), f"p.lvl{depth}_i")
             for depth in range(1, 7)]
    with open(os.path.join(DATA_DIR, "golden_hier.td"), encoding="utf-8") as f:
        cases.append(("golden_hier", (f.read(),), "hier.top_i"))
    cases += [("arrays", ("package p;" + TWO_LEVEL,), "p.main_i"),
              ("keyword_top", (KEYWORD_TOP.replace("TOP", "Node"),), "p.Node"),
              ("prefix_names", (PREFIX_NAMES,), "p.top_i"),
              ("fan_out", (FAN_OUT,), "p.top_i")]
    cases += [(f"label_ties_{top}", (LABEL_TIES,), f"p.{top}") for top in ("x", "w", "strict")]
    for name, texts, top in cases:
        project, ctx = evaluated_project(*texts, top=top)
        if name != "fan_out":
            sugar_project(ctx, project)
        yield name, project, *top.split(".")


def test_dot_matches_a_naive_renderer():
    """`emit_dot(flatten(...))` is byte-identical to a renderer that shares
    none of its stamps, columns or quoting, on trees of every depth up to 6,
    array instances and ports, a keyword top, and one implementation
    instanced at two depths whose connection names `a`, `a0` and `a_b` are
    prefixes of one another, nets whose labels tie or differ only in their
    sinks, and nets of different names whose labels tie, in either order of
    declaration. The IR of each is byte-identical to `naive_ir`'s."""
    for name, project, package, top in oracle_cases():
        assert emit_ir(project) == naive_ir(project), name
        expected = naive_dot(project, package, top)
        assert emit_dot(flatten(project, package, top)) == expected, name
        if name == "prefix_names":
            assert expected.count('[label="a__') == 5
            assert expected.count('[label="a0__') == expected.count('[label="a_b__') == 4
        if name == "fan_out":
            assert expected.splitlines()[5:8] == [
                'top_i:i -> top_i__x:j [label="f__top_i::i__top_i__x"] ;',
                'top_i:i -> top_i__x:i [label="f__top_i::i__top_i__x"] ;',
                'top_i:i -> top_i__y:i [label="f__top_i::i__top_i__y"] ;']
        if name == "label_ties_x":
            assert [line for line in expected.splitlines() if "n__x__x::" in line] == [
                'x__x:a -> x__y:b [label="n__x__x::a__x__y"] ;',
                'x:a -> x__y:c [label="n__x__x::a__x__y"] ;']
        if name == "label_ties_w":
            assert [line for line in expected.splitlines() if "n__w__w::" in line] == [
                'w:a -> w__y:c [label="n__w__w::a__w__y"] ;',
                'w__w:a -> w__y:b [label="n__w__w::a__w__y"] ;']
        if name == "label_ties_strict":
            assert expected.count('"strict"') == 3


# -- IR -------------------------------------------------------------------------


def load_workloads():
    """perfbench's workload generators, loaded once from their file, read
    only (a dataclass needs its module in `sys.modules`)."""
    name = "perfbench_workloads"
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(
            name, os.path.join(ROOT, "perfbench", "workloads.py"))
        sys.modules[name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[name])
    return sys.modules[name]


@pytest.mark.parametrize("name", ["tpch_multi", "fanout_sugar", "deep_hier"])
def test_benchmark_workload_matches_the_naive_renderers(name):
    """Each benchmark workload, at a quarter of its size, compiles to the IR
    (and, for deep_hier, the DOT) that the naive renderers write."""
    workloads = load_workloads()
    w = workloads.generate(name, 1, ROOT, scale=0.25)
    result = compile_sources(workloads.config(w), w.sources)
    assert result.exit_code == 0
    assert workloads.check(w, result.exit_code, result.artifacts) == []
    assert result.artifacts["ir.json"] == naive_ir(result.project)
    if name == "deep_hier":
        assert result.artifacts["circuit.dot"] == naive_dot(result.project, *w.top.split("."))


def test_ir_serializes_stream_defaults_explicitly():
    project, ctx = evaluated_project(
        "package p;\n"
        "type s = Stream(Bit(4));\n"
        "streamlet top_s { a: s in, b: s out, };\n"
        "impl top_i of top_s { a => b, };\n")
    doc = json.loads(emit_ir(project))
    stream = doc["packages"]["p"]["types"]["s"]
    assert stream["properties"] == {
        "dimension": 0, "user": {"kind": "null"}, "throughput": 1.0,
        "synchronicity": "Sync", "complexity": 7, "direction": "Forward",
        "keep": False}


def test_ir_external_impl_has_flag_and_empty_body():
    project, ctx = evaluated_project(
        "package p;\n"
        "type s = Stream(Bit(4));\n"
        "streamlet leaf_s { input: s in, };\n"
        "external impl leaf_i of leaf_s {\n};\n"
        "streamlet top_s { a: s in, };\n"
        "impl top_i of top_s { instance l(leaf_i), a => l.input, };\n")
    doc = json.loads(emit_ir(project))
    leaf = doc["packages"]["p"]["implementations"]["leaf_i"]
    assert leaf["external"] is True
    assert leaf["instances"] == {} and leaf["connections"] == []


def test_ir_includes_mangled_instances_and_resolved_ends():
    project, ctx = evaluated_project(
        "package p;\n"
        "type rgb_stream = Stream(Bit(8));\n"
        "streamlet v_s<t: type> { input: t in, };\n"
        "external impl v_i<t: type> of v_s<type t> {\n};\n"
        "streamlet top_s { a: rgb_stream in, };\n"
        "impl top_i of top_s { instance v(v_i<type rgb_stream>), a => v.input, };\n")
    doc = json.loads(emit_ir(project))
    impls = doc["packages"]["p"]["implementations"]
    assert "v_i@Stream(rgb_stream)" in impls
    top = impls["top_i"]
    assert top["connections"][0]["source"] == {"owner": None, "port": "a"}
    assert top["connections"][0]["sink"] == {"owner": "v", "port": "input"}
    assert "v_i" not in impls  # templates are never serialized


def test_ir_stable_key_ordering():
    project, ctx = evaluated_project(
        "package p;\n"
        "type s = Stream(Bit(4));\n"
        "streamlet top_s { a: s in, b: s out, };\n"
        "impl top_i of top_s { a => b, };\n")
    assert emit_ir(project) == emit_ir(project)


_CHARACTER = st.one_of(
    st.sampled_from(['"', "\\", "\x00", "\n", "\x1f", "\x7f", "\u00e9", "\u2028",
                     "\ufeff", "\U0001F600"]),
    st.characters())
_DOC = st.text(_CHARACTER.filter(lambda c: c != "#"), min_size=1)
_MAX_FLOAT = 1.7976931348623157e308


def _float_literal(x: float) -> str:
    """A `.td` float literal that evaluates to exactly `x`: its decimal value."""
    text = format(Decimal(x), "f")
    return text if "." in text else text + ".0"


@settings(max_examples=60, deadline=None)
@given(st.tuples(_DOC, _DOC), st.text(_CHARACTER.filter(lambda c: c != "\n")),
       st.one_of(st.sampled_from([0, 2**63 - 1]), st.integers(0, 2**63 - 1)),
       st.one_of(st.sampled_from([5e-324, 2.2250738585072014e-308, _MAX_FLOAT]),
                 st.floats(min_value=5e-324, max_value=_MAX_FLOAT)))
@example(("doc", "\U0001F600"), "lane_0", 2, 1.5)
@example(("doc", "doc"), "a\ud800b", 0, 1.0)
def test_ir_of_generated_sources_is_canonical_json(docs, name, dimension, throughput):
    """Docs and connection names that need escaping, the largest int64 and
    the extreme finite floats reach the IR as the standard encoder writes
    them, and each loads back exactly, in the IR that `naive_ir` writes. A
    lone surrogate, which no UTF-8 file holds, fails the compile as an io
    error at its first place."""
    literal = name.replace("\\", "\\\\").replace('"', '\\"')
    source = ("package p;\n"
              f"type s = Stream(Bit(1), d = {dimension}, t = {_float_literal(throughput)});\n"
              f"#{docs[0]}# streamlet top_s {{ a: s in, b: s out, }};\n"
              f'#{docs[1]}# impl top_i of top_s {{ a => b "{literal}", }};\n')
    result = compile_texts(source, ir=True)
    surrogates = [i for i, c in enumerate(source) if "\ud800" <= c <= "\udfff"]
    if surrogates:
        assert result.exit_code == 2
        assert [(d.category, d.message) for d in result.diagnostics] == [
            ("io", "file_0.td: not valid UTF-8 (surrogates not allowed at character "
                   f"{surrogates[0]})")]
        return
    assert result.ok, result.diagnostics
    text = result.artifacts["ir.json"]
    assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"
    assert text == naive_ir(result.project)
    doc = json.loads(text)["packages"]["p"]
    properties = doc["types"]["s"]["properties"]
    assert (properties["dimension"], properties["throughput"]) == (dimension, throughput)
    top_i = doc["implementations"]["top_i"]
    assert (doc["streamlets"]["top_s"]["doc"], top_i["doc"]) == docs
    assert top_i["connections"][0]["name"] == name


def test_ir_writer_renders_a_shared_type_per_depth():
    """One group, placed as a named type, a field of another group, a
    stream element, a stream's user type and in port types, at several
    depths and twice at one depth, is written alike at each place."""
    result = compile_texts(
        "package p;\n"
        "type Group pair { a: Bit(3), b: Bit(5), };\n"
        "type Group outer { p: pair, q: Bit(1), };\n"
        "type s = Stream(pair, d = 2, u = pair);\n"
        "streamlet leaf_s { i: s in, o: Stream(pair) out, w: Stream(outer) out, };\n"
        "external impl leaf_i of leaf_s {};\n", ir=True)
    assert result.ok, result.diagnostics
    text = result.artifacts["ir.json"]
    assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"
    doc = json.loads(text)["packages"]["p"]
    pair = doc["types"]["pair"]
    assert pair["fields"][1] == {"name": "b", "type": {"kind": "bit", "width": 5}}

    def pairs(value):
        if isinstance(value, dict):
            if value.get("name") == "pair" and value.get("kind") == "group":
                yield value
            for v in value.values():
                yield from pairs(v)
        elif isinstance(value, list):
            for v in value:
                yield from pairs(v)

    found = list(pairs(doc))
    # the entry, outer's field, s's element and user type (in the types
    # map and in port i), port o's element and outer's field in port w
    assert len(found) == 8
    assert all(p == pair for p in found)


# every optional IR key (`owner_index`, `port_index`, `array_size` on an
# instance and a port, a FIFO depth, @NoStrictType@, both docs) and strings
# that need escaping: `"`, `\`, a tab, a non-ASCII and an astral character
EVERY_IR_KEY = (
    "package p;\n"
    "type s = Stream(Bit(2));\n"
    '#a leaf, "quoted" \\ a\ttab é \U0001F600# '
    "streamlet leaf_s { i: s [2] in, o: s [2] out, };\n"
    "#external é# external impl leaf_i of leaf_s {};\n"
    "streamlet top_s { a: s [2] in, b: s [2] out, };\n"
    "#top \U0001F600# impl top_i of top_s {\n"
    "  instance x(leaf_i) [2],\n"
    '  a[0] =3=> x[1].i[0] "n\\"a\\\\m\teé\U0001F600",\n'
    "  a[1] => x[1].i[1] @NoStrictType@,\n"
    "  x[1].o[0] => x[0].i[0], x[1].o[1] => x[0].i[1],\n"
    "  x[0].o[0] => b[0], x[0].o[1] => b[1],\n"
    "};\n")


# the goldens that write an IR, by the source each case of the test below names
GOLDEN_IRS = {"tpch1.td": "tpch1", "golden_templates": "templates", "golden_for": "for",
              "golden_streams.td": "streams", "golden_hier.td": "hier",
              "golden_circuit.td": "circuit"}


@pytest.mark.parametrize("name, top", [
    ("tpch1.td", "std.main_i"), ("golden_templates", "app.top_i"),
    ("golden_for", "lanes.top_i"), ("golden_streams.td", "streams.top_i"),
    ("golden_hier.td", "hier.top_i"), ("golden_demo.td", None),
    ("golden_circuit.td", "circ.top_i"), ("every_ir_key", "p.top_i")])
def test_ir_is_canonical_json(tmp_path, golden_build, name, top):
    """The IR is exactly what the standard encoder writes, with ``indent=2,
    sort_keys=True``, for the document it holds. A golden's IR is read from
    its one build, which `test_goldens` also checks against `naive_ir`; the
    others are compiled here, and checked against it too."""
    if name in GOLDEN_IRS:
        text = golden_build(GOLDEN_IRS[name]).text("ir.json")
    else:
        if name == "every_ir_key":
            path = tmp_path / "every_ir_key.td"
            path.write_text(EVERY_IR_KEY, encoding="utf-8")
        else:
            path = os.path.join(DATA_DIR, name)
        result = compile_project(CompileConfig(inputs=[str(path)], top=top, emit_ir=True))
        assert result.ok, result.diagnostics
        text = result.artifacts["ir.json"]
        assert text == naive_ir(result.project)
    assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"
    if name == "every_ir_key":
        doc = json.loads(text)["packages"]["p"]
        top_i = doc["implementations"]["top_i"]
        first, second = top_i["connections"][:2]
        assert (first["fifo_depth"], first["sink"]["owner_index"],
                first["source"]["port_index"], second["no_strict_type"]) == (3, 1, 0, True)
        assert first["name"] == 'n"a\\m\teé\U0001F600'
        assert top_i["instances"]["x"]["array_size"] == 2
        assert doc["streamlets"]["leaf_s"]["ports"]["o"]["array_size"] == 2
        assert "doc" in top_i and "doc" in doc["streamlets"]["leaf_s"]


def test_ir_writes_growing_records_as_finished_text(monkeypatch):
    """Connections, instances and ports reach the IR as finished text, and
    each logical type is rendered once per place: a 100-lane fan-out
    renders as many types as a 10-lane one."""
    original = emit._type_text

    def type_renders(lanes):
        result = compile_texts(fan_out(lanes))
        assert result.ok, result.diagnostics
        renders = 0

        def counting(*args):
            nonlocal renders
            renders += 1
            original(*args)

        with monkeypatch.context() as m:
            m.setattr("tydilang.emit._type_text", counting)
            text = emit_ir(result.project)
        connections = sum(len(impl.connections) for pkg in result.project.packages.values()
                          for impl in pkg.scope.implements.values())
        assert text.count('"fifo_depth"') == connections >= 4 * lanes
        return renders

    assert type_renders(10) == type_renders(100)


def test_flat_names_are_injective():
    _, circuit = build_circuit()
    names = list(components_of(circuit))
    assert len(names) == len(circuit.components) == len(set(names))


def test_ir_inline_group_field_keeps_its_fields():
    """A group written inline as a field's type is built like a nested
    `type Group` declaration, so its fields reach the IR."""
    project, _ = evaluated_project(
        "package p;\n"
        "type Group g { f: Group h { x: Bit(1), }, y: Bit(2), };\n"
        "streamlet a_s { o: Stream(g) out, };\n"
        "external impl a_i of a_s {};\n")
    doc = json.loads(emit_ir(project))
    assert doc["packages"]["p"]["types"]["g"] == {
        "kind": "group", "name": "g", "fields": [
            {"name": "f", "type": {"kind": "group", "name": "h", "fields": [
                {"name": "x", "type": {"kind": "bit", "width": 1}}]}},
            {"name": "y", "type": {"kind": "bit", "width": 2}}]}
    port = doc["packages"]["p"]["streamlets"]["a_s"]["ports"]["o"]
    assert port["type"]["element"] == doc["packages"]["p"]["types"]["g"]


def test_ir_inline_union_field_keeps_its_fields():
    """An inline union field sees the names around its enclosing union, as
    a nested declaration does, and the IR writes both unions."""
    project, _ = evaluated_project(
        "package p;\n"
        "const w = 3;\n"
        "type Union u { a: Union v { p: Bit(w), q: Null, }, b: Bit(2), };\n")
    doc = json.loads(emit_ir(project))
    assert doc["packages"]["p"]["types"]["u"] == {
        "kind": "union", "name": "u", "fields": [
            {"name": "a", "type": {"kind": "union", "name": "v", "fields": [
                {"name": "p", "type": {"kind": "bit", "width": 3}},
                {"name": "q", "type": {"kind": "null"}}]}},
            {"name": "b", "type": {"kind": "bit", "width": 2}}]}


def test_ir_writes_streamlet_and_implementation_docs():
    project, _ = evaluated_project(
        "package p;\n"
        "type s = Stream(Bit(1));\n"
        "#emits one bit# streamlet a_s { o: s out, };\n"
        "#an external \"source\"# external impl a_i of a_s {};\n"
        "streamlet b_s { o: s out, };\n"
        "external impl b_i of b_s {};\n")
    doc = json.loads(emit_ir(project))["packages"]["p"]
    assert doc["streamlets"]["a_s"]["doc"] == "emits one bit"
    assert doc["implementations"]["a_i"]["doc"] == 'an external "source"'
    assert "doc" not in doc["streamlets"]["b_s"]
    assert "doc" not in doc["implementations"]["b_i"]


COLLIDING = [
    ("array_element", "package p; type s = Stream(Bit(1)); "
     "streamlet io_s { i: s in, o: s out, }; external impl leaf_i of io_s { }; "
     "impl top_i of io_s { instance row(leaf_i) [2], instance row_AT_0(leaf_i), };",
     "p.top_i"),
    ("across_levels", "package p; type s = Stream(Bit(1)); "
     "streamlet io_s { i: s in, o: s out, }; external impl leaf_i of io_s { }; "
     "impl a_i of io_s { instance x(leaf_i), }; impl b_i of io_s { instance _x(leaf_i), }; "
     "impl top_i of io_s { instance a_(a_i), instance a(b_i), };", "p.top_i"),
    ("port_anchor", "package p; type s = Stream(Bit(1)); "
     "streamlet f_s { feeds: s [2] in, feeds_AT_0: s in, }; "
     "external impl f_i of f_s { };", "p.f_i"),
]


@pytest.mark.parametrize("source, top", [case[1:] for case in COLLIDING],
                         ids=[case[0] for case in COLLIDING])
def test_colliding_dot_names_fail_the_compile(tmp_path, source, top):
    """Two components of one flat name, or two ports of one record anchor,
    would merge in the DOT; the compile fails with an error report instead,
    and writes no circuit.dot and no IR."""
    path = tmp_path / "f0.td"
    path.write_text(source, encoding="utf-8")
    out = tmp_path / "out"
    result = compile_project(CompileConfig(inputs=[str(path)], output_dir=str(out),
                                           top=top, emit_dot=True, emit_ir=True))
    assert result.exit_code == 1
    assert [d.category for d in result.diagnostics] == ["resolution"]
    report = (out / "error_report.txt").read_text(encoding="utf-8")
    assert report.startswith(f"{path}:1:") and "[resolution]" in report
    assert not (out / "circuit.dot").exists() and not (out / "ir.json").exists()
    assert (out / "2_evaluation_output_after_sugaring.txt").exists()
