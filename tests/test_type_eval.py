import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from tydilang.context import EvalContext
from tydilang.errors import TydiError
from tydilang.logical_types import (NULL, BitType, GroupType, StreamType,
                                    bit_width, data_type_display, short_name,
                                    types_compatible)
from tydilang.type_eval import force_type_entry

from conftest import evaluated_project, project_of


def eval_type(decls: str, name: str):
    project, ctx = evaluated_project(f"package p;\n{decls}")
    entry = project.packages["p"].scope.types[name]
    force_type_entry(ctx, entry)
    return entry


def type_error(decls: str, name: str) -> str:
    project = project_of(f"package p;\n{decls}")
    ctx = EvalContext(project)
    with pytest.raises(TydiError) as exc:
        force_type_entry(ctx, project.packages["p"].scope.types[name])
    return exc.value.message


# -- evaluation ----------------------------------------------------------------


def test_bit_width_expression():
    entry = eval_type("type day_t = Bit(ceil(log2(31)));", "day_t")
    assert entry.evaluated == BitType(5)


def test_alias_resolves_through():
    entry = eval_type("type a = Bit(8);\ntype b = a;\ntype c = b;", "c")
    assert entry.evaluated == BitType(8)


def test_stream_defaults_match_property_table():
    entry = eval_type("type s = Stream(Bit(4));", "s")
    p = entry.evaluated.properties
    assert (p.dimension, p.throughput, p.synchronicity, p.complexity,
            p.direction, p.keep) == (0, 1.0, "Sync", 7, "Forward", False)
    assert p.user is NULL


def test_stream_property_order_is_irrelevant():
    a = eval_type("type s = Stream(Bit(4), d=2, c=6);", "s").evaluated
    b = eval_type("type s = Stream(Bit(4), c=6, d=2);", "s").evaluated
    assert a.properties == b.properties


def test_stream_property_ranges():
    assert "complexity" in type_error("type s = Stream(Bit(4), c=9);", "s")
    assert "complexity" in type_error("type s = Stream(Bit(4), c=0);", "s")
    assert "dimension" in type_error("type s = Stream(Bit(4), d=-1);", "s")
    assert "synchronicity" in type_error('type s = Stream(Bit(4), s="Wrong");', "s")
    assert "direction" in type_error('type s = Stream(Bit(4), r="Up");', "s")
    assert "keep" in type_error("type s = Stream(Bit(4), x=1);", "s")
    assert "throughput" in type_error("type s = Stream(Bit(4), t=-1.0);", "s")


def test_stream_properties_full():
    entry = eval_type(
        'type s = Stream(Bit(8), d = 5, t = 2.5, s="Desync", c=3, r="Reverse", x=true);',
        "s")
    p = entry.evaluated.properties
    assert (p.dimension, p.throughput, p.synchronicity, p.complexity,
            p.direction, p.keep) == (5, 2.5, "Desync", 3, "Reverse", True)
    p = eval_type("type s = Stream(Bit(8), t = 2);", "s").evaluated.properties
    assert type(p.throughput) is float and p.throughput == 2.0


def test_user_type_must_not_be_stream():
    assert "user" in type_error(
        "type inner = Stream(Bit(1));\ntype s = Stream(Bit(4), u=inner);", "s")


def test_user_type_carried():
    entry = eval_type("type s = Stream(Bit(4), u=Bit(2));", "s")
    assert entry.evaluated.properties.user == BitType(2)


def test_bit_zero_rejected():
    assert "at least 1" in type_error("type b = Bit(0);", "b")


def test_negative_bit_width_rejected():
    assert "at least 1" in type_error("type b = Bit(1-2);", "b")


def test_group_fields_evaluate_in_group_scope():
    entry = eval_type(
        "type Group rgb {\n  const x = 8,\n  type c = Bit(x),\n  r: c,\n  g: Bit(x),\n"
        "  b: Bit(x),\n};", "rgb")
    assert [w.width for _, w in entry.evaluated.fields] == [8, 8, 8]


def test_nested_stream_in_group_is_carried():
    entry = eval_type(
        "type Group g {\n  head: Bit(4),\n  tail: Stream(Bit(8)),\n};", "g")
    fields = dict(entry.evaluated.fields)
    assert isinstance(fields["tail"], StreamType)


# -- bit_width -------------------------------------------------------------------


def test_bit_width_rules():
    assert bit_width(NULL) == 0
    assert bit_width(BitType(17)) == 17
    group = eval_type(
        "type Group Date {\n  year: Bit(17),\n  month: Bit(4),\n  day: Bit(5),\n};",
        "Date").evaluated
    assert bit_width(group) == 26
    union = eval_type(
        "type Union u {\n  rgb: Bit(24),\n  null_data: Null,\n};", "u").evaluated
    assert bit_width(union) == 24


def test_bit_width_rejects_stream():
    s = eval_type("type s = Stream(Bit(4));", "s").evaluated
    with pytest.raises(TydiError):
        bit_width(s)


@st.composite
def type_trees(draw, depth=4):
    if depth == 0:
        return ("bit", draw(st.integers(min_value=1, max_value=32)))
    kind = draw(st.sampled_from(["bit", "group", "union"]))
    if kind == "bit":
        return ("bit", draw(st.integers(min_value=1, max_value=32)))
    n = draw(st.integers(min_value=1, max_value=3))
    return (kind, [draw(type_trees(depth=depth - 1)) for _ in range(n)])


def _tree_decls(tree, counter):
    """Render a tree to type declarations; returns (type name, decl text)."""
    if tree[0] == "bit":
        return f"Bit({tree[1]})", ""
    children = []
    decls = []
    for i, sub in enumerate(tree[1]):
        name, sub_decls = _tree_decls(sub, counter)
        decls.append(sub_decls)
        children.append(f"  f{i}: {name},")
    me = f"t{counter[0]}"
    counter[0] += 1
    kw = "Group" if tree[0] == "group" else "Union"
    decls.append(f"type {kw} {me} {{\n" + "\n".join(children) + "\n};")
    return me, "\n".join(d for d in decls if d)


def _expected_width(tree) -> int:
    if tree[0] == "bit":
        return tree[1]
    widths = [_expected_width(t) for t in tree[1]]
    return sum(widths) if tree[0] == "group" else max(widths)


@settings(max_examples=60, deadline=None)
@given(type_trees())
def test_bit_width_fold_property(tree):
    counter = [0]
    name, decls = _tree_decls(tree, counter)
    if not decls:  # plain Bit at the root
        decls = f"type t0 = {name};"
        name = "t0"
    project, ctx = evaluated_project(f"package p;\n{decls}")
    entry = project.packages["p"].scope.types[name]
    force_type_entry(ctx, entry)
    assert bit_width(entry.evaluated) == _expected_width(tree)


# -- strict equality and compatibility ----------------------------------------------


SHARED = """
type Group rgb {
  r: Bit(8),
  g: Bit(8),
  b: Bit(8),
};
type rgb_stream = Stream(rgb);
streamlet s {
  input: rgb_stream in,
  output: rgb_stream out,
};
streamlet s2 {
  input: Stream(rgb) in,
  output: Stream(rgb) out,
};
impl i of s { input => output, };
impl i2 of s2 { input => output @NoStrictType@, };
"""


def _ports(project, streamlet):
    return project.packages["p"].scope.streamlets[streamlet].ports


def test_same_alias_is_strictly_equal():
    project, _ = evaluated_project("package p;" + SHARED)
    ports = _ports(project, "s")
    assert ports["input"].logical_type is ports["output"].logical_type


def test_two_inline_streams_are_not_strictly_equal():
    project, _ = evaluated_project("package p;" + SHARED)
    ports = _ports(project, "s2")
    assert ports["input"].logical_type is not ports["output"].logical_type
    assert types_compatible(ports["input"].logical_type,
                            ports["output"].logical_type)


def test_alias_chain_is_strictly_equal_to_target():
    project, ctx = evaluated_project(
        "package p;\n"
        "type c = Bit(4);\ntype b = c;\ntype a = b;\n"
        "streamlet s { x: Stream(a) in, };\nimpl i of s { };\n")
    types = project.packages["p"].scope.types
    for entry in types.values():
        force_type_entry(ctx, entry)
    assert types["a"].evaluated is types["c"].evaluated


def test_strictly_equal_implies_compatible():
    project, _ = evaluated_project("package p;" + SHARED)
    ports = _ports(project, "s")
    assert types_compatible(ports["input"].logical_type,
                            ports["output"].logical_type)


def test_evaluated_types_are_frozen():
    project, _ = evaluated_project(
        "package p;\n"
        "type Group g { a: Bit(4), };\n"
        "type Union u { a: Bit(4), };\n"
        "type s = Stream(g, d=1, u=u);\n")
    types = project.packages["p"].scope.types
    stream = types["s"].evaluated
    for t, name, value in ((types["g"].evaluated, "fields", ()),
                           (types["u"].evaluated, "name", "v"),
                           (stream, "element", NULL),
                           (stream.properties, "dimension", 2)):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(t, name, value)
    assert stream.properties.dimension == 1


def test_same_named_groups_of_two_packages_are_distinct_but_compatible():
    group = "type Group pair { a: Bit(4), b: Bit(2), };\n"
    project, _ = evaluated_project("package p1;\n" + group,
                                   "package p2;\n" + group)
    one, two = (project.packages[p].scope.types["pair"].evaluated
                for p in ("p1", "p2"))
    assert (one.name, one.fields) == (two.name, two.fields)
    assert one != two and hash(one) != hash(two)
    assert types_compatible(one, two)


def test_alias_evaluates_to_the_object_of_its_target():
    project, ctx = evaluated_project(
        "package p;\n"
        "type Group g { a: Bit(4), };\n"
        "type s = Stream(g);\n"
        "type s2 = s;\ntype s3 = s2;\ntype g2 = g;\n")
    types = project.packages["p"].scope.types
    for entry in types.values():
        force_type_entry(ctx, entry)
    assert types["s3"].evaluated is types["s2"].evaluated is types["s"].evaluated
    assert types["g2"].evaluated is types["g"].evaluated
    assert types["s"].evaluated.element is types["g"].evaluated


def test_compatibility_is_structural():
    assert types_compatible(BitType(8), BitType(8))
    assert not types_compatible(BitType(8), BitType(9))
    assert not types_compatible(BitType(8), NULL)


def test_group_compatibility_requires_same_name_order():
    a = GroupType("g1", None, [("a", BitType(4)), ("b", BitType(4))])
    b = GroupType("g2", None, [("b", BitType(4)), ("a", BitType(4))])
    c = GroupType("g3", None, [("a", BitType(4)), ("b", BitType(4))])
    d = GroupType("g4", None, [("a", BitType(4))])
    assert not types_compatible(a, b)
    assert types_compatible(a, c)
    assert not types_compatible(a, d)


def test_stream_compatibility_requires_equal_properties():
    base = eval_type("type s = Stream(Bit(4));", "s").evaluated
    other = eval_type("type s = Stream(Bit(4), d=1);", "s").evaluated
    same = eval_type("type s = Stream(Bit(4));", "s").evaluated
    assert not types_compatible(base, other)
    assert types_compatible(base, same)


# -- display names ------------------------------------------------------------------


def test_display_names():
    stream = eval_type("type int_stream = Stream(Bit(32), d=1);",
                       "int_stream").evaluated
    assert data_type_display(stream) == "Stream(int_stream)"
    assert short_name(stream) == "Stream(int_stream)"
    group = eval_type("type Group Date { year: Bit(17), };", "Date").evaluated
    assert data_type_display(group) == "DataGroup(Date)"
    assert short_name(group) == "Date"
    anon = StreamType(name=None, element=BitType(2))
    assert short_name(anon) == "Stream(Bit(2))"
    assert short_name(StreamType(name=None)) == "Stream(Null)"
