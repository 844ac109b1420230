import pytest

from tydilang.context import EvalContext
from tydilang.dump import dump_code_structure
from tydilang.logical_types import BitType, StreamType
from tydilang.model import EvalState
from tydilang.pipeline import evaluate_project
from tydilang.values import DEFAULT_CLOCKDOMAIN, IntValue

from conftest import (compile_texts, evaluated_project, live_span_count,
                      project_of)


def failing_project(*texts, top=None):
    project = project_of(*texts)
    ctx = EvalContext(project)
    diags = evaluate_project(ctx, project, top)
    assert diags, "expected at least one diagnostic"
    return project, diags


RGB = """
type Group rgb {
  r: Bit(8),
  g: Bit(8),
  b: Bit(8),
};
type rgb_stream = Stream(rgb);
"""


# -- ports and clockdomains -----------------------------------------------------


def test_port_types_and_default_clockdomain():
    project, _ = evaluated_project(
        "package p;" + RGB +
        "streamlet s { input: rgb_stream in, output: rgb_stream out, };\n"
        "impl i of s { input => output, };\n")
    ports = project.packages["p"].scope.streamlets["s"].ports
    assert isinstance(ports["input"].logical_type, StreamType)
    assert ports["input"].clockdomain == DEFAULT_CLOCKDOMAIN


def test_port_clockdomain_variable_and_literal():
    project, _ = evaluated_project(
        "package p;" + RGB +
        'const cd: clockdomain = "any string";\n'
        "streamlet s {\n"
        "  input: rgb_stream in `cd,\n"
        '  output: rgb_stream out `"10kHz",\n'
        "};\n"
        "impl i of s { input => output, };\n")
    ports = project.packages["p"].scope.streamlets["s"].ports
    assert ports["input"].clockdomain.expression == "any string"
    assert ports["output"].clockdomain.expression == "10kHz"


def test_port_type_must_be_stream():
    _, diags = failing_project(
        "package p;\nstreamlet s { x: Bit(4) in, };\nimpl i of s { };\n")
    assert any("stream" in d.message for d in diags)


def test_duplicate_port_name_rejected():
    with pytest.raises(Exception):
        project_of("package p;\nstreamlet s { x: Stream(Bit(1)) in, x: Stream(Bit(1)) out, };\n")


# -- instances and connections -----------------------------------------------------


def test_instance_and_member_connections():
    project, _ = evaluated_project(
        "package p;" + RGB +
        "streamlet bypass_s { input: rgb_stream in, output: rgb_stream out, };\n"
        "impl inner_i of bypass_s { input => output, };\n"
        "impl outer_i of bypass_s {\n"
        "  instance inner(inner_i),\n"
        "  input => inner.input,\n"
        "  inner.output => output,\n"
        "};\n")
    outer = project.packages["p"].scope.implements["outer_i"]
    conns = outer.connections
    assert conns[0].sink.instance.name == "inner"
    assert conns[1].source.instance.name == "inner"
    assert conns[1].sink.is_self


def test_connection_fifo_depth_and_name():
    project, _ = evaluated_project(
        "package p;" + RGB +
        "streamlet s { input: rgb_stream in, output: rgb_stream out, };\n"
        'impl i of s { input =1=> output "input2output", };\n')
    conn = project.packages["p"].scope.implements["i"].connections[0]
    assert conn.fifo_depth == 1
    assert conn.name == "input2output"


def test_auto_connection_name_uses_span():
    project, _ = evaluated_project(
        "package p;" + RGB +
        "streamlet s { input: rgb_stream in, output: rgb_stream out, };\n"
        "impl i of s { input => output, };\n")
    conn = project.packages["p"].scope.implements["i"].connections[0]
    assert conn.name.startswith("connection_")
    start, end = conn.name[len("connection_"):].split("-")
    assert int(start) < int(end)


def test_for_expansion_builds_no_span_per_element():
    """Entities keep their declaring node as their location, so a `for` of
    200 lanes leaves as many `Span` records alive as one of 20."""
    def spans_with_lanes(lanes: int) -> int:
        project, _ = evaluated_project(
            "package p;\n"
            "type s = Stream(Bit(1));\n"
            "streamlet leaf_s { i: s in, };\n"
            "external impl leaf_i of leaf_s {};\n"
            f"streamlet top_s {{ i: s [{lanes}] in, }};\n"
            "impl top_i of top_s {\n"
            f"  for k in (0=1=>{lanes}) {{\n"
            "    instance l_{{k}}(leaf_i),\n"
            "    i[k] => l_{{k}}.i,\n"
            "  },\n"
            "};\n")
        impl = project.packages["p"].scope.implements["top_i"]
        assert len(impl.instances) == len(impl.connections) == lanes
        return live_span_count()

    assert spans_with_lanes(200) == spans_with_lanes(20)


def test_index_out_of_bounds():
    _, diags = failing_project(
        "package p;" + RGB +
        "const channel = 4;\n"
        "streamlet s { inputs: rgb_stream [channel] in, outputs: rgb_stream [channel] out, };\n"
        "impl i of s { inputs[5] => outputs[0], };\n")
    assert any("out of bounds" in d.message for d in diags)


def test_array_port_requires_index():
    _, diags = failing_project(
        "package p;" + RGB +
        "streamlet s { inputs: rgb_stream [2] in, outputs: rgb_stream [2] out, };\n"
        "impl i of s { inputs => outputs[0], };\n")
    assert any("index is required" in d.message for d in diags)


def test_unknown_port_and_instance():
    _, diags = failing_project(
        "package p;" + RGB +
        "streamlet s { input: rgb_stream in, };\n"
        "impl i of s { input => ghost.port, };\n")
    assert any("unknown instance" in d.message for d in diags)


# -- member extraction ---------------------------------------------------------------


def test_streamlet_member_extraction():
    project, _ = evaluated_project(
        "package p;" + RGB +
        "streamlet rgb_bypass2 {\n"
        "  const delay = 10,\n"
        "  input: rgb_stream in,\n"
        "  output: rgb_stream out,\n"
        "};\n"
        "const delay = streamlet rgb_bypass2.delay;\n")
    assert project.packages["p"].scope.variables["delay"].value == IntValue(10)


def test_type_member_extraction_in_expression():
    project, _ = evaluated_project(
        "package p;\n"
        "type Group rgb {\n  const x = 8,\n  r: Bit(x),\n};\n"
        "const got = type rgb.x;\n")
    assert project.packages["p"].scope.variables["got"].value == IntValue(8)


def test_extraction_from_instantiated_streamlet_template():
    project, _ = evaluated_project(
        "package p;" + RGB +
        "streamlet accumulator_s<data_type: type> {\n"
        "  type count_type = Stream(Bit(32)),\n"
        "  input: data_type in,\n"
        "};\n"
        "type count_type = streamlet accumulator_s<type rgb_stream>.count_type;\n"
        "streamlet s { c: count_type out, };\n"
        "impl i of s { };\n")
    entry = project.packages["p"].scope.types["count_type"]
    assert isinstance(entry.evaluated, StreamType)
    assert entry.evaluated.element == BitType(32)
    assert "accumulator_s@Stream(rgb_stream)" in project.packages["p"].scope.streamlets


def test_missing_member_reports_owner_scope():
    _, diags = failing_project(
        "package p;" + RGB +
        "streamlet s { input: rgb_stream in, };\n"
        "const nope = streamlet s.ghost;\n")
    assert any("ghost" in d.message and "streamlet_s" in d.message for d in diags)


# -- templates ------------------------------------------------------------------------


TEMPLATE = RGB + """
streamlet void_s<type_in: type> {
  input: type_in in,
};
external impl void_i<type_in: type> of void_s<type type_in> {
};
streamlet top_s { x: rgb_stream in, };
"""


def test_instantiation_registers_mangled_entity():
    project, _ = evaluated_project(
        "package p;" + TEMPLATE +
        "impl top_i of top_s {\n"
        "  instance v(void_i<type Stream(rgb)>),\n"
        "  x => v.input,\n"
        "};\n")
    scope = project.packages["p"].scope
    assert "void_i@Stream(rgb)" in scope.implements
    assert "void_s@Stream(rgb)" in scope.streamlets
    inst = scope.implements["top_i"].instances["v"]
    assert inst.target.id == "void_i@Stream(rgb)"
    port = inst.target.streamlet.ports["input"]
    assert isinstance(port.logical_type, StreamType)
    assert port.logical_type.element.name == "rgb"


def test_double_instantiation_memoized():
    project, _ = evaluated_project(
        "package p;" + TEMPLATE +
        "streamlet top2_s { x: rgb_stream in, y: rgb_stream in, };\n"
        "impl top_i of top2_s {\n"
        "  instance v1(void_i<type Stream(rgb)>),\n"
        "  instance v2(void_i<type Stream(rgb)>),\n"
        "  x => v1.input,\n"
        "  y => v2.input,\n"
        "};\n")
    scope = project.packages["p"].scope
    mangled = [k for k in scope.implements if k.startswith("void_i@")]
    assert mangled == ["void_i@Stream(rgb)"]
    top = scope.implements["top_i"]
    assert top.instances["v1"].target is top.instances["v2"].target


def test_template_itself_unchanged_by_instantiation():
    source = ("package p;" + TEMPLATE +
              "impl top_i of top_s {\n"
              "  instance v(void_i<type Stream(rgb)>),\n"
              "  x => v.input,\n"
              "};\n")
    before_project = project_of(source)
    before = dump_code_structure(before_project)

    project, _ = evaluated_project(source)
    template_streamlet = project.packages["p"].scope.streamlets["void_s"]
    template_impl = project.packages["p"].scope.implements["void_i"]
    assert template_streamlet.state is EvalState.NOT_INFERRED
    assert template_impl.state is EvalState.NOT_INFERRED
    # the template's own printed form still shows its placeholder
    text = dump_code_structure(project)
    assert 'type_in:DummyLogicalData(NotInferred("$arg$type_in"))' in text


def test_value_template_arguments_and_mangles():
    project, _ = evaluated_project(
        "package p;" + RGB +
        "streamlet dup_s<data_type: type, output_channel: int> {\n"
        "  input: data_type in,\n"
        "  output: data_type [output_channel] out,\n"
        "};\n"
        "external impl dup_i<data_type: type, output_channel: int> of "
        "dup_s<type data_type, output_channel> {\n};\n"
        "streamlet top_s { x: rgb_stream in, };\n"
        "impl top_i of top_s {\n"
        "  instance d(dup_i<type rgb_stream, 3>),\n"
        "  x => d.input,\n"
        "};\n")
    scope = project.packages["p"].scope
    assert "dup_i@Stream(rgb_stream)@3" in scope.implements
    dup = scope.implements["dup_i@Stream(rgb_stream)@3"]
    assert dup.streamlet.ports["output"].array_size == 3
    assert dup.streamlet.id == "dup_s@Stream(rgb_stream)@3"


def test_template_arity_and_kind_checks():
    base = ("package p;" + RGB +
            "streamlet t_s<n: int> { x: rgb_stream in, };\n"
            "external impl t_i<n: int> of t_s<n> {\n};\n"
            "streamlet top_s { x: rgb_stream in, };\n")
    _, diags = failing_project(
        base + "impl top_i of top_s { instance a(t_i<1, 2>), x => a.x, };\n")
    assert any("expects 1 argument" in d.message for d in diags)
    _, diags = failing_project(
        base + "impl top_i of top_s { instance a(t_i<1.5>), x => a.x, };\n")
    assert any("expects int" in d.message for d in diags)
    _, diags = failing_project(
        base + "impl top_i of top_s { instance a(t_i<type rgb>), x => a.x, };\n")
    assert any("expects int" in d.message or "expects a" in d.message for d in diags)


def test_instance_of_template_without_arguments_rejected():
    _, diags = failing_project(
        "package p;" + TEMPLATE +
        "impl top_i of top_s { instance v(void_i), x => v.input, };\n")
    assert any("without arguments" in d.message for d in diags)


def test_impl_of_component_argument():
    project, _ = evaluated_project(
        "package p;" + RGB +
        "streamlet component { input: rgb_stream in, output: rgb_stream out, };\n"
        "impl component_impl0 of component { input => output, };\n"
        "impl component_impl1 of component { input => output, };\n"
        "streamlet larger_component { input: rgb_stream [2] in, output: rgb_stream [2] out, };\n"
        "impl impl_larger_component<ts: impl of component> of larger_component {\n"
        "  instance inst(ts) [2],\n"
        "  for i in (0=1=>2) {\n"
        "    input[i] => inst[i].input,\n"
        "    inst[i].output => output[i],\n"
        "  }\n"
        "};\n"
        "impl impl_larger_component0(impl_larger_component<impl component_impl0>);\n"
        "impl impl_larger_component1(impl_larger_component<impl component_impl1>);\n")
    scope = project.packages["p"].scope
    larger0 = scope.implements["impl_larger_component0"]
    assert larger0.instances["inst"].target.id == "component_impl0"
    assert larger0.instances["inst"].array_size == 2
    assert len(larger0.connections) == 4
    larger1 = scope.implements["impl_larger_component1"]
    assert larger1.instances["inst"].target.id == "component_impl1"


def test_impl_of_interface_mismatch():
    _, diags = failing_project(
        "package p;" + RGB +
        "streamlet component { input: rgb_stream in, output: rgb_stream out, };\n"
        "streamlet other { input: rgb_stream in, };\n"
        "impl other_impl of other { };\n"
        "streamlet larger { input: rgb_stream in, };\n"
        "impl tpl<ts: impl of component> of larger {\n"
        "  instance inst(ts),\n"
        "  input => inst.input,\n"
        "};\n"
        "impl bad(tpl<impl other_impl>);\n")
    assert any("requires an implementation of" in d.message for d in diags)


def test_streamlet_template_impl_of_parameter():
    """The streamlet an `impl of` parameter names resolves in the template's
    package, so a streamlet template can take one too."""
    result = compile_texts(
        "package p;\n"
        "type s = Stream(Bit(1));\n"
        "streamlet io_s { i: s in, o: s out, };\n"
        "external impl leaf_i of io_s { };\n"
        "streamlet q<c: impl of io_s> { };\n"
        "impl i of q<impl leaf_i> { };\n")
    assert result.exit_code == 0, result.diagnostics


def test_impl_of_argument_passed_on():
    """An implementation bound to an `impl of` parameter can be passed on as
    a template argument."""
    result = compile_texts(
        "package p;\n"
        "type s = Stream(Bit(1));\n"
        "streamlet io_s { i: s in, o: s out, };\n"
        "external impl leaf_i of io_s { };\n"
        "streamlet w_s<c: impl of io_s> { i: s in, o: s out, };\n"
        "external impl w_i<c: impl of io_s> of w_s<impl c> { };\n"
        "streamlet top_s { i: s in, o: s out, };\n"
        "impl top_i of top_s { instance w(w_i<impl leaf_i>), i => w.i, w.o => o, };\n",
        drc=True)
    assert result.exit_code == 0, result.diagnostics
    assert [d for d in result.drc_diagnostics if d.severity == "Error"] == []


def test_impl_template_passes_args_to_streamlet_template():
    project, _ = evaluated_project(
        "package p;" + RGB +
        "streamlet data_bypass<data_type: type> {\n"
        "  input: data_type in,\n  output: data_type out,\n};\n"
        "impl impl_data_bypass<data_type: type> of data_bypass<type data_type> {\n"
        "  input => output,\n};\n"
        "impl concrete(impl_data_bypass<type rgb_stream>);\n")
    scope = project.packages["p"].scope
    concrete = scope.implements["concrete"]
    assert concrete.streamlet.id == "data_bypass@Stream(rgb_stream)"
    assert not concrete.is_template
    conn = concrete.connections[0]
    assert conn.source.port.logical_type.name == "rgb_stream"


# -- generative blocks ------------------------------------------------------------------


def test_if_selects_single_branch():
    project, _ = evaluated_project(
        "package p;" + RGB +
        "streamlet bp { input: rgb_stream in, output: rgb_stream out, };\n"
        "impl a_i of bp { input => output, };\n"
        "impl b_i of bp { input => output, };\n"
        "const use_a = true;\n"
        "streamlet top_s { input: rgb_stream in, output: rgb_stream out, };\n"
        "impl top_i of top_s {\n"
        "  if (use_a) {\n    instance x(a_i),\n  }\n"
        "  else {\n    instance x(b_i),\n  }\n"
        "  input => x.input,\n  x.output => output,\n"
        "};\n")
    top = project.packages["p"].scope.implements["top_i"]
    assert top.instances["x"].target.id == "a_i"


def test_if_false_without_else_adds_nothing():
    project, _ = evaluated_project(
        "package p;" + RGB +
        "const flag = false;\n"
        "streamlet s { input: rgb_stream in, output: rgb_stream out, };\n"
        "impl i of s {\n"
        "  input => output,\n"
        "  if (flag) {\n    input => output,\n  }\n"
        "};\n")
    impl = project.packages["p"].scope.implements["i"]
    assert len(impl.connections) == 1


def test_if_condition_must_be_bool():
    _, diags = failing_project(
        "package p;" + RGB +
        "streamlet s { input: rgb_stream in, };\n"
        "impl i of s {\n  if (3) {\n  }\n};\n")
    assert any("boolean" in d.message for d in diags)


def test_elif_branch():
    project, _ = evaluated_project(
        "package p;" + RGB +
        "const a = false;\nconst b = true;\n"
        "streamlet bp { input: rgb_stream in, output: rgb_stream out, };\n"
        "impl one_i of bp { input => output, };\n"
        "impl two_i of bp { input => output, };\n"
        "streamlet top_s { input: rgb_stream in, output: rgb_stream out, };\n"
        "impl top_i of top_s {\n"
        "  if (a) {\n    instance x(one_i),\n  }\n"
        "  elif (b) {\n    instance x(two_i),\n  }\n"
        "  else {\n    instance x(one_i),\n  }\n"
        "  input => x.input,\n  x.output => output,\n"
        "};\n")
    assert project.packages["p"].scope.implements["top_i"].instances["x"].target.id == "two_i"


FOR_BASE = RGB + """
streamlet bp { input: rgb_stream in, output: rgb_stream out, };
impl bp_i of bp { input => output, };
const channel = 4;
streamlet chan_s {
  inputs: rgb_stream [channel] in,
  outputs: rgb_stream [channel] out,
};
"""


def test_for_over_range_generates_connections():
    project, _ = evaluated_project(
        "package p;" + FOR_BASE +
        "impl chan_i of chan_s {\n"
        "  instance bypass(bp_i) [channel],\n"
        "  for i in (0=1=>channel) {\n"
        "    inputs[i] => bypass[i].input,\n"
        "    bypass[i].output => outputs[i],\n"
        "  }\n"
        "};\n")
    impl = project.packages["p"].scope.implements["chan_i"]
    assert len(impl.connections) == 8
    keys = {(c.source.key(), c.sink.key()) for c in impl.connections}
    assert ((None, None, "inputs", 2), ("bypass", 2, "input", None)) in keys
    names = [c.name for c in impl.connections]
    assert len(set(names)) == 8  # per-iteration suffixes keep names unique


def test_plain_instance_in_for_rejected():
    _, diags = failing_project(
        "package p;" + FOR_BASE +
        "impl chan_i of chan_s {\n"
        "  for i in (0=1=>channel) {\n"
        "    instance b(bp_i),\n"
        "  }\n"
        "};\n")
    assert any("for scope" in d.message for d in diags)


def test_interpolated_instances_enumerate():
    project, _ = evaluated_project(
        "package p;" + FOR_BASE +
        "impl chan_i of chan_s {\n"
        "  for i in (0=1=>channel) {\n"
        "    instance bypass_{{i}}(bp_i),\n"
        "    inputs[i] => bypass_{{i}}.input,\n"
        "    bypass_{{i}}.output => outputs[i],\n"
        "  }\n"
        "};\n")
    impl = project.packages["p"].scope.implements["chan_i"]
    assert sorted(impl.instances) == ["bypass_0", "bypass_1", "bypass_2", "bypass_3"]


def test_for_over_string_array_with_template_args():
    project, _ = evaluated_project(
        "package p;" + RGB +
        "streamlet bp_s<data: str> { input: rgb_stream in, output: rgb_stream out, };\n"
        "external impl bp_i<data: str> of bp_s<data> {\n};\n"
        "const channel = 2;\n"
        "streamlet chan_s { inputs: rgb_stream [channel] in, outputs: rgb_stream [channel] out, };\n"
        'const data = {"Monday", "Tuesday"};\n'
        "impl chan_i of chan_s {\n"
        "  for i in (0=1=>channel) {\n"
        "    instance bypass_{{i}}(bp_i<data[i]>),\n"
        "    inputs[i] => bypass_{{i}}.input,\n"
        "    bypass_{{i}}.output => outputs[i],\n"
        "  }\n"
        "};\n")
    scope = project.packages["p"].scope
    impl = scope.implements["chan_i"]
    assert impl.instances["bypass_0"].target.id == "bp_i@Monday"
    assert impl.instances["bypass_1"].target.id == "bp_i@Tuesday"


def test_nested_for_shadows_loop_variable():
    # two iterations of the outer loop produce the same inner names: that is
    # a duplicate-identifier error, proving the inner variable shadows
    _, diags = failing_project(
        "package p;" + RGB +
        "streamlet bp { input: rgb_stream in, output: rgb_stream out, };\n"
        "impl bp_i of bp { input => output, };\n"
        "streamlet s { inputs: rgb_stream [4] in, };\n"
        "impl i of s {\n"
        "  for i in (0=1=>2) {\n"
        "    for i in (0=1=>2) {\n"
        "      instance x_{{i}}_(bp_i),\n"
        "    }\n"
        "  }\n"
        "};\n")
    assert any("duplicate" in d.message for d in diags)


def test_duplicate_after_expansion_detected():
    _, diags = failing_project(
        "package p;" + FOR_BASE +
        "impl chan_i of chan_s {\n"
        "  for i in (0=1=>2) {\n"
        "    instance fixed_{{i}}(bp_i),\n"
        "    instance other(bp_i),\n"
        "  }\n"
        "};\n")
    assert any("for scope" in d.message or "duplicate" in d.message for d in diags)


def test_unbound_interpolation_variable():
    _, diags = failing_project(
        "package p;" + FOR_BASE +
        "impl chan_i of chan_s {\n"
        "  for i in (0=1=>2) {\n"
        "    instance a_{{ghost}}(bp_i),\n"
        "  }\n"
        "};\n")
    assert any("interpolat" in d.message for d in diags)


# -- assertions -------------------------------------------------------------------------


def test_assertion_pass_and_fail():
    evaluated_project(
        "package p;\n"
        "type Group rgb { const x = 8, r: Bit(x), };\n"
        "streamlet s { const c = 1, assert(type rgb.x == 8), p: Stream(rgb) in, };\n"
        "impl i of s { };\n")
    _, diags = failing_project(
        "package p;\n"
        "type Group rgb { const x = 9, r: Bit(x), };\n"
        "streamlet s { assert(type rgb.x == 8), p: Stream(rgb) in, };\n"
        "impl i of s { };\n")
    assert any("assertion failed" in d.message and "int(9)" in d.message
               for d in diags)


def test_assertion_requires_bool():
    _, diags = failing_project(
        "package p;" + RGB +
        "streamlet s { assert(5), p: Stream(rgb) in, };\n"
        "impl i of s { };\n")
    assert any("boolean" in d.message for d in diags)


def test_assertion_in_template_checked_at_instantiation():
    _, diags = failing_project(
        "package p;" + RGB +
        "streamlet comp_s<n: int> { assert(n == 8), p: Stream(rgb) in, };\n"
        "external impl comp_i<n: int> of comp_s<n> {\n};\n"
        "streamlet top_s { p: Stream(rgb) in, };\n"
        "impl top_i of top_s { instance c(comp_i<9>), p => c.p, };\n")
    assert any("assertion failed" in d.message for d in diags)


# -- laziness and determinism ----------------------------------------------------------


def test_unreachable_entities_stay_uninferred_with_top():
    project = project_of(
        "package p;" + RGB +
        "streamlet used_s { input: rgb_stream in, output: rgb_stream out, };\n"
        "impl used_i of used_s { input => output, };\n"
        "streamlet unused_s { input: rgb_stream in, };\n"
        "impl unused_i of unused_s { };\n")
    ctx = EvalContext(project)
    diags = evaluate_project(ctx, project, top="p.used_i")
    assert not diags
    scope = project.packages["p"].scope
    assert scope.implements["used_i"].state is EvalState.EVALUATED
    assert scope.implements["unused_i"].state is EvalState.NOT_INFERRED
    assert scope.streamlets["unused_s"].state is EvalState.NOT_INFERRED


def test_dump_identical_across_worker_counts():
    source = (
        "package p;" + FOR_BASE +
        "impl chan_i of chan_s {\n"
        "  instance bypass(bp_i) [channel],\n"
        "  for i in (0=1=>channel) {\n"
        "    inputs[i] => bypass[i].input,\n"
        "    bypass[i].output => outputs[i],\n"
        "  }\n"
        "};\n")
    dumps = []
    for jobs in (1, 8):
        project, _ = evaluated_project(source)
        dumps.append(dump_code_structure(project))
    assert dumps[0] == dumps[1]


def test_clockdomain_template_argument():
    project, _ = evaluated_project(
        "package p;" + RGB +
        "streamlet demux_s<channel: int, data_type: type, cd: clockdomain> {\n"
        "  inputs: data_type [channel] in `cd,\n"
        "  outputs: data_type [channel] out `cd,\n"
        "};\n"
        "external impl demux_i<channel: int, data_type: type, cd: clockdomain> of "
        "demux_s<channel, type data_type, cd> {\n};\n"
        'const cd0: clockdomain = "100MHz";\n'
        "impl demux_bit8_5(demux_i<5, type rgb_stream, cd0>);\n")
    scope = project.packages["p"].scope
    demux = scope.implements["demux_bit8_5"]
    assert demux.streamlet.ports["inputs"].clockdomain.expression == "100MHz"
    assert demux.streamlet.ports["inputs"].array_size == 5
    assert demux.streamlet.id == "demux_s@5@Stream(rgb_stream)@100MHz"


def test_impl_member_extraction():
    project, _ = evaluated_project(
        "package p;" + RGB +
        "streamlet s { input: rgb_stream in, output: rgb_stream out, };\n"
        "impl i of s {\n  const latency = 3,\n  input => output,\n};\n"
        "const got = impl i.latency;\n")
    assert project.packages["p"].scope.variables["got"].value == IntValue(3)


def test_impl_member_extraction_of_impl_of_parameter():
    """`impl c.member` reads the implementation bound to an `impl of`
    parameter `c`, as `instance x(c)` instances it."""
    result = compile_texts(
        "package p;\n"
        "type s = Stream(Bit(1));\n"
        "streamlet io_s { i: s in, o: s out, };\n"
        "impl leaf_i of io_s { const width = 8, i => o, };\n"
        "streamlet w_s<c: impl of io_s> { i: s in, o: s out, };\n"
        "impl w_i<c: impl of io_s> of w_s<impl c> {\n"
        "  instance x(c), i => x.i, x.o => o,\n"
        "  const q = impl c.width, assert(q == 8),\n};\n"
        "streamlet top_s { i: s in, o: s out, };\n"
        "impl top_i of top_s { instance w(w_i<impl leaf_i>), i => w.i, w.o => o, };\n")
    assert result.exit_code == 0, result.diagnostics
    assert "q:int(8)" in result.artifacts["2_evaluation_output.txt"]


def test_impl_member_extraction_of_template_instance():
    """`impl k_i<3>.twice` instances the template and reads the member."""
    result = compile_texts(
        "package p;\n"
        "type s = Stream(Bit(1));\n"
        "streamlet k_s<n: int> { i: s in, o: s out, };\n"
        "impl k_i<n: int> of k_s<n> { const twice = n * 2, i => o, };\n"
        "const got = impl k_i<3>.twice;\n")
    assert result.exit_code == 0, result.diagnostics
    assert "got:int(6)" in result.artifacts["2_evaluation_output.txt"]


def test_cross_package_streamlet_and_implementation():
    project, _ = evaluated_project(
        "package lib;\n"
        "type s = Stream(Bit(1));\n"
        "streamlet leaf_s { input: s in, };\n"
        "external impl leaf_i of leaf_s {\n};\n",
        "package app;\nimport lib;\n"
        "impl mine of lib.leaf_s { };\n"
        "type s2 = Stream(Bit(1));\n"
        "streamlet top_s { a: s2 in, };\n"
        "impl top_i of top_s {\n"
        "  instance l(lib.leaf_i),\n"
        "  a => l.input @NoStrictType@,\n"
        "};\n")
    app = project.packages["app"].scope
    assert app.implements["mine"].streamlet.id == "leaf_s"
    assert app.implements["top_i"].instances["l"].target.id == "leaf_i"


def test_assertions_run_after_structure_in_declaration_order():
    # the first assertion fails, so the second must never be reached; the
    # reported operands prove the structure (ports, consts) evaluated first
    _, diags = failing_project(
        "package p;" + RGB +
        "streamlet s {\n"
        "  const n = 4,\n"
        "  input: rgb_stream in,\n"
        "  assert(n == 5),\n"
        "  assert(n == 4),\n"
        "};\n"
        "impl i of s { };\n")
    messages = [d.message for d in diags]
    assert any("assertion failed" in m and "int(4)" in m for m in messages)
    assert len([m for m in messages if "assertion failed" in m]) == 1


def test_unused_scope_variables_stay_lazy_even_with_assertions():
    project, _ = evaluated_project(
        "package p;" + RGB +
        "streamlet s {\n"
        "  const used = 1,\n"
        "  const untouched = 1 + 1,\n"
        "  input: rgb_stream in,\n"
        "  assert(used == 1),\n"
        "};\n"
        "impl i of s { };\n")
    scope = project.packages["p"].scope.streamlets["s"].scope
    assert scope.variables["used"].state is EvalState.EVALUATED
    assert scope.variables["untouched"].state is EvalState.NOT_INFERRED


@pytest.mark.parametrize("texts, label", [
    (("package q; const bad = 1 / 0;",
      "package p; import q; const u1 = q.bad + 1; const u2 = q.bad + 2;"),
     "package_q.bad"),
    (("package q; type bad = Bit(0);",
      "package p; import q; type u1 = q.bad; type u2 = Stream(q.bad);"),
     "package_q.bad"),
    (("package p; streamlet bad_s { a: Stream(nope) in, };"
      " impl u1 of bad_s { }; impl u2 of bad_s { };",), "streamlet bad_s"),
    (("package p; type s = Stream(Bit(1)); streamlet io_s { i: s in, };"
      " impl bad_i of io_s { instance x(nope), };"
      " impl u1 of io_s { instance y(bad_i), }; impl u2 of io_s { instance y(bad_i), };",),
     "impl bad_i"),
], ids=["variable", "type_entry", "streamlet", "implementation"])
def test_failed_record_is_computed_once_and_reported_once(texts, label):
    """A failing record of each kind, demanded by two roots, is computed
    once: the second demand re-raises the stored error, which is reported
    once."""
    project = project_of(*texts)
    ctx = EvalContext(project)
    diags = evaluate_project(ctx, project)
    assert len(diags) == 1, diags
    assert ctx.eval_counts[label] == 1


def test_cross_package_template_instantiates_into_owning_package():
    project, _ = evaluated_project(
        "package lib;\n"
        "type s = Stream(Bit(1));\n"
        "streamlet v_s<t: type> { input: t in, };\n"
        "external impl v_i<t: type> of v_s<type t> {\n};\n",
        "package app;\nimport lib;\n"
        "type mine = Stream(Bit(7));\n"
        "streamlet top_s { a: mine in, };\n"
        "impl top_i of top_s {\n"
        "  instance v(lib.v_i<type mine>),\n"
        "  a => v.input,\n"
        "};\n")
    lib = project.packages["lib"].scope
    app = project.packages["app"].scope
    assert "v_i@Stream(mine)" in lib.implements  # registered with its template
    assert "v_i@Stream(mine)" not in app.implements
    assert app.implements["top_i"].instances["v"].target.id == "v_i@Stream(mine)"


def test_template_memo_under_worker_contention():
    decls = ["package p;",
             "type s = Stream(Bit(4));",
             "streamlet v_s<t: type> { input: t in, };",
             "external impl v_i<t: type> of v_s<type t> {\n};"]
    for k in range(20):
        decls.append(f"streamlet t{k}_s {{ a: s in, }};")
        decls.append(f"impl t{k}_i of t{k}_s {{ instance v(v_i<type s>), a => v.input, }};")
    source = "\n".join(decls)
    project, ctx = evaluated_project(source)
    scope = project.packages["p"].scope
    mangled = [k for k in scope.implements if k.startswith("v_i@")]
    assert mangled == ["v_i@Stream(s)"]
    entity = scope.implements[mangled[0]]
    assert all(scope.implements[f"t{k}_i"].instances["v"].target is entity
               for k in range(20))
    assert ctx.eval_counts[entity.label()] == 1


def test_nested_for_with_index_arithmetic():
    project, _ = evaluated_project(
        "package p;" + RGB +
        "streamlet bp { input: rgb_stream in, output: rgb_stream out, };\n"
        "external impl bp_i of bp {\n};\n"
        "streamlet s { inputs: rgb_stream [4] in, outputs: rgb_stream [4] out, };\n"
        "impl i of s {\n"
        "  instance lane(bp_i) [4],\n"
        "  for a in (0=1=>2) {\n"
        "    for b in (0=1=>2) {\n"
        "      inputs[a*2+b] => lane[a*2+b].input,\n"
        "      lane[a*2+b].output => outputs[a*2+b],\n"
        "    }\n"
        "  }\n"
        "};\n")
    impl = project.packages["p"].scope.implements["i"]
    driven = sorted(c.sink.key() for c in impl.connections if not c.sink.is_self)
    assert driven == [("lane", k, "input", None) for k in range(4)]


# -- for bodies: everything in a body sees the loop variable ----------------------


def _chan_impl(body: str, extra: str = ""):
    project, _ = evaluated_project(
        "package p;" + FOR_BASE + extra + "impl chan_i of chan_s {\n" + body + "};\n")
    return project.packages["p"].scope.implements["chan_i"]


def test_assert_in_for_body_reads_loop_variable():
    impl = _chan_impl("  for i in (0=1=>channel) {\n"
                      "    assert(i < channel),\n"
                      "    inputs[i] => outputs[i],\n"
                      "  }\n")
    assert len(impl.connections) == 4


def test_const_in_for_body_reads_loop_variable():
    impl = _chan_impl("  for i in (0=1=>1) {\n"
                      "    const c = i + 1,\n"
                      "    inputs[c] => outputs[c],\n"
                      "  }\n")
    [conn] = impl.connections
    assert (conn.source.port_index, conn.sink.port_index) == (1, 1)


def test_each_for_element_declares_the_body_const():
    impl = _chan_impl("  for i in (0=1=>2) {\n"
                      "    const c = i + 1,\n"
                      "    inputs[c] => outputs[c],\n"
                      "  }\n")
    assert [(c.source.port_index, c.sink.port_index) for c in impl.connections] == \
        [(1, 1), (2, 2)]


def test_each_for_element_declares_the_body_type():
    impl = _chan_impl(
        "  for i in (0=1=>2) {\n"
        "    type t = Bit(i + 1),\n"
        "    instance w_{{i}}(w_i<type t>),\n"
        "  }\n",
        extra="streamlet w_s<d: type> { input: Stream(d) in, };\n"
              "external impl w_i<d: type> of w_s<type d> { };\n")
    assert {name: inst.target.id for name, inst in impl.instances.items()} == \
        {"w_0": "w_i@Bit(1)", "w_1": "w_i@Bit(2)"}


def test_fifo_depth_from_loop_variable():
    impl = _chan_impl("  for i in (0=1=>channel) {\n"
                      "    inputs[i] =i+1=> outputs[i],\n"
                      "  }\n")
    assert [(c.source.port_index, c.fifo_depth) for c in impl.connections] == \
        [(0, 1), (1, 2), (2, 3), (3, 4)]


def test_template_value_argument_from_loop_variable():
    impl = _chan_impl(
        "  for i in (0=1=>2) {\n"
        "    instance w_{{i}}(w_i<i>),\n"
        "    inputs[i] => w_{{i}}.input,\n"
        "    w_{{i}}.output => outputs[i],\n"
        "  }\n",
        extra="streamlet w_s<n: int> { input: rgb_stream in, output: rgb_stream out, };\n"
              "external impl w_i<n: int> of w_s<n> { };\n")
    assert {name: inst.target.id for name, inst in impl.instances.items()} == \
        {"w_0": "w_i@0", "w_1": "w_i@1"}


def test_inner_range_bounded_by_outer_variable():
    impl = _chan_impl("  for a in (0=1=>3) {\n"
                      "    for b in (0=1=>a) {\n"
                      "      instance x_{{a}}_{{b}}(bp_i),\n"
                      "    }\n"
                      "  }\n")
    assert sorted(impl.instances) == ["x_1_0", "x_2_0", "x_2_1"]


def test_impl_of_argument_as_instance_target_in_for_body():
    project, _ = evaluated_project(
        "package p;" + RGB +
        "streamlet component { input: rgb_stream in, output: rgb_stream out, };\n"
        "impl component_impl of component { input => output, };\n"
        "streamlet larger { input: rgb_stream [2] in, output: rgb_stream [2] out, };\n"
        "impl larger_t<ts: impl of component> of larger {\n"
        "  for i in (0=1=>2) {\n"
        "    instance inst_{{i}}(ts),\n"
        "    input[i] => inst_{{i}}.input,\n"
        "    inst_{{i}}.output => output[i],\n"
        "  }\n"
        "};\n"
        "impl larger_i(larger_t<impl component_impl>);\n")
    larger = project.packages["p"].scope.implements["larger_i"]
    assert {name: inst.target.id for name, inst in larger.instances.items()} == \
        {"inst_0": "component_impl", "inst_1": "component_impl"}


def test_impl_of_argument_member_in_for_body_fifo_depth():
    """A `for` element scope sees the implementation's `impl of` arguments:
    `impl c.width` in a FIFO depth reads the bound implementation."""
    result = compile_texts(
        "package p;\n"
        "type s = Stream(Bit(1));\n"
        "streamlet io_s { i: s in, o: s out, };\n"
        "impl leaf_i of io_s { const width = 8, i => o, };\n"
        "streamlet w_s<c: impl of io_s> { i: s [2] in, o: s [2] out, };\n"
        "impl w_i<c: impl of io_s> of w_s<impl c> {\n"
        "  for k in (0=1=>2) {\n"
        "    instance x_{{k}}(c),\n"
        "    i[k] =impl c.width=> x_{{k}}.i,\n"
        "    x_{{k}}.o => o[k],\n"
        "  }\n};\n"
        "streamlet top_s { i: s [2] in, o: s [2] out, };\n"
        "impl top_i of top_s { instance w(w_i<impl leaf_i>),\n"
        "  for k in (0=1=>2) { i[k] => w.i[k], w.o[k] => o[k], }\n};\n")
    assert result.exit_code == 0, result.diagnostics
    element_connections = [
        line for line in result.artifacts["2_evaluation_output.txt"].splitlines()
        if "ExternalOwner(x_" in line and ".i:" in line]
    assert len(element_connections) == 2
    assert all("=8=>" in line for line in element_connections)
