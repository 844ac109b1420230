from tydilang.drc import drc_has_errors, render_drc_report, run_drc
from tydilang.sugaring import sugar_project

from conftest import evaluated_project

RGB = """
type Group rgb {
  r: Bit(8),
  g: Bit(8),
  b: Bit(8),
};
type rgb_stream = Stream(rgb);
"""


def checked(*texts):
    project, ctx = evaluated_project(*texts)
    sugar_project(ctx, project)
    return run_drc(project)


def test_same_alias_connection_is_clean():
    diags = checked(
        "package tpch;" + RGB +
        "streamlet rgb_bypass { input: rgb_stream in, output: rgb_stream out, };\n"
        "impl impl_rgb_bypass of rgb_bypass { input => output, };\n")
    assert diags == []


def test_structurally_equal_without_marker_warns_r1():
    diags = checked(
        "package tpch;" + RGB +
        "streamlet rgb_bypass2 { input: Stream(rgb) in, output: Stream(rgb) out, };\n"
        "impl impl_rgb_bypass3 of rgb_bypass2 { input => output, };\n")
    assert [d.rule for d in diags] == ["R1"]
    assert diags[0].severity == "Warning"


def test_member_extraction_names_the_declaration_it_extracts():
    """A port typed by an alias of `streamlet h_s.t` and one typed by
    `streamlet p.h_s.t` name the same declaration, so R1 is satisfied."""
    diags = checked(
        "package p;\n"
        "streamlet h_s { type t = Stream(Bit(8)), };\n"
        "type x = streamlet h_s.t;\n"
        "streamlet a_s { o: x out, };\n"
        "streamlet b_s { i: streamlet p.h_s.t in, };\n"
        "external impl a_i of a_s {};  external impl b_i of b_s {};\n"
        "streamlet top_s {};\n"
        "impl top_i of top_s { instance a(a_i), instance b(b_i), a.o => b.i, };\n")
    assert render_drc_report(diags) == "0 errors, 0 warnings\n"


def test_marker_accepts_structural_equality():
    diags = checked(
        "package tpch;" + RGB +
        "streamlet rgb_bypass2 { input: Stream(rgb) in, output: Stream(rgb) out, };\n"
        "impl impl_rgb_bypass2 of rgb_bypass2 { input => output @NoStrictType@, };\n")
    assert diags == []


def test_incompatible_types_error():
    diags = checked(
        "package p;" + RGB +
        "type a_stream = Stream(Bit(8));\n"
        "type b_stream = Stream(Bit(9));\n"
        "streamlet s { input: a_stream in, output: b_stream out, };\n"
        "impl i of s { input => output, };\n")
    errors = [d for d in diags if d.severity == "Error"]
    assert [d.rule for d in errors] == ["R1"]


def test_marker_does_not_rescue_incompatible_types():
    diags = checked(
        "package p;" + RGB +
        "type a_stream = Stream(Bit(8));\n"
        "type b_stream = Stream(Bit(9));\n"
        "streamlet s { input: a_stream in, output: b_stream out, };\n"
        "impl i of s { input => output @NoStrictType@, };\n")
    errors = [d for d in diags if d.severity == "Error"]
    assert [d.rule for d in errors] == ["R2"]


def test_in_to_in_connection_is_r3_error():
    diags = checked(
        "package p;" + RGB +
        "streamlet leaf_s { input: rgb_stream in, output: rgb_stream out, };\n"
        "external impl leaf_i of leaf_s {\n};\n"
        "streamlet top_s { input: rgb_stream in, };\n"
        "impl top_i of top_s {\n"
        "  instance a(leaf_i),\n"
        "  instance b(leaf_i),\n"
        "  input => a.input,\n"
        "  a.input => b.input,\n"
        "};\n")
    r3 = [d for d in diags if d.rule == "R3"]
    assert r3 and all(d.severity == "Error" for d in r3)


def test_out_to_out_connection_is_r3_error():
    diags = checked(
        "package p;" + RGB +
        "streamlet leaf_s { input: rgb_stream in, output: rgb_stream out, };\n"
        "external impl leaf_i of leaf_s {\n};\n"
        "streamlet top_s { input: rgb_stream in, };\n"
        "impl top_i of top_s {\n"
        "  instance a(leaf_i),\n"
        "  instance b(leaf_i),\n"
        "  input => a.input,\n"
        "  input => b.input,\n"
        "  a.output => b.output,\n"
        "};\n")
    assert any(d.rule == "R3" for d in diags)


def test_clockdomain_mismatch_is_r4_error():
    diags = checked(
        "package p;" + RGB +
        'const cd: clockdomain = "100MHz-ph1";\n'
        "streamlet s {\n"
        "  input: rgb_stream in `cd,\n"
        "  output: rgb_stream out,\n"
        "};\n"
        "impl i of s { input => output, };\n")
    r4 = [d for d in diags if d.rule == "R4"]
    assert len(r4) == 1 and r4[0].severity == "Error"
    assert "100MHz-ph1" in r4[0].message and "DefaultClockDomain" in r4[0].message


def test_generated_clockdomains_differ_per_package():
    """A bare `const k: clockdomain` is named after its package, even inside
    a group declared inline under an alias."""
    detached = "type a = Group g { const k: clockdomain, };\nconst cd = type a.k;\n"
    project, ctx = evaluated_project(
        "package p1;\n" + detached +
        "type s = Stream(Bit(1));\n"
        "streamlet src_s { o: s out `cd, };\n"
        "external impl src_i of src_s { };\n",
        "package p2;\nimport p1;\n" + detached +
        "streamlet sink_s { i: p1.s in `cd, };\n"
        "external impl sink_i of sink_s { };\n"
        "streamlet top_s { };\n"
        "impl top_i of top_s { instance a(p1.src_i), instance b(sink_i), a.o => b.i, };\n")
    assert [project.packages[p].scope.variables["cd"].value.expression
            for p in ("p1", "p2")] == ["$generated$p1$k", "$generated$p2$k"]
    sugar_project(ctx, project)
    diags = run_drc(project)
    assert [(d.severity, d.rule) for d in diags] == [("Error", "R4")]


def test_matching_clockdomains_pass_r4():
    diags = checked(
        "package p;" + RGB +
        'const cd: clockdomain = "100MHz-ph1";\n'
        "streamlet s { input: rgb_stream in `cd, output: rgb_stream out `cd, };\n"
        "impl i of s { input => output, };\n")
    assert diags == []


def test_double_driven_sink_is_r5_error():
    diags = checked(
        "package p;" + RGB +
        "streamlet s { a: rgb_stream in, b: rgb_stream in, output: rgb_stream out, };\n"
        "impl i of s { a => output, b => output, };\n")
    assert [(d.rule, d.message) for d in diags] == [
        ("R5", "port end Self.output appears in 2 connections")]


def test_undriven_instance_input_is_r5_error():
    diags = checked(
        "package p;" + RGB +
        "streamlet leaf_s { input: rgb_stream in, output: rgb_stream out, };\n"
        "external impl leaf_i of leaf_s {\n};\n"
        "streamlet top_s { o: rgb_stream out, };\n"
        "impl top_i of top_s {\n"
        "  instance a(leaf_i),\n"
        "  a.output => o,\n"
        "};\n")
    assert [(d.rule, d.message) for d in diags] == [
        ("R5", "port end a.input is never connected")]


def test_exactly_one_of_r1_r2_applies():
    diags = checked(
        "package p;" + RGB +
        "streamlet s { input: Stream(rgb) in, a: Stream(rgb) out, b: Stream(rgb) out, };\n"
        "impl i of s { input => a @NoStrictType@, input => b, };\n")
    by_conn = {}
    for d in diags:
        if d.rule in ("R1", "R2"):
            by_conn.setdefault(d.connection, set()).add(d.rule)
    for rules in by_conn.values():
        assert len(rules) == 1


def test_report_rendering_and_exit_policy():
    clean = render_drc_report([])
    assert "0 errors, 0 warnings" in clean

    warn_only = checked(
        "package tpch;" + RGB +
        "streamlet rgb_bypass2 { input: Stream(rgb) in, output: Stream(rgb) out, };\n"
        "impl impl_rgb_bypass3 of rgb_bypass2 { input => output, };\n")
    report = render_drc_report(warn_only)
    assert "0 errors, 1 warnings" in report
    assert not drc_has_errors(warn_only)

    errors = checked(
        "package p;" + RGB +
        "streamlet s { a: rgb_stream in, b: rgb_stream in, output: rgb_stream out, };\n"
        "impl i of s { a => output, b => output, };\n")
    assert drc_has_errors(errors)


def test_report_sorted_by_package_impl_connection_rule():
    diags = checked(
        "package p;" + RGB +
        "type a_stream = Stream(Bit(8));\n"
        "type b_stream = Stream(Bit(9));\n"
        "streamlet s1 { input: a_stream in, output: b_stream out, };\n"
        "impl z_i of s1 { input => output, };\n"
        "impl a_i of s1 { input => output, };\n")
    keys = [(d.package, d.implementation, d.connection, d.rule) for d in diags]
    assert keys == sorted(keys)


def test_external_implementations_are_not_checked():
    diags = checked(
        "package p;" + RGB +
        "streamlet s { input: rgb_stream in, output: rgb_stream out, };\n"
        "external impl e_i of s {\n};\n")
    assert diags == []


STRICTNESS = """
package p;
type bytes = Stream(Bit(8));
type chain_a = Stream(Bit(9));
type chain_b = chain_a;
type chain_c = chain_b;
streamlet h_s { type t = Stream(Bit(10)), };
type h_alias = streamlet h_s.t;
type arg_named = Stream(Bit(11));
type decl_a = Stream(Bit(12));
type decl_b = Stream(Bit(12));
type fan_named = Stream(Bit(14));
type void_named = Stream(Bit(16));
type loose_a = Stream(Bit(18));
type loose_b = Stream(Bit(18));
type loose_c = Stream(Bit(19));
streamlet pass_s<t: type> { i: t in, o: t out, };
impl pass_i<t: type> of pass_s<type t> { i => o "through", };
streamlet src_s {
  alias_o: bytes out, chain_o: chain_a out, extract_o: streamlet p.h_s.t out,
  named_arg_o: arg_named out, inline_arg_o: Stream(Bit(13)) out,
  inline_o: Stream(Bit(17)) out, decl_o: decl_a out,
  fan_named_o: fan_named out, fan_inline_o: Stream(Bit(15)) out,
  void_named_o: void_named out, void_inline_o: Stream(Bit(20)) out,
  loose_o: loose_a out, loose_bad_o: loose_a out, bad_o: decl_a out,
};
external impl src_i of src_s { };
streamlet snk_s {
  alias_i: bytes in, chain_i: chain_c in, extract_i: h_alias in,
  named_arg_i: arg_named in, inline_arg_i: Stream(Bit(13)) in,
  inline_i: Stream(Bit(17)) in, decl_i: decl_b in,
  fan_named_i0: fan_named in, fan_named_i1: fan_named in,
  fan_inline_i0: Stream(Bit(15)) in, fan_inline_i1: Stream(Bit(15)) in,
  loose_i: loose_b in, loose_bad_i: loose_c in, bad_i: loose_c in,
};
external impl snk_i of snk_s { };
streamlet top_s { };
impl top_i of top_s {
  instance src(src_i), instance snk(snk_i),
  instance named_pass(pass_i<type arg_named>),
  instance inline_pass(pass_i<type Stream(Bit(13))>),
  src.alias_o => snk.alias_i "same_alias",
  src.chain_o => snk.chain_i "alias_chain",
  src.extract_o => snk.extract_i "extract_alias",
  src.named_arg_o => named_pass.i "named_arg_in",
  named_pass.o => snk.named_arg_i "named_arg_out",
  src.inline_arg_o => inline_pass.i "inline_arg_in",
  inline_pass.o => snk.inline_arg_i "inline_arg_out",
  src.inline_o => snk.inline_i "two_inline",
  src.decl_o => snk.decl_i "two_decls",
  src.fan_named_o => snk.fan_named_i0 "fan_named_0",
  src.fan_named_o => snk.fan_named_i1 "fan_named_1",
  src.fan_inline_o => snk.fan_inline_i0 "fan_inline_0",
  src.fan_inline_o => snk.fan_inline_i1 "fan_inline_1",
  src.loose_o => snk.loose_i "loose" @NoStrictType@,
  src.loose_bad_o => snk.loose_bad_i "loose_bad" @NoStrictType@,
  src.bad_o => snk.bad_i "bad",
};
"""


def test_strictness_of_every_way_a_port_type_is_written():
    """The R1/R2 outcome of each connection, after sugaring, by how its two
    port types are written: strict typing holds exactly when both ends name
    one declaration, or carry one inline type through a template argument,
    a duplicator or a voider."""
    project, ctx = evaluated_project(STRICTNESS)
    sugar_project(ctx, project)
    diags = run_drc(project)
    scope = project.packages["p"].scope
    outcome = {}
    for impl_id, impl in scope.implements.items():
        if not impl.external and not impl.is_template:
            for conn in impl.connections:
                outcome[impl_id, conn.name] = ""
    for d in diags:
        assert d.rule in ("R1", "R2"), d.line()
        assert outcome[d.implementation, d.connection] == "", d.line()
        outcome[d.implementation, d.connection] = f"{d.rule} {d.severity}"
    assert outcome == {
        ("pass_i@Stream(arg_named)", "through"): "",
        ("pass_i@Stream(Bit(13))", "through"): "",
        ("top_i", "same_alias"): "",
        ("top_i", "alias_chain"): "",
        ("top_i", "extract_alias"): "",
        ("top_i", "named_arg_in"): "",
        ("top_i", "named_arg_out"): "",
        ("top_i", "inline_arg_in"): "R1 Warning",
        ("top_i", "inline_arg_out"): "R1 Warning",
        ("top_i", "two_inline"): "R1 Warning",
        ("top_i", "two_decls"): "R1 Warning",
        ("top_i", "duplicate_src_fan_named_o_2_in"): "",
        ("top_i", "fan_named_0"): "",
        ("top_i", "fan_named_1"): "",
        ("top_i", "duplicate_src_fan_inline_o_2_in"): "",
        ("top_i", "fan_inline_0"): "R1 Warning",
        ("top_i", "fan_inline_1"): "R1 Warning",
        ("top_i", "void_src_void_named_o_in"): "",
        ("top_i", "void_src_void_inline_o_in"): "",
        ("top_i", "loose"): "",
        ("top_i", "loose_bad"): "R2 Error",
        ("top_i", "bad"): "R1 Error",
    }
