import os

import pytest

from tydilang.dump import dump_code_structure
from tydilang.pipeline import CompileConfig, compile_sources

from conftest import DATA_DIR, compile_texts, evaluated_project, project_of

SIMPLE_0 = """package simple_0;
import simple_1;

const i1: int = 1 + 100;
const external_var0 = simple_1.i1 + 10;
const external_flag0 = false || simple_1.flag;
"""
SIMPLE_1 = """package simple_1;
const i1 = 100;
const flag = true;
const i2 = 500;
"""


def test_pre_evaluation_dump_shows_raw_expressions():
    project = project_of(
        "package tpch;\n"
        "const max_decimal_15 = 10^15 - 1;\n"
        "const bit_width_decimal_15 = ceil(log2(max_decimal_15));\n"
        "type day_t = Bit(ceil(log2(day_max)));\n"
        "const day_max = 31;\n"
        "type key_stream = int_stream;\n"
        "type int_stream = Stream(Bit(32), d = 1);\n")
    text = dump_code_structure(project)
    assert 'max_decimal_15:UnknownType(NotInferred("10^15 - 1"))' in text
    assert 'bit_width_decimal_15:UnknownType(NotInferred("ceil(log2(max_decimal_15))"))' in text
    assert '$package$tpch:PackageType(NotInferred(""))' in text
    assert 'day_t:Bit(NotInferred("ceil(log2(day_max))"))' in text
    assert "key_stream:VarType(int_stream)" in text


def test_pre_evaluation_dump_prints_source_text_of_every_entry():
    """Every NotInferred record prints the source text of its expression:
    initializers, port types, array sizes and clockdomains, instance
    targets, FIFO depths, derived implementations and both connection ends;
    template parameters print as placeholders of their kind."""
    text = dump_code_structure(project_of(
        "package p;\n"
        'const fast: clockdomain = "200MHz";\n'
        "const slow: clockdomain;\n"
        "type s = Stream(Bit(8));\n"
        "streamlet src_s<w: int, c: clockdomain, f: float, b: bool, t: str> {\n"
        "  o: s [w + 1] out `c, q: Stream(Bit(w)) out `fast,\n"
        "};\n"
        'external impl src_i of src_s<2, fast, 1.0, true, "a"> { };\n'
        "streamlet snk_s { i: s [3] in `fast, };\n"
        "impl snk_i<n: int, k: impl of snk_s, u: type> of snk_s {\n"
        "  instance in_k(k) [n],\n"
        "};\n"
        "impl d_i(snk_i<1, impl snk_x, type s>);\n"
        "streamlet top_s { };\n"
        "impl top_i of top_s {\n"
        "  instance a(src_i) [2], instance b(snk_i<3, impl snk_x, type s>),\n"
        '  a[1 + 0].o[2 - 1] =4*2=> b.i[0] "named" @NoStrictType@,\n'
        "  a[0].q => b.i[1],\n"
        "};\n"))
    lines = {line.strip() for line in text.splitlines()}
    for expected in [
        '$package$p:PackageType(NotInferred(""))',
        'fast:clockdomain(NotInferred("\\"200MHz\\""))',
        'slow:clockdomain(NotInferred(""))',
        'i:Port(VarType(s),in)[NotInferred("3")] `NotInferred("fast")',
        'b:DummyBool(NotInferred("$arg$b"))',
        'c:DummyClockDomain(NotInferred("$arg$c"))',
        'f:DummyFloat(NotInferred("$arg$f"))',
        't:DummyStr(NotInferred("$arg$t"))',
        'w:DummyInt(NotInferred("$arg$w"))',
        'o:Port(VarType(s),out)[NotInferred("w + 1")] `NotInferred("c")',
        'q:Port(NotInferred("Stream(Bit(w))"),out) `NotInferred("fast")',
        'Implement(d_i)<NormalImplement> -> NotInferred("snk_i<1, impl snk_x, type s>"){',
        'k:DummyImplement(NotInferred("$arg$k"))',
        'u:DummyLogicalData(NotInferred("$arg$u"))',
        'in_k:(NotInferred("k"))[?]',
        'a:(NotInferred("src_i"))[?]',
        'b:(NotInferred("snk_i<3, impl snk_x, type s>"))',
        'ExternalOwner(a[0]).NotInferred("q") =0=> '
        'ExternalOwner(b).NotInferred("i[1]") (connection_614-631)',
        'ExternalOwner(a[1 + 0]).NotInferred("o[2 - 1]") =NotInferred("4*2")=> '
        'ExternalOwner(b).NotInferred("i[0]") @NoStrictType@ (named)',
    ]:
        assert expected in lines, expected


def test_pre_evaluation_dump_escapes_source_text():
    """Source text inside NotInferred("...") has a backslash before each
    backslash and double quote, so a reader can tell where it ends."""
    text = dump_code_structure(project_of(
        "package p;\n"
        r'const s = "a\\b" + "\"q\"";' "\n"
        "type t = Stream(Bit(1));\n"
        'streamlet k_s { i: t in `"slow", };\n'))
    lines = {line.strip() for line in text.splitlines()}
    assert r's:UnknownType(NotInferred("\"a\\\\b\" + \"\\\"q\\\"\""))' in lines
    assert r'i:Port(VarType(t),in) `NotInferred("\"slow\"")' in lines


def test_qualified_template_streamlet_dump():
    """An implementation of another package's template streamlet: before
    evaluation, its qualified name and raw arguments; after, the mangled
    name of the instance, with a float and a bool argument."""
    result = compile_texts(
        "package p;\nimport lib;\ntype n = Null;\nimpl x of lib.t_s<1.5, true> { };\n",
        "package lib;\nstreamlet t_s<f: float, b: bool> { };\n")
    parsed, evaluated = ({line.strip() for line in result.artifacts[name].splitlines()}
                         for name in ("1_parser_output.txt", "2_evaluation_output.txt"))
    assert "n:DataNull" in parsed
    assert "Implement(x)<NormalImplement> -> ProxyStreamlet(lib.t_s<@1.5,@true>){" in parsed
    assert "Implement(x)<NormalImplement> -> Streamlet(t_s@1.5@true){" in evaluated


def test_pre_evaluation_stream_block():
    project = project_of(
        "package tpch;\n"
        "type Group Date { year: Bit(17), };\n"
        "type date_stream = Stream(Date, d = 1);\n")
    text = dump_code_structure(project)
    assert "date_stream:Stream(date_stream){" in text
    assert "DataType=VarType(Date)" in text
    assert ('dimension=NotInferred("1"), user=DataNull, throughput=1, '
            "synchronicity=Sync, complexity=7, direction=Forward, keep=false") in text


def test_evaluated_cross_package_dump_lines():
    result = compile_texts(SIMPLE_0, SIMPLE_1)
    assert result.ok
    text = result.artifacts["2_evaluation_output.txt"]
    assert "i1:int(101)" in text
    assert "external_var0:int(110)" in text
    assert "external_flag0:bool(true)" in text
    assert 'i2:UnknownType(NotInferred("500"))' in text
    assert "Package(simple_0){" in text
    assert "Scope(package_simple_0){" in text


def test_evaluated_group_and_stream_dump():
    project, _ = evaluated_project(
        "package tpch;\n"
        "const year_max = 10^5 - 1;\n"
        "type year_t = Bit(ceil(log2(year_max)));\n"
        "type Group Date {\n  year: year_t,\n  month: Bit(ceil(log2(12))),\n"
        "  day: Bit(ceil(log2(31))),\n};\n"
        "type date_stream = Stream(Date, d = 1);\n")
    text = dump_code_structure(project)
    assert "year:Bit(17)" in text
    assert "month:Bit(4)" in text
    assert "day:Bit(5)" in text
    assert "Date:DataGroup(Date){" in text
    assert "Scope(group_Date){" in text
    assert "--GroupScope-->package_tpch" in text
    assert "DataType=DataGroup(Date)" in text
    assert ("dimension=1, user=DataNull, throughput=1, synchronicity=Sync, "
            "complexity=7, direction=Forward, keep=false") in text


def test_streamlet_and_port_dump_format():
    project, _ = evaluated_project(
        "package tpch;\n"
        "type SQL_int = Bit(32);\n"
        "type int_stream = Stream(SQL_int, d = 1);\n"
        "type key_stream = int_stream;\n"
        "streamlet region_s {\n"
        "  r_regionkey: key_stream in,\n"
        "  r_name: int_stream out,\n"
        "};\n"
        "impl region_i of region_s { };\n")
    text = dump_code_structure(project)
    assert "Streamlet(region_s)<NormalStreamlet>{" in text
    assert "Scope(streamlet_region_s){" in text
    assert "--StreamletScope-->package_tpch" in text
    assert "r_regionkey:Port(Stream(int_stream),in) `DefaultClockDomain" in text


def test_implement_dump_format():
    project, _ = evaluated_project(
        "package tpch;\n"
        "type s = Stream(Bit(1));\n"
        "streamlet orders_s { o_orderkey: s in, };\n"
        "impl orders_i of orders_s { };\n")
    text = dump_code_structure(project)
    assert "Implement(orders_i)<NormalImplement> -> Streamlet(orders_s){" in text
    assert "Scope(implement_orders_i){" in text
    assert "--ImplementScope-->package_tpch" in text
    assert "simulation_process{None}" in text


def test_process_block_prints_some():
    project, _ = evaluated_project(
        "package p;\n"
        "type s = Stream(Bit(1));\n"
        "streamlet top_s { a: s in, };\n"
        "impl top_i of top_s {\n  process { state x = \"0\"; },\n};\n")
    text = dump_code_structure(project)
    assert "simulation_process{Some}" in text


def test_connection_dump_format():
    project, _ = evaluated_project(
        "package p;\n"
        "type s = Stream(Bit(1));\n"
        "streamlet leaf_s { input: s in, output: s out, };\n"
        "external impl leaf_i of leaf_s {\n};\n"
        "streamlet top_s { a: s in, b: s out, };\n"
        "impl top_i of top_s {\n"
        "  instance l(leaf_i),\n"
        "  a => l.input,\n"
        "  l.output => b,\n"
        "};\n")
    text = dump_code_structure(project)
    assert "Self.a:Port(Stream(s),in) `DefaultClockDomain =0=> " \
           "ExternalOwner(l).input:Port(Stream(s),in) `DefaultClockDomain (connection_" in text
    assert "l:(Implement(leaf_i))" in text


def test_unevaluated_connection_dump():
    project = project_of(
        "package p;\n"
        "type s = Stream(Bit(1));\n"
        "streamlet top_s { o_shippriority_in: s in, b: s out, };\n"
        "impl top_i of top_s {\n"
        "  o_shippriority_in => b,\n"
        "};\n")
    text = dump_code_structure(project)
    assert 'Self.NotInferred("o_shippriority_in") =0=> Self.NotInferred("b") (connection_' in text


def test_same_named_connections_sort_by_source_port_text():
    """Connections that share a name print in the order of their source
    port's text: the source text of the `PathPort`, or the port name of an
    end that sugaring made. The `for` connection is named `x` plus the
    element suffix, and the two others are given that name in the source;
    the three orders (by declaration, by resolved port name and by source
    text) all differ."""
    result = compile_texts(
        "package p;\n"
        "type s = Stream(Bit(8));\n"
        "streamlet src_s { q: s [2] out, o0: s out, r: s out, };\n"
        "external impl src_i of src_s { };\n"
        "streamlet snk_s { i: s in, };\n"
        "external impl snk_i of snk_s { };\n"
        "streamlet top_s { };\n"
        "impl top_i of top_s {\n"
        "  instance a(src_i), instance b(snk_i), instance c(snk_i),\n"
        "  instance d(snk_i), instance e(snk_i), instance f(snk_i),\n"
        '  a.q[1] => b.i "x_for_k_0",\n'
        "  for k in (0=1=>1) {\n"
        '    a.o{{k}} => c.i "x",\n'
        "  }\n"
        '  a.r => d.i "x_for_k_0",\n'
        "  a.r => e.i,\n"
        "  a.q[0] => f.i,\n"
        "};\n", top="p.top_i")
    assert result.ok, result.diagnostics
    text = result.artifacts["2_evaluation_output_after_sugaring.txt"]
    port = ":Port(Stream(s),{}) `DefaultClockDomain"
    assert [line.strip() for line in text.splitlines()
            if line.endswith(" (x_for_k_0)")] == [
        "ExternalOwner(duplicate_a_r_2).output[0]" + port.format("out")
        + " =0=> ExternalOwner(d).i" + port.format("in") + " (x_for_k_0)",
        "ExternalOwner(a).o0" + port.format("out")
        + " =0=> ExternalOwner(c).i" + port.format("in") + " (x_for_k_0)",
        "ExternalOwner(a).q[1]" + port.format("out")
        + " =0=> ExternalOwner(b).i" + port.format("in") + " (x_for_k_0)",
    ]


def test_sections_in_canonical_order_and_sorted():
    project, _ = evaluated_project(
        "package p;\n"
        "const z = 1;\nconst a = 2;\n"
        "type s = Stream(Bit(1));\n"
        "streamlet top_s { x: s in, };\n"
        "impl top_i of top_s { };\n")
    text = dump_code_structure(project)
    assert text.index("Variables{") < text.index("Types{")
    assert text.index("Types{") < text.index("Streamlets{")
    assert text.index("Streamlets{") < text.index("Implements{")
    assert text.index("a:int(2)") < text.index("z:int(1)")


def test_dump_deterministic_across_runs():
    source = ("package p;\nconst a = 1;\nconst b = a + 1;\n")
    first = dump_code_structure(evaluated_project(source)[0])
    second = dump_code_structure(evaluated_project(source)[0])
    assert first == second


def test_golden_dump_frozen():
    """Full-dump regression pin for a small project touching most record
    kinds: values, aliases, streams, streamlets, external and normal impls,
    instances, named and auto-named connections, and the builtin templates."""
    source = open(os.path.join(DATA_DIR, "golden_demo.td")).read()
    expected = open(os.path.join(DATA_DIR, "golden_demo_dump.txt")).read()
    result = compile_texts(source, top="demo.top_i")
    assert result.ok
    assert result.artifacts["2_evaluation_output.txt"] == expected


@pytest.mark.parametrize("artifact", ["1_parser_output.txt",
                                      "2_evaluation_output_after_sugaring.txt",
                                      "ir.json", "circuit.dot", "drc_report.txt"])
def test_golden_template_project_is_pinned(artifact):
    """Byte-exact pins for a two-package project that instantiates templates:
    a streamlet template with a type parameter, an int parameter sizing a port
    array and a group reading that parameter; an impl template with an
    `impl of` parameter and a for block; a derived implementation of a
    template from another package; and the duplicator and voiders that
    sugaring inserts."""
    _check_golden_project("golden_templates", "app.top_i", artifact)


@pytest.mark.parametrize("artifact", ["1_parser_output.txt",
                                      "2_evaluation_output_after_sugaring.txt",
                                      "ir.json", "circuit.dot", "drc_report.txt"])
def test_golden_for_project_is_pinned(artifact):
    """Byte-exact pins for generative blocks: nested `for` blocks whose inner
    range is bounded by the outer variable; `if`/`elif`/`else` inside a
    `for`; interpolated instance names and array-indexed ends; a FIFO depth
    and a template argument computed from the loop variable; and an assert
    in a `for` body."""
    _check_golden_project("golden_for", "lanes.top_i", artifact)


def _check_golden_project(dirname: str, top: str, artifact: str):
    """Compile every `.td` file of `tests/data/<dirname>` with DRC, DOT and
    IR and compare one artifact with the checked-in copy."""
    project_dir = os.path.join(DATA_DIR, dirname)
    sources = []
    for name in sorted(os.listdir(project_dir)):
        if name.endswith(".td"):
            with open(os.path.join(project_dir, name), encoding="utf-8") as f:
                sources.append((name, f.read()))
    with open(os.path.join(project_dir, artifact), encoding="utf-8") as f:
        expected = f.read()
    config = CompileConfig(inputs=[project_dir], top=top, emit_drc=True,
                           emit_dot=True, emit_ir=True)
    result = compile_sources(config, sources)
    assert result.ok, result.diagnostics
    assert [d for d in result.drc_diagnostics if d.severity == "Error"] == []
    assert result.artifacts[artifact] == expected


def test_golden_tpch1_ir_is_pinned():
    """Byte-exact pins of the JSON IR, the DOT graph, the unevaluated
    code-structure dump and the DRC report of the paper's TPC-H query-1
    design, as `tydilang tests/data/tpch1.td --top std.main_i --drc --dot
    --ir` writes them: 161 stream types, most of them port types used many
    times over, 143 nets, and 14 R1 warnings: the comparator's inline
    `Stream(Bit(2))` output, duplicated, feeds `select` ports typed by the
    declared `stream_filter_select_stream`."""
    path = os.path.join(DATA_DIR, "tpch1.td")
    with open(path, encoding="utf-8") as f:
        sources = [(path, f.read())]
    config = CompileConfig(inputs=[path], top="std.main_i", emit_drc=True,
                           emit_dot=True, emit_ir=True)
    result = compile_sources(config, sources)
    assert result.ok, result.diagnostics
    for artifact, golden in (("ir.json", "golden_tpch1_ir.json"),
                             ("circuit.dot", "golden_tpch1.dot"),
                             ("1_parser_output.txt",
                              "golden_tpch1_parser_output.txt"),
                             ("drc_report.txt", "golden_tpch1_drc_report.txt")):
        with open(os.path.join(DATA_DIR, golden), encoding="utf-8") as f:
            assert result.artifacts[artifact] == f.read(), artifact


def test_evaluated_values_dump_format():
    """Each kind of evaluated value as the dump prints it: strings escaped,
    floats in their shortest form, clockdomains and arrays of each."""
    project, _ = evaluated_project(
        "package v;\n"
        'const s = "a\\"b\\\\c";\n'
        "const f = 2.5 * 2.0;\n"
        "const g = 0.1;\n"
        'const cd: clockdomain = "200MHz";\n'
        "const ints = {1, 2, 3};\n"
        'const strs = {"x", "y"};\n')
    text = dump_code_structure(project)
    assert ("        cd:clockdomain(200MHz)\n"
            "        f:float(5)\n"
            "        g:float(0.1)\n"
            "        ints:array([int(1),int(2),int(3)])\n"
            '        s:str("a\\"b\\\\c")\n'
            '        strs:array([str("x"),str("y")])\n') in text
