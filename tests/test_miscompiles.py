"""Known miscompiles, each a strict xfail that asserts the correct outcome,
so the fix that mends one turns its test red until the mark is deleted.

Cases (a)-(f) share one cause: a template instance is memoized and
registered under a printed name, `name@arg@arg`, which drops everything of
an argument but its declared name or a `Bit` width, and sugaring inserts its
duplicators and voiders on the default clockdomain. The last case is the
IR's: an instance's `target` is written as a bare name, with no package."""

import json

import pytest

from conftest import compile_texts

SHARED_INSTANCE = pytest.mark.xfail(
    strict=True, reason="template instances are keyed by a printed name that can collide")


def drc_summary(result) -> str:
    return result.artifacts["drc_report.txt"].splitlines()[-1]


@SHARED_INSTANCE
def test_inserted_components_take_the_port_clockdomain():
    """(a) The duplicator of a fan-out from a `200MHz` port runs at 200MHz,
    not on the default clockdomain (3 R4 errors today)."""
    result = compile_texts(
        "package cdp; type byte = Bit(8); type s = Stream(byte);\n"
        'const fast: clockdomain = "200MHz";\n'
        "streamlet src_s { o: s out `fast, }; external impl src_i of src_s { };\n"
        "streamlet snk_s { i: s in `fast, }; external impl snk_i of snk_s { };\n"
        "streamlet top_s { };\n"
        "impl top_i of top_s { instance a(src_i), instance b(snk_i),\n"
        "                      instance c(snk_i), a.o => b.i, a.o => c.i, };\n",
        top="cdp.top_i", drc=True)
    assert drc_summary(result) == "0 errors, 0 warnings"


@SHARED_INSTANCE
def test_voiders_of_streams_with_other_properties_stay_apart():
    """(b) Two unread outputs of one element type but different dimensions
    get two voiders (both are `void_i@Stream(Bit(8))` today: an R1 error)."""
    result = compile_texts(
        "package b;\n"
        "streamlet a_s { o1: Stream(Bit(8), d = 1) out, o2: Stream(Bit(8), d = 2) out, };\n"
        "external impl a_i of a_s { };\n"
        "streamlet top_s { };\n"
        "impl top_i of top_s { instance x(a_i), };\n",
        top="b.top_i", drc=True)
    assert drc_summary(result) == "0 errors, 0 warnings"


@SHARED_INSTANCE
def test_voiders_of_same_named_types_stay_apart():
    """(c) A group declared in a streamlet template is a different type in
    `t_s<3>` and `t_s<1>`, so their unread outputs get two voiders (one
    `void_i@Stream(tagged)` today: an R1 error)."""
    result = compile_texts(
        "package c;\n"
        "streamlet t_s<n: int> { type Group tagged { tag: Bit(n), },\n"
        "                        tags: Stream(tagged) out, };\n"
        "external impl t_i<n: int> of t_s<n> { };\n"
        "streamlet top_s { };\n"
        "impl top_i of top_s { instance a(t_i<3>), instance b(t_i<1>), };\n",
        top="c.top_i", drc=True)
    assert drc_summary(result) == "0 errors, 0 warnings"


@SHARED_INSTANCE
def test_string_arguments_holding_the_separator_stay_apart():
    """(d) `k_i<"u@v", "w">` and `k_i<"u", "v@w">` are two instances, and the
    second fails its streamlet's assert (both are `k_i@u@v@w` today, and the
    compile exits 0)."""
    result = compile_texts(
        "package p; type s = Stream(Bit(1));\n"
        'streamlet k_s<a: str, b: str> { o: s out, assert(a + "|" + b != "u|v@w"), };\n'
        "external impl k_i<a: str, b: str> of k_s<a, b> {};\n"
        "streamlet top_s {};\n"
        'impl top_i of top_s { instance x(k_i<"u@v", "w">), instance y(k_i<"u", "v@w">), };\n',
        top="p.top_i")
    assert result.exit_code == 1
    assert [d.category for d in result.diagnostics] == ["assertion"]


@SHARED_INSTANCE
def test_same_named_implementation_arguments_stay_apart():
    """(e) `lib.w_i<impl lib.leaf_i>` and `lib.w_i<impl leaf_i>`, where `app`
    declares its own `leaf_i`, are two instances, and `b`'s `x` is `app`'s
    `leaf_i` (both are `w_i@leaf_i`, built with `lib`'s, today)."""
    result = compile_texts(
        "package lib; type s = Stream(Bit(8));\n"
        "streamlet io_s { i: s in, o: s out, };\n"
        "external impl leaf_i of io_s { };\n"
        "streamlet w_s<c: impl of io_s> { i: s in, o: s out, };\n"
        "impl w_i<c: impl of io_s> of w_s<impl c> { instance x(c), i => x.i, x.o => o, };\n",
        "package app; import lib;\n"
        "impl leaf_i of lib.io_s { i => o, };\n"
        "streamlet src_s { o: lib.s out, }; external impl src_i of src_s { };\n"
        "streamlet top_s { };\n"
        "impl top_i of top_s { instance a(lib.w_i<impl lib.leaf_i>),\n"
        "                      instance b(lib.w_i<impl leaf_i>), instance sa(src_i),\n"
        "                      instance sb(src_i), sa.o => a.i, sb.o => b.i, };\n",
        top="app.top_i", drc=True)
    assert result.exit_code == 0
    app = result.project.packages["app"].scope
    b = app.implements["top_i"].instances["b"].target
    assert b.instances["x"].target is app.implements["leaf_i"]


@SHARED_INSTANCE
def test_a_type_declared_in_a_for_body_is_each_elements_own():
    """(f) Each element's `w` is its own type, so `k_2`'s `input` is 2 bits
    wide (both elements target `t_i@Stream(w)` today, with a 1-bit input)."""
    result = compile_texts(
        "package f;\n"
        "streamlet t_s<t: type> { input: t in, };\n"
        "external impl t_i<t: type> of t_s<type t> {};\n"
        "streamlet top_s {};\n"
        "impl top_i of top_s { for i in (1=1=>3) { type w = Stream(Bit(i)),\n"
        "                                          instance k_{{i}}(t_i<type w>), } };\n",
        top="f.top_i")
    assert result.exit_code == 0
    k_2 = result.project.packages["f"].scope.implements["top_i"].instances["k_2"]
    assert k_2.target.streamlet.ports["input"].logical_type.element.width == 2


def ir_implementation(ir: dict, package: str, reference: str) -> tuple[str, str]:
    """The (package, name) of the implementation an IR reference written in
    `package` names: `pkg.name`, or a bare name of `package`'s own."""
    pkg, dot, name = reference.partition(".")
    if not dot or pkg not in ir["packages"]:
        pkg, name = package, reference
    assert name in ir["packages"][pkg]["implementations"], reference
    return pkg, name


@pytest.mark.xfail(strict=True, reason="an IR reference is a bare name, with no package")
def test_ir_targets_name_one_implementation():
    """From `ir.json` alone, `a` targets `lib`'s external `leaf_i` and `b`
    targets `app`'s pass-through `leaf_i` (both read `"leaf_i"` today)."""
    result = compile_texts(
        "package lib; type s = Stream(Bit(8));\n"
        "streamlet io_s { i: s in, o: s out, };\n"
        "external impl leaf_i of io_s { };\n",
        "package app; import lib;\n"
        "impl leaf_i of lib.io_s { i => o, };\n"
        "streamlet src_s { o: lib.s out, }; external impl src_i of src_s { };\n"
        "streamlet snk_s { i: lib.s in, }; external impl snk_i of snk_s { };\n"
        "streamlet top_s { };\n"
        "impl top_i of top_s { instance a(lib.leaf_i), instance b(leaf_i),\n"
        "    instance sa(src_i), instance sb(src_i), instance ka(snk_i), instance kb(snk_i),\n"
        "    sa.o => a.i, sb.o => b.i, a.o => ka.i, b.o => kb.i, };\n",
        top="app.top_i", drc=True, ir=True)
    assert drc_summary(result) == "0 errors, 0 warnings"
    ir = json.loads(result.artifacts["ir.json"])
    instances = ir["packages"]["app"]["implementations"]["top_i"]["instances"]
    assert ir_implementation(ir, "app", instances["a"]["target"]) == ("lib", "leaf_i")
    assert ir_implementation(ir, "app", instances["b"]["target"]) == ("app", "leaf_i")
