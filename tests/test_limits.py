"""Inputs nested deeper than the parser's or the evaluator's limit end in a
diagnostic, an error report and exit code 1, wherever the caller stands on
the Python stack; randomly mutated sources end in a result with exit code 0,
1 or 2. Neither ends in a traceback."""

import os
import re
import subprocess
import sys
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from tydilang import CompileConfig, CompileResult, compile_sources
from tydilang import pipeline
from tydilang.cli import main
from tydilang.emit import IR_DEPTH_LIMIT, _type_text
from tydilang.logical_types import GroupType, bit_width
from tydilang.parser import parse_file
from tydilang.tree import dump_ast

DEPTH = 500


def nested_parentheses(depth: int) -> str:
    return "package p;\nconst c = " + "(" * depth + "1" + ")" * depth + ";\n"


def backward_chain(depth: int) -> str:
    """`c0` needs `c1`, which needs `c2`, ... down to `c<depth>`."""
    return ("package p;\n"
            + "".join(f"const c{k} = c{k + 1} + 1;\n" for k in range(depth))
            + f"const c{depth} = 0;\n")


def nested_groups(depth: int) -> str:
    """`g00001` has a field of type `g00000`, and so on up to `g<depth-1>`.
    The names sort leaf first, so each group evaluates from memoized fields,
    and only the IR of the outermost group nests `depth` deep."""
    return ("package p;\ntype Group g00000 { f: Bit(1), };\n"
            + "".join(f"type Group g{k:05d} {{ f: g{k - 1:05d}, }};\n"
                      for k in range(1, depth)))


@pytest.mark.parametrize("source, in_file, line", [
    (nested_parentheses(DEPTH), True, "[syntax] nesting too deep while parsing"),
    # parses, one frame per sign, but overflows the AST dump, two per sign
    ("package p;\nconst c = " + "-" * 600 + "1;\n", True,
     "[syntax] nesting too deep while parsing"),
    (backward_chain(DEPTH), True, "[resolution] nesting too deep while evaluating"),
    (nested_groups(1000), False, "[resolution] nesting too deep while emitting"),
], ids=["parentheses", "unary_ast_dump", "constant_chain", "group_ir"])
def test_deep_nesting_is_a_diagnostic(tmp_path, capsys, source, in_file, line):
    src = tmp_path / "deep.td"
    src.write_text(source, encoding="utf-8")
    out = tmp_path / "build"
    assert main([str(src), "--ir", "--output", str(out)]) == 1
    where = str(src) if in_file else "<project>"
    assert (out / "error_report.txt").read_text() == f"{where}: {line}\n"
    assert capsys.readouterr().err.splitlines()[0] == f"{where}: {line}"


def test_ir_depth_bound_is_readable_by_json():
    """A type at the IR depth bound is written, and a document around the
    deepest that bound allows, an empty group at the bound, loads back with
    `json` in a fresh interpreter. One level more is a diagnostic
    (`test_diagnostics`)."""
    out = ["[" * IR_DEPTH_LIMIT]
    _type_text(out, GroupType("g", None), IR_DEPTH_LIMIT)
    out.append("]" * IR_DEPTH_LIMIT)
    loaded = subprocess.run([sys.executable, "-c", "import json, sys; json.load(sys.stdin)"],
                            input="".join(out), capture_output=True, text=True, check=False)
    assert loaded.returncode == 0, loaded.stderr


def test_ast_dump_overflow_keeps_the_other_files_errors():
    """A file whose AST dump nests too deep is reported at its file, and
    the syntax errors of the other files are still reported."""
    result = compile_sources(CompileConfig(inputs=["<memory>"]), [
        ("a.td", "package a;\nconst c = " + "-" * 600 + "1;\n"),
        ("b.td", "package b;\nconst d = ;\n")])
    assert result.artifacts["error_report.txt"] == (
        "a.td: [syntax] nesting too deep while parsing\n"
        "b.td:2:11: [syntax] expected an expression, found ';'\n")


@pytest.mark.parametrize("source, where", [
    ("package p; const r = round(10.0 ^ 308.0 * 10.0);\n", "1:28"),
    ("package p; const big = 10.0 ^ 308.0 * 10.0; const r = floor(big - big);\n",
     "1:24"),
], ids=["round_of_overflow", "floor_of_inf_minus_inf"])
def test_float_overflow_is_a_diagnostic(tmp_path, capsys, source, where):
    """A float past the finite range ends where it is made, in a located
    diagnostic, and never reaches `round` (OverflowError on infinity) or
    `floor` (ValueError on nan)."""
    src = tmp_path / "f0.td"
    src.write_text(source, encoding="utf-8")
    out = tmp_path / "build"
    assert main([str(src), "--output", str(out)]) == 1
    line = "[type] float result out of range"
    assert (out / "error_report.txt").read_text() == f"{src}:{where}: {line}\n"
    assert capsys.readouterr().err.splitlines() == [f"{src}:{where}: {line}"]


@pytest.mark.parametrize("declaration, instance, where", [
    ("o: s [100000000] out", "instance x(e_i)", "3:23"),
    ("o: s out", "instance x(e_i) [100000000]", "6:40"),
], ids=["port_array", "instance_array"])
def test_array_size_above_the_element_limit_is_a_diagnostic(tmp_path, capsys, declaration,
                                                            instance, where):
    """An array of 10^8 ports or instances is a located diagnostic at its
    size, made before any element is: the unused ports of a 10^8-port array
    on an instanced external once ran sugaring for minutes."""
    src = tmp_path / "big.td"
    src.write_text("package p;\ntype s = Stream(Bit(8));\n"
                   f"streamlet e_s {{ {declaration}, }};\n"
                   "external impl e_i of e_s { };\nstreamlet top_s { };\n"
                   f"impl top_i of top_s {{ {instance}, }};\n", encoding="utf-8")
    out = tmp_path / "build"
    assert main([str(src), "--output", str(out)]) == 1
    kind = "port" if "[" in declaration else "instance"
    line = f"{src}:{where}: [type] {kind} array size 100000000 is above the limit of 1000000"
    assert (out / "error_report.txt").read_text() == line + "\n"
    assert capsys.readouterr().err.splitlines() == [line]


@pytest.mark.parametrize("chain, dumped", [
    ("".join(f"type t{k:05d} = t{k + 1:05d};\n" for k in range(199))
     + "type t00199 = Bit(1);\n", "t00000:Bit(1)"),
    ("".join(f"const c{k:05d} = c{k + 1:05d} + 1;\n" for k in range(99))
     + "const c00099 = 0;\n", "c00000:int(99)"),
], ids=["type_aliases_200", "constants_100"])
def test_evaluation_depth_limits_are_pinned(chain, dumped):
    """Evaluation recurses once per dependency, so a backward chain, whose
    first name sorts first and needs all the others, is as deep as the
    stack allows. These lengths compile today; a change that lowers the
    limit below them fails here."""
    result = compile_sources(CompileConfig(inputs=["<memory>"]),
                             [("chain.td", "package p;\n" + chain)])
    assert result.exit_code == 0, result.diagnostics
    assert dumped in result.artifacts["2_evaluation_output.txt"]


def test_ast_dump_reaches_as_deep_as_the_parser():
    """Writing `0_ast` used to overflow from about 180 nested parentheses,
    far below what the parser accepts."""
    depth = 300
    dump = dump_ast(parse_file(nested_parentheses(depth)).ast)
    assert dump.count("Term(") == depth + 1
    assert f"INT_RAW_NORAML({21 + depth}, {22 + depth})" in dump


def inline_groups(depth: int) -> str:
    """A group whose field is a group declared in place, `depth` times."""
    body = "f: Bit(1),"
    for k in range(depth):
        body = f"f: Group g{k} {{ {body} }},"
    return f"package p;\ntype Group top {{ {body} }};\n"


def implementation_chain(depth: int) -> str:
    """`i00000` instantiates `i00001`, ... down to an external `i<depth>`."""
    return ("package p;\nstreamlet s { };\n"
            + "".join(f"impl i{k:05d} of s {{ instance x(i{k + 1:05d}), }};\n"
                      for k in range(depth))
            + f"external impl i{depth:05d} of s {{ }};\n")


PARSING = "deep.td: [syntax] nesting too deep while parsing\n"
EVALUATING = "deep.td: [resolution] nesting too deep while evaluating\n"


# each way to nest: its source at a size, the largest size that compiles, and
# the error report of one size more
BOUNDARIES = {
    "parentheses": (nested_parentheses, 498, EVALUATING),
    "unary_minus": (lambda n: "package p;\nconst c = " + "-" * n + "1;\n", 498, EVALUATING),
    "streams": (lambda n: "package p;\ntype t = " + "Stream(" * n + "Bit(1)" + ")" * n + ";\n",
                497, EVALUATING),
    "if_blocks": (lambda n: "package p;\nstreamlet s { };\nimpl i of s { "
                  + "if (true) { " * n + "} " * n + "};\n", 498, EVALUATING),
    "inline_groups": (inline_groups, 248, PARSING),
    "type_aliases": (lambda n: "package p;\n" + "".join(
        f"type t{k:05d} = t{k + 1:05d};\n" for k in range(n)) + f"type t{n:05d} = Bit(1);\n",
        248, EVALUATING),
    "constants": (backward_chain, 249, EVALUATING),
    "implementations": (implementation_chain, 499, EVALUATING),
    "constants_in_parentheses": (lambda n: "package p;\n" + "".join(
        f"const c{k:05d} = {'(' * 40}c{k + 1:05d}{')' * 40} + 1;\n" for k in range(n))
        + f"const c{n:05d} = 0;\n", 11, EVALUATING),
}


def at_depth(frames: int, call):
    """`call()`, made `frames` Python frames deeper than this call."""
    return call() if frames == 0 else at_depth(frames - 1, call)


def compiled_three_ways(source: str):
    """The exit code and error report of `source`, which must be the same at
    caller depth 0, at caller depth 900 and under a caller's recursion limit
    of 300, where the compile leaves that limit as it found it."""
    def compiled():
        result = compile_sources(CompileConfig(inputs=["<memory>"]), [("deep.td", source)])
        return result.exit_code, result.artifacts.get("error_report.txt")

    limit = sys.getrecursionlimit()
    outcome = compiled()
    assert at_depth(900, compiled) == outcome
    sys.setrecursionlimit(300)
    try:
        assert compiled() == outcome
        assert sys.getrecursionlimit() == 300
    finally:
        sys.setrecursionlimit(limit)
    return outcome


@pytest.mark.parametrize("kind", BOUNDARIES)
def test_nesting_boundary_does_not_depend_on_the_caller(kind):
    """The deepest input of each kind compiles, and one level more is a
    diagnostic at its file, whatever the caller's stack depth and limit."""
    source, deepest, report = BOUNDARIES[kind]
    assert compiled_three_ways(source(deepest)) == (0, None)
    assert compiled_three_ways(source(deepest + 1)) == (1, report)


def test_compile_raises_the_recursion_limit_only_while_it_runs(monkeypatch):
    """A compile raises a lower limit by its frame budget, keeps a higher
    one, and restores either afterwards."""
    seen = []
    parse = pipeline.parse_project

    def parse_and_look(sources):
        seen.append(sys.getrecursionlimit())
        return parse(sources)

    monkeypatch.setattr(pipeline, "parse_project", parse_and_look)
    limit = sys.getrecursionlimit()
    try:
        for caller_limit in (300, 100_000):
            sys.setrecursionlimit(caller_limit)
            compile_sources(CompileConfig(inputs=["<memory>"]), [("deep.td", "package p;\n")])
            assert sys.getrecursionlimit() == caller_limit
    finally:
        sys.setrecursionlimit(limit)
    assert seen[0] > pipeline.FRAME_BUDGET
    assert seen[1] == 100_000


def parallel_group_chains(length: int) -> str:
    """Two chains of `length` groups, `g` and `h`, each group holding the one
    before, forced leaf first by an external implementation per group, and
    one @NoStrictType@ connection between the outermost of both."""
    lines = ["package p;"]
    for chain, direction in (("g", "out"), ("h", "in")):
        lines.append(f"type Group {chain}00000 {{ f: Bit(1), }};")
        lines += [f"type Group {chain}{k:05d} {{ f: {chain}{k - 1:05d}, }};"
                  for k in range(1, length)]
        lines += [f"streamlet s{chain}{k:05d} {{ p: Stream({chain}{k:05d}) {direction}, }};\n"
                  f"external impl i{chain}{k:05d} of s{chain}{k:05d} {{ }};"
                  for k in range(length)]
    last = f"{length - 1:05d}"
    lines.append(f"streamlet top_s {{ }};\nimpl top_i of top_s {{ instance a(ig{last}), "
                 f"instance b(ih{last}), a.p => b.p @NoStrictType@, }};")
    return "\n".join(lines) + "\n"


def test_drc_compares_types_deeper_than_the_stack():
    """Structural compatibility of two 3,000-level group chains is a loop,
    not one call per level."""
    result = compile_sources(CompileConfig(inputs=["<memory>"], emit_drc=True),
                             [("chains.td", parallel_group_chains(3000))])
    assert result.exit_code == 0, result.diagnostics
    assert result.drc_diagnostics == []
    assert result.artifacts["drc_report.txt"] == "0 errors, 0 warnings\n"


def test_bit_width_of_a_group_deeper_than_the_stack():
    """The width of a 3,000-level group chain is measured in a loop, within
    the default recursion limit, not one call per level."""
    result = compile_sources(CompileConfig(inputs=["<memory>"]),
                             [("chains.td", parallel_group_chains(3000))])
    assert result.exit_code == 0, result.diagnostics
    assert bit_width(result.project.packages["p"].scope.types["g02999"].evaluated) == 1


with open(os.path.join(os.path.dirname(__file__), "data", "golden_demo.td"),
          encoding="utf-8") as _f:
    GOLDEN_DEMO = _f.read()

FRAGMENTS = [
    "", " ", "\n", ";", ",", ".", ":", "(", ")", "{", "}", "{{", "}}", "[", "]",
    "<", ">", "=", "=>", "=2=>", "+", "-", "*", "/", "`", "\"", "\\", "#", "//",
    "/*", "*/", "__", "0", "7", "0x1F", "1.5", "12ab", "\u00e9", "@", "$",
    "@NoStrictType@", "package", "const", "type", "streamlet", "impl", "external",
    "instance", "for", "if", "in", "out", "of", "Self", "process {", "width",
    "payload", "link", "pipe_s", "pipe_i", "top_i", "stage", "Bit(", "Stream(",
    "Group", "Union", "d = 1", "const q = width + 1;", "type t = Bit(0);",
    "instance extra(pipe_i),", "source => sink,", "stage.output => sink,",
    "impl x of top_s { };", "streamlet top_s { };", "for i in (0=1=>2) { }",
    "if (width > 2) { }", "assert(width == 5);",
]

WORDS = ["0", "1", "2", "-1", "1.5", '"s"', "width", "payload", "link", "pipe_s",
         "pipe_i", "top_s", "top_i", "stage", "source", "sink", "input", "output",
         "in", "out", "demo", "Bit", "Stream", "d", "x", "Self", "type", "impl"]

# An edit puts `fragment` at a relative position `where` and cuts what follows,
# so it inserts, deletes or both. It cuts up to 12 characters ("char"), up to
# one line after a copy of one of the file's own lines ("line"), or exactly
# the identifier or number there ("word").
EDITS = st.lists(st.one_of(
    st.tuples(st.just("char"), st.floats(0, 1), st.integers(0, 12), st.sampled_from(FRAGMENTS)),
    st.tuples(st.just("line"), st.floats(0, 1), st.integers(0, 1),
              st.sampled_from(GOLDEN_DEMO.splitlines())),
    st.tuples(st.just("word"), st.floats(0, 1), st.just(0), st.sampled_from(WORDS)),
), min_size=1, max_size=2)


def mutate(text: str, edits) -> str:
    for kind, where, cut, fragment in edits:
        if kind == "line":
            lines = text.splitlines(keepends=True)
            k = int(where * len(lines))
            text = "".join(lines[:k] + [fragment + "\n"] + lines[k + cut:])
        elif kind == "word":
            words = list(re.finditer(r"\w+", text))
            w = words[min(int(where * len(words)), len(words) - 1)]
            text = text[:w.start()] + fragment + text[w.end():]
        else:
            pos = int(where * len(text))
            text = text[:pos] + fragment + text[pos + cut:]
    return text


@settings(max_examples=200, deadline=None)
@given(edits=EDITS)
def test_mutated_source_compiles_to_a_result(edits):
    config = CompileConfig(inputs=["<memory>"], output_dir=None, top="demo.top_i",
                           emit_drc=True, emit_dot=True, emit_ir=True)
    result = compile_sources(config, [("golden_demo.td", mutate(GOLDEN_DEMO, edits))])
    assert isinstance(result, CompileResult)
    assert result.exit_code in (0, 1, 2)


@settings(max_examples=60, deadline=None)
@given(edits=EDITS)
def test_mutated_source_cli_returns_an_exit_code(edits):
    with tempfile.TemporaryDirectory() as tmp:
        src = os.path.join(tmp, "golden_demo.td")
        with open(src, "w", encoding="utf-8") as f:
            f.write(mutate(GOLDEN_DEMO, edits))
        assert main([src, "--top", "demo.top_i", "--drc", "--dot", "--ir",
                     "--output", os.path.join(tmp, "build")]) in (0, 1, 2)
