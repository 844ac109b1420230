"""Inputs nested deeper than the Python stack allows end in a diagnostic, an
error report and exit code 1; randomly mutated sources end in a result with
exit code 0, 1 or 2. Neither ends in a traceback."""

import os
import re
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from tydilang import CompileConfig, CompileResult, compile_sources
from tydilang.cli import main
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
    (backward_chain(DEPTH), True, "[resolution] nesting too deep while evaluating"),
    (nested_groups(1000), False, "[resolution] nesting too deep while emitting"),
], ids=["parentheses", "constant_chain", "group_ir"])
def test_deep_nesting_is_a_diagnostic(tmp_path, capsys, source, in_file, line):
    src = tmp_path / "deep.td"
    src.write_text(source, encoding="utf-8")
    out = tmp_path / "build"
    assert main([str(src), "--ir", "--output", str(out)]) == 1
    where = str(src) if in_file else "<project>"
    assert (out / "error_report.txt").read_text() == f"{where}: {line}\n"
    assert capsys.readouterr().err.splitlines()[0] == line


def test_ast_dump_reaches_as_deep_as_the_parser():
    """Writing `0_ast` used to overflow from about 180 nested parentheses,
    far below what the parser accepts."""
    depth = 300
    dump = dump_ast(parse_file(nested_parentheses(depth)).ast)
    assert dump.count("Term(") == depth + 1
    assert f"INT_RAW_NORAML({21 + depth}, {22 + depth})" in dump


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
