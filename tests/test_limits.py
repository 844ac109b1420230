"""Inputs nested deeper than the Python stack allows end in a diagnostic, an
error report and exit code 1, never in a traceback."""

import pytest

from tydilang.cli import main

DEPTH = 500


def nested_parentheses(depth: int) -> str:
    return "package p;\nconst c = " + "(" * depth + "1" + ")" * depth + ";\n"


def backward_chain(depth: int) -> str:
    """`c0` needs `c1`, which needs `c2`, ... down to `c<depth>`."""
    return ("package p;\n"
            + "".join(f"const c{k} = c{k + 1} + 1;\n" for k in range(depth))
            + f"const c{depth} = 0;\n")


@pytest.mark.parametrize("source, line", [
    (nested_parentheses(DEPTH), "[syntax] nesting too deep while parsing"),
    (backward_chain(DEPTH), "[resolution] nesting too deep while evaluating"),
], ids=["parentheses", "constant_chain"])
def test_deep_nesting_is_a_diagnostic(tmp_path, capsys, source, line):
    src = tmp_path / "deep.td"
    src.write_text(source, encoding="utf-8")
    out = tmp_path / "build"
    assert main([str(src), "--output", str(out)]) == 1
    assert (out / "error_report.txt").read_text() == f"<project>: {line}\n"
    assert capsys.readouterr().err.splitlines()[0] == line
