"""The golden projects: one table, each row a compile of a project under
`tests/data` with its exit code and every artifact it pins byte for byte.

`tests/test_goldens.py` compiles each row once per test session, and the
`goldens` step of `tests/ci.py` compiles every row through the command line
under ``PYTHONHASHSEED`` 0 and 1.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import NamedTuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DATA_DIR = os.path.join(ROOT, "tests", "data")


class Golden(NamedTuple):
    argv: list[str]  # after `tydilang`, from the repository root
    exit_code: int
    pins: dict[str, str]  # artifact -> its pin, a file under tests/data


def _same(project: str, *artifacts: str) -> dict[str, str]:
    """Pins kept in the project's folder under the artifacts' own names."""
    return {artifact: f"{project}/{artifact}" for artifact in artifacts}


GOLDENS = {
    # The JSON IR, the DOT graph, the AST, the unevaluated and the sugared
    # code-structure dumps and the DRC report of the paper's TPC-H query-1
    # design: 161 stream types, most of them port types used many times
    # over, 143 nets, and 14 R1 warnings: the comparator's inline
    # `Stream(Bit(2))` output, duplicated, feeds `select` ports typed by the
    # declared `stream_filter_select_stream`. The sugared dump keeps 60
    # `NotInferred` records, 31 of them ports of templates, beside the
    # evaluated and sugared ones.
    "tpch1": Golden(
        "tests/data/tpch1.td --top std.main_i --drc --dot --ir --project project".split(), 0,
        {"ir.json": "golden_tpch1_ir.json",
         "circuit.dot": "golden_tpch1.dot",
         "1_parser_output.txt": "golden_tpch1_parser_output.txt",
         "0_ast/tpch1.txt": "golden_tpch1_ast.txt",
         "drc_report.txt": "golden_tpch1_drc_report.txt",
         "2_evaluation_output_after_sugaring.txt": "golden_tpch1_evaluation_output.txt"}),
    # A two-package project that instantiates templates: a streamlet template
    # with a type parameter, an int parameter sizing a port array and a group
    # reading that parameter; an impl template with an `impl of` parameter
    # and a for block; a derived implementation of a template from another
    # package; and the duplicator and voiders that sugaring inserts.
    "templates": Golden(
        "tests/data/golden_templates --top app.top_i --drc --dot --ir --project project".split(),
        0, _same("golden_templates", "1_parser_output.txt",
                 "2_evaluation_output_after_sugaring.txt", "ir.json", "circuit.dot",
                 "drc_report.txt")),
    # Generative blocks: nested `for` blocks whose inner range is bounded by
    # the outer variable; `if`/`elif`/`else` inside a `for`; interpolated
    # instance names and array-indexed ends; a FIFO depth and a template
    # argument computed from the loop variable; and an assert in a `for` body.
    "for": Golden(
        "tests/data/golden_for --top lanes.top_i --drc --dot --ir --project project".split(),
        0, _same("golden_for", "1_parser_output.txt", "2_evaluation_output_after_sugaring.txt",
                 "ir.json", "circuit.dot", "drc_report.txt")),
    # Every stream property away from its default, raw and evaluated: two
    # declarations of one stream structure meet in a strict connection, one
    # R1 warning, and in a @NoStrictType@ one, no diagnostic; a third stream
    # keeps every default.
    "streams": Golden(
        "tests/data/golden_streams.td --top streams.top_i --drc --ir --project project".split(),
        0, {"1_parser_output.txt": "golden_streams_parser_output.txt",
            "2_evaluation_output.txt": "golden_streams_evaluation_output.txt",
            "ir.json": "golden_streams_ir.json",
            "drc_report.txt": "golden_streams_drc_report.txt"}),
    # What the builder makes of every item kind the parser reaches, and the
    # evaluation errors that follow. The AST reaches every rule of the
    # parser, including its optional separators, member extractions, process
    # blocks, connection names and clockdomain annotations.
    "grammar": Golden(
        "tests/data/golden_grammar.td --project project".split(), 1,
        {"1_parser_output.txt": "golden_grammar_parser_output.txt",
         "error_report.txt": "golden_grammar_error_report.txt",
         "0_ast/golden_grammar.txt": "golden_grammar_ast.txt"}),
    # A wrapper instanced as array elements and one level deeper, whose named
    # connection holds `"` and `\` and starts at a child's array port; every
    # copy has a fan-out and unread outputs, so duplicator and voider copies
    # repeat, and two implementations name a connection alike. The IR has
    # the escaped connection name, `owner_index` on array instances and
    # nested wrappers.
    "hier": Golden(
        "tests/data/golden_hier.td --top hier.top_i --dot --ir --project project".split(), 0,
        {"circuit.dot": "golden_hier.dot", "ir.json": "golden_hier_ir.json"}),
    # One wrapper implementation instanced three times (two array elements
    # and a scalar), array ports, a named net and a wrapper port that passes
    # straight through. Its IR is written for the oracles, not pinned.
    "circuit": Golden(
        "tests/data/golden_circuit.td --top circ.top_i --dot --ir --project project".split(), 0,
        {"circuit.dot": "golden_circuit.dot"}),
    # A small project touching most record kinds: values, aliases, streams,
    # streamlets, external and normal impls, instances, named and auto-named
    # connections, and the builtin templates.
    "demo": Golden(
        "tests/data/golden_demo.td --top demo.top_i --project test_project".split(), 0,
        {"2_evaluation_output.txt": "golden_demo_dump.txt"}),
    # Several evaluation errors, each reported at the node that caused it, on
    # lines with multi-byte characters before the error, so each column
    # counts characters, not bytes.
    "errors": Golden(
        "tests/data/golden_errors --project project".split(), 1,
        _same("golden_errors", "error_report.txt")),
    # Both R5 texts on array-indexed ends: an instance array input driven
    # twice and one never driven, while the outputs nobody reads get voiders
    # and stay silent.
    "r5": Golden(
        "tests/data/golden_r5.td --top r5.top_i --drc --project project".split(), 1,
        {"drc_report.txt": "golden_r5_drc_report.txt"}),
}


def pin_failures(golden: Golden, exit_code: int, out_dir: str, artifacts=None) -> list[str]:
    """How a compile of `golden` that exited with `exit_code` and wrote into
    `out_dir` differs from the pins: its exit code, and each of `artifacts`
    (default: every pinned one) that is missing or not byte-identical."""
    failures = [] if exit_code == golden.exit_code else [
        f"exit code {exit_code}, not {golden.exit_code}"]
    for artifact in artifacts or golden.pins:
        written, pin = Path(out_dir, artifact), golden.pins[artifact]
        if not written.is_file() or written.read_bytes() != Path(DATA_DIR, pin).read_bytes():
            failures.append(f"{artifact} is not tests/data/{pin}")
    return failures
