import os

import pytest

from tydilang import pipeline
from tydilang.cli import main
from tydilang.errors import Diagnostic
from tydilang.pipeline import (CompileConfig, compile_project, compile_sources,
                               render_error_report)

from conftest import DATA_DIR

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

EXPECTED_FILES = [
    "1_parser_output.txt",
    "2_evaluation_output.txt",
    "2_evaluation_output_after_sugaring.txt",
    "drc_report.txt",
    "circuit.dot",
    "ir.json",
]


DRC_WARNING = (  # a valid design whose DRC reports one warning
    "package p;\n"
    "type Group rgb { r: Bit(8), };\n"
    "streamlet s { input: Stream(rgb) in, output: Stream(rgb) out, };\n"
    "impl i of s { input => output, };\n")


def write_sources(tmp_path, files):
    src = tmp_path / "src"
    src.mkdir(parents=True, exist_ok=True)
    for name, text in files.items():
        (src / name).write_text(text)
    return src


def test_full_artifact_set_for_tpch(tmp_path):
    src = write_sources(tmp_path, {"tpch1.td": open(
        os.path.join(DATA_DIR, "tpch1.td")).read()})
    out = tmp_path / "build"
    code = main([str(src), "--output", str(out), "--project", "test_project",
                 "--top", "std.main_i", "--drc", "--dot", "--ir"])
    assert code == 0
    for name in EXPECTED_FILES:
        assert (out / name).is_file(), name
    assert (out / "0_ast" / "tpch1.txt").is_file()


def test_directory_scan_and_multiple_files(tmp_path):
    src = write_sources(tmp_path, {"simple_0.td": SIMPLE_0,
                                   "simple_1.td": SIMPLE_1,
                                   "notes.txt": "ignored"})
    out = tmp_path / "build"
    code = main([str(src), "--output", str(out), "--project", "test_project"])
    assert code == 0
    dump = (out / "2_evaluation_output.txt").read_text()
    assert "i1:int(101)" in dump
    assert 'i2:UnknownType(NotInferred("500"))' in dump
    assert (out / "0_ast" / "simple_0.txt").is_file()
    assert (out / "0_ast" / "simple_1.txt").is_file()


def test_partial_artifacts_survive_failure(tmp_path):
    src = write_sources(tmp_path, {"bad.td": (
        "package p;\n"
        "type s = Stream(Bit(1));\n"
        "streamlet top_s { a: s in, };\n"
        "impl top_i of top_s { assert(1 == 2), };\n")})
    out = tmp_path / "build"
    code = main([str(src), "--output", str(out)])
    assert code == 1
    assert (out / "1_parser_output.txt").is_file()
    assert (out / "0_ast" / "bad.txt").is_file()
    assert not (out / "2_evaluation_output.txt").exists()
    report = (out / "error_report.txt").read_text()
    assert "assertion failed" in report
    assert "bad.td:4:" in report


def test_syntax_error_reports_line_and_column(tmp_path):
    src = write_sources(tmp_path, {"bad.td": "package p;\nconst x = ;\n"})
    out = tmp_path / "build"
    code = main([str(src), "--output", str(out)])
    assert code == 1
    report = (out / "error_report.txt").read_text()
    assert "bad.td:2:11" in report
    assert "[syntax]" in report


def test_error_report_indexes_each_file_once(monkeypatch):
    """However many diagnostics a file has, the report indexes it once, and
    places each at the line and the character column of its byte offset."""
    texts = {"a.td": "package a;\n\u00e9\u00e9 x\n\n\u20ac", "b.td": "package b;\n  y"}
    diagnostics = [Diagnostic("type", f"m{k}", path, (None, k, k))
                   for path, text in texts.items()
                   for k in range(len(text.encode()) + 1)]
    diagnostics += [Diagnostic("usage", "no span", "a.td"), Diagnostic("io", "no path")]
    indexed = []
    index_file = pipeline.line_index
    monkeypatch.setattr(pipeline, "line_index",
                        lambda text: indexed.append(text) or index_file(text))
    report = render_error_report(diagnostics, texts)
    assert sorted(indexed) == sorted(texts.values())
    expected = ["a.td: [usage] no span", "<project>: [io] no path"]
    for d in diagnostics[:-2]:
        before = texts[d.path].encode()[:d.span.start]
        line = before.count(b"\n") + 1
        column = len(before[before.rfind(b"\n") + 1:].decode(errors="replace")) + 1
        expected.append(f"{d.path}:{line}:{column}: [type] {d.message}")
    assert sorted(report.splitlines()) == sorted(expected)


def test_stderr_locates_each_error_as_the_report_does(tmp_path, capsys):
    src = write_sources(tmp_path, {"b.td": 'package b;\nconst x: int = "s";\n'})
    out = tmp_path / "build"
    assert main([str(src / "b.td"), "--output", str(out)]) == 1
    line = f"{src / 'b.td'}:2:1: [type] variable 'x' declared int but evaluates to str"
    assert (out / "error_report.txt").read_text() == line + "\n"
    assert capsys.readouterr().err == line + "\n"


def test_errors_grouped_by_file(tmp_path):
    src = write_sources(tmp_path, {
        "a.td": "package a;\nconst x = ;\n",
        "b.td": "package b;\nconst = 1;\n"})
    out = tmp_path / "build"
    assert main([str(src), "--output", str(out)]) == 1
    lines = (out / "error_report.txt").read_text().splitlines()
    assert len(lines) == 2
    assert "a.td" in lines[0] and "b.td" in lines[1]


def test_drc_warnings_do_not_fail_build(tmp_path):
    src = write_sources(tmp_path, {"w.td": DRC_WARNING})
    out = tmp_path / "build"
    code = main([str(src), "--output", str(out), "--drc"])
    assert code == 0
    assert "1 warnings" in (out / "drc_report.txt").read_text()


def test_drc_errors_fail_build(tmp_path):
    src = write_sources(tmp_path, {"e.td": (
        "package p;\n"
        "type s = Stream(Bit(1));\n"
        "streamlet top_s { a: s in, b: s in, o: s out, };\n"
        "impl top_i of top_s { a => o, b => o, };\n")})
    out = tmp_path / "build"
    code = main([str(src), "--output", str(out), "--drc"])
    assert code == 1


def test_dot_requires_top(tmp_path):
    src = write_sources(tmp_path, {"x.td": "package p;"})
    assert main([str(src), "--dot", "--output", str(tmp_path / "b")]) == 2


def test_missing_top_is_usage_error(tmp_path):
    src = write_sources(tmp_path, {"x.td": "package p;"})
    out = tmp_path / "build"
    code = main([str(src), "--output", str(out), "--top", "p.ghost"])
    assert code == 2  # a usage error, still reported in the error report


def test_template_top_keeps_reports_and_exits_2(tmp_path):
    src = write_sources(tmp_path, {"x.td": (
        "package p;\n"
        "type s = Stream(Bit(1));\n"
        "streamlet a_s<n: int> { i: s in, };\n"
        "impl a_i<n: int> of a_s<n> { };\n")})
    out = tmp_path / "build"
    code = main([str(src), "--output", str(out), "--top", "p.a_i", "--ir"])
    assert code == 2
    report = (out / "error_report.txt").read_text()
    assert report == "<project>: [usage] top implementation 'p.a_i' is a template\n"
    assert (out / "1_parser_output.txt").exists()
    assert not (out / "ir.json").exists()


def test_jobs_produce_identical_artifacts(tmp_path):
    source = open(os.path.join(DATA_DIR, "tpch1.td")).read()
    outputs = {}
    for jobs in (1, 8):
        src = write_sources(tmp_path / f"j{jobs}", {"tpch1.td": source})
        out = tmp_path / f"build{jobs}"
        code = main([str(src), "--output", str(out), "--project", "test_project",
                     "--top", "std.main_i", "--drc", "--dot", "--ir",
                     "--jobs", str(jobs)])
        assert code == 0
        outputs[jobs] = {name: (out / name).read_bytes() for name in EXPECTED_FILES}
    assert outputs[1] == outputs[8]


def test_rerun_is_idempotent(tmp_path):
    src = write_sources(tmp_path, {"simple_0.td": SIMPLE_0,
                                   "simple_1.td": SIMPLE_1})
    out = tmp_path / "build"
    args = [str(src), "--output", str(out), "--project", "test_project", "--ir"]
    assert main(args) == 0
    first = (out / "ir.json").read_bytes()
    assert main(args) == 0
    assert (out / "ir.json").read_bytes() == first


def test_error_report_of_an_earlier_compile_is_removed(tmp_path):
    bad = write_sources(tmp_path / "bad", {"x.td": "package p;\nconst x = ;\n"})
    good = write_sources(tmp_path / "good", {"x.td": "package p;\nconst x = 1;\n"})
    out = tmp_path / "build"
    assert main([str(bad), "--output", str(out)]) == 1
    assert (out / "error_report.txt").is_file()
    assert main([str(good), "--output", str(out)]) == 0
    assert not (out / "error_report.txt").exists()


def test_only_the_fixed_artifacts_of_an_earlier_compile_are_removed(tmp_path):
    """A dropped `--ir` leaves no `ir.json`; a user's file and the AST dump
    of a file no longer given stay, since neither is a fixed artifact name."""
    first = write_sources(tmp_path / "first", {"a.td": "package a;"})
    second = write_sources(tmp_path / "second", {"b.td": "package b;"})
    out = tmp_path / "build"
    assert main([str(first), "--output", str(out), "--ir"]) == 0
    (out / "notes.txt").write_text("kept")
    assert main([str(second), "--output", str(out)]) == 0
    assert sorted(os.listdir(out)) == [
        "0_ast", "1_parser_output.txt", "2_evaluation_output.txt",
        "2_evaluation_output_after_sugaring.txt", "notes.txt"]
    assert sorted(os.listdir(out / "0_ast")) == ["a.txt", "b.txt"]


def test_unreadable_input_removes_the_error_report_of_an_earlier_compile(tmp_path):
    bad = write_sources(tmp_path / "bad", {"x.td": "package p;\nconst x = ;\n"})
    out = tmp_path / "build"
    assert main([str(bad), "--output", str(out)]) == 1
    assert (out / "error_report.txt").is_file()
    assert main([str(tmp_path / "missing.td"), "--output", str(out)]) == 2
    assert not (out / "error_report.txt").exists()


def test_input_without_sources_removes_the_error_report_of_an_earlier_compile(tmp_path):
    bad = write_sources(tmp_path / "bad", {"x.td": "package p;\nconst x = ;\n"})
    empty = tmp_path / "empty"
    empty.mkdir()
    out = tmp_path / "build"
    assert main([str(bad), "--output", str(out)]) == 1
    assert (out / "error_report.txt").is_file()
    assert main([str(empty), "--output", str(out)]) == 2
    assert not (out / "error_report.txt").exists()


def test_ast_dump_stem_collision_resolved(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    a.mkdir(); b.mkdir()
    (a / "x.td").write_text("package pa;")
    (b / "x.td").write_text("package pb;")
    out = tmp_path / "build"
    code = main([str(a / "x.td"), str(b / "x.td"), "--output", str(out)])
    assert code == 0
    assert (out / "0_ast" / "x.txt").is_file()
    assert (out / "0_ast" / "x_2.txt").is_file()


@pytest.mark.parametrize("twice", [
    lambda src: [src, src / "a.td"],
    lambda src: [src / "a.td", src / "a.td"],
    lambda src: [src / "a.td", src / ".." / "src" / "a.td", src],
], ids=["dir_and_file", "file_twice", "other_spelling"])
def test_a_file_named_twice_is_read_once(tmp_path, twice):
    src = write_sources(tmp_path, {"a.td": "package a;\nconst x = 1;\n"})
    out = tmp_path / "build"
    assert main([*map(str, twice(src)), "--output", str(out)]) == 0
    assert not (out / "error_report.txt").exists()
    assert os.listdir(out / "0_ast") == ["a.txt"]


def test_two_files_of_one_package_still_fail(tmp_path, capsys):
    src = write_sources(tmp_path, {"a.td": "package a;", "b.td": "package a;"})
    out = tmp_path / "build"
    assert main([str(src), str(src / "b.td"), "--output", str(out)]) == 1
    line = (f"{src / 'b.td'}: [syntax] duplicate package 'a' declared in "
            f"{src / 'a.td'} and {src / 'b.td'}")
    assert (out / "error_report.txt").read_text() == line + "\n"
    assert capsys.readouterr().err == line + "\n"


def test_jobs_zero_is_usage_error(tmp_path):
    src = write_sources(tmp_path, {"x.td": "package p;"})
    assert main([str(src), "--jobs", "0", "--output", str(tmp_path / "b")]) == 2
    with pytest.raises(ValueError):
        CompileConfig(inputs=[], jobs=0)


def test_non_utf8_source_is_io_error(tmp_path, capsys):
    bad = tmp_path / "bad.td"
    bad.write_bytes(b"package p;\nconst a = \"\xff\";\n")
    out = tmp_path / "b"
    assert main([str(bad), "--output", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"[io] {bad}: not valid UTF-8"), err
    assert not out.exists()


@pytest.mark.parametrize("source, options", [
    ('package p;\n// café\nconst x: int = "s";\n', []),
    (DRC_WARNING, ["--top", "p.i", "--drc", "--dot", "--ir"]),
], ids=["error_on_line_3", "valid"])
def test_byte_order_mark_is_dropped(tmp_path, monkeypatch, capsys, source, options):
    """A file that starts with a UTF-8 byte-order mark compiles as its
    unmarked twin does: the same exit code, located diagnostics and artifacts."""
    outcomes = []
    for mark in (b"", b"\xef\xbb\xbf"):
        folder = tmp_path / ("marked" if mark else "plain")
        folder.mkdir()
        (folder / "x.td").write_bytes(mark + source.encode())
        monkeypatch.chdir(folder)
        code = main(["x.td", "--output", "build", "--project", "p", *options])
        artifacts = {p.relative_to(folder / "build"): p.read_bytes()
                     for p in (folder / "build").rglob("*") if p.is_file()}
        outcomes.append((code, capsys.readouterr().err, artifacts))
    assert outcomes[1] == outcomes[0]
    code, err, artifacts = outcomes[0]
    if options:
        assert (code, err, len(artifacts)) == (0, "DRC: 0 errors, 1 warnings\n", 7)
    else:
        assert (code, len(artifacts)) == (1, 3)
        assert err == "x.td:3:1: [type] variable 'x' declared int but evaluates to str\n"


def test_unencodable_source_text_is_io_error(tmp_path):
    """A source given as a str with a lone surrogate is reported like a file
    that is not UTF-8: one io diagnostic, exit 2, the fixed artifacts of an
    earlier compile removed, and nothing parsed."""
    out = tmp_path / "build"
    out.mkdir()
    (out / "error_report.txt").write_text("stale")
    config = CompileConfig(inputs=[], project_name="x", output_dir=str(out))
    result = compile_sources(config, [("ok.td", "package ok;"),
                                      ("a.td", 'package p; const a = "\udcff";')])
    assert result.exit_code == 2
    assert [(d.category, d.message) for d in result.diagnostics] == [
        ("io", "a.td: not valid UTF-8 (surrogates not allowed at character 22)")]
    assert result.artifacts == {}
    assert os.listdir(out) == []


def test_unwritable_artifact_is_io_error(tmp_path, capsys):
    """An artifact that cannot be written ends the compile with an io error
    and exit 2, keeps what was written, and tries no error report there."""
    src = write_sources(tmp_path, {"x.td": "package p;"})
    not_a_dir = tmp_path / "notadir"
    not_a_dir.write_text("")
    assert main([str(src), "--output", str(not_a_dir)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("[io] [Errno 20] Not a directory:"), err

    out = tmp_path / "b"
    (out / "1_parser_output.txt").mkdir(parents=True)
    assert main([str(src), "--output", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("[io] [Errno 21] Is a directory:"), err
    assert sorted(os.listdir(out)) == ["0_ast", "1_parser_output.txt"]
    assert (out / "0_ast" / "x.txt").is_file()


def test_default_project_name_is_output_parent():
    from tydilang.cli import default_project_name
    assert default_project_name("/home/user/test_project/build") == "test_project"


def test_no_input_files_is_usage_error(tmp_path):
    empty = tmp_path / "empty"
    empty.mkdir()
    assert main([str(empty), "--output", str(tmp_path / "b")]) == 2


def test_library_entry_points_exposed():
    import tydilang
    config = tydilang.CompileConfig(inputs=["<memory>"], output_dir=None)
    result = tydilang.compile_sources(config, [("m.td", "package m;\nconst a = 1;")])
    assert result.ok
    assert "a:int(1)" in result.artifacts["2_evaluation_output.txt"]


# (id, source, CompileConfig options, exit code, error_report.txt written)
FAILURES = [
    ("syntax", "package p;\nconst x = ;\n", {}, 1, True),
    ("duplicate_declaration", "package p;\nconst a = 1;\nconst a = 2;\n", {}, 1, True),
    ("evaluation", "package p;\nconst a = b + 1;\n", {}, 1, True),
    ("top_names_nothing", "package p;", {"top": "p.ghost"}, 2, True),
    ("dot_without_top", "package p;", {"emit_dot": True}, 2, True),
    ("drc_error_only", (
        "package p;\n"
        "type s = Stream(Bit(1));\n"
        "streamlet top_s { a: s in, b: s in, o: s out, };\n"
        "impl top_i of top_s { a => o, b => o, };\n"), {"emit_drc": True}, 1, False),
    ("dot_flat_name_collision", (
        "package p; type s = Stream(Bit(1)); "
        "streamlet io_s { i: s in, o: s out, }; external impl leaf_i of io_s { }; "
        "impl top_i of io_s { instance row(leaf_i) [2], instance row_AT_0(leaf_i), };"),
     {"top": "p.top_i", "emit_dot": True}, 1, True),
    ("nested_parentheses", "package p;\nconst c = " + "(" * 2000 + "1" + ")" * 2000 + ";\n",
     {}, 1, True),
    ("unreadable_input", b"package p;\nconst a = \"\xff\";\n", {}, 2, False),
    ("drc_warnings", DRC_WARNING, {"emit_drc": True}, 0, False),
]


@pytest.mark.parametrize("source, options, exit_code, report",
                         [case[1:] for case in FAILURES],
                         ids=[case[0] for case in FAILURES])
def test_exit_status_and_error_report_per_failure(tmp_path, source, options,
                                                  exit_code, report):
    """Each kind of failure, through the library entry point that the CLI
    calls: exit 2 for a usage or io error, 1 for any other diagnostic or a
    DRC error, and an error report with one line per diagnostic whenever
    the compile reports a diagnostic that is not io."""
    path = tmp_path / "x.td"
    if isinstance(source, bytes):
        path.write_bytes(source)
    else:
        path.write_text(source, encoding="utf-8")
    out = tmp_path / "out"
    result = compile_project(CompileConfig(inputs=[str(path)], output_dir=str(out),
                                           **options))
    assert (result.exit_code, (out / "error_report.txt").exists()) == (exit_code, report)
    if report:
        lines = (out / "error_report.txt").read_text(encoding="utf-8").splitlines()
        assert len(lines) == len(result.diagnostics)
