import os

import pytest

from tydilang.cli import main
from tydilang.pipeline import CompileConfig

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


def test_golden_error_report_is_pinned(tmp_path, monkeypatch):
    """`tydilang tests/data/golden_errors` from the repository root, as CI
    runs it: several evaluation errors, each reported at the node that
    caused it, on lines with multi-byte characters before the error, so
    each column counts characters, not bytes."""
    monkeypatch.chdir(os.path.dirname(os.path.dirname(DATA_DIR)))
    out = tmp_path / "build"
    assert main(["tests/data/golden_errors", "--output", str(out)]) == 1
    with open(os.path.join(DATA_DIR, "golden_errors", "error_report.txt"),
              encoding="utf-8") as f:
        expected = f.read()
    assert (out / "error_report.txt").read_text(encoding="utf-8") == expected


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
    src = write_sources(tmp_path, {"w.td": (
        "package p;\n"
        "type Group rgb { r: Bit(8), };\n"
        "streamlet s { input: Stream(rgb) in, output: Stream(rgb) out, };\n"
        "impl i of s { input => output, };\n")})
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
