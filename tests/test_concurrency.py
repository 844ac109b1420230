"""Once-only evaluation and cycle reporting: shared nodes are computed once,
stored errors are reused, dependency cycles become diagnostics, and the
`jobs` setting changes neither the artifacts nor the thread that compiles."""

import threading

from tydilang.context import EvalContext
from tydilang.pipeline import evaluate_project

from conftest import compile_texts, evaluated_project, project_of

DIAMOND = """package p;
const base = 40 + 2;
const left = base * 2;
const right = base * 3;
const top_v = left + right;
"""


def test_shared_node_computed_once_with_many_workers():
    for _ in range(10):
        project, ctx = evaluated_project(DIAMOND)
        assert ctx.eval_counts["package_p.base"] == 1
        assert project.packages["p"].scope.variables["top_v"].value.value == 210


def test_cross_worker_cycle_reported_not_deadlocked():
    source = "package p;\nconst a = b + 1;\nconst b = a + 1;\n"
    for _ in range(20):
        project = project_of(source)
        ctx = EvalContext(project)
        diags = evaluate_project(ctx, project)
        assert diags, "cycle must surface as a diagnostic"
        assert any("circular" in d.message for d in diags)


def test_mutually_instantiating_implementations_cycle():
    source = (
        "package p;\n"
        "type s = Stream(Bit(1));\n"
        "streamlet a_s { x: s in, };\n"
        "streamlet b_s { x: s in, };\n"
        "impl a_i of a_s { instance inner(b_i), x => inner.x, };\n"
        "impl b_i of b_s { instance inner(a_i), x => inner.x, };\n")
    for jobs in (1, 4):
        project = project_of(source)
        ctx = EvalContext(project)
        diags = evaluate_project(ctx, project)
        assert any("circular" in d.message for d in diags), jobs


def test_dumps_byte_identical_across_schedules(tpch1_source):
    reference = None
    for jobs in (1, 2, 8):
        result = compile_texts(tpch1_source, top="std.main_i", jobs=jobs)
        assert result.ok
        text = result.artifacts["2_evaluation_output.txt"]
        if reference is None:
            reference = text
        assert text == reference


def test_waiting_worker_sees_error_of_in_progress_node():
    # both roots demand the same failing variable; whichever worker computes
    # it first, the other must observe the stored error, not a fresh compute
    source = ("package p;\n"
              "const bad = 1 / 0;\n"
              "const u1 = bad + 1;\n"
              "const u2 = bad + 2;\n")
    for _ in range(10):
        project = project_of(source)
        ctx = EvalContext(project)
        diags = evaluate_project(ctx, project)
        assert diags
        assert ctx.eval_counts["package_p.bad"] == 1


def test_compiles_without_starting_threads(tpch1_source, monkeypatch):
    def refuse(self):
        raise RuntimeError("compilation must not start threads")
    monkeypatch.setattr(threading.Thread, "start", refuse)
    result = compile_texts(tpch1_source, top="std.main_i", jobs=8)
    assert result.ok, result.diagnostics
