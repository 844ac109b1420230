"""Acceptance suite.

One test per criterion; each prints a single pass/fail line (run with
``pytest tests/test_acceptance.py -s`` to see them) and enforces the
criterion's stated runtime bound.
"""

import random
import re
import time
from collections import Counter

import pytest

from tydilang.context import EvalContext
from tydilang.dump import dump_code_structure
from tydilang.errors import TydiError
from tydilang.logical_types import StreamType
from tydilang.model import EvalState
from tydilang.pipeline import evaluate_project
from tydilang.sugaring import sugar_project

from conftest import compile_texts, evaluated_project, project_of
from test_emit import check_dot
from test_resolution import ALLOWED, CATEGORIES, RELATIONS, _entity
from test_sugaring import census_map, instance_ends, make_topology

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


class Criterion:
    def __init__(self, number, title, seconds):
        self.number = number
        self.title = title
        self.limit = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(f"criterion {self.number:2d} [{self.title}]: {status} "
              f"({elapsed:.2f}s, limit {self.limit}s)")
        if exc_type is None:
            assert elapsed < self.limit, \
                f"criterion {self.number} exceeded {self.limit}s ({elapsed:.2f}s)"
        return False


def test_criterion_01_bit_width_oracle(tpch1_source):
    with Criterion(1, "bit-width oracle suite", 1.0):
        result = compile_texts(tpch1_source, top="std.main_i")
        assert result.ok, result.diagnostics
        dump = result.artifacts["2_evaluation_output.txt"]
        assert "bit_width_decimal_15:int(50)" in dump
        assert "year:Bit(17)" in dump
        assert "month:Bit(4)" in dump
        assert "day:Bit(5)" in dump


def test_criterion_02_cross_package_lazy_evaluation():
    with Criterion(2, "cross-package lazy evaluation", 1.0):
        result = compile_texts(SIMPLE_0, SIMPLE_1)
        assert result.ok, result.diagnostics
        dump = result.artifacts["2_evaluation_output.txt"]
        assert "i1:int(101)" in dump
        assert "external_var0:int(110)" in dump
        assert "external_flag0:bool(true)" in dump
        assert 'i2:UnknownType(NotInferred("500"))' in dump


def test_criterion_03_unary_precedence_fix():
    with Criterion(3, "unary precedence fix", 1.0):
        result = compile_texts(
            "package test;\n"
            "const i1 = -1+2;\n"
            "const i2 = i1 + 5;\n"
            "type bit = Bit(i2);\n"
            "type stream = Stream(bit);\n")
        assert result.ok, result.diagnostics
        dump = result.artifacts["2_evaluation_output.txt"]
        assert "i1:int(1)" in dump
        assert "i2:int(6)" in dump
        assert "bit:Bit(6)" in dump


def test_criterion_04_stream_defaults_and_permutation():
    with Criterion(4, "stream property defaults", 1.0):
        result = compile_texts(
            "package p;\n"
            "type s0 = Stream(Bit(4));\n"
            "type s1 = Stream(Bit(4), d=2, c=6);\n"
            "type s2 = Stream(Bit(4), c=6, d=2);\n")
        assert result.ok, result.diagnostics
        project = result.project
        types = project.packages["p"].scope.types
        p0 = types["s0"].evaluated.properties
        assert (p0.dimension, p0.throughput, p0.synchronicity, p0.complexity,
                p0.direction, p0.keep) == (0, 1.0, "Sync", 7, "Forward", False)
        assert p0.user.__class__.__name__ == "NullType"
        dump = result.artifacts["2_evaluation_output.txt"]
        assert ("dimension=0, user=DataNull, throughput=1, synchronicity=Sync, "
                "complexity=7, direction=Forward, keep=false") in dump
        assert types["s1"].evaluated.properties == types["s2"].evaluated.properties


def test_criterion_05_name_resolution_matrix():
    from tydilang.model import Scope, resolve_name
    with Criterion(5, "name-resolution conformance matrix", 5.0):
        checked = 0
        for category in CATEGORIES:
            for relation in RELATIONS:
                outer = Scope("package_p", "package")
                inner = Scope("inner", relation.name.lower())
                inner.add_relation(relation, outer)
                table = getattr(outer, {
                    "variable": "variables", "type": "types",
                    "streamlet": "streamlets", "implementation": "implements",
                    "port": "ports", "instance": "instances"}[category])
                table["target"] = _entity(category, "target", outer)
                if (category, relation) in ALLOWED:
                    entity, owner = resolve_name(inner, "target", category)
                    assert owner is outer
                else:
                    with pytest.raises(TydiError) as exc:
                        resolve_name(inner, "target", category)
                    assert exc.value.category == "resolution"
                checked += 1
        assert checked == 36


def _template_block(dump: str, header_prefix: str) -> str:
    lines = dump.splitlines()
    for i, line in enumerate(lines):
        if line.lstrip().startswith(header_prefix):
            indent = len(line) - len(line.lstrip())
            out = [line]
            for follow in lines[i + 1:]:
                out.append(follow)
                stripped = follow.strip()
                if stripped == "}" and len(follow) - len(follow.lstrip()) == indent:
                    break
            return "\n".join(out)
    raise AssertionError(f"{header_prefix} not found in dump")


def _random_type_decls(rng: random.Random):
    """Random named element types: bits, groups and unions of depth <= 3."""
    decls = []
    counter = [0]

    def build(depth) -> str:
        if depth == 0 or rng.random() < 0.4:
            return f"Bit({rng.randint(1, 64)})"
        kw = rng.choice(["Group", "Union"])
        name = f"g{counter[0]}"
        counter[0] += 1
        fields = [f"  f{k}: {build(depth - 1)}," for k in range(rng.randint(1, 3))]
        decls.append(f"type {kw} {name} {{\n" + "\n".join(fields) + "\n};")
        return name

    root = build(3)
    if not decls:  # ensure the argument is a named type at least once in a while
        return root, ""
    return root, "\n".join(decls)


def test_criterion_06_template_monomorphization():
    with Criterion(6, "template monomorphization", 5.0):
        rng = random.Random(4242)
        for trial in range(50):
            element, decls = _random_type_decls(rng)
            source = (
                "package p;\n" + decls + "\n"
                "streamlet void2_s<type_in: type> {\n  input: type_in in,\n};\n"
                "external impl void2_i<type_in: type> of void2_s<type type_in> {\n};\n"
                f"streamlet top_s {{ x: Stream({element}) in, y: Stream({element}) in, }};\n"
                "impl top_i of top_s {\n"
                f"  instance v1(void2_i<type Stream({element})>),\n"
                f"  instance v2(void2_i<type Stream({element})>),\n"
                "  x => v1.input,\n"
                "  y => v2.input,\n"
                "};\n")
            project = project_of(source)
            before = _template_block(dump_code_structure(project),
                                     "Implement(void2_i)<")
            ctx = EvalContext(project)
            diags = evaluate_project(ctx, project)
            assert not diags, (trial, diags)
            scope = project.packages["p"].scope
            mangled = [k for k in scope.implements if k.startswith("void2_i@")]
            assert mangled == [f"void2_i@Stream({element})"], mangled
            entity = scope.implements[mangled[0]]
            top = scope.implements["top_i"]
            assert top.instances["v1"].target is entity
            assert top.instances["v2"].target is entity
            port = entity.streamlet.ports["input"]
            assert isinstance(port.logical_type, StreamType)
            from tydilang.logical_types import short_name
            assert short_name(port.logical_type) == f"Stream({element})"
            # the template itself is untouched
            assert scope.implements["void2_i"].state is EvalState.NOT_INFERRED
            after = _template_block(dump_code_structure(project),
                                    "Implement(void2_i)<")
            assert before == after


def _unrolled_connections(impl):
    return [((c.source.key(), c.sink.key()), c.fifo_depth, c.no_strict)
            for c in impl.connections]


def test_criterion_07_for_expansion_oracle():
    with Criterion(7, "for-expansion oracle", 10.0):
        rng = random.Random(777)
        for trial in range(12):
            n = rng.randint(1, 8)
            fifo = rng.randint(0, 2)
            interpolated = rng.random() < 0.5
            head = (
                "package p;\n"
                "type rgb_stream = Stream(Bit(8));\n"
                "streamlet bp { input: rgb_stream in, output: rgb_stream out, };\n"
                "external impl bp_i of bp {\n};\n"
                f"const channel = {n};\n"
                "streamlet chan_s {\n"
                "  inputs: rgb_stream [channel] in,\n"
                "  outputs: rgb_stream [channel] out,\n"
                "};\n")
            if interpolated:
                body = ("  for i in (0=1=>channel) {\n"
                        "    instance bypass_{{i}}(bp_i),\n"
                        f"    inputs[i] ={fifo}=> bypass_{{{{i}}}}.input,\n"
                        "    bypass_{{i}}.output => outputs[i],\n"
                        "  }\n")
                unrolled_items = [
                    (f"  instance bypass_{k}(bp_i),\n"
                     f"  inputs[{k}] ={fifo}=> bypass_{k}.input,\n"
                     f"  bypass_{k}.output => outputs[{k}],\n")
                    for k in range(n)]
            else:
                body = ("  instance bypass(bp_i) [channel],\n"
                        "  for i in (0=1=>channel) {\n"
                        f"    inputs[i] ={fifo}=> bypass[i].input,\n"
                        "    bypass[i].output => outputs[i],\n"
                        "  }\n")
                unrolled_items = ["  instance bypass(bp_i) [channel],\n"] + [
                    (f"  inputs[{k}] ={fifo}=> bypass[{k}].input,\n"
                     f"  bypass[{k}].output => outputs[{k}],\n")
                    for k in range(n)]
            for_src = head + "impl chan_i of chan_s {\n" + body + "};\n"
            unrolled_src = head + "impl chan_i of chan_s {\n" + \
                "".join(unrolled_items) + "};\n"
            p_for, _ = evaluated_project(for_src)
            p_man, _ = evaluated_project(unrolled_src)
            impl_for = p_for.packages["p"].scope.implements["chan_i"]
            impl_man = p_man.packages["p"].scope.implements["chan_i"]
            assert _unrolled_connections(impl_for) == _unrolled_connections(impl_man)
            assert sorted(impl_for.instances) == sorted(impl_man.instances)
            for name in impl_for.instances:
                assert impl_for.instances[name].target.id == \
                    impl_man.instances[name].target.id
        # the interpolated form enumerates bypass_0..bypass_{n-1}
        project, _ = evaluated_project(
            "package p;\n"
            "type rgb_stream = Stream(Bit(8));\n"
            "streamlet bp { input: rgb_stream in, output: rgb_stream out, };\n"
            "external impl bp_i of bp {\n};\n"
            "const channel = 4;\n"
            "streamlet chan_s { inputs: rgb_stream [channel] in, "
            "outputs: rgb_stream [channel] out, };\n"
            "impl chan_i of chan_s {\n"
            "  for i in (0=1=>channel) {\n"
            "    instance bypass_{{i}}(bp_i),\n"
            "    inputs[i] => bypass_{{i}}.input,\n"
            "    bypass_{{i}}.output => outputs[i],\n"
            "  }\n"
            "};\n")
        names = sorted(project.packages["p"].scope.implements["chan_i"].instances)
        assert names == ["bypass_0", "bypass_1", "bypass_2", "bypass_3"]


def test_criterion_08_sugaring_post_condition():
    with Criterion(8, "sugaring post-condition", 10.0):
        for seed in range(10):
            rng = random.Random(3000 + seed)
            source, top = make_topology(rng, rng.randint(1, 3))
            project, ctx = evaluated_project(source, top=f"p.{top}")
            fanouts = {}
            for pkg in project.packages.values():
                for impl in pkg.scope.implements.values():
                    if impl.external or impl.is_template \
                            or impl.state is not EvalState.EVALUATED:
                        continue
                    sources = Counter(c.source.key() for c in impl.connections)
                    for key, k in sources.items():
                        if k >= 2:
                            fanouts[(impl.id, key)] = k
            sugar_project(ctx, project)
            once = dump_code_structure(project)
            for pkg in project.packages.values():
                for impl in pkg.scope.implements.values():
                    if impl.external or impl.is_template \
                            or impl.state is not EvalState.EVALUATED:
                        continue
                    counts = census_map(impl)
                    for key in [*counts, *instance_ends(impl)]:
                        assert counts[key] == 1, (impl.id, key)
                    for name, inst in impl.instances.items():
                        if name.startswith("duplicate_"):
                            width = inst.target.streamlet.ports["output"].array_size
                            assert width == int(name.rsplit("_", 1)[1]) >= 2
            # every pre-sugaring fan-out produced a duplicator of that width
            for (impl_id, key), k in fanouts.items():
                impl = next(i for pkg in project.packages.values()
                            for i in pkg.scope.implements.values()
                            if i.id == impl_id)
                feed = next(c for c in impl.connections
                            if c.source.key() == key
                            and c.sink.instance is not None
                            and c.sink.instance.name.startswith("duplicate_"))
                dup = feed.sink.instance.target
                assert dup.streamlet.ports["output"].array_size == k
            sugar_project(ctx, project)
            assert dump_code_structure(project) == once, "sugaring not idempotent"


def test_criterion_09_tpch_fan_out(tpch1_source):
    with Criterion(9, "TPC-H compare_date fan-out", 2.0):
        project, ctx = evaluated_project(tpch1_source, top="std.main_i")
        data_filter = project.packages["std"].scope.implements["data_filter_i"]
        pre = census_map(data_filter)[("compare_date", None, "output", None)]
        assert pre == 14
        sugar_project(ctx, project)
        dups = [n for n in data_filter.instances if n.startswith("duplicate_compare_date")]
        assert dups == ["duplicate_compare_date_output_14"]
        dup = data_filter.instances[dups[0]]
        assert dup.target.streamlet.ports["output"].array_size == 14
        assert census_map(data_filter)[("compare_date", None, "output", None)] == 1


def test_criterion_10_drc_discrimination():
    from tydilang.drc import run_drc
    with Criterion(10, "DRC discrimination", 1.0):
        shared = ("type Group rgb {\n  r: Bit(8),\n  g: Bit(8),\n  b: Bit(8),\n};\n"
                  "type rgb_stream = Stream(rgb);\n")

        def diags_for(body):
            project, ctx = evaluated_project("package tpch;\n" + shared + body)
            sugar_project(ctx, project)
            return run_drc(project)

        clean = diags_for(
            "streamlet rgb_bypass { input: rgb_stream in, output: rgb_stream out, };\n"
            "impl impl_rgb_bypass of rgb_bypass { input => output, };\n")
        assert clean == []

        warned = diags_for(
            "streamlet rgb_bypass2 { input: Stream(rgb) in, output: Stream(rgb) out, };\n"
            "impl impl_rgb_bypass3 of rgb_bypass2 { input => output, };\n")
        assert [(d.rule, d.severity) for d in warned] == [("R1", "Warning")]

        marked = diags_for(
            "streamlet rgb_bypass2 { input: Stream(rgb) in, output: Stream(rgb) out, };\n"
            "impl impl_rgb_bypass2 of rgb_bypass2 { input => output @NoStrictType@, };\n")
        assert marked == []

        in_to_in = diags_for(
            "streamlet leaf_s { input: rgb_stream in, output: rgb_stream out, };\n"
            "external impl leaf_i of leaf_s {\n};\n"
            "streamlet top_s { input: rgb_stream in, };\n"
            "impl top_i of top_s {\n"
            "  instance a(leaf_i),\n"
            "  instance b(leaf_i),\n"
            "  input => a.input,\n"
            "  a.input => b.input,\n"
            "};\n")
        assert any(d.rule == "R3" and d.severity == "Error" for d in in_to_in)


def test_criterion_11_dot_conformance():
    from tydilang.emit import emit_dot, flatten
    with Criterion(11, "DOT structural conformance", 2.0):
        source = (
            "package p;\n"
            "type rgb_stream = Stream(Bit(8));\n"
            "streamlet leaf_s { input: rgb_stream in, output: rgb_stream out, };\n"
            "external impl leaf_i of leaf_s {\n};\n"
            "streamlet mid_s { input: rgb_stream in, output: rgb_stream out, };\n"
            "impl mid_i of mid_s {\n"
            "  instance accu(leaf_i),\n"
            "  input => accu.input,\n"
            "  accu.output => output,\n"
            "};\n"
            "streamlet main_s { feeds: rgb_stream [2] in, err: rgb_stream out, };\n"
            "impl main_i of main_s {\n"
            "  instance inner(mid_i),\n"
            "  instance sink(leaf_i),\n"
            "  feeds[0] => inner.input,\n"
            "  feeds[1] => sink.input,\n"
            "  inner.output => drain.input,\n"
            "  sink.output => err,\n"
            "  instance drain(leaf_i),\n"
            "};\n")
        project, ctx = evaluated_project(source, top="p.main_i")
        sugar_project(ctx, project)
        text = emit_dot(flatten(project, "p", "main_i"))
        anchors, edges = check_dot(text)
        assert "main_i__inner__accu" in anchors  # two-level __ hierarchy
        assert "feeds_AT_0" in anchors["main_i"]  # array anchors
        assert re.search(r"^main_i \[color=red, shape=record", text, re.M)
        assert re.search(r"^main_i__inner \[color=red, shape=record", text, re.M)
        assert re.search(r"^main_i__sink \[shape=record", text, re.M)


def test_criterion_12_worker_determinism(tpch1_source):
    with Criterion(12, "worker-count determinism", 10.0):
        artifacts = {}
        for jobs in (1, 8):
            result = compile_texts(tpch1_source, top="std.main_i", drc=True,
                                   dot=True, ir=True, jobs=jobs)
            assert result.ok, result.diagnostics
            artifacts[jobs] = {
                name: result.artifacts[name]
                for name in ("1_parser_output.txt", "2_evaluation_output.txt",
                             "2_evaluation_output_after_sugaring.txt",
                             "drc_report.txt", "circuit.dot", "ir.json")}
        assert artifacts[1] == artifacts[8]
