"""Smoke tests for the benchmark itself: python3 -m pytest perfbench

Generators at a tiny size must compile cleanly, every oracle must reject a
hand-corrupted artifact, and the tracer must report every per-layer metric
that BENCHMARK.json lists.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import tydilang.pipeline  # noqa: E402
import workloads  # noqa: E402
from tracing import PER_LAYER, Tracer  # noqa: E402

TINY = 0.05  # 1 tpch copy, 50 lanes, 2 levels


def tiny(name, seed=7):
    w = workloads.generate(name, seed, ROOT, scale=TINY)
    return w, tydilang.pipeline.compile_sources(workloads.config(w), w.sources)


@pytest.mark.parametrize("name", workloads.NAMES)
def test_tiny_workload_compiles_clean(name):
    w, result = tiny(name)
    assert workloads.check(w, result.exit_code, result.artifacts) == []


@pytest.mark.parametrize("name", workloads.NAMES)
def test_seed_fixes_input_but_not_size(name):
    same = [workloads.generate(name, 3, ROOT) for _ in range(2)]
    assert same[0].sources == same[1].sources
    variants = [workloads.generate(name, seed, ROOT) for seed in range(6)]
    assert len({tuple(v.sources) for v in variants}) > 1
    sizes = {json.dumps(v.expect.get("components")) for v in variants}
    assert len(sizes) == 1


def _replace(name, old, new):
    def corrupt(artifacts):
        assert old in artifacts[name]
        artifacts[name] = artifacts[name].replace(old, new, 1)
    return corrupt


def _drop_net(artifacts):
    lines = artifacts["circuit.dot"].split("\n")
    first = next(i for i, line in enumerate(lines) if " -> " in line)
    artifacts["circuit.dot"] = "\n".join(lines[:first] + lines[first + 1:])


CORRUPTIONS = [
    ("tpch_multi", _replace("2_evaluation_output.txt", "int(50)", "int(49)")),
    ("tpch_multi", _replace("2_evaluation_output.txt", "year:Bit(17)", "year:Bit(16)")),
    ("tpch_multi", _replace("ir.json", '"duplicate_compare_date_output_14": {',
                            '"duplicate_compare_date_output_13": {')),
    ("tpch_multi", _replace("drc_report.txt", "\n0 errors", "\n1 errors")),
    ("fanout_sugar", _drop_net),
    ("fanout_sugar", _replace("ir.json", '"target": "void_i@', '"target": "sink_i@')),
    ("fanout_sugar", _replace("circuit.dot", "__duplicate_", "__copy_")),
    ("deep_hier", _drop_net),
    ("deep_hier", _replace("ir.json", '"target": "duplicator_i@', '"target": "fork_i@')),
    ("deep_hier", _replace("drc_report.txt", "0 errors", "2 errors")),
]


@pytest.mark.parametrize("name,corrupt", CORRUPTIONS)
def test_oracle_rejects_corrupted_artifact(name, corrupt):
    w, result = tiny(name)
    artifacts = dict(result.artifacts)
    corrupt(artifacts)
    assert workloads.check(w, result.exit_code, artifacts) != []


@pytest.mark.parametrize("name", workloads.NAMES)
def test_oracle_rejects_failed_compile(name):
    w, result = tiny(name)
    assert workloads.check(w, 1, result.artifacts) != []


def test_tracer_reports_every_per_layer_metric():
    w = workloads.generate("fanout_sugar", 7, ROOT, scale=TINY)
    original = tydilang.pipeline.parse_project
    tracer = Tracer()
    with tracer.installed():
        result, metrics = tracer.compile(
            lambda: tydilang.pipeline.compile_sources(workloads.config(w), w.sources))
    assert tydilang.pipeline.parse_project is original
    assert set(metrics) | {"trace.overhead_s"} == set(PER_LAYER)
    assert all(metrics[k] >= 0 for k in metrics)
    assert metrics["sugaring.duplicators"] == w.expect["duplicators"]["fan_i"]
    assert metrics["sugaring.voiders"] == w.expect["voiders"]["fan_i"]
    assert metrics["emit.components"] == w.expect["components"]
    assert metrics["elaboration.for_blocks"] == 1
    root = [s for s in tracer.spans if s["parent"] is None]
    assert [s["name"] for s in root] == ["compile"]
    assert {s["compile"] for s in tracer.spans} == {0}


def test_benchmark_json_lists_what_the_benchmark_reports():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    assert [w["name"] for w in bench["workloads"]] == list(workloads.NAMES)
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == \
        {name: unit for name, (unit, _, _) in PER_LAYER.items()}
    assert [m["name"] for m in bench["end_to_end"]] == \
        ["compile_s", "peak_rss_mb", "setup_s", "pass_frac"]


def test_fails_without_the_compiler_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tpch_multi",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
