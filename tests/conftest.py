import gc
import os
from pathlib import Path
from typing import NamedTuple

import pytest

from tydilang import cli
from tydilang.builder import build_project
from tydilang.context import EvalContext
from tydilang.errors import Span
from tydilang.parser import parse_project
from tydilang.pipeline import (CompileConfig, compile_project, compile_sources,
                               evaluate_project)

from goldens import DATA_DIR, GOLDENS, ROOT, pin_failures


def project_of(*texts, name="test_project"):
    """Parse + build a project (with the built-in prelude); no evaluation."""
    from tydilang.pipeline import _inject_prelude_imports
    from tydilang.stdlib import PRELUDE_PATH, PRELUDE_SOURCE
    files = [(f"file_{i}.td", t) for i, t in enumerate(texts)]
    files.append((PRELUDE_PATH, PRELUDE_SOURCE))
    parsed, diags = parse_project(files)
    assert not diags, diags
    project = build_project(name, parsed)
    _inject_prelude_imports(project)
    return project


def live_span_count() -> int:
    """How many `Span` records are alive, after a full collection."""
    gc.collect()
    return sum(1 for o in gc.get_objects() if type(o) is Span)


def evaluated_project(*texts, name="test_project", top=None):
    """Parse, build and fully evaluate; fails the test on any diagnostic."""
    project = project_of(*texts, name=name)
    ctx = EvalContext(project)
    diags = evaluate_project(ctx, project, top)
    assert not diags, diags
    return project, ctx


def compile_texts(*texts, name="test_project", top=None, drc=False, dot=False,
                  ir=False, jobs=1):
    """Full pipeline over in-memory sources; returns the CompileResult."""
    config = CompileConfig(inputs=["<memory>"], project_name=name,
                           output_dir=None, top=top, emit_drc=drc,
                           emit_dot=dot, emit_ir=ir, jobs=jobs)
    files = [(f"file_{i}.td", t) for i, t in enumerate(texts)]
    return compile_sources(config, files)


@pytest.fixture(scope="session")
def tpch1_source() -> str:
    with open(os.path.join(DATA_DIR, "tpch1.td"), encoding="utf-8") as f:
        return f.read()


class GoldenBuild(NamedTuple):
    name: str
    exit_code: int
    out: Path
    project: object  # what the compile left of the project

    def text(self, artifact: str) -> str:
        return (self.out / artifact).read_text(encoding="utf-8")

    def mismatches(self, *artifacts: str) -> list[str]:
        """How the build differs from its golden's exit code and from the
        pins of `artifacts` (default: all of them)."""
        return pin_failures(GOLDENS[self.name], self.exit_code, str(self.out), artifacts)


@pytest.fixture(scope="session")
def golden_build(tmp_path_factory):
    """`golden_build(name)`: golden `name` of `goldens.GOLDENS`, compiled by
    `tydilang.cli.main` from the repository root into a temporary folder,
    once per session."""
    builds = {}

    def build(name: str) -> GoldenBuild:
        if name not in builds:
            out = tmp_path_factory.mktemp(name)
            results = []

            def compiled(config):
                results.append(compile_project(config))
                return results[0]

            with pytest.MonkeyPatch.context() as m:
                m.chdir(ROOT)
                m.setattr(cli, "compile_project", compiled)
                code = cli.main([*GOLDENS[name].argv, "--output", str(out)])
            builds[name] = GoldenBuild(name, code, out, results[0].project)
        return builds[name]

    return build
