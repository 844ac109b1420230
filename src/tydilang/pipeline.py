"""Compilation pipeline: parse -> build -> evaluate -> sugar -> DRC -> emit.

Stages run one after another on the calling thread; artifacts are written as
soon as their stage completes, so everything produced before a failure
survives it. An artifact that cannot be written ends the compile with an
`io` diagnostic. An input nested deeper than the Python stack allows fails with
a "nesting too deep while <stage>" diagnostic. `CompileConfig.jobs` is
validated but has no effect: every artifact is the same for any value.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Optional

from .builder import build_project, import_package
from .context import EvalContext
from .drc import drc_has_errors, render_drc_report, run_drc
from .dump import dump_code_structure
from .elaboration import evaluate_implementation
from .errors import Diagnostic, TydiError
from .math_engine import force_variable
from .model import Implementation, Project, Variable
from .parser import ParsedFile, parse_project
from .stdlib import PRELUDE_PACKAGE, PRELUDE_PATH, PRELUDE_SOURCE
from .sugaring import sugar_project
from .tree import dump_ast
from .type_eval import force_type_entry
from .emit import emit_dot, emit_ir, flatten


@dataclass
class CompileConfig:
    inputs: list[str]
    project_name: str = "project"
    output_dir: Optional[str] = None  # None: no artifacts written
    top: Optional[str] = None  # "package.impl"
    emit_drc: bool = False
    emit_dot: bool = False
    emit_ir: bool = False
    jobs: int = 1  # validated for compatibility; has no effect

    def __post_init__(self):
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")


@dataclass
class CompileResult:
    project: Optional[Project] = None
    diagnostics: list[Diagnostic] = field(default_factory=list)
    drc_diagnostics: list = field(default_factory=list)
    artifacts: dict[str, str] = field(default_factory=dict)  # name -> text
    exit_code: int = 0

    @property
    def ok(self) -> bool:
        return self.exit_code == 0


def _write(config: CompileConfig, result: CompileResult, name: str, text: str):
    result.artifacts[name] = text
    if config.output_dir is None:
        return
    path = os.path.join(config.output_dir, name)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as f:
        f.write(text)


def render_error_report(diagnostics: list[Diagnostic],
                        sources: dict[str, str]) -> str:
    """One line per diagnostic with file, line/column, category and message,
    sorted by file then offset."""
    def sort_key(d: Diagnostic):
        return (d.path or "", d.span.start if d.span else -1, d.message)

    lines = [f"{d.location(sources.get(d.path))}: [{d.category}] {d.message}"
             for d in sorted(diagnostics, key=sort_key)]
    return "\n".join(lines) + "\n"


def collect_sources(inputs: list[str]) -> list[tuple[str, str]]:
    """Expand directories into their `.td` files and read everything.

    A file that cannot be read or is not UTF-8 raises OSError naming it."""
    paths: list[str] = []
    for item in inputs:
        if os.path.isdir(item):
            for entry in sorted(os.listdir(item)):
                if entry.endswith(".td"):
                    paths.append(os.path.join(item, entry))
        else:
            paths.append(item)
    out = []
    for p in paths:
        with open(p, "r", encoding="utf-8") as f:
            try:
                out.append((p, f.read()))
            except UnicodeDecodeError as e:
                raise OSError(f"{p}: not valid UTF-8 ({e.reason} at byte "
                              f"{e.start})") from None
    return out


def evaluation_roots(project: Project):
    """Default evaluation roots.

    Every concrete (non-template) implementation in every package is a root.
    In addition, the variables and named types of entry packages -- packages
    no other package imports -- are roots, so a project of plain constant
    files still evaluates what its own files use.
    """
    imported: set[str] = set()
    for pkg in project.packages.values():
        for vid in pkg.scope.variables:
            if vid.startswith("$package$") and vid != f"$package${pkg.name}":
                imported.add(vid[len("$package$"):])
    impl_roots = []
    value_roots = []
    for pkg_name in sorted(project.packages):
        pkg = project.packages[pkg_name]
        for iid in sorted(pkg.scope.implements):
            impl = pkg.scope.implements[iid]
            if not impl.is_template:
                impl_roots.append(impl)
        if pkg_name not in imported and pkg_name != PRELUDE_PACKAGE:
            for vid in sorted(pkg.scope.variables):
                var = pkg.scope.variables[vid]
                if not var.is_magic:
                    value_roots.append(var)
            for tid in sorted(pkg.scope.types):
                value_roots.append(pkg.scope.types[tid])
    return impl_roots, value_roots


def evaluate_project(ctx: EvalContext, project: Project,
                     top: Optional[str] = None) -> list[Diagnostic]:
    """Drive lazy evaluation from the configured roots; aggregate failures.

    A root whose dependencies nest deeper than the Python stack allows is
    reported at its file, and evaluation stops there."""
    if top is not None:
        try:
            roots = [project.top_implementation(top)]
        except TydiError as e:
            return [e.diagnostic]
    else:
        impl_roots, value_roots = evaluation_roots(project)
        roots = impl_roots + value_roots

    seen = set()
    diagnostics = []
    for root in roots:
        try:
            if isinstance(root, Implementation):
                evaluate_implementation(ctx, root)
            elif isinstance(root, Variable):
                force_variable(ctx, root)
            else:
                force_type_entry(ctx, root)
        except TydiError as e:
            d = e.diagnostic
            key = (d.category, d.message, d.path, str(d.span))
            if key not in seen:
                seen.add(key)
                diagnostics.append(d)
        except RecursionError:
            diagnostics.append(Diagnostic("resolution", "nesting too deep while evaluating",
                                          root.scope.package.path))
            break
    diagnostics.sort(key=lambda d: (d.path or "", d.span.start if d.span else -1,
                                    d.message))
    return diagnostics


def compile_project(config: CompileConfig) -> CompileResult:
    result = CompileResult()
    try:
        sources = collect_sources(config.inputs)
    except OSError as e:
        result.diagnostics.append(Diagnostic("io", str(e)))
        result.exit_code = 2
        return result
    if not sources:
        result.diagnostics.append(Diagnostic("usage", "no input files"))
        result.exit_code = 2
        return result
    return compile_sources(config, sources, result)


def compile_sources(config: CompileConfig, sources: list[tuple[str, str]],
                    result: Optional[CompileResult] = None) -> CompileResult:
    result = result or CompileResult()
    sources = sources + [(PRELUDE_PATH, PRELUDE_SOURCE)]
    source_texts = dict(sources)
    stage = "parsing"
    try:
        try:
            for stage in _stages(config, result, sources, source_texts):
                pass
        except RecursionError:
            # the AST dumps and the stages after evaluation recurse once per
            # nesting level, so a deep enough input exhausts the Python stack;
            # parsing and evaluation report that at the file themselves
            result.diagnostics.append(Diagnostic(
                "syntax" if stage == "parsing" else "resolution",
                f"nesting too deep while {stage}"))
            _finish_with_errors(config, result, source_texts)
    except OSError as e:
        # an artifact could not be written: an io error, like an unreadable
        # input, and no error report is tried where that write failed
        result.diagnostics.append(Diagnostic("io", str(e)))
        result.exit_code = 2
    return result


def _stages(config: CompileConfig, result: CompileResult,
            sources: list[tuple[str, str]], source_texts: dict[str, str]):
    """Run the stages into `result`, yielding the name of each stage after
    parsing as it starts; a failed stage records its diagnostics and stops."""
    parsed, diagnostics = parse_project(sources)
    _write_ast_dumps(config, result, parsed)
    if diagnostics:
        result.diagnostics.extend(diagnostics)
        _finish_with_errors(config, result, source_texts)
        return

    yield "building"
    try:
        project = build_project(config.project_name, parsed)
    except TydiError as e:
        result.diagnostics.append(e.diagnostic)
        _finish_with_errors(config, result, source_texts)
        return
    _inject_prelude_imports(project)
    result.project = project
    _write(config, result, "1_parser_output.txt", dump_code_structure(project))

    yield "evaluating"
    ctx = EvalContext(project)
    diagnostics = evaluate_project(ctx, project, config.top)
    if diagnostics:
        result.diagnostics.extend(diagnostics)
        _finish_with_errors(config, result, source_texts)
        return
    _write(config, result, "2_evaluation_output.txt", dump_code_structure(project))

    yield "sugaring"
    sugar_project(ctx, project)
    _write(config, result, "2_evaluation_output_after_sugaring.txt",
           dump_code_structure(project))

    yield "checking design rules"
    if config.emit_drc:
        result.drc_diagnostics = run_drc(project)
        _write(config, result, "drc_report.txt",
               render_drc_report(result.drc_diagnostics))
        if drc_has_errors(result.drc_diagnostics):
            result.exit_code = 1

    yield "emitting"
    if config.emit_dot:
        if config.top is None:
            result.diagnostics.append(Diagnostic(
                "usage", "--dot requires --top <package.impl>"))
            result.exit_code = 2
            return
        pkg_name, _, impl_name = config.top.partition(".")
        circuit = flatten(project, pkg_name, impl_name)
        _write(config, result, "circuit.dot", emit_dot(circuit))
    if config.emit_ir:
        _write(config, result, "ir.json", emit_ir(project))


def _write_ast_dumps(config: CompileConfig, result: CompileResult,
                     parsed: dict[str, ParsedFile]):
    used: set[str] = set()
    for pkg_name in sorted(parsed):
        if pkg_name == PRELUDE_PACKAGE:
            continue
        pf = parsed[pkg_name]
        stem = os.path.splitext(os.path.basename(pf.path))[0]
        name = stem
        n = 2
        while name in used:
            name = f"{stem}_{n}"
            n += 1
        used.add(name)
        _write(config, result, os.path.join("0_ast", f"{name}.txt"),
               "[" + dump_ast(pf.ast) + "]\n")


def _inject_prelude_imports(project: Project):
    for pkg in project.packages.values():
        if pkg.name != PRELUDE_PACKAGE:
            import_package(pkg.scope, PRELUDE_PACKAGE)


def _finish_with_errors(config: CompileConfig, result: CompileResult,
                        sources: dict[str, str]):
    # a usage error (a --top that names no implementation, or a template)
    # exits 2 like the CLI's own argument errors
    usage = any(d.category == "usage" for d in result.diagnostics)
    result.exit_code = 2 if usage else 1
    _write(config, result, "error_report.txt",
           render_error_report(result.diagnostics, sources))
