"""Compilation pipeline: parse -> build -> evaluate -> sugar -> DRC -> emit.

Stages run one after another on the calling thread; artifacts are written as
soon as their stage completes, so everything produced before a failure
survives it. A compile into a directory first removes the `ARTIFACTS` an
earlier compile left there, but not `0_ast/`, even when its inputs cannot be
read. A source text that is not valid Unicode (a str holding a lone
surrogate) is an `io` error like a file that is not UTF-8, and nothing is
parsed. A failed stage reports diagnostics; `compile_sources` alone writes them
to `error_report.txt`, and the exit status is derived from them
(`CompileResult.exit_code`). An artifact that cannot be written or removed
ends the compile with an `io` diagnostic and no error report. While it runs,
a compile raises the process-wide recursion limit to what the nesting limits
of parsing and evaluation need. `CompileConfig.jobs` is validated but has no
effect: every artifact is the same for any value.
"""

from __future__ import annotations

import os
import sys
from typing import Optional

from .builder import build_project, import_package
from .context import EvalContext
from .drc import drc_has_errors, render_drc_report, run_drc
from .dump import dump_code_structure
from .elaboration import evaluate_implementation
from .errors import Diagnostic, TydiError, line_index
from .math_engine import force_variable
from .model import Implementation, Project, Variable
from .parser import ParsedFile, parse_project
from .stdlib import PRELUDE_PACKAGE, PRELUDE_PATH, PRELUDE_SOURCE
from .sugaring import sugar_project
from .tree import dump_ast
from .type_eval import force_type_entry
from .emit import emit_dot, emit_ir, flatten


class CompileConfig:
    def __init__(self, inputs, project_name="project", output_dir=None, top=None,
                 emit_drc=False, emit_dot=False, emit_ir=False, jobs=1):
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        self.inputs: list[str] = inputs
        self.project_name: str = project_name
        self.output_dir: Optional[str] = output_dir  # None: no artifacts written
        self.top: Optional[str] = top  # "package.impl"
        self.emit_drc: bool = emit_drc
        self.emit_dot: bool = emit_dot
        self.emit_ir: bool = emit_ir
        self.jobs: int = jobs  # validated for compatibility; has no effect


# the Python frames a compile may take above its caller: the most measured at
# the nesting limits (6,468 on Python 3.11), with headroom for tracing wrappers
FRAME_BUDGET = 7000

# the fixed artifact names; `0_ast/` holds one more per source file
ARTIFACTS = ("1_parser_output.txt", "2_evaluation_output.txt",
             "2_evaluation_output_after_sugaring.txt", "drc_report.txt",
             "circuit.dot", "ir.json", "error_report.txt")


class CompileResult:
    def __init__(self):
        self.project: Optional[Project] = None
        self.diagnostics: list[Diagnostic] = []
        self.drc_diagnostics = []
        self.artifacts = {}  # name -> text

    @property
    def exit_code(self) -> int:
        """2 on a usage or io error, 1 on any other diagnostic or a DRC error."""
        if any(d.category in ("usage", "io") for d in self.diagnostics):
            return 2
        return 1 if self.diagnostics or drc_has_errors(self.drc_diagnostics) else 0

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


def diagnostic_order(d: Diagnostic):
    """The order diagnostics are reported in: by file, offset, then message."""
    return (d.path or "", d.span.start if d.span else -1, d.message)


def render_error_report(diagnostics: list[Diagnostic],
                        sources: dict[str, str]) -> str:
    """One line per diagnostic with file, line/column, category and message,
    in `diagnostic_order`. Each file with a diagnostic is indexed once."""
    indexes = {path: line_index(sources[path])
               for path in {d.path for d in diagnostics} if path in sources}
    lines = [f"{d.location(indexes.get(d.path))}: [{d.category}] {d.message}"
             for d in sorted(diagnostics, key=diagnostic_order)]
    return "\n".join(lines) + "\n"


def collect_sources(inputs: list[str]) -> list[tuple[str, str]]:
    """Expand directories into their `.td` files and read everything.

    A file named more than once (``dir dir/a.td``, ``a.td a.td``) is read
    once, under the name it is first given, without a leading byte-order mark.
    A file that cannot be read or is not UTF-8 raises OSError naming it."""
    paths: dict[str, str] = {}  # real path -> the first name given for it
    for item in inputs:
        if os.path.isdir(item):
            named = [os.path.join(item, entry) for entry in sorted(os.listdir(item))
                     if entry.endswith(".td")]
        else:
            named = [item]
        for p in named:
            paths.setdefault(os.path.realpath(p), p)
    out = []
    for p in paths.values():
        with open(p, "r", encoding="utf-8-sig") as f:
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
    """Drive lazy evaluation from the configured roots; aggregate failures."""
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
    diagnostics.sort(key=diagnostic_order)
    return diagnostics


def compile_project(config: CompileConfig) -> CompileResult:
    result = CompileResult()
    sources = []
    try:
        sources = collect_sources(config.inputs)
    except OSError as e:
        result.diagnostics.append(Diagnostic("io", str(e)))
    if not sources and not result.diagnostics:
        result.diagnostics.append(Diagnostic("usage", "no input files"))
    return compile_sources(config, sources, result)


def compile_sources(config: CompileConfig, sources: list[tuple[str, str]],
                    result: Optional[CompileResult] = None) -> CompileResult:
    result = result or CompileResult()
    for path, text in sources:
        try:
            text.encode("utf-8")
        except UnicodeEncodeError as e:
            # a str can hold lone surrogates, which no UTF-8 file decodes to
            result.diagnostics.append(Diagnostic(
                "io", f"{path}: not valid UTF-8 ({e.reason} at character {e.start})"))
            break
    sources = sources + [(PRELUDE_PATH, PRELUDE_SOURCE)]
    limit = sys.getrecursionlimit()
    depth, frame = 0, sys._getframe()
    while frame is not None:  # the frames below this one
        depth, frame = depth + 1, frame.f_back
    sys.setrecursionlimit(max(limit, depth + FRAME_BUDGET))
    try:
        if config.output_dir is not None:
            for name in ARTIFACTS:
                path = os.path.join(config.output_dir, name)
                if os.path.isfile(path):
                    os.remove(path)
        if result.diagnostics:  # the inputs could not be read
            return result
        try:
            _stages(config, result, sources)
        except TydiError as e:
            result.diagnostics.append(e.diagnostic)
        if result.diagnostics:
            _write(config, result, "error_report.txt",
                   render_error_report(result.diagnostics, dict(sources)))
    except OSError as e:
        # an artifact could not be written or removed: an io error, like an
        # unreadable input, and no error report is tried where that failed
        result.diagnostics.append(Diagnostic("io", str(e)))
    finally:
        sys.setrecursionlimit(limit)
    return result


def _stages(config: CompileConfig, result: CompileResult,
            sources: list[tuple[str, str]]):
    """Run the stages into `result`. A stage that reports a list of
    diagnostics records them and stops; one that stops at its first error
    raises it."""
    parsed, diagnostics = parse_project(sources)
    _write_ast_dumps(config, result, parsed)
    if diagnostics:
        result.diagnostics.extend(diagnostics)
        return

    project = build_project(config.project_name, parsed)
    _inject_prelude_imports(project)
    result.project = project
    _write(config, result, "1_parser_output.txt", dump_code_structure(project))

    ctx = EvalContext(project)
    diagnostics = evaluate_project(ctx, project, config.top)
    if diagnostics:
        result.diagnostics.extend(diagnostics)
        return
    _write(config, result, "2_evaluation_output.txt", dump_code_structure(project))

    sugar_project(ctx, project)
    _write(config, result, "2_evaluation_output_after_sugaring.txt",
           dump_code_structure(project))

    if config.emit_drc:
        result.drc_diagnostics = run_drc(project)
        _write(config, result, "drc_report.txt",
               render_drc_report(result.drc_diagnostics))

    if config.emit_dot:
        if config.top is None:
            raise TydiError("usage", "--dot requires --top <package.impl>")
        pkg_name, _, impl_name = config.top.partition(".")
        # raises on colliding flat names; the circuit is dropped once written
        _write(config, result, "circuit.dot",
               emit_dot(flatten(project, pkg_name, impl_name)))
    if config.emit_ir:
        _write(config, result, "ir.json", emit_ir(project))


def _write_ast_dumps(config: CompileConfig, result: CompileResult,
                     parsed: dict[str, ParsedFile]):
    """Write each parsed file's AST dump."""
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
               "[" + dump_ast(pf.root) + "]\n")


def _inject_prelude_imports(project: Project):
    for pkg in project.packages.values():
        if pkg.name != PRELUDE_PACKAGE:
            import_package(pkg.scope, PRELUDE_PACKAGE)

