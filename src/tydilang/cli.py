"""Command-line driver.

Exit status: 0 on success (warnings allowed), 1 on compile or DRC errors,
2 on usage and io errors.
"""

from __future__ import annotations

import argparse
import os
import sys

from .drc import drc_tally
from .pipeline import CompileConfig, compile_project


def build_arg_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="tydilang",
        description="Compile Tydi-lang sources: evaluate, desugar, check and "
                    "emit code-structure dumps, a DOT circuit graph and a "
                    "JSON IR.")
    p.add_argument("sources", nargs="+",
                   help="source files, or directories scanned for .td files")
    p.add_argument("--output", "-o", default="build",
                   help="output folder (default: build)")
    p.add_argument("--project", default=None,
                   help="project name (default: parent folder of the output dir)")
    p.add_argument("--top", default=None, metavar="PKG.IMPL",
                   help="restrict evaluation roots to one implementation")
    p.add_argument("--drc", action="store_true",
                   help="run the design rule check and write drc_report.txt")
    p.add_argument("--dot", action="store_true",
                   help="flatten from --top and write circuit.dot")
    p.add_argument("--ir", action="store_true", help="write ir.json")
    p.add_argument("--jobs", "-j", type=int, default=1,
                   help="accepted for compatibility; has no effect (must be >= 1)")
    return p


def default_project_name(output_dir: str) -> str:
    parent = os.path.dirname(os.path.abspath(output_dir))
    return os.path.basename(parent) or "project"


def main(argv=None) -> int:
    args = build_arg_parser().parse_args(argv)
    if args.jobs < 1:
        print("error: --jobs must be >= 1", file=sys.stderr)
        return 2
    if args.dot and args.top is None:
        print("error: --dot requires --top <package.impl>", file=sys.stderr)
        return 2
    config = CompileConfig(
        inputs=args.sources,
        project_name=args.project or default_project_name(args.output),
        output_dir=args.output,
        top=args.top,
        emit_drc=args.drc,
        emit_dot=args.dot,
        emit_ir=args.ir,
        jobs=args.jobs)
    result = compile_project(config)
    # each diagnostic located, as the report has it; an io error writes no report
    report = result.artifacts.get("error_report.txt")
    if report is None or any(d.category == "io" for d in result.diagnostics):
        report = "".join(f"[{d.category}] {d.message}\n" for d in result.diagnostics)
    sys.stderr.write(report)
    if result.drc_diagnostics:
        print(f"DRC: {drc_tally(result.drc_diagnostics)}", file=sys.stderr)
    return result.exit_code


if __name__ == "__main__":
    sys.exit(main())
