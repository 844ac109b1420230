"""A line-coverage floor for `src/tydilang`, as a pytest plugin.

    PYTHONPATH=src:tests python -m pytest -q -p line_floor tests

The plugin records every line of the compiler that runs, from the import of
`tydilang` on. At the end of the session it fails the run on each line of a
function body that no test executed and that `UNCOVERED` does not list, and
on each entry of `UNCOVERED` that names no such line. Run it on Python 3.11:
3.10 attributes the lines of multi-line statements differently.

The executable lines of a module are the lines of its code objects that have
`CO_OPTIMIZED` set (functions, lambdas and comprehensions), less each one's
first line (its `def`, or its first decorator), so class bodies and module
level do not count.

Tracing starts in `pytest_load_initial_conftests`, which pytest calls for a
``-p`` plugin before it imports `conftest.py` (and so `tydilang`); importing
this module traces nothing. The trace functions are module-level functions,
not closures, so tracing builds no reference cycle.
"""

import importlib.util
import inspect
import os
import sys
import types

import pytest

# lines no test executes, by "module.qualname: <stripped line text>", with the
# reason each is accepted
UNCOVERED = {
    'parser.parse_fragment: raise ValueError(f"unknown fragment rule {rule!r}")':
        "rejects a misspelt rule; every caller in the tests names a known one",
}

_SRC = os.path.dirname(importlib.util.find_spec("tydilang").origin) + os.sep
_HITS: set = set()  # (file name, line) of each line that ran
_REPORT: list = []


def _trace_line(frame, event, arg):
    if event == "line":
        _HITS.add((frame.f_code.co_filename, frame.f_lineno))
    return _trace_line


def _trace_call(frame, event, arg):
    return _trace_line if frame.f_code.co_filename.startswith(_SRC) else None


def _body_lines(code, qualname: str):
    """(qualname, line) of each executable line of a function body in `code`
    and the code nested in it."""
    optimized = code.co_flags & inspect.CO_OPTIMIZED
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            if not qualname:  # module level
                inner = const.co_name
            elif optimized:
                inner = f"{qualname}.<locals>.{const.co_name}"
            else:  # a class body
                inner = f"{qualname}.{const.co_name}"
            yield from _body_lines(const, inner)
    if optimized:
        lines = {line for _, _, line in code.co_lines()}
        for line in sorted(lines - {None, code.co_firstlineno}):
            yield qualname, line


def floor_report(files, hits, uncovered):
    """The unexecuted lines that `uncovered` does not list, as
    ``path:line: key``, and the keys of `uncovered` that name no unexecuted
    line.

    `files` pairs each module's code object with its source text; `hits`
    holds the (file name, line) of each line that ran."""
    unexecuted = []  # (path:line, key)
    for code, source in files:
        text = source.splitlines()
        module = os.path.splitext(os.path.basename(code.co_filename))[0]
        for qualname, line in _body_lines(code, ""):
            if (code.co_filename, line) not in hits:
                unexecuted.append((f"{code.co_filename}:{line}",
                                   f"{module}.{qualname}: {text[line - 1].strip()}"))
    missing = [f"{where}: {key}" for where, key in unexecuted if key not in uncovered]
    stale = sorted(set(uncovered) - {key for _, key in unexecuted})
    return missing, stale


def _compiled_sources():
    for name in sorted(os.listdir(_SRC)):
        if name.endswith(".py"):
            path = _SRC + name
            with open(path, encoding="utf-8") as f:
                source = f.read()
            yield compile(source, path, "exec", dont_inherit=True), source


@pytest.hookimpl(tryfirst=True)
def pytest_load_initial_conftests():
    sys.settrace(_trace_call)


def pytest_sessionfinish(session):
    sys.settrace(None)
    missing, stale = floor_report(_compiled_sources(), _HITS, UNCOVERED)
    _REPORT.extend([f"unexecuted, not in UNCOVERED: {m}" for m in missing]
                   + [f"stale UNCOVERED entry: {s}" for s in stale])
    if _REPORT:
        session.exitstatus = pytest.ExitCode.TESTS_FAILED


def pytest_terminal_summary(terminalreporter):
    terminalreporter.section("line floor")
    for line in _REPORT:
        terminalreporter.write_line(line)
    terminalreporter.write_line(f"{len(_REPORT)} line-floor failure(s); "
                                f"{len(UNCOVERED)} UNCOVERED entries")
