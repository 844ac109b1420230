"""No compiler module imports a name it never uses, no compiler function
binds a local it never reads, and `import tydilang` imports no module that
only code generation needs.

Deleting code tends to leave its imports and locals behind; these guards
catch them. `__init__.py` re-exports by design, `__future__` imports are
directives, and imports under `if TYPE_CHECKING:` serve string annotations
only. A local whose name starts with `_` is unused on purpose.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "tydilang"


def _is_type_checking(node) -> bool:
    return isinstance(node, ast.If) and isinstance(node.test, ast.Name) \
        and node.test.id == "TYPE_CHECKING"


def _imported_names(tree) -> dict[str, int]:
    """Each name the module's imports bind, with its line."""
    names = {}
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if _is_type_checking(node):
            continue
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
        stack.extend(ast.iter_child_nodes(node))
    return names


def _used_names(tree) -> set[str]:
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def unused_imports() -> list[str]:
    unused = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = _used_names(tree)
        unused.extend(f"{path.name}:{line}: {name}"
                      for name, line in sorted(_imported_names(tree).items())
                      if name not in used)
    return unused


def test_no_unused_imports():
    assert unused_imports() == []


def test_guard_sees_an_unused_import():
    tree = ast.parse("import os\nfrom typing import Optional, TYPE_CHECKING\n"
                     "if TYPE_CHECKING:\n    from x import Y\n"
                     "def f() -> Optional[int]:\n    return 1\n")
    assert set(_imported_names(tree)) - _used_names(tree) == {"os"}


def _unread_locals(tree) -> set[tuple[int, str]]:
    """(line, name) of each name a function body binds and that neither the
    body nor a function nested in it reads."""
    unread = set()
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        body = [node for stmt in fn.body for node in ast.walk(stmt)]
        read = {node.id for node in body
                if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)}
        bound = [(node.lineno, node.id) for node in body
                 if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)]
        bound += [(node.lineno, node.name) for node in body
                  if isinstance(node, ast.ExceptHandler) and node.name]
        unread.update((line, name) for line, name in bound
                      if name not in read and not name.startswith("_"))
    return unread


def unread_locals() -> list[str]:
    unread = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        unread.extend(f"{path.name}:{line}: {name}"
                      for line, name in sorted(_unread_locals(tree)))
    return unread


def test_no_unused_locals():
    assert unread_locals() == []


def test_guard_sees_an_unused_local():
    tree = ast.parse("def f(a):\n    b, _c = a\n"
                     "    def g():\n        return b\n"
                     "    try:\n        pass\n    except OSError as e:\n        pass\n"
                     "    for k in a:\n        pass\n    return g\n")
    assert _unread_locals(tree) == {(7, "e"), (9, "k")}


def test_import_runs_no_dataclasses():
    """The records are plain classes: a fresh `import tydilang` neither
    imports `dataclasses` nor the `inspect` it needs, which together cost
    more than compiling a small design."""
    code = ("import sys; before = set(sys.modules); import tydilang; "
            "print(*sorted(set(sys.modules) - before))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC.parent), os.environ.get("PYTHONPATH", "")]))
    added = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                           capture_output=True, text=True).stdout.split()
    assert "tydilang.pipeline" in added
    assert {"dataclasses", "inspect"}.isdisjoint(added), added
