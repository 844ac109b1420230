"""No compiler module imports a name it never uses, no compiler function
binds a local or takes a parameter it never reads, no module binds a
private name it never reads, and `import tydilang` imports no module that
only code generation needs.

Deleting code tends to leave its imports, locals, parameters and private
names behind; these guards catch them. `__init__.py` re-exports by design,
`__future__` imports are directives, and imports under `if TYPE_CHECKING:`
serve string annotations only. A local or parameter whose name starts with
`_` is unused on purpose, a method need not read `self`, and a dunder
method's signature is the protocol's.
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


def _read(nodes) -> set[str]:
    return {node.id for node in nodes
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)}


def _unread_locals(tree) -> set[tuple[int, str]]:
    """(line, name) of each name a function body binds, and of each
    parameter of a function other than a dunder method, that neither the
    body nor a function nested in it reads; and of each private name bound
    at module level that the module never reads."""
    unread = set()
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        body = [node for stmt in fn.body for node in ast.walk(stmt)]
        read = _read(body)
        bound = [(node.lineno, node.id) for node in body
                 if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)]
        bound += [(node.lineno, node.name) for node in body
                  if isinstance(node, ast.ExceptHandler) and node.name]
        if not (fn.name.startswith("__") and fn.name.endswith("__")):
            args = fn.args
            bound += [(arg.lineno, arg.arg) for arg in args.posonlyargs + args.args
                      + args.kwonlyargs + [args.vararg, args.kwarg]
                      if arg is not None and arg.arg != "self"]
        unread.update((line, name) for line, name in bound
                      if name not in read and not name.startswith("_"))
    read = _read(ast.walk(tree))
    for stmt in tree.body:
        targets = stmt.targets if isinstance(stmt, ast.Assign) else \
            [stmt.target] if isinstance(stmt, ast.AnnAssign) else []
        bound = [(node.lineno, node.id) for target in targets
                 for node in ast.walk(target) if isinstance(node, ast.Name)]
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.append((stmt.lineno, stmt.name))
        unread.update((line, name) for line, name in bound
                      if name.startswith("_") and not name.startswith("__")
                      and name not in read)
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
    tree = ast.parse("_SEEN, _UNSEEN = 1, 2\n"
                     "def f(a, p, _q):\n    b, _c = a\n"
                     "    def g():\n        return b + _SEEN\n"
                     "    try:\n        pass\n    except OSError as e:\n        pass\n"
                     "    for k in a:\n        pass\n    return g\n"
                     "class C:\n    def __eq__(self, other):\n        return True\n")
    assert _unread_locals(tree) == {(1, "_UNSEEN"), (2, "p"), (8, "e"), (10, "k")}


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
