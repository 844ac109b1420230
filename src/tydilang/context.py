"""Shared evaluation state: once-only node guards and instantiation memos.

Every shared node (variable, type entry, streamlet, implementation, template
instantiation) transitions NotInferred -> Evaluated/Error exactly once.
Evaluation is demand-driven on the calling thread: a node that is demanded
again while it is still being evaluated closes a dependency cycle, which is
reported as a circular dependency. The context holds no source locations:
each scope's package gives the path a diagnostic is reported at.
"""

from __future__ import annotations

import contextlib
from collections import Counter

from .errors import CircularDependencyError, TydiError
from .model import EvalState, Project


class InstantiationCell:
    __slots__ = ("entity", "error", "done")

    def __init__(self):
        self.entity = None
        self.error = None
        self.done = False


class EvalContext:
    def __init__(self, project: Project):
        self.project = project
        self._stack: list[str] = []  # labels of the nodes being evaluated
        self._in_progress: dict[int, int] = {}  # id(node) -> stack depth
        self.eval_counts: Counter[str] = Counter()
        self._cells: dict = {}

    # -- node guards ---------------------------------------------------------

    def begin(self, node, label: str):
        """Mark the node as being evaluated; demanding it again before
        `finish` raises the dependency cycle that leads back to it, at the
        node's declaration when it has one."""
        key = id(node)
        depth = self._in_progress.get(key)
        if depth is not None:
            span = getattr(node, "span", None)  # an InstantiationCell has none
            path = node.scope.package.path if span is not None else None
            raise CircularDependencyError(self._stack[depth:] + [label], path, span)
        self._in_progress[key] = len(self._stack)
        self._stack.append(label)

    def finish(self, node):
        del self._in_progress[id(node)]
        self._stack.pop()

    @contextlib.contextmanager
    def evaluating(self, node):
        """Guard the block that evaluates a NotInferred node: count it, then
        leave it Evaluated, or Error with the raised TydiError stored."""
        label = node.label()
        self.begin(node, label)
        try:
            self.eval_counts[label] += 1
            yield
            node.state = EvalState.EVALUATED
        except TydiError as e:
            node.error = e
            node.state = EvalState.ERROR
            raise
        finally:
            self.finish(node)

    def instantiation_cell(self, key):
        """Memo holder for one (package, mangled-name) monomorphization."""
        cell = self._cells.get(key)
        if cell is None:
            cell = self._cells[key] = InstantiationCell()
        return cell
