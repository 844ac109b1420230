"""Shared evaluation state: the one once-only guard.

Every shared record (variable, type entry, streamlet, implementation)
transitions NotInferred -> Evaluated/Error exactly once, in `EvalContext.force`,
the only code that writes a record's state or re-raises its stored error.
Evaluation is demand-driven on the calling thread: a record that is demanded
again while it is still being evaluated closes a dependency cycle, which is
reported as a circular dependency at the record's declaration. The context
holds no source locations: each scope's package gives the path a diagnostic
is reported at. It holds no memo of template instances either: an instance
is registered in its template's package table, where a second instantiation
finds it.
"""

from __future__ import annotations

from collections import Counter

from .errors import TydiError
from .model import EvalState, Project

# how deeply evaluation may nest: records forced one inside another, and the
# expression terms, logical types and if/for blocks between them
EVAL_DEPTH_LIMIT = 500


class EvalContext:
    def __init__(self, project: Project):
        self.project = project
        self._stack: list[str] = []  # labels of the nodes being evaluated
        self._in_progress: dict[int, int] = {}  # id(node) -> stack depth
        self.depth = 0  # the nesting levels open, against EVAL_DEPTH_LIMIT
        self.eval_counts: Counter[str] = Counter()

    # -- node guards ---------------------------------------------------------

    def begin(self, node, label: str):
        """Mark the node as being evaluated; demanding it again before
        `finish` raises the dependency cycle that leads back to it, at the
        node's declaration."""
        key = id(node)
        depth = self._in_progress.get(key)
        if depth is not None:
            cycle = " -> ".join(self._stack[depth:] + [label])
            raise TydiError("resolution", f"circular dependency: {cycle}",
                            node.scope.package.path, node.span)
        self.deeper(node.scope.package.path)
        self._in_progress[key] = len(self._stack)
        self._stack.append(label)

    def deeper(self, path: str):
        """One level deeper in `path`'s file; the caller closes it, or `force` on failure."""
        self.depth += 1
        if self.depth > EVAL_DEPTH_LIMIT:
            raise TydiError("resolution", "nesting too deep while evaluating", path)

    def finish(self, node):
        del self._in_progress[id(node)]
        self._stack.pop()

    def force(self, node, compute):
        """Run `compute(self, node)` for a NotInferred node, counted, and
        leave the node Evaluated, or Error with the raised TydiError stored;
        an evaluated node returns at once and a failed one re-raises."""
        if node.state is EvalState.EVALUATED:
            return
        if node.state is EvalState.ERROR:
            raise node.error
        label = node.label()
        depth = self.depth
        self.begin(node, label)
        try:
            self.eval_counts[label] += 1
            compute(self, node)
            node.state = EvalState.EVALUATED
        except TydiError as e:
            node.error = e
            node.state = EvalState.ERROR
            raise
        finally:
            self.finish(node)
            self.depth = depth
