"""Position-annotated syntax tree produced by the parser.

Nodes are (kind, start, end, children, leaf_text) named tuples, so they
compare and hash as plain tuples. `start` and `end` are plain int byte
offsets: a node is itself a location, and a `Diagnostic` makes a `Span` of
it only when one is reported. The dump format is the bracketed text written
to the 0_ast output folder, e.g. ``ID(6, 7)`` for a leaf and
``Exp(20, 22, [Term(20, 22, [...])])`` for an inner node.
"""

from __future__ import annotations

from typing import NamedTuple, Optional


class AstNode(NamedTuple):
    kind: str
    start: int  # byte offsets of the node's source text: [start, end)
    end: int
    children: tuple["AstNode", ...] = ()
    leaf_text: Optional[str] = None  # identifier/literal leaves only

    def child(self, kind: str) -> Optional["AstNode"]:
        for c in self.children:
            if c.kind == kind:
                return c
        return None

    def children_of(self, *kinds: str) -> list["AstNode"]:
        return [c for c in self.children if c.kind in kinds]

    def __repr__(self):
        return f"AstNode({self.kind}, {self.start}-{self.end})"


_new = tuple.__new__  # builds a node without the named tuple's Python `__new__`


def node(kind: str, start: int, end: int, children=(), leaf_text=None) -> AstNode:
    return _new(AstNode, (kind, start, end, tuple(children), leaf_text))


def dump_ast(n: AstNode) -> str:
    """Bracketed text form: ``Kind(start, end[, [children...]])``."""
    if not n.children:
        return f"{n.kind}({n.start}, {n.end})"
    parts = []
    for c in n.children:  # a loop, not a generator: one stack frame per level
        parts.append(dump_ast(c))
    inner = ", ".join(parts)
    return f"{n.kind}({n.start}, {n.end}, [{inner}])"
