"""Position-annotated syntax tree produced by the parser.

Nodes are (kind, span, children, leaf_text) named tuples, so they compare and
hash as plain tuples; the dump format is the bracketed text written to the
0_ast output folder, e.g. ``ID(6, 7)`` for a leaf and
``Exp(20, 22, [Term(20, 22, [...])])`` for an inner node.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .errors import Span


class AstNode(NamedTuple):
    kind: str
    span: Span
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
        return f"AstNode({self.kind}, {self.span})"


def node(kind: str, start: int, end: int, children=(), leaf_text=None) -> AstNode:
    return AstNode(kind, Span(start, end), tuple(children), leaf_text)


def dump_ast(n: AstNode) -> str:
    """Bracketed text form: ``Kind(start, end[, [children...]])``."""
    if not n.children:
        return f"{n.kind}({n.span.start}, {n.span.end})"
    parts = []
    for c in n.children:  # a loop, not a generator: one stack frame per level
        parts.append(dump_ast(c))
    inner = ", ".join(parts)
    return f"{n.kind}({n.span.start}, {n.span.end}, [{inner}])"


def iter_nodes(n: AstNode):
    yield n
    for c in n.children:
        yield from iter_nodes(c)


def check_span_containment(n: AstNode) -> None:
    """Verify child spans nest inside the parent, in order, non-overlapping."""
    prev_end = n.span.start
    for c in n.children:
        if c.span.start < n.span.start or c.span.end > n.span.end:
            raise AssertionError(f"{c.kind} span escapes parent {n.kind}")
        if c.span.start < prev_end:
            raise AssertionError(f"{c.kind} overlaps preceding sibling in {n.kind}")
        prev_end = c.span.end
        check_span_containment(c)
