"""Position-annotated syntax tree produced by the parser.

A node is a plain tuple ``(kind, start, end, children, leaf_text)``, read
through the index constants below; `children` is a tuple of nodes, and
`leaf_text` the text of an identifier or literal leaf, else None. `start`
and `end` are byte offsets [start, end): a node is itself a location
(`errors.Located`). The collector can untrack exact tuples of strings, ints
and None, never a tuple subclass. `named` builds the same tree of `AstNode`s,
equal to it, for readers outside the compile. `dump_ast` writes the text of
the 0_ast folder: ``ID(6, 7)``, ``Exp(20, 22, [Term(20, 22, [...])])``.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

KIND, START, END, CHILDREN, TEXT = range(5)
Node = tuple  # (kind, start, end, children, leaf_text)


class AstNode(NamedTuple):
    kind: str
    start: int  # byte offsets of the node's source text: [start, end)
    end: int
    children: tuple["AstNode", ...] = ()
    leaf_text: Optional[str] = None  # identifier/literal leaves only

    def __repr__(self):
        return f"AstNode({self.kind}, {self.start}-{self.end})"


def child(n: Node, kind: str) -> Optional[Node]:
    for c in n[CHILDREN]:
        if c[KIND] == kind:
            return c
    return None


def children_of(n: Node, *kinds: str) -> list[Node]:
    return [c for c in n[CHILDREN] if c[KIND] in kinds]


def named(root: Node) -> AstNode:
    """`root`'s tree as `AstNode`s, built children first in one loop, with
    no recursion, so that it reaches any depth the parser does."""
    order = [root]
    for n in order:  # grows as it goes: every node after its parent
        order.extend(n[CHILDREN])
    made = {}
    for n in reversed(order):
        kids = tuple(made[id(c)] for c in n[CHILDREN])
        made[id(n)] = AstNode(n[KIND], n[START], n[END], kids, n[TEXT])
    return made[id(root)]


def dump_ast(n: Node) -> str:
    """Bracketed text form: ``Kind(start, end[, [children...]])``."""
    kind, start, end, children, _ = n
    if not children:
        return f"{kind}({start}, {end})"
    parts = []
    for c in children:  # a loop, not a generator: one stack frame per level
        parts.append(dump_ast(c))
    inner = ", ".join(parts)
    return f"{kind}({start}, {end}, [{inner}])"
