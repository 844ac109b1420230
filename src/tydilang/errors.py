"""Diagnostics and the one exception type shared by all compiler stages.

Every compile error is a `Diagnostic` of category syntax, resolution, type,
assertion, io or usage. A stage raises it as `TydiError(category, message,
path, span)`, the only exception type; the pipeline appends the few it
finds itself (an unreadable input, no input at all) without raising them."""

from __future__ import annotations

import re
from bisect import bisect_left
from typing import NamedTuple, Optional, Protocol

from .tree import END, START


class Located(Protocol):
    """A location in a source file: any tuple whose items at `tree.START`
    and `tree.END` (1 and 2) are its byte offsets, as a parse-tree node's, a
    token's and a lexer error's ``(None, start, end)`` are."""

    def __getitem__(self, index: int): ...


class Span(NamedTuple):
    """Half-open byte range [start, end) into a source file, as a diagnostic
    holds it, made from the location it is given. It does not check its
    order: the lexer and parser make start <= end, and the tests check that
    over every parsed fixture."""

    start: int
    end: int

    def __str__(self):
        return f"{self.start}-{self.end}"


class Diagnostic:
    """A single compiler message tied to a source location. `span` may be
    given as any `Located`; the diagnostic holds it as a Span."""

    def __init__(self, category, message, path=None, span=None):
        self.category = category  # syntax | resolution | type | assertion | io | usage
        self.message: str = message
        self.path: Optional[str] = path
        self.span: Optional[Span] = None if span is None else Span(span[START], span[END])

    def location(self, index=None) -> str:
        """`path:line:col` in the file that `index`, a `line_index`, indexes."""
        if self.path is None:
            return "<project>"
        if self.span is None or index is None:
            return self.path
        line, col = line_col(index, self.span.start)
        return f"{self.path}:{line}:{col}"


class TydiError(Exception):
    """Raised for any unrecoverable condition in a compile stage."""

    def __init__(self, category: str, message: str, path: Optional[str] = None,
                 span: Optional[Located] = None):
        super().__init__(message)
        self.diagnostic = Diagnostic(category, message, path, span)

    @property
    def category(self) -> str:
        return self.diagnostic.category

    @property
    def message(self) -> str:
        return self.diagnostic.message


def line_index(text: str) -> tuple[bytes, list[int]]:
    """A file's UTF-8 bytes and the offset of each newline, after a -1 that
    starts its first line."""
    data = text.encode("utf-8")
    return data, [-1] + [m.start() for m in re.finditer(b"\n", data)]


def line_col(index: tuple[bytes, list[int]], offset: int) -> tuple[int, int]:
    """1-based (line, column) for a byte offset into an indexed file."""
    data, newlines = index
    line = bisect_left(newlines, offset)  # lines that start at or before it
    text = data[newlines[line - 1] + 1:offset].decode("utf-8", errors="replace")
    return line, len(text) + 1
