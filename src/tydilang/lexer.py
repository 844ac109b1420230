"""Tokenizer for `.td` source text.

One compiled master pattern is matched at each offset of the UTF-8 encoding,
so a token's `start` and `end` are byte offsets. A token carries them as
plain ints; a `Span` is made only for a diagnostic. The pattern's groups,
tried in order: a run of whitespace and ``//`` / ``/* */`` comments
(discarded; the language is space-insensitive), a ``#doc#`` string, a
``"str"`` literal (only ``\\"`` and ``\\\\`` escapes), FLOAT, INT
(``0b``/``0x``/``0o`` prefixes or decimal), an identifier, and punctuation,
longest first.

Checks that run after a match: an identifier must not contain ``__``, a
number must not be followed by an identifier character, and ``process``
followed by ``{`` becomes one opaque PROCESS_BODY token up to the matching
brace. Where no group matches, `_fail` names the reason.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from .errors import Span, TydiError

# Longest match first.
PUNCT = [
    "@NoStrictType@",
    "{{", "}}",
    "=>", "==", "!=", "<=", ">=", "<<", ">>", "&&", "||",
    "{", "}", "(", ")", "[", "]", "<", ">",
    ";", ",", ":", ".", "=", "`",
    "+", "-", "*", "/", "%", "^", "&", "|", "!", "~",
]

_SKIP = rb"(?:[ \t\r\n]+|//[^\n]*\n?|/\*.*?\*/)+"
# a string literal up to, not including, its closing quote
_STR_HEAD = rb'"(?:[^"\\\n]|\\["\\])*'
_MASTER = re.compile(b"|".join([
    rb"(?P<SKIP>" + _SKIP + rb")",
    rb"(?P<DOC>#[^#]*#)",
    rb"(?P<STR>" + _STR_HEAD + rb'")',
    rb"(?P<FLOAT>[0-9]+\.[0-9]+)",
    rb"(?P<INT>0[bxo][A-Za-z0-9_]*|[0-9]+)",
    rb"(?P<ID>[A-Za-z_][A-Za-z0-9_]*)",
    # an unclosed `/*` is an error, not the punctuation `/` and `*`
    rb"(?!/\*)(?P<PUNCT>"
    + b"|".join(re.escape(p.encode()) for p in sorted(PUNCT, key=len, reverse=True))
    + rb")",
]), re.DOTALL)
_BLANK = re.compile(_SKIP, re.DOTALL)
_STR_PREFIX = re.compile(_STR_HEAD)
_IDENT_START = re.compile(rb"[A-Za-z_]")
_ESCAPE = re.compile(rb"\\(.)")
# inside a process body: comments and strings (any escape) to skip, then an
# unclosed comment or string (group 1) and a brace (group 2)
_BRACES = re.compile(rb'//[^\n]*\n?|/\*.*?\*/|"(?:[^"\\]|\\.)*"|(/\*|")|([{}])', re.DOTALL)


class Token(NamedTuple):
    type: str  # ID | INT | FLOAT | STR | DOC | punctuation text | EOF
    text: str
    start: int  # byte offsets of the token: [start, end)
    end: int

    def __repr__(self):
        return f"Token({self.type!r}, {self.text!r}, {self.start}-{self.end})"


def tokenize(text: str, path: str | None = None) -> list[Token]:
    data = text.encode("utf-8")
    n = len(data)
    i = 0
    out: list[Token] = []

    def err(msg: str, start: int, end: int):
        raise TydiError("syntax", msg, path, Span(start, min(end, n)))

    while i < n:
        m = _MASTER.match(data, i)
        if m is None:
            err(*_fail(data, i))
        kind, j = m.lastgroup, m.end()
        if kind == "SKIP":
            i = j
            continue
        if kind == "STR":
            raw = _ESCAPE.sub(rb"\1", data[i + 1:j - 1]).decode("utf-8")
        elif kind == "DOC":
            raw = data[i + 1:j - 1].decode("utf-8")
        else:
            raw = m.group().decode("utf-8")
        if kind == "PUNCT":
            kind = raw
        elif kind == "INT" or kind == "FLOAT":
            if _IDENT_START.match(data, j):
                err(f"malformed number {raw!r}", i, j + 1)
        elif kind == "ID":
            if "__" in raw:
                err(f"consecutive underscores are not allowed in identifier {raw!r}", i, j)
            if raw == "process":
                # simulation blocks are carried as opaque text; their contents
                # follow a different token grammar and are never analyzed
                k = _BLANK.match(data, j)
                k = k.end() if k else j
                if data.startswith(b"{", k):
                    end = _scan_balanced_braces(data, k, path)
                    inner = data[k + 1:end - 1].decode("utf-8")
                    out.append(Token("PROCESS_BODY", inner, i, end))
                    i = end
                    continue
        out.append(Token(kind, raw, i, j))
        i = j

    out.append(Token("EOF", "", n, n))
    return out


def _fail(data: bytes, i: int) -> tuple[str, int, int]:
    """Message and span for the case that no token starts at ``data[i]``."""
    n = len(data)
    if data.startswith(b"/*", i):
        return "unterminated block comment", i, n
    if data.startswith(b"#", i):
        return "unterminated documentation string", i, n
    if data.startswith(b'"', i):
        j = _STR_PREFIX.match(data, i).end()
        if data.startswith(b"\\", j):
            return "unsupported escape in string literal", j, j + 2
        return "unterminated string literal", i, j
    # `data` is UTF-8 and `i` starts a character; name and span all its bytes
    char = data[i:i + 4].decode("utf-8", "ignore")[0]
    return f"unexpected character {char!r}", i, i + len(char.encode("utf-8"))


def _scan_balanced_braces(data: bytes, start: int, path) -> int:
    """Index just past the brace matching ``data[start]``, honoring strings
    and comments inside the block."""
    depth = 0
    for m in _BRACES.finditer(data, start):
        if m.group(1):
            break  # an unclosed comment or string
        if m.group(2) == b"{":
            depth += 1
        elif m.group(2) == b"}":
            depth -= 1
            if depth == 0:
                return m.end()
    raise TydiError("syntax", "unterminated process block", path, Span(start, len(data)))
