"""Tokenizer for `.td` source text.

One compiled master pattern scans the UTF-8 encoding of a file in a single
`finditer` pass, so a token's `start` and `end` are byte offsets; a token,
like a lexer error's tuple, is itself a location (`errors.Located`). Each
match starts with an optional run of whitespace and ``//`` / ``/* */``
comments, which is discarded (the language is space-insensitive) without a
turn of the loop; the token's span is that of the group matched after it.
The groups, tried in order: ``process`` as a word, an identifier,
punctuation (longest first), FLOAT, INT (``0b``/``0x``/``0o`` prefixes or
decimal), a ``"str"`` literal (only ``\\"`` and ``\\\\`` escapes), a ``#doc#``
string, the end of the text (EOF), and a catch-all byte. Where no token
starts, the catch-all matches, so no byte is skipped: the scan ends in
`_fail`, which names the reason.

Checks that run after a match: an identifier must not contain ``__``, and a
number must not be followed by an identifier character. ``process``
followed by ``{`` becomes one opaque PROCESS_BODY token up to the matching
brace, and the scan restarts past it; any other ``process`` is an ID.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from .errors import TydiError

# Longest match first.
PUNCT = [
    "@NoStrictType@",
    "{{", "}}",
    "=>", "==", "!=", "<=", ">=", "<<", ">>", "&&", "||",
    "{", "}", "(", ")", "[", "]", "<", ">",
    ";", ",", ":", ".", "=", "`",
    "+", "-", "*", "/", "%", "^", "&", "|", "!", "~",
]

_BLANKS = rb"(?:[ \t\r\n]+|//[^\n]*\n?|/\*.*?\*/)*"
# a string literal up to, not including, its closing quote
_STR_HEAD = rb'"(?:[^"\\\n]|\\["\\])*'
_MASTER = re.compile(_BLANKS + rb"(?:" + b"|".join([
    rb"(?P<PROCESS>process\b)",
    rb"(?P<ID>[A-Za-z_][A-Za-z0-9_]*)",
    # an unclosed `/*` is an error, not the punctuation `/` and `*`
    rb"(?!/\*)(?P<PUNCT>"
    + b"|".join(re.escape(p.encode()) for p in sorted(PUNCT, key=len, reverse=True))
    + rb")",
    rb"(?P<FLOAT>[0-9]+\.[0-9]+)",
    rb"(?P<INT>0[bxo][A-Za-z0-9_]*|[0-9]+)",
    rb"(?P<STR>" + _STR_HEAD + rb'")',
    rb"(?P<DOC>#[^#]*#)",
    rb"(?P<EOF>\Z)",
    rb"(?P<FAIL>.)",
]) + rb")", re.DOTALL)
_BLANK = re.compile(_BLANKS, re.DOTALL)
_STR_PREFIX = re.compile(_STR_HEAD)
_IDENT_START = re.compile(rb"[A-Za-z_]")
_ESCAPE = re.compile(rb"\\(.)")
# inside a process body: comments and strings (any escape) to skip, then an
# unclosed comment or string (group 1) and a brace (group 2)
_BRACES = re.compile(rb'//[^\n]*\n?|/\*.*?\*/|"(?:[^"\\]|\\.)*"|(/\*|")|([{}])', re.DOTALL)


class Token(NamedTuple):
    type: str  # ID | INT | FLOAT | STR | DOC | PROCESS_BODY | punctuation text | EOF
    start: int  # byte offsets of the token: [start, end), where a node has them
    end: int
    text: str

    def __repr__(self):
        return f"Token({self.type!r}, {self.text!r}, {self.start}-{self.end})"


def tokenize(text: str, path: str | None = None) -> list[Token]:
    data = text.encode("utf-8")
    out: list[Token] = []
    append = out.append
    new = tuple.__new__  # a Token without the named tuple's Python `__new__`
    pos = 0

    def err(msg: str, start: int, end: int):
        raise TydiError("syntax", msg, path, (None, start, min(end, len(data))))

    while True:  # only the EOF group, a process body or `_fail` ends a pass
        for m in _MASTER.finditer(data, pos):
            kind = m.lastgroup
            s, e = m.span(kind)
            if kind == "ID":
                raw = data[s:e].decode()
                if "__" in raw:
                    err(f"consecutive underscores are not allowed in identifier {raw!r}", s, e)
                append(new(Token, ("ID", s, e, raw)))
            elif kind == "PUNCT":
                raw = data[s:e].decode()
                append(new(Token, (raw, s, e, raw)))
            elif kind == "INT" or kind == "FLOAT":
                raw = data[s:e].decode()
                if _IDENT_START.match(data, e):
                    err(f"malformed number {raw!r}", s, e + 1)
                append(new(Token, (kind, s, e, raw)))
            elif kind == "STR":
                raw = _ESCAPE.sub(rb"\1", data[s + 1:e - 1]).decode()
                append(new(Token, ("STR", s, e, raw)))
            elif kind == "DOC":
                append(new(Token, ("DOC", s, e, data[s + 1:e - 1].decode())))
            elif kind == "PROCESS":
                # simulation blocks are carried as opaque text; their contents
                # follow a different token grammar and are never analyzed
                k = _BLANK.match(data, e).end()
                if data.startswith(b"{", k):
                    pos = _scan_balanced_braces(data, k, path)
                    body = data[k + 1:pos - 1].decode()
                    append(new(Token, ("PROCESS_BODY", s, pos, body)))
                    break  # scan on from past the closing brace
                append(new(Token, ("ID", s, e, "process")))
            elif kind == "EOF":
                append(new(Token, ("EOF", s, s, "")))
                return out
            else:
                err(*_fail(data, s))


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
    raise TydiError("syntax", "unterminated process block", path, (None, start, len(data)))
