import gc
import re
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from tydilang.errors import TydiError
from tydilang.lexer import tokenize
from tydilang import parser
from tydilang.parser import parse_file, parse_fragment, parse_project
from tydilang.pipeline import FRAME_BUDGET
from tydilang.stdlib import PRELUDE_PATH, PRELUDE_SOURCE
from tydilang.tree import CHILDREN, AstNode, child, dump_ast, named

from conftest import DATA_DIR, evaluated_project, live_span_count
from test_limits import BOUNDARIES


def iter_nodes(n: AstNode):
    yield n
    for c in n.children:
        yield from iter_nodes(c)


def check_span_containment(n: AstNode) -> None:
    """Verify child spans nest inside the parent, in order, non-overlapping."""
    prev_end = n.start
    for c in n.children:
        if c.start < n.start or c.end > n.end:
            raise AssertionError(f"{c.kind} span escapes parent {n.kind}")
        if c.start < prev_end:
            raise AssertionError(f"{c.kind} overlaps preceding sibling in {n.kind}")
        prev_end = c.end
        check_span_containment(c)

UNION_SNIPPET = (
    'Union A {\n'
    '  a : Bit(10),\n'
    '  b : Stream(A, d=0, t="user type"),\n'
    '  c : Stream(A, t="user type"),\n'
    '  d : Stream(A, d=0),\n'
    '  e : Stream(A),\n'
    '}'
)


def _leaf(kind, s, e):
    return f"{kind}({s}, {e})"


def _node(kind, s, e, kids):
    return f"{kind}({s}, {e}, [{', '.join(kids)}])"


def _int_chain(s, e):
    return _node("Exp", s, e, [_node("Term", s, e, [
        _node("IntExp", s, e, [_leaf("INT_RAW_NORAML", s, e)])])])


def _str_chain(s, e):
    return _node("Exp", s, e, [_node("Term", s, e, [
        _node("StringExp", s, e, [_leaf("STR", s, e)])])])


def _expected_union_dump(snippet: str) -> str:
    """Independent oracle: derive every span by byte arithmetic and assemble
    the bracketed dump from the grammar structure of the snippet."""
    b = snippet.encode("utf-8")
    items = []
    for m in re.finditer(rb"  ([a-z]) : ([^\n]*?),\n", b):
        id_s = m.start(1)
        type_s = m.start(2)
        type_text = m.group(2)
        comma_e = m.end() - 2  # the comma itself; the newline is not included
        if type_text.startswith(b"Bit"):
            wm = re.search(rb"\((\d+)\)", type_text)
            ws, we = type_s + wm.start(1), type_s + wm.end(1)
            inner = _node("LogicalBitType", type_s, type_s + len(type_text),
                          [_int_chain(ws, we)])
        else:
            elem_s = type_s + len(b"Stream(")
            kids = [_node("LogicalType", elem_s, elem_s + 1, [
                _node("LogicalUserDefinedType", elem_s, elem_s + 1,
                      [_leaf("ID", elem_s, elem_s + 1)])])]
            for pm in re.finditer(rb", ([dt])=([^,)]*)", type_text):
                prop_s = type_s + pm.start()
                val_s, val_e = type_s + pm.start(2), type_s + pm.end(2)
                if pm.group(1) == b"d":
                    kids.append(_node("StreamPropertyDimension", prop_s, val_e,
                                      [_int_chain(val_s, val_e)]))
                else:
                    kids.append(_node("StreamPropertyThroughput", prop_s, val_e,
                                      [_str_chain(val_s, val_e)]))
            inner = _node("LogicalStreamType", type_s, type_s + len(type_text), kids)
        items.append(_node("SubItemItem", id_s, comma_e + 1, [
            _leaf("ID", id_s, id_s + 1),
            _node("LogicalType", type_s, type_s + len(type_text), [inner])]))
    name_s = b.index(b"A")
    return _node("LogicalUnionType", 0, len(b),
                 [_leaf("ID", name_s, name_s + 1)] + items)


def test_union_snippet_dump_matches_derived_spans():
    node = parse_fragment(UNION_SNIPPET, "logical_type")
    assert dump_ast(node) == _expected_union_dump(UNION_SNIPPET)


def test_union_snippet_dump_has_expected_prefix():
    node = parse_fragment(UNION_SNIPPET, "logical_type")
    assert dump_ast(node).startswith("LogicalUnionType(0, 134, [ID(6, 7)")


def test_id_leaf_dump_format():
    node = named(parse_fragment(UNION_SNIPPET, "logical_type"))
    leaves = [n for n in iter_nodes(node) if n.kind == "ID"]
    assert dump_ast(leaves[0]) == "ID(6, 7)"


def test_empty_package():
    parsed = parse_file("package p;")
    assert parsed.package_name == "p"
    assert parsed.ast.kind == "Package"
    assert parsed.ast.children == ()


def test_consecutive_underscores_rejected():
    with pytest.raises(TydiError) as exc:
        parse_file("package p;\nconst a__b = 1;")
    assert exc.value.category == "syntax"
    assert "underscore" in exc.value.message
    span = exc.value.diagnostic.span
    text = "package p;\nconst a__b = 1;"
    assert text.encode()[span.start:span.end] == b"a__b"


def test_identifier_must_not_start_with_digit():
    with pytest.raises(TydiError) as exc:
        parse_file("package p;\nconst 1a = 1;")
    assert exc.value.category == "syntax"


def test_package_must_be_first_statement():
    with pytest.raises(TydiError) as exc:
        parse_file("const a = 1;\npackage p;")
    assert exc.value.category == "syntax"


def test_comments_and_whitespace_discarded():
    parsed = parse_file(
        "package p; //line\n/* block\nspanning */ const a = 1;")
    kinds = [c.kind for c in parsed.ast.children]
    assert kinds == ["ConstDecl"]


def test_integer_literal_forms():
    for text, value in [("1", 1), ("0b0001", 1), ("0x01", 1), ("0o01", 1),
                        ("0x1F", 31)]:
        exp = named(parse_fragment(text, "exp"))
        leaf = [n for n in iter_nodes(exp) if n.leaf_text == text]
        assert leaf, text


def test_string_escapes():
    parsed = parse_file(r'package p; const s = "a\"b\\c";')
    leaf = [n for n in iter_nodes(parsed.ast) if n.kind == "STR"][0]
    assert leaf.leaf_text == 'a"b\\c'


def test_unsupported_escape_rejected():
    with pytest.raises(TydiError) as exc:
        parse_file(r'package p; const s = "a\nb";')
    assert exc.value.category == "syntax"


# Each lexer diagnostic: source, exact message, and the exact bytes its span
# covers (the span starts at the first occurrence of those bytes).
LEXER_DIAGNOSTICS = [
    ("package p; /* open\nconst a = 1;", "unterminated block comment",
     b"/* open\nconst a = 1;"),
    ("package p;\n#never closed\nconst a = 1;", "unterminated documentation string",
     b"#never closed\nconst a = 1;"),
    ('package p; const s = "abc\nconst t = 1;', "unterminated string literal",
     b'"abc'),
    ('package p; const s = "abc', "unterminated string literal", b'"abc'),
    ('package p; const s = "a\\nb";', "unsupported escape in string literal",
     b"\\n"),
    ('package p; const s = "a\\', "unsupported escape in string literal", b"\\"),
    ("package p; const a = 12ab;", "malformed number '12'", b"12a"),
    ("package p; const a = 1.5x;", "malformed number '1.5'", b"1.5x"),
    ("package p; const a = $;", "unexpected character '$'", b"$"),
    ("package p; const \u00e9 = 1;", "unexpected character '\u00e9'",
     "\u00e9".encode("utf-8")),
    ("package p;\nconst a__b = 1;",
     "consecutive underscores are not allowed in identifier 'a__b'", b"a__b"),
    ('package p;\nimpl i of s { process { "}" /* } */ {',
     "unterminated process block", b'{ "}" /* } */ {'),
    ('package p;\nimpl i of s { process { "}',
     "unterminated process block", b'{ "}'),
]


@pytest.mark.parametrize("source, message, span_bytes", LEXER_DIAGNOSTICS, ids=[
    "block_comment", "doc_string", "string_at_newline", "string_at_eof",
    "escape", "escape_at_eof", "number_12ab", "number_1.5x", "character",
    "non_ascii_character", "double_underscore", "process_block",
    "process_block_string"])
def test_lexer_diagnostic_is_pinned(source, message, span_bytes):
    with pytest.raises(TydiError) as exc:
        tokenize(source, "pin.td")
    diag = exc.value.diagnostic
    data = source.encode("utf-8")
    assert (diag.category, diag.message, diag.path) == ("syntax", message, "pin.td")
    assert (diag.span.start, diag.span.end) == (
        data.index(span_bytes), data.index(span_bytes) + len(span_bytes))


# One snippet with every token class; spans are UTF-8 byte offsets.
EVERY_TOKEN_CLASS = (
    '#d\u00f3c# package p; // line\n'
    'const s = "q\\"b\\\\e"; /* block */ const f = 1.25;\n'
    'const n = 42 + 0b101 + 0x1F + 0o17;\n'
    '{{ }} @NoStrictType@ => == != <= >= << >> && ||\n'
    'impl i of s { process { if (x == "}{") { send(x); } // }\n'
    '  /* { */ }, };\n')


def test_reprs_show_kind_and_span():
    """A failing assertion prints a token or a node on one short line."""
    assert repr(tokenize("package p;")[0]) == "Token('ID', 'package', 0-7)"
    assert repr(parse_file("package p;").ast) == "AstNode(Package, 0-10)"


def test_token_stream_is_pinned():
    assert [(t.type, t.text, t.start, t.end)
            for t in tokenize(EVERY_TOKEN_CLASS)] == [
        ('DOC', 'dóc', 0, 6),
        ('ID', 'package', 7, 14),
        ('ID', 'p', 15, 16),
        (';', ';', 16, 17),
        ('ID', 'const', 26, 31),
        ('ID', 's', 32, 33),
        ('=', '=', 34, 35),
        ('STR', 'q"b\\e', 36, 45),
        (';', ';', 45, 46),
        ('ID', 'const', 59, 64),
        ('ID', 'f', 65, 66),
        ('=', '=', 67, 68),
        ('FLOAT', '1.25', 69, 73),
        (';', ';', 73, 74),
        ('ID', 'const', 75, 80),
        ('ID', 'n', 81, 82),
        ('=', '=', 83, 84),
        ('INT', '42', 85, 87),
        ('+', '+', 88, 89),
        ('INT', '0b101', 90, 95),
        ('+', '+', 96, 97),
        ('INT', '0x1F', 98, 102),
        ('+', '+', 103, 104),
        ('INT', '0o17', 105, 109),
        (';', ';', 109, 110),
        ('{{', '{{', 111, 113),
        ('}}', '}}', 114, 116),
        ('@NoStrictType@', '@NoStrictType@', 117, 131),
        ('=>', '=>', 132, 134),
        ('==', '==', 135, 137),
        ('!=', '!=', 138, 140),
        ('<=', '<=', 141, 143),
        ('>=', '>=', 144, 146),
        ('<<', '<<', 147, 149),
        ('>>', '>>', 150, 152),
        ('&&', '&&', 153, 155),
        ('||', '||', 156, 158),
        ('ID', 'impl', 159, 163),
        ('ID', 'i', 164, 165),
        ('ID', 'of', 166, 168),
        ('ID', 's', 169, 170),
        ('{', '{', 171, 172),
        ('PROCESS_BODY', ' if (x == "}{") { send(x); } // }\n  /* { */ ', 173, 227),
        (',', ',', 227, 228),
        ('}', '}', 229, 230),
        (';', ';', 230, 231),
        ('EOF', '', 232, 232),
    ]


def _scan(text: str) -> list[tuple]:
    """Each token as (type, text, start, end); a lexer error as the one
    entry ("error", message, start, end)."""
    try:
        return [(t.type, t.text, t.start, t.end) for t in tokenize(text)]
    except TydiError as e:
        d = e.diagnostic
        return [("error", d.message, d.span.start, d.span.end)]


# Where blanks and comments meet the start or the end of the text, a
# process body, or a character that starts no token.
@pytest.mark.parametrize("source, tokens", [
    ("", [("EOF", "", 0, 0)]),
    (" \t\r\n ", [("EOF", "", 5, 5)]),
    ("a // comment", [("ID", "a", 0, 1), ("EOF", "", 12, 12)]),
    ("a /* c */", [("ID", "a", 0, 1), ("EOF", "", 9, 9)]),
    ('s { process /* c */ { x("}"); } }', [
        ("ID", "s", 0, 1), ("{", "{", 2, 3),
        ("PROCESS_BODY", ' x("}"); ', 4, 31), ("}", "}", 32, 33),
        ("EOF", "", 33, 33)]),
    ("process x", [("ID", "process", 0, 7), ("ID", "x", 8, 9), ("EOF", "", 9, 9)]),
    ("  \n  $", [("error", "unexpected character '$'", 5, 6)]),
    ("  12ab", [("error", "malformed number '12'", 2, 5)]),
    ("a /* c */ é", [("error", "unexpected character 'é'", 10, 12)]),
], ids=["empty", "blanks", "line_comment_at_eof", "block_comment_at_eof",
        "process_comment_before_brace", "process_as_identifier",
        "character_after_blanks", "number_after_blanks", "non_ascii_after_comment"])
def test_token_stream_edges_are_pinned(source, tokens):
    assert _scan(source) == tokens


def test_doc_string_attaches_to_streamlet():
    parsed = parse_file(
        "package p;\n#explains the interface#\nstreamlet s { x: Stream(Bit(1)) in, };")
    decl = parsed.ast.children[0]
    assert decl.kind == "StreamletDecl"
    assert child(decl, "DOC").leaf_text == "explains the interface"


def test_process_block_is_opaque():
    src = ("package p;\nstreamlet s { x: Stream(Bit(1)) in, };\n"
           "impl i of s {\n  process {\n    delay_cycle(5, 100MHz);\n"
           '    if (state == "0") { send(x, 0b1); }\n  },\n};')
    parsed = parse_file(src)
    impl = parsed.ast.children[1]
    block = child(impl, "ProcessBlock")
    assert block is not None
    assert "delay_cycle(5, 100MHz);" in block.leaf_text


def test_span_containment_over_fixture_corpus():
    """Every `.td` under tests/data and the prelude: each token and node span
    has start <= end, and child spans nest in order inside their parent."""
    corpus = [(PRELUDE_PATH, PRELUDE_SOURCE)] + [
        (str(path), path.read_text(encoding="utf-8"))
        for path in sorted(Path(DATA_DIR).rglob("*.td"))]
    assert len(corpus) == 12
    for path, text in corpus:
        located = tokenize(text, path)
        ast = parse_file(text, path).ast
        located += iter_nodes(ast)
        assert all(x.start <= x.end for x in located), path
        check_span_containment(ast)


def _parser_node_kinds() -> set[str]:
    """Every node kind parser.py can make: the kinds it passes to `node(`
    by name, the stream property kinds, the integer literal kinds, and the
    group, union and member-extraction kinds it picks by rule."""
    text = Path(parser.__file__).read_text(encoding="utf-8")
    return (set(re.findall(r'node\("(\w+)"', text))
            | set(parser.STREAM_PROPERTY_KINDS.values())
            | set(re.findall(r'"(INT_RAW_\w+)"', text))
            | set(re.findall(r'"(Logical\w+Type|\w*Extract\w*)"', text)))


def test_grammar_fixture_holds_every_node_kind():
    """A construct the parser learns is pinned only once golden_grammar.td
    uses it."""
    ast = parse_file((Path(DATA_DIR) / "golden_grammar.td").read_text(encoding="utf-8")).ast
    kinds = _parser_node_kinds()
    assert len(kinds) >= 83
    assert {n.kind for n in iter_nodes(ast)} == kinds


def test_dump_is_deterministic(tpch1_source):
    a = dump_ast(parse_file(tpch1_source).ast)
    b = dump_ast(parse_file(tpch1_source).ast)
    assert a == b


def test_parsing_builds_no_span(tpch1_source):
    """Tokens and AST nodes carry plain offsets: holding the parsed TPC-H
    design keeps no `Span` alive."""
    before = live_span_count()
    parsed, diags = parse_project([("tpch1.td", tpch1_source)])
    assert not diags
    assert live_span_count() <= before
    assert len(list(iter_nodes(parsed["std"].ast))) > 3000


def levels(root):
    """The nodes of a tree, one list per level, root first."""
    out = [[root]]
    while out[-1]:
        out.append([c for n in out[-1] for c in n[CHILDREN]])
    return out[:-1]


def test_parse_tree_is_plain_and_untrackable(tpch1_source):
    """Every node and every non-empty children tuple is an exact tuple, so
    the collector stops tracking it. A collection untracks a tuple only once
    its items are untracked, about one level of tuples per pass, so this
    allows two passes per level of nodes, and two more."""
    tree = levels(parse_file(tpch1_source).root)
    nodes = [n for level in tree for n in level]
    held = nodes + [n[CHILDREN] for n in nodes if n[CHILDREN]]
    assert all(type(x) is tuple for x in held)
    for _ in range(2 * len(tree) + 2):
        if not any(map(gc.is_tracked, held)):
            break
        gc.collect()
    assert not any(map(gc.is_tracked, held))


def test_parse_tree_is_untracked_while_it_is_built(tpch1_source):
    """The parser keeps its nodes in build order in a list older than them,
    so the young collections that run while it parses untrack the tree
    bottom-up. Right after the parse, with no explicit collection, at most
    9% of tpch1's tuples are still tracked on CPython 3.10-3.13 (77% when
    the list is left out, as each pass then untracks one level). A tuple
    that CPython reuses from its free lists does not count towards the next
    young collection, so a first parse, kept alive, empties the lists that
    earlier tests filled; else fewer collections run and more stays tracked."""
    enabled = gc.isenabled()
    gc.enable()
    try:
        first = parse_file(tpch1_source)
        root = parse_file(tpch1_source).root
        gc.disable()  # no collection while the tree is counted
        nodes = [n for level in levels(root) for n in level]
        held = nodes + [n[CHILDREN] for n in nodes if n[CHILDREN]]
        tracked = sum(map(gc.is_tracked, held))
    finally:
        if enabled:
            gc.enable()
    assert first.root == root
    assert tracked <= 0.15 * len(held), f"{tracked} of {len(held)} still tracked"


def test_named_view_is_the_same_tree(tpch1_source):
    parsed = parse_file(tpch1_source)
    assert type(parsed.ast) is AstNode and parsed.ast == parsed.root
    assert dump_ast(parsed.ast) == dump_ast(parsed.root)


@pytest.mark.parametrize("kind", BOUNDARIES)
def test_named_view_reaches_as_deep_as_the_parser(kind):
    """The named view of the deepest input of each kind that compiles
    builds node for node, at a recursion limit too low to parse it: without
    recursing per level."""
    source, deepest, _ = BOUNDARIES[kind]
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(limit + FRAME_BUDGET)  # as a compile does
    try:
        parsed = parse_file(source(deepest))
    finally:
        sys.setrecursionlimit(limit)
    sizes = [[len(level) for level in levels(tree)] for tree in (parsed.root, parsed.ast)]
    assert sizes[0] == sizes[1]


def test_parse_project_keys_by_package_name():
    parsed, diags = parse_project(
        [("x/simple_0.td", "package simple_0;"),
         ("x/simple_1.td", "package simple_1;")])
    assert not diags
    assert sorted(parsed) == ["simple_0", "simple_1"]


def test_parse_project_single_file():
    parsed, diags = parse_project([("a.td", "package solo;")])
    assert not diags
    assert list(parsed) == ["solo"]


def test_duplicate_package_reported_with_both_paths():
    parsed, diags = parse_project(
        [("a.td", "package tpch;"), ("b.td", "package tpch;")])
    assert len(diags) == 1
    assert "a.td" in diags[0].message and "b.td" in diags[0].message


def test_syntax_errors_aggregate_across_files():
    parsed, diags = parse_project(
        [("a.td", "package a; const x== 1;"),
         ("b.td", "package b; const = 2;"),
         ("c.td", "package c; const ok = 3;")])
    assert len(diags) == 2
    assert "c" in parsed


def test_error_carries_path_span_and_expectation():
    with pytest.raises(TydiError) as exc:
        parse_file("package p;\nconst x = ;", path="bad.td")
    d = exc.value.diagnostic
    assert d.category == "syntax"
    assert d.path == "bad.td"
    assert d.span is not None
    assert "expected" in d.message


# -- operator precedence against a reference interpreter -------------------------


def _exprs(depth):
    if depth == 0:
        return st.integers(min_value=0, max_value=9).map(lambda n: ("int", n))
    sub = _exprs(depth - 1)
    return st.one_of(
        st.integers(min_value=0, max_value=9).map(lambda n: ("int", n)),
        st.tuples(st.just("neg"), sub),
        st.tuples(st.sampled_from("+-*/"), sub, sub),
    )


def _render(t) -> str:
    if t[0] == "int":
        return str(t[1])
    if t[0] == "neg":
        return f"-{_render(t[1])}"
    return f"({_render(t[1])} {t[0]} {_render(t[2])})"


def _render_flat(t) -> str:
    """Like _render but without parentheses at the top level, so operator
    precedence in the parser actually gets exercised."""
    if t[0] in ("int", "neg"):
        return _render(t)
    return f"{_render(t[1])} {t[0]} {_render(t[2])}"


def _ref_eval(t) -> int:
    if t[0] == "int":
        return t[1]
    if t[0] == "neg":
        return -_ref_eval(t[1])
    a, b = _ref_eval(t[1]), _ref_eval(t[2])
    if t[0] == "+":
        return a + b
    if t[0] == "-":
        return a - b
    if t[0] == "*":
        return a * b
    q = abs(a) // abs(b)
    return q if (a >= 0) == (b >= 0) else -q


@settings(max_examples=150, deadline=None)
@given(_exprs(3))
def test_parse_evaluate_matches_reference_interpreter(tree):
    try:
        expected = _ref_eval(tree)
    except ZeroDivisionError:
        return
    project, ctx = evaluated_project(f"package p;\nconst x = {_render_flat(tree)};")
    var = project.packages["p"].scope.variables["x"]
    assert var.value.value == expected


def test_unary_minus_binds_tighter_than_addition():
    project, _ = evaluated_project("package p;\nconst i1 = -1+2;")
    assert project.packages["p"].scope.variables["i1"].value.value == 1
