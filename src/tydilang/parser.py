"""Recursive-descent parser for `.td` source files.

Produces a lossless, position-annotated tree of plain tuples (`tree`).
Expressions are kept flat (``Exp`` holds ``Term (InfixOp Term)*``); operator
precedence is applied by the math engine, and unary operators live inside
``Term`` so they always bind tighter than any binary operator. Each parsed
file is one `ParsedFile` record: its path, text, package name and `root`;
its `ast` builds the tree's named view anew on each read.

The token helpers (`next`, `at`, `accept`, `expect`, `id_leaf`, ...) and
the hot paths index ``self.tokens[self.pos]`` themselves, with no call to
look; `accept` and `expect` step past the token they return. Every construct
that recurs in the grammar has one method: `separator` ends a statement and
returns where it ends, `parse_enclosed` reads ``[exp]`` and ``(exp)``,
`parse_name_ref` ``name`` and ``pkg.name``, `parse_body_decl` the const, type
and assert items of every body, and `parse_path_part` each ``name[index]``
half of a connection end. Each node is built once, when its kind is known,
by `_Parser.node`, which also keeps it in build order for the collector.
Stream property letters and node kinds come from `STREAM_PROPERTIES`.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .errors import Diagnostic, TydiError
from .lexer import Token, tokenize
from .logical_types import STREAM_PROPERTIES
from .tree import CHILDREN, END, KIND, START, AstNode, Node, named

CONST_KINDS = ("int", "str", "float", "bool", "clockdomain")
STREAM_PROPERTY_KINDS = {letter: kind for letter, kind, _ in STREAM_PROPERTIES}
INFIX_OPS = {
    "^", "*", "/", "%", "+", "-", "<<", ">>",
    "<", ">", "<=", ">=", "==", "!=", "&", "|", "&&", "||",
}
UNARY_OPS = {"-", "!", "~"}
BUILTIN_FUNCS = {"round", "floor", "ceil"}
INT_KINDS = {"0b": "INT_RAW_BIN", "0x": "INT_RAW_HEX", "0o": "INT_RAW_OCT"}
# how deeply expressions, unary operators, log bases, logical types, groups
# and statement blocks may nest, counted together; a file nested deeper fails
PARSE_DEPTH_LIMIT = 500


class ParsedFile(NamedTuple):
    path: str
    text: str
    package_name: str
    root: Node

    @property
    def ast(self) -> AstNode:
        return named(self.root)


class _Parser:
    def __init__(self, text: str, path: Optional[str] = None):
        self.path = path
        self.tokens = tokenize(text, path)
        # `next` stops at the first EOF, so the second keeps `pos + 1` in range
        self.tokens.append(self.tokens[-1])
        self.pos = 0
        self.depth = 0  # the nesting levels open, against PARSE_DEPTH_LIMIT
        # Every node and non-empty children tuple, children before parents;
        # never read. Held by this older list, the nodes stay in build order
        # in the collector's young generations, so each young collection that
        # runs while parsing untracks them bottom-up, whole subtrees at once.
        # Without it a collection moves children behind their parent and
        # untracks about one level of the tree per pass.
        self.built: list[tuple] = []

    def node(self, kind: str, start: int, end: int, children=(), leaf_text=None) -> Node:
        """The node tuple of these fields, also appended to `built`."""
        children = tuple(children)
        if children:
            self.built.append(children)
        n = (kind, start, end, children, leaf_text)
        self.built.append(n)
        return n

    # -- token helpers -----------------------------------------------------

    def next(self) -> Token:
        t = self.tokens[self.pos]
        if t.type != "EOF":
            self.pos += 1
        return t

    def at(self, type_: str) -> bool:
        return self.tokens[self.pos].type == type_

    def accept(self, type_: str) -> Optional[Token]:
        """The current token, consumed, if it is a `type_`; else None."""
        t = self.tokens[self.pos]
        if t.type == type_:
            self.pos += 1
            return t
        return None

    def at_kw(self, word: str) -> bool:
        t = self.tokens[self.pos]
        return t.type == "ID" and t.text == word

    def expect(self, type_: str, what: Optional[str] = None) -> Token:
        t = self.tokens[self.pos]
        if t.type != type_:
            self.fail(what or f"'{type_}'", t)
        self.pos += 1
        return t

    def expect_kw(self, word: str) -> Token:
        t = self.tokens[self.pos]
        if t.type != "ID" or t.text != word:
            self.fail(f"keyword '{word}'", t)
        self.pos += 1
        return t

    def fail(self, expected: str, t: Optional[Token] = None):
        t = t or self.tokens[self.pos]
        found = "end of file" if t.type == "EOF" else t.text
        if len(found) > 40:
            found = found[:37] + "..."
        raise TydiError("syntax",
                        f"expected {expected}, found {found!r}", self.path, t)

    def deeper(self):
        """Open one more nesting level; the caller closes it."""
        self.depth += 1
        if self.depth > PARSE_DEPTH_LIMIT:
            raise TydiError("syntax", "nesting too deep while parsing", self.path)

    def id_leaf(self, what: str = "identifier") -> Node:
        t = self.tokens[self.pos]
        if t.type != "ID":
            self.fail(what, t)
        self.pos += 1
        return self.node("ID", t.start, t.end, leaf_text=t.text)

    def separator(self, sep: str, closer: str, end: int) -> int:
        """Consume a statement separator, which may be omitted before
        `closer`; returns where the statement ends: after the separator, or
        at `end` without one."""
        t = self.tokens[self.pos]
        if t.type == sep:
            self.pos += 1
            return t.end
        if t.type == closer or t.type == "EOF":
            return end
        self.fail(f"'{sep}'")

    def parse_enclosed(self, opener: str, closer: str) -> tuple[int, Node, int]:
        """``[exp]`` or ``(exp)``: the opener's start, the expression and the
        closer's end."""
        start = self.expect(opener).start
        exp = self.parse_exp()
        return start, exp, self.expect(closer).end

    def parse_name_ref(self, what: str) -> Node:
        """``name`` or ``pkg.name``: the identifier, or a QualifiedId of both."""
        first = self.id_leaf(what)
        if not self.at("."):
            return first
        self.pos += 1
        member = self.id_leaf()
        return self.node("QualifiedId", first[START], member[END], (first, member))

    def parse_array_size(self, children: list[Node]):
        """Append an optional ``[size]`` of a port or instance to `children`."""
        if self.at("["):
            start, size, end = self.parse_enclosed("[", "]")
            children.append(self.node("ArraySize", start, end, (size,)))

    def parse_body_decl(self) -> Optional[Node]:
        """A const, type or assert item of a group, streamlet or
        implementation body; None before any other item."""
        t = self.tokens[self.pos]
        if t.type == "ID":
            if t.text == "const":
                return self.parse_const(",", "}")
            if t.text == "type":
                return self.parse_type_decl(",", "}")
            if t.text == "assert":
                start = self.next().start
                _, exp, end = self.parse_enclosed("(", ")")
                return self.node("AssertStmt", start, self.separator(",", "}", end), (exp,))
        return None

    # -- file --------------------------------------------------------------

    def parse_file(self) -> tuple[str, Node]:
        start_tok = self.expect_kw("package")
        name = self.expect("ID", "package name").text
        self.expect(";")
        stmts: list[Node] = []
        while not self.at("EOF"):
            stmts.append(self.parse_top_statement())
        end = stmts[-1][END] if stmts else self.tokens[self.pos].end
        return name, self.node("Package", start_tok.start, max(end, start_tok.start), stmts)

    def parse_top_statement(self) -> Node:
        t = self.accept("DOC")
        doc = self.node("DOC", t.start, t.end, leaf_text=t.text) if t else None
        if self.at_kw("import"):
            start = self.next().start
            name = self.id_leaf("package name")
            return self.node("ImportStmt", start, self.expect(";").end, (name,))
        if self.at_kw("const"):
            return self.parse_const(";", "EOF")
        if self.at_kw("type"):
            return self.parse_type_decl(";", "EOF")
        if self.at_kw("streamlet"):
            return self.parse_streamlet(doc)
        if self.at_kw("impl") or self.at_kw("external"):
            return self.parse_impl(doc)
        self.fail("a top-level declaration")

    # -- const / type ------------------------------------------------------

    def parse_const(self, sep: str, closer: str) -> Node:
        start = self.expect_kw("const").start
        children = [self.id_leaf()]
        if self.accept(":"):
            t = self.expect("ID", "a value kind")
            if t.text not in CONST_KINDS:
                self.fail("one of " + "/".join(CONST_KINDS), t)
            children.append(self.node("DeclKind", t.start, t.end, leaf_text=t.text))
        if self.accept("="):
            children.append(self.parse_exp())
        return self.node("ConstDecl", start,
                         self.separator(sep, closer, children[-1][END]), children)

    def parse_type_decl(self, sep: str, closer: str) -> Node:
        start = self.expect_kw("type").start
        if self.at_kw("Group") or self.at_kw("Union"):
            children = (self.parse_group_union(),)
        else:
            name = self.id_leaf("type name")
            self.expect("=")
            children = (name, self.parse_logical_type())
        return self.node("TypeDecl", start,
                         self.separator(sep, closer, children[-1][END]), children)

    # -- logical types -----------------------------------------------------

    def parse_logical_type(self) -> Node:
        self.deeper()
        inner = self.parse_logical_type_inner()
        self.depth -= 1
        return self.node("LogicalType", inner[START], inner[END], [inner])

    def parse_logical_type_inner(self) -> Node:
        t = self.tokens[self.pos]
        if t.type != "ID":
            self.fail("a logical type")
        if t.text == "Null":
            self.next()
            return self.node("LogicalNullType", t.start, t.end)
        if t.text == "Bit":
            self.next()
            _, width, end = self.parse_enclosed("(", ")")
            return self.node("LogicalBitType", t.start, end, [width])
        if t.text == "Stream":
            return self.parse_stream_type()
        if t.text in ("Group", "Union"):
            return self.parse_group_union()
        if t.text in ("streamlet", "impl"):
            return self.parse_member_extract("LogicalTypeExtract")
        ref = self.parse_name_ref("identifier")
        return self.node("LogicalUserDefinedType", ref[START], ref[END],
                         ref[CHILDREN] or (ref,))

    def parse_stream_type(self) -> Node:
        start = self.expect_kw("Stream").start
        self.expect("(")
        children = [self.parse_logical_type()]
        given = set()
        while self.at(","):
            comma = self.next()
            if self.at(")"):
                break
            key = self.expect("ID", "a stream property")
            if key.text not in STREAM_PROPERTY_KINDS:
                self.fail(f"a stream property ({'/'.join(STREAM_PROPERTY_KINDS)})", key)
            if key.text in given:
                raise TydiError("syntax",
                                f"stream property {key.text!r} is given twice",
                                self.path, key)
            given.add(key.text)
            self.expect("=")
            if key.text == "u":
                value = self.parse_logical_type()
            else:
                value = self.parse_exp()
            children.append(self.node(STREAM_PROPERTY_KINDS[key.text],
                                      comma.start, value[END], [value]))
        end = self.expect(")").end
        return self.node("LogicalStreamType", start, end, children)

    def parse_group_union(self) -> Node:
        t = self.next()  # Group | Union
        kind = "LogicalGroupType" if t.text == "Group" else "LogicalUnionType"
        children = [self.id_leaf("group/union name")]
        self.expect("{")
        self.deeper()
        while not self.at("}"):
            children.append(self.parse_body_decl() or self.parse_group_field())
        self.depth -= 1
        end = self.expect("}").end
        return self.node(kind, t.start, end, children)

    def parse_group_field(self) -> Node:
        name = self.id_leaf("field name")
        self.expect(":")
        ty = self.parse_logical_type()
        return self.node("SubItemItem", name[START],
                         self.separator(",", "}", ty[END]), (name, ty))

    # -- streamlet ---------------------------------------------------------

    def parse_streamlet(self, doc: Optional[Node]) -> Node:
        start_tok = self.expect_kw("streamlet")
        start = doc[START] if doc else start_tok.start
        children = [doc] if doc else []
        children.append(self.id_leaf("streamlet name"))
        if self.at("<"):
            children.append(self.parse_template_params())
        self.expect("{")
        while not self.at("}"):
            children.append(self.parse_body_decl() or self.parse_port())
        self.expect("}")
        end = self.expect(";").end
        return self.node("StreamletDecl", start, end, children)

    def parse_port(self) -> Node:
        name = self.id_leaf("port name")
        self.expect(":")
        children = [name, self.parse_logical_type()]
        self.parse_array_size(children)
        d = self.expect("ID", "port direction 'in' or 'out'")
        if d.text not in ("in", "out"):
            self.fail("port direction 'in' or 'out'", d)
        children.append(self.node("DIR", d.start, d.end, leaf_text=d.text))
        tick = self.accept("`")
        if tick:
            t = self.accept("STR")
            if t:
                body = self.node("STR", t.start, t.end, leaf_text=t.text)
            else:
                body = self.id_leaf("clockdomain name")
            children.append(self.node("ClockDomainAnn", tick.start, body[END], [body]))
        return self.node("PortDecl", name[START],
                         self.separator(",", "}", children[-1][END]), children)

    # -- implementation ----------------------------------------------------

    def parse_impl(self, doc: Optional[Node]) -> Node:
        children = [doc] if doc else []
        external = None
        first = self.tokens[self.pos]
        if self.at_kw("external"):
            t = self.next()
            external = self.node("External", t.start, t.end)
        self.expect_kw("impl")
        name = self.id_leaf("implementation name")
        start = doc[START] if doc else first.start
        if self.at("("):
            # impl name(template<args>); declares a concrete implementation
            if external is not None:
                self.fail("'of' (external implementations cannot be template instantiations)")
            self.next()
            target = self.parse_entity_ref()
            if target[KIND] != "TemplateInstance":
                self.fail("a template instantiation")
            self.expect(")")
            end = self.expect(";").end
            children += [name, target]
            return self.node("ImplInstDecl", start, end, children)
        if external is not None:
            children.append(external)
        children.append(name)
        if self.at("<"):
            children.append(self.parse_template_params())
        self.expect_kw("of")
        ref = self.parse_entity_ref()
        children.append(self.node("OfStreamlet", ref[START], ref[END], [ref]))
        self.expect("{")
        while not self.at("}"):
            children.append(self.parse_impl_item())
        self.expect("}")
        end = self.expect(";").end
        return self.node("ImplDecl", start, end, children)

    def parse_impl_item(self) -> Node:
        decl = self.parse_body_decl()
        if decl is not None:
            return decl
        if self.at_kw("instance"):
            return self.parse_instance()
        if self.at_kw("if"):
            return self.parse_if_block()
        if self.at_kw("for"):
            return self.parse_for_block()
        t = self.accept("PROCESS_BODY")
        if t:
            self.separator(",", "}", t.end)
            return self.node("ProcessBlock", t.start, t.end, leaf_text=t.text)
        return self.parse_connection()

    def parse_instance(self) -> Node:
        start = self.expect_kw("instance").start
        name = self.parse_name_node()
        self.expect("(")
        children = [name, self.parse_entity_ref()]
        self.expect(")")
        self.parse_array_size(children)
        return self.node("InstanceDecl", start,
                         self.separator(",", "}", children[-1][END]), children)

    def parse_entity_ref(self) -> Node:
        """A streamlet/implementation reference: id, pkg.id, optionally with
        template arguments ``<...>``."""
        base = self.parse_name_ref("a streamlet or implementation name")
        if self.at("<"):
            return self.parse_template_instance(base)
        return base

    def parse_template_instance(self, base: Node) -> Node:
        self.expect("<")
        args = [base, self.parse_template_arg()]
        while self.accept(","):
            args.append(self.parse_template_arg())
        end = self.expect(">").end
        return self.node("TemplateInstance", base[START], end, args)

    def parse_template_arg(self) -> Node:
        t = self.tokens[self.pos]
        if t.type == "ID" and t.text == "type":
            start = self.next().start
            ty = self.parse_logical_type()
            return self.node("TemplateArgType", start, ty[END], [ty])
        if t.type == "ID" and t.text == "impl":
            start = self.next().start
            ref = self.parse_name_ref("an implementation name")
            return self.node("TemplateArgImpl", start, ref[END], [ref])
        exp = self.parse_exp(no_compare=True)
        return self.node("TemplateArgExp", exp[START], exp[END], [exp])

    def parse_template_params(self) -> Node:
        start = self.expect("<").start
        params = [self.parse_template_param()]
        while self.accept(","):
            params.append(self.parse_template_param())
        end = self.expect(">").end
        return self.node("TemplateParams", start, end, params)

    def parse_template_param(self) -> Node:
        name = self.id_leaf("template parameter name")
        self.expect(":")
        t = self.tokens[self.pos]
        if t.type == "ID" and t.text == "impl":
            self.next()
            self.expect_kw("of")
            target = self.id_leaf("a streamlet name")
            kind = self.node("ImplOfKind", t.start, target[END], [target])
        elif t.type == "ID" and (t.text in CONST_KINDS or t.text == "type"):
            self.next()
            kind = self.node("KIND", t.start, t.end, leaf_text=t.text)
        else:
            self.fail("a template parameter kind", t)
        return self.node("TemplateParam", name[START], kind[END], [name, kind])

    # -- generative blocks -------------------------------------------------

    def parse_if_block(self) -> Node:
        start = self.expect_kw("if").start
        _, cond, _ = self.parse_enclosed("(", ")")
        children = [cond, self.parse_statement_block()]
        while self.at_kw("elif"):
            estart = self.next().start
            _, econd, _ = self.parse_enclosed("(", ")")
            ebody = self.parse_statement_block()
            children.append(self.node("ElifClause", estart, ebody[END], [econd, ebody]))
        if self.at_kw("else"):
            estart = self.next().start
            ebody = self.parse_statement_block()
            children.append(self.node("ElseClause", estart, ebody[END], [ebody]))
        return self.node("IfBlock", start, self.block_end(children[-1]), children)

    def parse_for_block(self) -> Node:
        start = self.expect_kw("for").start
        var = self.id_leaf("loop variable")
        self.expect_kw("in")
        self.expect("(")
        first = self.parse_exp()
        if self.accept("="):
            step = self.parse_exp()
            self.expect("=>")
            stop = self.parse_exp()
            iterable = self.node("RangeExp", first[START], stop[END], [first, step, stop])
        else:
            iterable = first
        self.expect(")")
        body = self.parse_statement_block()
        return self.node("ForBlock", start, self.block_end(body), [var, iterable, body])

    def block_end(self, last: Node) -> int:
        """Where an if/for block ends: after its optional comma."""
        comma = self.accept(",")
        return comma.end if comma else last[END]

    def parse_statement_block(self) -> Node:
        start = self.expect("{").start
        items = []
        self.deeper()
        while not self.at("}"):
            items.append(self.parse_impl_item())
        self.depth -= 1
        end = self.expect("}").end
        return self.node("StatementBlock", start, end, items)

    # -- connections -------------------------------------------------------

    def parse_connection(self) -> Node:
        src = self.parse_path_end()
        children = [src]
        eq = self.accept("=")
        if eq:
            depth = self.parse_exp()
            self.expect("=>")
            children.append(self.node("FifoDepth", eq.start, depth[END], [depth]))
        else:
            self.expect("=>", "'=>' or '=<depth>=>'")
        children.append(self.parse_path_end())
        t = self.accept("STR")
        if t:
            children.append(self.node("ConnName", t.start, t.end, leaf_text=t.text))
        t = self.accept("@NoStrictType@")
        if t:
            children.append(self.node("NoStrictMarker", t.start, t.end))
        return self.node("ConnectionStmt", src[START],
                         self.separator(",", "}", children[-1][END]), children)

    def parse_path_end(self) -> Node:
        parts, end = self.parse_path_part()
        start = parts[0][START]
        if self.tokens[self.pos].type != ".":
            return self.node("PathEnd", start, end, (self.node("PathPort", start, end, parts),))
        self.pos += 1
        owner = self.node("PathOwner", start, end, parts)
        parts, port_end = self.parse_path_part()
        port = self.node("PathPort", parts[0][START], port_end, parts)
        return self.node("PathEnd", start, port_end, (owner, port))

    def parse_path_part(self) -> tuple[tuple[Node, ...], int]:
        """``name`` or ``name[exp]`` of a connection end: the name and its
        Index, and where they end."""
        name = self.parse_name_node()
        if self.tokens[self.pos].type != "[":
            return (name,), name[END]
        _, idx, end = self.parse_enclosed("[", "]")
        return (name, self.node("Index", idx[START], end, (idx,))), end

    def parse_name_node(self) -> Node:
        """An identifier, possibly with interpolation holes: ``bypass_{{i}}``."""
        first = self.id_leaf()
        parts = [first]
        end = first[END]
        while self.at("{{") and self.tokens[self.pos].start == end:
            lb = self.next()
            var = self.id_leaf("interpolation variable")
            rb = self.expect("}}")
            parts.append(self.node("VarHole", lb.start, rb.end, [var]))
            end = rb.end
            if self.at("ID") and self.tokens[self.pos].start == end:
                frag = self.next()
                parts.append(self.node("ID", frag.start, frag.end, leaf_text=frag.text))
                end = frag.end
        if len(parts) == 1:
            return first
        return self.node("InterpolatedId", first[START], end, parts)

    # -- expressions ---------------------------------------------------------

    def parse_exp(self, no_compare: bool = False) -> Node:
        self.deeper()
        first = self.parse_term()
        children = [first]
        end = first[END]
        while True:
            t = self.tokens[self.pos]
            if t.type not in INFIX_OPS:
                break
            if no_compare and t.type in ("<", ">"):
                break
            self.next()
            children.append(self.node("InfixOp", t.start, t.end, leaf_text=t.text))
            term = self.parse_term()
            children.append(term)
            end = term[END]
        self.depth -= 1
        return self.node("Exp", first[START], end, children)

    def parse_term(self) -> Node:
        t = self.tokens[self.pos]
        if t.type in UNARY_OPS:
            self.next()
            op = self.node("UnaryOp", t.start, t.end, leaf_text=t.text)
            self.deeper()
            inner = self.parse_term()
            self.depth -= 1
            u = self.node("UnaryExp", t.start, inner[END], [op, inner])
            return self.node("Term", t.start, inner[END], [u])
        if t.type == "(":
            _, exp, end = self.parse_enclosed("(", ")")
            return self.node("Term", t.start, end, [exp])
        if t.type == "{":
            return self.parse_array_literal()
        atom = self.parse_atom()
        return self.node("Term", atom[START], atom[END], [atom])

    def parse_array_literal(self) -> Node:
        start = self.expect("{").start
        elems = []
        while not self.at("}"):
            elems.append(self.parse_exp())
            if not self.accept(","):
                break
        end = self.expect("}").end
        arr = self.node("ArrayExp", start, end, elems)
        return self.node("Term", start, end, [arr])

    def parse_atom(self) -> Node:
        t = self.tokens[self.pos]
        if t.type == "INT":
            self.next()
            leaf_kind = INT_KINDS.get(t.text[:2], "INT_RAW_NORAML")
            try:
                int(t.text, 0) if not t.text.isdigit() else int(t.text)
            except ValueError:
                self.fail("a valid integer literal", t)
            leaf = self.node(leaf_kind, t.start, t.end, leaf_text=t.text)
            return self.node("IntExp", t.start, t.end, [leaf])
        if t.type == "FLOAT":
            self.next()
            leaf = self.node("FLOAT_RAW", t.start, t.end, leaf_text=t.text)
            return self.node("FloatExp", t.start, t.end, [leaf])
        if t.type == "STR":
            self.next()
            leaf = self.node("STR", t.start, t.end, leaf_text=t.text)
            return self.node("StringExp", t.start, t.end, [leaf])
        if t.type != "ID":
            self.fail("an expression")
        if t.text in ("true", "false"):
            self.next()
            leaf = self.node("BOOL_RAW", t.start, t.end, leaf_text=t.text)
            return self.node("BoolExp", t.start, t.end, [leaf])
        if t.text in ("streamlet", "impl", "type"):
            return self.parse_member_extract("MemberExtractExp")
        if self.tokens[self.pos + 1].type == "(" and (
                t.text in BUILTIN_FUNCS or t.text == "log" or _log_with_base(t.text)):
            return self.parse_function_call()
        if t.text == "log" and self.tokens[self.pos + 1].type in ("INT", "FLOAT", "ID"):
            return self.parse_function_call()
        self.next()
        ids = [self.node("ID", t.start, t.end, leaf_text=t.text)]
        end = t.end
        # unlike parse_name_ref, `a.` before anything but a name ends at `a`
        if self.at(".") and self.tokens[self.pos + 1].type == "ID":
            self.next()
            member = self.id_leaf()
            ids.append(member)
            end = member[END]
        if self.at("["):
            _, idx, end = self.parse_enclosed("[", "]")
            return self.node("IndexExp", t.start, end, ids + [idx])
        return self.node("VarExp", t.start, end, ids)

    def parse_function_call(self) -> Node:
        t = self.next()
        if t.text in BUILTIN_FUNCS:
            children = [self.node("FUNC", t.start, t.end, leaf_text=t.text)]
        else:
            # log<base>(arg): base either fused into the identifier (log2) or
            # a following atom (log 2 (x) / log a(b))
            fused = _log_with_base(t.text)
            if fused is None:
                self.deeper()
                base = self.parse_atom()
                self.depth -= 1
            else:
                leaf = self.node("INT_RAW_NORAML", t.start + 3, t.end, leaf_text=fused)
                base = self.node("IntExp", t.start + 3, t.end, [leaf])
            s, e = base[START], base[END]
            children = [self.node("FUNC", t.start, t.start + 3, leaf_text="log"),
                        self.node("Exp", s, e, [self.node("Term", s, e, [base])])]
        _, arg, end = self.parse_enclosed("(", ")")
        children.append(arg)
        return self.node("FunctionExp", t.start, end, children)

    def parse_member_extract(self, kind: str) -> Node:
        """``streamlet|impl|type <owner>[<args>].<member>`` where owner may be
        package-qualified. The final ``.id`` is always the member."""
        t = self.next()  # streamlet | impl | type
        owner = self.id_leaf("an owner name")
        member = None
        if not self.at("<"):
            self.expect(".")
            member = self.id_leaf("member name")
            if self.at("<") or self.at(".") and self.tokens[self.pos + 1].type == "ID":
                # what was read is a package-qualified owner
                owner = self.node("QualifiedId", owner[START], member[END],
                                  [owner, member])
                member = None
        if self.at("<"):
            owner = self.parse_template_instance(owner)
        if member is None:
            self.expect(".")
            member = self.id_leaf("member name")
        ex = self.node("EXTRACT", t.start, t.end, leaf_text=t.text)
        return self.node(kind, t.start, member[END], [ex, owner, member])


def _log_with_base(text: str) -> Optional[str]:
    if text.startswith("log") and len(text) > 3 and text[3:].isdigit():
        return text[3:]
    return None


# -- public API ------------------------------------------------------------


def parse_file(text: str, path: str = "<memory>") -> ParsedFile:
    """Parse one source file; raises a syntax TydiError on the first error."""
    p = _Parser(text, path)
    return ParsedFile(path, text, *p.parse_file())


def parse_fragment(text: str, rule: str = "logical_type") -> Node:
    """Parse an isolated grammar fragment (used by tests and tools)."""
    p = _Parser(text, "<fragment>")
    if rule == "logical_type":
        n = p.parse_logical_type_inner()
    elif rule == "exp":
        n = p.parse_exp()
    else:
        raise ValueError(f"unknown fragment rule {rule!r}")
    if not p.at("EOF"):
        p.fail("end of input")
    return n


def parse_project(paths_and_texts: list[tuple[str, str]],
                  ) -> tuple[dict[str, ParsedFile], list[Diagnostic]]:
    """Parse every file in path order; key results by package name.

    All syntax diagnostics are aggregated so one bad file does not hide
    errors in the others. Two files declaring the same package is an error.
    """
    diagnostics: list[Diagnostic] = []
    by_package: dict[str, ParsedFile] = {}
    seen_path: dict[str, str] = {}
    for path, text in sorted(paths_and_texts, key=lambda item: item[0]):
        try:
            parsed = parse_file(text, path)
        except TydiError as e:
            diagnostics.append(e.diagnostic)
            continue
        name = parsed.package_name
        if name in by_package:
            diagnostics.append(Diagnostic(
                "syntax",
                f"duplicate package {name!r} declared in {seen_path[name]} and {path}",
                path))
            continue
        by_package[name] = parsed
        seen_path[name] = path
    return by_package, diagnostics
