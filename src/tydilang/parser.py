"""Recursive-descent parser for `.td` source files.

Produces a lossless, position-annotated tree of :class:`AstNode`. Expressions
are kept flat (``Exp`` holds ``Term (InfixOp Term)*``); operator precedence is
applied by the math engine, and unary operators live inside ``Term`` so they
always bind tighter than any binary operator. Each parsed file is one
`ParsedFile` record: its path, text, package name and tree.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .errors import Diagnostic, SyntaxDiagnosticError
from .lexer import Token, tokenize
from .tree import AstNode, node

CONST_KINDS = ("int", "str", "float", "bool", "clockdomain")
STREAM_PROPERTY_KINDS = {
    "d": "StreamPropertyDimension",
    "u": "StreamPropertyUser",
    "t": "StreamPropertyThroughput",
    "s": "StreamPropertySynchronicity",
    "c": "StreamPropertyComplexity",
    "r": "StreamPropertyDirection",
    "x": "StreamPropertyKeep",
}
INFIX_OPS = {
    "^", "*", "/", "%", "+", "-", "<<", ">>",
    "<", ">", "<=", ">=", "==", "!=", "&", "|", "&&", "||",
}
UNARY_OPS = {"-", "!", "~"}
BUILTIN_FUNCS = {"round", "floor", "ceil"}


class ParsedFile(NamedTuple):
    path: str
    text: str
    package_name: str
    ast: AstNode


class _Parser:
    def __init__(self, text: str, path: Optional[str] = None):
        self.path = path
        self.tokens = tokenize(text, path)
        # `next` stops at the first EOF, so the second keeps `peek(1)` in range
        self.tokens.append(self.tokens[-1])
        self.pos = 0

    # -- token helpers -----------------------------------------------------

    def peek(self, offset: int = 0) -> Token:
        return self.tokens[self.pos + offset]

    def next(self) -> Token:
        t = self.peek()
        if t.type != "EOF":
            self.pos += 1
        return t

    def at(self, type_: str, text: Optional[str] = None) -> bool:
        t = self.peek()
        return t.type == type_ and (text is None or t.text == text)

    def at_kw(self, word: str) -> bool:
        return self.at("ID", word)

    def expect(self, type_: str, what: Optional[str] = None) -> Token:
        t = self.peek()
        if t.type != type_:
            self.fail(what or f"'{type_}'", t)
        return self.next()

    def expect_kw(self, word: str) -> Token:
        t = self.peek()
        if not (t.type == "ID" and t.text == word):
            self.fail(f"keyword '{word}'", t)
        return self.next()

    def fail(self, expected: str, t: Optional[Token] = None):
        t = t or self.peek()
        if t.type == "EOF":
            found = "end of file"
        elif len(t.text) > 40:
            found = t.text[:37] + "..."
        else:
            found = t.text
        raise SyntaxDiagnosticError(
            f"expected {expected}, found {found!r}", self.path, t.span)

    def id_leaf(self, what: str = "identifier") -> AstNode:
        t = self.expect("ID", what)
        return node("ID", t.span.start, t.span.end, leaf_text=t.text)

    def separator(self, sep: str, closer: str):
        """Consume a statement separator; it may be omitted before `closer`."""
        if self.at(sep):
            return self.next()
        if self.at(closer) or self.at("EOF"):
            return None
        self.fail(f"'{sep}'")

    # -- file --------------------------------------------------------------

    def parse_file(self) -> tuple[str, AstNode]:
        start_tok = self.peek()
        self.expect_kw("package")
        name = self.expect("ID", "package name").text
        self.expect(";")
        stmts: list[AstNode] = []
        while not self.at("EOF"):
            stmts.append(self.parse_top_statement())
        end = stmts[-1].span.end if stmts else self.peek().span.end
        return name, node("Package", start_tok.span.start, max(end, start_tok.span.start), stmts)

    def parse_top_statement(self) -> AstNode:
        doc = None
        if self.at("DOC"):
            t = self.next()
            doc = node("DOC", t.span.start, t.span.end, leaf_text=t.text)
        if self.at_kw("import"):
            return self.parse_import()
        if self.at_kw("const"):
            return self.parse_const(";", "EOF")
        if self.at_kw("type"):
            return self.parse_type_decl(";", "EOF")
        if self.at_kw("streamlet"):
            return self.parse_streamlet(doc)
        if self.at_kw("impl") or self.at_kw("external"):
            return self.parse_impl(doc)
        self.fail("a top-level declaration")

    def parse_import(self) -> AstNode:
        start = self.expect_kw("import").span.start
        name = self.id_leaf("package name")
        end = self.expect(";").span.end
        return node("ImportStmt", start, end, [name])

    # -- const / type ------------------------------------------------------

    def parse_const(self, sep: str, closer: str) -> AstNode:
        start = self.expect_kw("const").span.start
        name = self.id_leaf()
        children = [name]
        if self.at(":"):
            self.next()
            t = self.expect("ID", "a value kind")
            if t.text not in CONST_KINDS:
                self.fail("one of " + "/".join(CONST_KINDS), t)
            children.append(node("DeclKind", t.span.start, t.span.end, leaf_text=t.text))
        if self.at("="):
            self.next()
            children.append(self.parse_exp())
        end_tok = self.separator(sep, closer)
        end = end_tok.span.end if end_tok else children[-1].span.end
        return node("ConstDecl", start, end, children)

    def parse_type_decl(self, sep: str, closer: str) -> AstNode:
        start = self.expect_kw("type").span.start
        if self.at_kw("Group") or self.at_kw("Union"):
            body = self.parse_group_union()
            end_tok = self.separator(sep, closer)
            end = end_tok.span.end if end_tok else body.span.end
            return node("TypeDecl", start, end, [body])
        name = self.id_leaf("type name")
        self.expect("=")
        ty = self.parse_logical_type()
        end_tok = self.separator(sep, closer)
        end = end_tok.span.end if end_tok else ty.span.end
        return node("TypeDecl", start, end, [name, ty])

    # -- logical types -----------------------------------------------------

    def parse_logical_type(self) -> AstNode:
        inner = self.parse_logical_type_inner()
        return node("LogicalType", inner.span.start, inner.span.end, [inner])

    def parse_logical_type_inner(self) -> AstNode:
        t = self.peek()
        if t.type == "ID" and t.text == "Null":
            self.next()
            return node("LogicalNullType", t.span.start, t.span.end)
        if t.type == "ID" and t.text == "Bit":
            start = self.next().span.start
            self.expect("(")
            width = self.parse_exp()
            end = self.expect(")").span.end
            return node("LogicalBitType", start, end, [width])
        if t.type == "ID" and t.text == "Stream":
            return self.parse_stream_type()
        if t.type == "ID" and t.text in ("Group", "Union"):
            return self.parse_group_union()
        if t.type == "ID" and t.text in ("streamlet", "impl"):
            return self.parse_member_extract("LogicalTypeExtract")
        if t.type == "ID":
            start = self.next()
            ids = [node("ID", start.span.start, start.span.end, leaf_text=start.text)]
            end = start.span.end
            if self.at(".") :
                self.next()
                member = self.id_leaf()
                ids.append(member)
                end = member.span.end
            return node("LogicalUserDefinedType", start.span.start, end, ids)
        self.fail("a logical type")

    def parse_stream_type(self) -> AstNode:
        start = self.expect_kw("Stream").span.start
        self.expect("(")
        children = [self.parse_logical_type()]
        while self.at(","):
            comma = self.next()
            if self.at(")"):
                break
            key = self.expect("ID", "a stream property")
            if key.text not in STREAM_PROPERTY_KINDS:
                self.fail("a stream property (d/u/t/s/c/r/x)", key)
            self.expect("=")
            if key.text == "u":
                value = self.parse_logical_type()
            else:
                value = self.parse_exp()
            children.append(node(STREAM_PROPERTY_KINDS[key.text],
                                 comma.span.start, value.span.end, [value]))
        end = self.expect(")").span.end
        return node("LogicalStreamType", start, end, children)

    def parse_group_union(self) -> AstNode:
        t = self.next()  # Group | Union
        kind = "LogicalGroupType" if t.text == "Group" else "LogicalUnionType"
        children = [self.id_leaf("group/union name")]
        self.expect("{")
        while not self.at("}"):
            children.append(self.parse_group_item())
        end = self.expect("}").span.end
        return node(kind, t.span.start, end, children)

    def parse_group_item(self) -> AstNode:
        if self.at_kw("const"):
            return self.parse_const(",", "}")
        if self.at_kw("type"):
            return self.parse_type_decl(",", "}")
        if self.at_kw("assert"):
            return self.parse_assert(",", "}")
        name = self.id_leaf("field name")
        self.expect(":")
        ty = self.parse_logical_type()
        end_tok = self.separator(",", "}")
        end = end_tok.span.end if end_tok else ty.span.end
        return node("SubItemItem", name.span.start, end, [name, ty])

    # -- streamlet ---------------------------------------------------------

    def parse_streamlet(self, doc: Optional[AstNode]) -> AstNode:
        start_tok = self.expect_kw("streamlet")
        start = doc.span.start if doc else start_tok.span.start
        children = [doc] if doc else []
        children.append(self.id_leaf("streamlet name"))
        if self.at("<"):
            children.append(self.parse_template_params())
        self.expect("{")
        while not self.at("}"):
            children.append(self.parse_streamlet_item())
        self.expect("}")
        end = self.expect(";").span.end
        return node("StreamletDecl", start, end, children)

    def parse_streamlet_item(self) -> AstNode:
        if self.at_kw("const"):
            return self.parse_const(",", "}")
        if self.at_kw("type"):
            return self.parse_type_decl(",", "}")
        if self.at_kw("assert"):
            return self.parse_assert(",", "}")
        name = self.id_leaf("port name")
        self.expect(":")
        children = [name, self.parse_logical_type()]
        if self.at("["):
            lb = self.next()
            size = self.parse_exp()
            rb = self.expect("]")
            children.append(node("ArraySize", lb.span.start, rb.span.end, [size]))
        d = self.expect("ID", "port direction 'in' or 'out'")
        if d.text not in ("in", "out"):
            self.fail("port direction 'in' or 'out'", d)
        children.append(node("DIR", d.span.start, d.span.end, leaf_text=d.text))
        if self.at("`"):
            children.append(self.parse_clockdomain_ann())
        end_tok = self.separator(",", "}")
        end = end_tok.span.end if end_tok else children[-1].span.end
        return node("PortDecl", name.span.start, end, children)

    def parse_clockdomain_ann(self) -> AstNode:
        tick = self.expect("`")
        if self.at("STR"):
            t = self.next()
            body = node("STR", t.span.start, t.span.end, leaf_text=t.text)
        else:
            body = self.id_leaf("clockdomain name")
        return node("ClockDomainAnn", tick.span.start, body.span.end, [body])

    # -- implementation ----------------------------------------------------

    def parse_impl(self, doc: Optional[AstNode]) -> AstNode:
        children = [doc] if doc else []
        external = None
        first = self.peek()
        if self.at_kw("external"):
            t = self.next()
            external = node("External", t.span.start, t.span.end)
        self.expect_kw("impl")
        name = self.id_leaf("implementation name")
        start = doc.span.start if doc else first.span.start
        if self.at("("):
            # impl name(template<args>); declares a concrete implementation
            if external is not None:
                self.fail("'of' (external implementations cannot be template instantiations)")
            self.next()
            target = self.parse_entity_ref()
            if target.kind != "TemplateInstance":
                self.fail("a template instantiation")
            self.expect(")")
            end = self.expect(";").span.end
            children += [name, target]
            return node("ImplInstDecl", start, end, children)
        if external is not None:
            children.append(external)
        children.append(name)
        if self.at("<"):
            children.append(self.parse_template_params())
        self.expect_kw("of")
        ref = self.parse_entity_ref()
        children.append(node("OfStreamlet", ref.span.start, ref.span.end, [ref]))
        self.expect("{")
        while not self.at("}"):
            children.append(self.parse_impl_item())
        self.expect("}")
        end = self.expect(";").span.end
        return node("ImplDecl", start, end, children)

    def parse_impl_item(self) -> AstNode:
        if self.at_kw("const"):
            return self.parse_const(",", "}")
        if self.at_kw("type"):
            return self.parse_type_decl(",", "}")
        if self.at_kw("assert"):
            return self.parse_assert(",", "}")
        if self.at_kw("instance"):
            return self.parse_instance()
        if self.at_kw("if"):
            return self.parse_if_block()
        if self.at_kw("for"):
            return self.parse_for_block()
        if self.at("PROCESS_BODY"):
            t = self.next()
            self.separator(",", "}")
            return node("ProcessBlock", t.span.start, t.span.end, leaf_text=t.text)
        return self.parse_connection()

    def parse_instance(self) -> AstNode:
        start = self.expect_kw("instance").span.start
        name = self.parse_name_node()
        self.expect("(")
        target = self.parse_entity_ref()
        self.expect(")")
        children = [name, target]
        if self.at("["):
            lb = self.next()
            size = self.parse_exp()
            rb = self.expect("]")
            children.append(node("ArraySize", lb.span.start, rb.span.end, [size]))
        end_tok = self.separator(",", "}")
        end = end_tok.span.end if end_tok else children[-1].span.end
        return node("InstanceDecl", start, end, children)

    def parse_entity_ref(self) -> AstNode:
        """A streamlet/implementation reference: id, pkg.id, optionally with
        template arguments ``<...>``."""
        first = self.id_leaf("a streamlet or implementation name")
        base = first
        if self.at("."):
            self.next()
            member = self.id_leaf()
            base = node("QualifiedId", first.span.start, member.span.end, [first, member])
        if self.at("<"):
            return self.parse_template_instance(base)
        return base

    def parse_template_instance(self, base: AstNode) -> AstNode:
        self.expect("<")
        args = [base]
        while True:
            args.append(self.parse_template_arg())
            if self.at(","):
                self.next()
                continue
            break
        end = self.expect(">").span.end
        return node("TemplateInstance", base.span.start, end, args)

    def parse_template_arg(self) -> AstNode:
        t = self.peek()
        if t.type == "ID" and t.text == "type":
            start = self.next().span.start
            ty = self.parse_logical_type()
            return node("TemplateArgType", start, ty.span.end, [ty])
        if t.type == "ID" and t.text == "impl":
            start = self.next().span.start
            ref = self.id_leaf("an implementation name")
            end = ref.span.end
            ids = [ref]
            if self.at("."):
                self.next()
                member = self.id_leaf()
                ids = [node("QualifiedId", ref.span.start, member.span.end, [ref, member])]
                end = member.span.end
            return node("TemplateArgImpl", start, end, ids)
        exp = self.parse_exp(no_compare=True)
        return node("TemplateArgExp", exp.span.start, exp.span.end, [exp])

    def parse_template_params(self) -> AstNode:
        start = self.expect("<").span.start
        params = []
        while True:
            name = self.id_leaf("template parameter name")
            self.expect(":")
            t = self.peek()
            if t.type == "ID" and t.text == "impl":
                self.next()
                self.expect_kw("of")
                target = self.id_leaf("a streamlet name")
                kind = node("ImplOfKind", t.span.start, target.span.end, [target])
            elif t.type == "ID" and (t.text in CONST_KINDS or t.text == "type"):
                self.next()
                kind = node("KIND", t.span.start, t.span.end, leaf_text=t.text)
            else:
                self.fail("a template parameter kind", t)
            params.append(node("TemplateParam", name.span.start, kind.span.end, [name, kind]))
            if self.at(","):
                self.next()
                continue
            break
        end = self.expect(">").span.end
        return node("TemplateParams", start, end, params)

    # -- generative blocks -------------------------------------------------

    def parse_if_block(self) -> AstNode:
        start = self.expect_kw("if").span.start
        self.expect("(")
        cond = self.parse_exp()
        self.expect(")")
        body = self.parse_statement_block()
        children = [cond, body]
        end = body.span.end
        while self.at_kw("elif"):
            estart = self.next().span.start
            self.expect("(")
            econd = self.parse_exp()
            self.expect(")")
            ebody = self.parse_statement_block()
            children.append(node("ElifClause", estart, ebody.span.end, [econd, ebody]))
            end = ebody.span.end
        if self.at_kw("else"):
            estart = self.next().span.start
            ebody = self.parse_statement_block()
            children.append(node("ElseClause", estart, ebody.span.end, [ebody]))
            end = ebody.span.end
        if self.at(","):
            end = self.next().span.end
        return node("IfBlock", start, end, children)

    def parse_for_block(self) -> AstNode:
        start = self.expect_kw("for").span.start
        var = self.id_leaf("loop variable")
        self.expect_kw("in")
        self.expect("(")
        first = self.parse_exp()
        if self.at("="):
            self.next()
            step = self.parse_exp()
            self.expect("=>")
            stop = self.parse_exp()
            iterable = node("RangeExp", first.span.start, stop.span.end, [first, step, stop])
        else:
            iterable = first
        self.expect(")")
        body = self.parse_statement_block()
        end = body.span.end
        if self.at(","):
            end = self.next().span.end
        return node("ForBlock", start, end, [var, iterable, body])

    def parse_statement_block(self) -> AstNode:
        start = self.expect("{").span.start
        items = []
        while not self.at("}"):
            items.append(self.parse_impl_item())
        end = self.expect("}").span.end
        return node("StatementBlock", start, end, items)

    # -- connections -------------------------------------------------------

    def parse_connection(self) -> AstNode:
        src = self.parse_path_end()
        children = [src]
        if self.at("="):
            eq = self.next()
            depth = self.parse_exp()
            self.expect("=>")
            children.append(node("FifoDepth", eq.span.start, depth.span.end, [depth]))
        else:
            self.expect("=>", "'=>' or '=<depth>=>'")
        children.append(self.parse_path_end())
        if self.at("STR"):
            t = self.next()
            children.append(node("ConnName", t.span.start, t.span.end, leaf_text=t.text))
        if self.at("@NoStrictType@"):
            t = self.next()
            children.append(node("NoStrictMarker", t.span.start, t.span.end))
        end_tok = self.separator(",", "}")
        end = end_tok.span.end if end_tok else children[-1].span.end
        return node("ConnectionStmt", src.span.start, end, children)

    def parse_path_end(self) -> AstNode:
        first = self.parse_name_node()
        children = [first]
        end = first.span.end
        if self.at("["):
            self.next()
            idx = self.parse_exp()
            rb = self.expect("]")
            children.append(node("Index", idx.span.start, rb.span.end, [idx]))
            end = rb.span.end
        if self.at("."):
            self.next()
            owner = node("PathOwner", first.span.start, end, children)
            port = self.parse_name_node()
            pchildren = [port]
            pend = port.span.end
            if self.at("["):
                self.next()
                idx = self.parse_exp()
                rb = self.expect("]")
                pchildren.append(node("Index", idx.span.start, rb.span.end, [idx]))
                pend = rb.span.end
            pnode = node("PathPort", port.span.start, pend, pchildren)
            return node("PathEnd", first.span.start, pend, [owner, pnode])
        pnode = node("PathPort", first.span.start, end, children)
        return node("PathEnd", first.span.start, end, [pnode])

    def parse_name_node(self) -> AstNode:
        """An identifier, possibly with interpolation holes: ``bypass_{{i}}``."""
        first = self.id_leaf()
        parts = [first]
        end = first.span.end
        while self.at("{{") and self.peek().span.start == end:
            lb = self.next()
            var = self.id_leaf("interpolation variable")
            rb = self.expect("}}")
            parts.append(node("VarHole", lb.span.start, rb.span.end, [var]))
            end = rb.span.end
            if self.at("ID") and self.peek().span.start == end:
                frag = self.next()
                parts.append(node("ID", frag.span.start, frag.span.end, leaf_text=frag.text))
                end = frag.span.end
        if len(parts) == 1:
            return first
        return node("InterpolatedId", first.span.start, end, parts)

    def parse_assert(self, sep: str, closer: str) -> AstNode:
        start = self.expect_kw("assert").span.start
        self.expect("(")
        exp = self.parse_exp()
        rp = self.expect(")")
        end_tok = self.separator(sep, closer)
        end = end_tok.span.end if end_tok else rp.span.end
        return node("AssertStmt", start, end, [exp])

    # -- expressions ---------------------------------------------------------

    def parse_exp(self, no_compare: bool = False) -> AstNode:
        first = self.parse_term()
        children = [first]
        end = first.span.end
        while True:
            t = self.peek()
            if t.type not in INFIX_OPS:
                break
            if no_compare and t.type in ("<", ">"):
                break
            self.next()
            children.append(node("InfixOp", t.span.start, t.span.end, leaf_text=t.text))
            term = self.parse_term()
            children.append(term)
            end = term.span.end
        return node("Exp", first.span.start, end, children)

    def parse_term(self) -> AstNode:
        t = self.peek()
        if t.type in UNARY_OPS:
            self.next()
            op = node("UnaryOp", t.span.start, t.span.end, leaf_text=t.text)
            inner = self.parse_term()
            u = node("UnaryExp", t.span.start, inner.span.end, [op, inner])
            return node("Term", t.span.start, inner.span.end, [u])
        if t.type == "(":
            self.next()
            exp = self.parse_exp()
            rp = self.expect(")")
            return node("Term", t.span.start, rp.span.end, [exp])
        if t.type == "{":
            return self.parse_array_literal()
        atom = self.parse_atom()
        return node("Term", atom.span.start, atom.span.end, [atom])

    def parse_array_literal(self) -> AstNode:
        start = self.expect("{").span.start
        elems = []
        while not self.at("}"):
            elems.append(self.parse_exp())
            if self.at(","):
                self.next()
                continue
            break
        end = self.expect("}").span.end
        arr = node("ArrayExp", start, end, elems)
        return node("Term", start, end, [arr])

    def parse_atom(self) -> AstNode:
        t = self.peek()
        if t.type == "INT":
            self.next()
            if t.text.startswith("0b"):
                leaf_kind = "INT_RAW_BIN"
            elif t.text.startswith("0x"):
                leaf_kind = "INT_RAW_HEX"
            elif t.text.startswith("0o"):
                leaf_kind = "INT_RAW_OCT"
            else:
                leaf_kind = "INT_RAW_NORAML"
            try:
                int(t.text, 0) if not t.text.isdigit() else int(t.text)
            except ValueError:
                self.fail("a valid integer literal", t)
            leaf = node(leaf_kind, t.span.start, t.span.end, leaf_text=t.text)
            return node("IntExp", t.span.start, t.span.end, [leaf])
        if t.type == "FLOAT":
            self.next()
            leaf = node("FLOAT_RAW", t.span.start, t.span.end, leaf_text=t.text)
            return node("FloatExp", t.span.start, t.span.end, [leaf])
        if t.type == "STR":
            self.next()
            leaf = node("STR", t.span.start, t.span.end, leaf_text=t.text)
            return node("StringExp", t.span.start, t.span.end, [leaf])
        if t.type == "ID" and t.text in ("true", "false"):
            self.next()
            leaf = node("BOOL_RAW", t.span.start, t.span.end, leaf_text=t.text)
            return node("BoolExp", t.span.start, t.span.end, [leaf])
        if t.type == "ID" and t.text in ("streamlet", "impl", "type"):
            return self.parse_member_extract("MemberExtractExp")
        if t.type == "ID" and self.peek(1).type == "(" and (
                t.text in BUILTIN_FUNCS or t.text == "log" or _log_with_base(t.text)):
            return self.parse_function_call()
        if t.type == "ID" and t.text == "log" and self.peek(1).type in ("INT", "FLOAT", "ID"):
            return self.parse_function_call()
        if t.type == "ID":
            self.next()
            ids = [node("ID", t.span.start, t.span.end, leaf_text=t.text)]
            end = t.span.end
            if self.at(".") and self.peek(1).type == "ID":
                self.next()
                member = self.id_leaf()
                ids.append(member)
                end = member.span.end
            if self.at("["):
                self.next()
                idx = self.parse_exp()
                rb = self.expect("]")
                return node("IndexExp", t.span.start, rb.span.end, ids + [idx])
            return node("VarExp", t.span.start, end, ids)
        self.fail("an expression")

    def parse_function_call(self) -> AstNode:
        t = self.next()
        start = t.span.start
        if t.text in BUILTIN_FUNCS:
            self.expect("(")
            arg = self.parse_exp()
            end = self.expect(")").span.end
            f = node("FUNC", t.span.start, t.span.end, leaf_text=t.text)
            return node("FunctionExp", start, end, [f, arg])
        # log<base>(arg): base either fused into the identifier (log2) or a
        # following atom (log 2 (x) / log a(b))
        f = node("FUNC", t.span.start, t.span.start + 3, leaf_text="log")
        fused = _log_with_base(t.text)
        if fused is not None:
            leaf = node("INT_RAW_NORAML", t.span.start + 3, t.span.end, leaf_text=fused)
            base_atom = node("IntExp", t.span.start + 3, t.span.end, [leaf])
            base = node("Exp", base_atom.span.start, base_atom.span.end,
                        [node("Term", base_atom.span.start, base_atom.span.end, [base_atom])])
        else:
            atom = self.parse_atom()
            base = node("Exp", atom.span.start, atom.span.end,
                        [node("Term", atom.span.start, atom.span.end, [atom])])
        self.expect("(")
        arg = self.parse_exp()
        end = self.expect(")").span.end
        return node("FunctionExp", start, end, [f, base, arg])

    def parse_member_extract(self, kind: str) -> AstNode:
        """``streamlet|impl|type <owner>[<args>].<member>`` where owner may be
        package-qualified. The final ``.id`` is always the member."""
        t = self.next()  # streamlet | impl | type
        ex = node("EXTRACT", t.span.start, t.span.end, leaf_text=t.text)
        first = self.id_leaf("an owner name")
        owner = first
        if self.at("<"):
            owner = self.parse_template_instance(first)
            self.expect(".")
            member = self.id_leaf("member name")
            return node(kind, t.span.start, member.span.end, [ex, owner, member])
        self.expect(".")
        second = self.id_leaf("member name")
        if self.at("<"):
            qual = node("QualifiedId", first.span.start, second.span.end, [first, second])
            owner = self.parse_template_instance(qual)
            self.expect(".")
            member = self.id_leaf("member name")
            return node(kind, t.span.start, member.span.end, [ex, owner, member])
        if self.at(".") and self.peek(1).type == "ID":
            self.next()
            member = self.id_leaf("member name")
            owner = node("QualifiedId", first.span.start, second.span.end, [first, second])
            return node(kind, t.span.start, member.span.end, [ex, owner, member])
        return node(kind, t.span.start, second.span.end, [ex, owner, second])


def _log_with_base(text: str) -> Optional[str]:
    if text.startswith("log") and len(text) > 3 and text[3:].isdigit():
        return text[3:]
    return None


# -- public API ------------------------------------------------------------


def parse_file(text: str, path: str = "<memory>") -> ParsedFile:
    """Parse one source file; raises SyntaxDiagnosticError on the first error."""
    p = _Parser(text, path)
    package_name, ast = p.parse_file()
    return ParsedFile(path, text, package_name, ast)


def parse_fragment(text: str, rule: str = "logical_type") -> AstNode:
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
        except SyntaxDiagnosticError as e:
            diagnostics.append(e.diagnostic)
            continue
        except RecursionError:
            # the parser recurses once per nesting level
            diagnostics.append(Diagnostic("syntax", "nesting too deep while parsing", path))
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
