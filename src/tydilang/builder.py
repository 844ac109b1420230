"""Transform parsed files into the code structure (scope graph).

Classifies AST statements into scope entries and adds the invisible language
elements: scope relationships and the magic ``$package$``/``$arg$`` variables.
Nothing is evaluated here; every entry starts in the NotInferred state and
holds the AST nodes it was built from, whose source text its package's
`Package.snip` gives back. Each build function builds into a scope, and
every scope it makes belongs to that scope's package. `build_item` builds
every item of every body: of a package, a group or union, a streamlet or an
implementation, whether the body declares it or a for/if block generates
it; `substitute` spells the instance names with ``{{var}}`` holes there.
"""

from __future__ import annotations

import re
from typing import Optional

from .errors import TydiError
from .model import (Connection, EndRef, Implementation, Instance, Package,
                    Port, Project, Scope, ScopeRelationKind, Streamlet,
                    TemplateParam, TypeEntry, Variable, declare)
from .parser import ParsedFile
from .tree import CHILDREN, END, KIND, START, TEXT, Node, child, children_of
from .values import IntValue, StrValue, Value, variant_name

_IDENT_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")


def substitute(name_node: Node, scope: Scope) -> str:
    """The identifier an interpolated name spells in `scope`: each
    ``{{var}}`` hole is filled from the loop variables bound in `scope` and
    the `for` element scopes around it; outside a `for` a hole is an error."""
    parts = []
    for part in name_node[CHILDREN]:
        if part[KIND] == "ID":
            parts.append(part[TEXT])
            continue
        value = _loop_value(scope, part[CHILDREN][0][TEXT])
        if value is None:
            raise TydiError(
                "resolution",
                "interpolated identifier is only usable inside a for scope",
                scope.package.path, name_node)
        if not isinstance(value, (IntValue, StrValue)):
            raise TydiError(
                "type", f"loop variable of type {variant_name(value)} cannot be "
                "interpolated into an identifier", scope.package.path, part)
        parts.append(str(value.value))
    merged = "".join(parts)
    if not _IDENT_RE.match(merged) or "__" in merged:
        raise TydiError(
            "resolution",
            f"interpolated identifier {merged!r} is not a valid identifier",
            scope.package.path, name_node)
    return merged


def _body(decl: Node) -> list[Node]:
    """The body items of a streamlet or implementation declaration."""
    return [c for c in decl[CHILDREN]
            if c[KIND] not in ("DOC", "ID", "External", "TemplateParams", "OfStreamlet")]


def _loop_value(scope: Scope, var: str) -> Optional[Value]:
    """The element `var` is bound to by the innermost `for` around `scope`."""
    while scope.category == "iffor":
        binding = scope.variables.get(var)
        if binding is not None:
            return binding.value
        scope = scope.relation[1]
    return None


# -- logical types ---------------------------------------------------------------


def build_type_entry(stmt: Node, scope: Scope) -> TypeEntry:
    first = stmt[CHILDREN][0]
    if first[KIND] in ("LogicalGroupType", "LogicalUnionType"):
        # type Group Date { ... };  registers the group's own name
        return build_group_entry(first, first[CHILDREN][0][TEXT], scope,
                                 attached=True)
    # type alias = Group g { ... };  the group scope is detached and
    # the inline name is invisible outside the alias
    return build_named_type(first[TEXT], stmt[CHILDREN][1], scope, stmt,
                            attached=False)


def build_named_type(name: str, ty: Node, scope: Scope, decl: Node,
                     attached: bool) -> TypeEntry:
    """The entry of `name` for the logical type `ty`, declared by `decl`;
    a group or union written inline there gets its own entry, and
    `attached` says whether its scope sees `scope`."""
    inner = ty[CHILDREN][0]
    if inner[KIND] in ("LogicalGroupType", "LogicalUnionType"):
        return build_group_entry(inner, name, scope, attached)
    return TypeEntry(id=name, ast=ty, scope=scope, span=decl)


def build_group_entry(group_ast: Node, entry_id: str, scope: Scope,
                      attached: bool) -> TypeEntry:
    is_group = group_ast[KIND] == "LogicalGroupType"
    group_name = group_ast[CHILDREN][0][TEXT]
    prefix = "group" if is_group else "union"
    own = Scope(f"{prefix}_{group_name}", prefix, package=scope.package)
    if attached:
        own.add_relation(
            ScopeRelationKind.GROUP if is_group else ScopeRelationKind.UNION, scope)
    entry = TypeEntry(id=entry_id, ast=group_ast, scope=scope, own_scope=own,
                      span=group_ast)
    for item in group_ast[CHILDREN][1:]:
        build_item(item, entry, own)
    return entry


# -- streamlets ------------------------------------------------------------------


def build_template_params(node: Node, scope: Scope) -> list[TemplateParam]:
    """The parameters of a template, each declared in `scope` as a magic
    variable at its parameter node."""
    params = []
    for p in node[CHILDREN]:
        pname = p[CHILDREN][0][TEXT]
        kind = p[CHILDREN][1]
        param = TemplateParam(pname, "impl", kind[CHILDREN][0][TEXT]) \
            if kind[KIND] == "ImplOfKind" else TemplateParam(pname, kind[TEXT])
        declare(scope, Variable(id=pname, scope=scope, declared_kind=param.kind,
                                is_magic=True), "variable", p, scope.package.path)
        params.append(param)
    return params


def build_streamlet(stmt: Node, scope: Scope, name: Optional[str] = None) -> Streamlet:
    """`name` overrides the declared one, as for a template instance."""
    doc_node = child(stmt, "DOC")
    name = name or child(stmt, "ID")[TEXT]
    own = Scope(f"streamlet_{name}", "streamlet", package=scope.package)
    own.add_relation(ScopeRelationKind.STREAMLET, scope)
    s = Streamlet(id=name, scope=own,
                  doc=doc_node[TEXT] if doc_node else None, span=stmt)
    s.ports = own.ports
    tparams = child(stmt, "TemplateParams")
    if tparams is not None:
        s.template_params = build_template_params(tparams, own)
    for item in _body(stmt):
        build_item(item, s, own)
    return s


# -- implementations ---------------------------------------------------------------


def build_impl(stmt: Node, scope: Scope, name: Optional[str] = None) -> Implementation:
    """`name` overrides the declared one, as for a template instance."""
    doc_node = child(stmt, "DOC")
    name = name or child(stmt, "ID")[TEXT]
    own = Scope(f"implement_{name}", "implement", package=scope.package)
    own.add_relation(ScopeRelationKind.IMPLEMENT, scope)
    impl = Implementation(id=name, scope=own,
                          doc=doc_node[TEXT] if doc_node else None, span=stmt)
    impl.instances = own.instances
    impl.connections = own.connections
    if stmt[KIND] == "ImplInstDecl":
        impl.derived_from = child(stmt, "TemplateInstance")
        return impl
    impl.external = child(stmt, "External") is not None
    of = child(stmt, "OfStreamlet")
    impl.of_ast = of[CHILDREN][0]
    tparams = child(stmt, "TemplateParams")
    if tparams is not None:
        impl.template_params = build_template_params(tparams, own)
    body = _body(stmt)
    if impl.external and body:
        raise TydiError(
            "syntax", f"external implementation {name!r} must have an empty body",
            scope.package.path, body[0])
    for item in body:
        build_item(item, impl, own)
    return impl


# -- body items --------------------------------------------------------------------


def build_item(item: Node, owner, own: Scope, scope: Optional[Scope] = None,
               suffix: str = ""):
    """Build `item` of the body of `owner` (a package, a group or union
    entry, a streamlet or an implementation) and declare it in `own`.
    Its expressions resolve in `scope` (`own` by default, or the scope
    of a `for` element), which its instance or connection records and
    where a const or type is declared instead, and the names of its
    connections end in the element's `suffix`."""
    resolve = scope or own
    path = own.package.path
    kind = item[KIND]
    if kind == "ConstDecl":
        kind_node = child(item, "DeclKind")
        const = Variable(id=children_of(item, "ID")[0][TEXT], scope=resolve,
                         declared_kind=kind_node[TEXT] if kind_node else None,
                         expr_ast=child(item, "Exp"), span=item)
        declare(resolve, const, "variable", item, path)
    elif kind == "TypeDecl":
        declare(resolve, build_type_entry(item, resolve), "type", item, path)
    elif kind == "AssertStmt":
        owner.asserts.append((resolve, item))
    elif kind == "SubItemItem":
        # f: Group h { ... },  attached to the enclosing group's scope,
        # as a nested `type Group` declaration is
        fname = item[CHILDREN][0][TEXT]
        fentry = build_named_type(fname, item[CHILDREN][1], resolve, item, attached=True)
        declare(own, fentry, "type", item, path)
        owner.field_names.append(fname)
    elif kind == "PortDecl":
        size = child(item, "ArraySize")
        port = Port(
            name=item[CHILDREN][0][TEXT],
            type_ast=child(item, "LogicalType"),
            direction=child(item, "DIR")[TEXT],
            array_size_ast=size[CHILDREN][0] if size else None,
            cd_ast=child(item, "ClockDomainAnn"),
            span=item)
        declare(own, port, "port", item, path)
    elif kind == "InstanceDecl":
        name_node = item[CHILDREN][0]
        size = child(item, "ArraySize")
        inst = Instance(
            name=name_node[TEXT] if name_node[KIND] == "ID" else
            substitute(name_node, resolve),
            target_ast=item[CHILDREN][1],
            array_size_ast=size[CHILDREN][0] if size else None,
            span=item,
            scope=resolve)
        declare(own, inst, "instance", item, path)
    elif kind == "ConnectionStmt":
        own.connections.append(build_connection(item, suffix, resolve))
    elif kind in ("IfBlock", "ForBlock"):
        owner.generative.append(item)
    elif kind == "ProcessBlock":
        owner.process_block = item[TEXT]
    elif kind == "ImportStmt":
        import_package(own, item[CHILDREN][0][TEXT])
    elif kind == "StreamletDecl":
        declare(own, build_streamlet(item, own), "streamlet", item, path)
    else:  # ImplDecl or ImplInstDecl, the last items the parser makes
        declare(own, build_impl(item, own), "implementation", item, path)


def build_connection(item: Node, name_suffix: str, scope: Scope) -> Connection:
    source, sink = (EndRef(child(end, "PathOwner"), child(end, "PathPort"))
                    for end in children_of(item, "PathEnd"))
    fifo = child(item, "FifoDepth")
    cname_node = child(item, "ConnName")
    cname = cname_node[TEXT] if cname_node else \
        f"connection_{item[START]}-{item[END]}"
    return Connection(
        name=cname + name_suffix,
        source=source,
        sink=sink,
        fifo_ast=fifo[CHILDREN][0] if fifo else None,
        no_strict=child(item, "NoStrictMarker") is not None,
        span=item,
        scope=scope)


def import_package(scope: Scope, pkg_name: str):
    """Let `pkg_name.member` references resolve from `scope` by declaring
    the magic `$package$<pkg_name>` variable there, once."""
    magic = f"$package${pkg_name}"
    if magic not in scope.variables:
        scope.variables[magic] = Variable(id=magic, scope=scope, is_magic=True)


def build_project(name: str, parsed_files: dict[str, ParsedFile]) -> Project:
    project = Project(name)
    for pkg_name, parsed in sorted(parsed_files.items()):
        package = project.packages[pkg_name] = Package(
            parsed.package_name, parsed.path, parsed.text)
        import_package(package.scope, package.name)
        for stmt in parsed.root[CHILDREN]:
            build_item(stmt, package, package.scope)
    return project
