"""The code structure: a mutable project/package/scope graph.

Scopes house variables, logical types, streamlets, implementations, ports,
instances and connections. Each scope has at most one typed relation to the
scope around it, whose kind governs which name categories may resolve
through it. Every scope the builder makes knows its `Package`, which holds
the source path and text that diagnostics and dumps need. An entry holds the
AST it was built from, and `Package.snip` gives the source text of any of
its nodes; no entry keeps a copy of that text. An entity's `span` field
holds the node that declares it, which diagnostics take as its location, and
from which a template instance is built again. Variables, type entries,
streamlets and implementations carry an evaluation `state` and stored
`error`, which only `EvalContext.force` writes; a port, instance or
connection is evaluated when its result is set: its logical type, its target
or its sink's port. An instance or connection records the scope its names
and counts resolve in, its implementation's or a `for` element's; only one
that sugaring inserted has none. A template instance is registered in its
template's package under its mangled name, and that table is its memo. Every
stage looks up a `name` or `package.name` reference through `resolve_ref`.
"""

from __future__ import annotations

import enum
from typing import Optional

from .errors import Located, TydiError
from .tree import CHILDREN, END, KIND, START, TEXT, Node
from .values import Value


class ScopeRelationKind(enum.Enum):
    GROUP = "GroupScope"
    UNION = "UnionScope"
    STREAM = "StreamScope"
    STREAMLET = "StreamletScope"
    IMPLEMENT = "ImplementScope"
    IFFOR = "IfForScope"


# Which relation kinds each name category may traverse during resolution.
# Ports and instances never traverse. An if/for relation joins the scope of
# one `for` element, which binds the loop variable, to the scope around it,
# so everything else in the body resolves through it.
_VALUE_RELATIONS = frozenset({
    ScopeRelationKind.GROUP, ScopeRelationKind.UNION, ScopeRelationKind.STREAM,
    ScopeRelationKind.STREAMLET, ScopeRelationKind.IMPLEMENT, ScopeRelationKind.IFFOR,
})
_ENTITY_RELATIONS = frozenset({ScopeRelationKind.IMPLEMENT, ScopeRelationKind.IFFOR})
TRAVERSABLE = {
    "variable": _VALUE_RELATIONS,
    "type": _VALUE_RELATIONS,
    "streamlet": _ENTITY_RELATIONS,
    "implementation": _ENTITY_RELATIONS,
    "port": frozenset(),
    "instance": frozenset(),
}

_CATEGORY_MAPS = {
    "variable": "variables",
    "type": "types",
    "streamlet": "streamlets",
    "implementation": "implements",
    "port": "ports",
    "instance": "instances",
}


class EvalState(enum.Enum):
    NOT_INFERRED = "NotInferred"
    EVALUATED = "Evaluated"
    ERROR = "Error"


class Variable:
    def __init__(self, id, scope=None, declared_kind=None, expr_ast=None, is_magic=False,
                 span=None, state=EvalState.NOT_INFERRED, value=None):
        self.id: str = id
        self.scope: Optional[Scope] = scope
        # int/str/float/bool/clockdomain; a template parameter's kind
        self.declared_kind: Optional[str] = declared_kind
        self.expr_ast: Optional[Node] = expr_ast
        self.is_magic: bool = is_magic
        self.span: Optional[Node] = span
        self.state: EvalState = state
        self.value: Optional[Value] = value
        self.error: Optional[TydiError] = None

    def label(self) -> str:
        owner = self.scope.name if self.scope else "?"
        return f"{owner}.{self.id}"


class TypeEntry:
    def __init__(self, id, ast, scope=None, own_scope=None, span=None,
                 state=EvalState.NOT_INFERRED, evaluated=None):
        self.id: str = id
        self.ast = ast  # the logical-type expression; None for bound args
        self.scope: Optional[Scope] = scope  # defining scope (resolution starts here)
        self.own_scope: Optional[Scope] = own_scope  # group/union inner scope, if any
        self.field_names: list[str] = []  # group/union order
        self.asserts: list[tuple[Scope, Node]] = []
        self.span: Optional[Node] = span
        self.state: EvalState = state
        self.evaluated: object = evaluated  # LogicalType
        self.error: Optional[TydiError] = None

    def label(self) -> str:
        owner = self.scope.name if self.scope else "?"
        return f"{owner}.{self.id}"


class TemplateParam:
    def __init__(self, name, kind, impl_of=None):
        self.name: str = name
        self.kind: str = kind  # int/str/float/bool/clockdomain/type/impl
        self.impl_of: Optional[str] = impl_of  # streamlet name for impl-of parameters


class Port:
    def __init__(self, name, type_ast, direction, array_size_ast=None, cd_ast=None,
                 span=None):
        self.name: str = name
        self.type_ast: Node = type_ast
        self.direction: str = direction  # in | out
        self.array_size_ast: Optional[Node] = array_size_ast
        self.cd_ast: Optional[Node] = cd_ast
        self.span: Optional[Node] = span
        # evaluated; a port with a logical type is evaluated:
        self.logical_type: object = None
        self.array_size: Optional[int] = None
        self.clockdomain: Optional[Value] = None


class Streamlet:
    def __init__(self, id, scope, doc=None, span=None):
        self.id: str = id
        self.scope: Scope = scope
        self.doc: Optional[str] = doc
        self.template_params: list[TemplateParam] = []
        self.ports: dict[str, Port] = {}
        self.asserts: list[tuple[Scope, Node]] = []
        self.span: Optional[Node] = span
        self.state: EvalState = EvalState.NOT_INFERRED
        self.error: Optional[TydiError] = None

    @property
    def is_template(self) -> bool:
        return bool(self.template_params)

    def label(self) -> str:
        return f"streamlet {self.id}"


class Instance:
    def __init__(self, name, target_ast=None, array_size_ast=None, span=None, scope=None,
                 target=None):
        self.name: str = name
        self.target_ast = target_ast  # None for compiler-inserted instances
        self.array_size_ast: Optional[Node] = array_size_ast
        self.span: Optional[Node] = span
        # the implementation or `for` element scope its target and size resolve
        # in; None only for an instance that sugaring inserted
        self.scope: Optional[Scope] = scope
        # evaluated; an instance with a target is evaluated:
        self.target: Optional[Implementation] = target
        self.array_size: Optional[int] = None


def indexed(name: str, index: Optional[int]) -> str:
    return name if index is None else f"{name}[{index}]"


def end_display(owner: Optional[str], owner_index: Optional[int],
                port_name: str, port_index: Optional[int]) -> str:
    """The `owner[i].port[j]` text of a port end; a None owner is Self."""
    owner_text = "Self" if owner is None else indexed(owner, owner_index)
    return f"{owner_text}.{indexed(port_name, port_index)}"


class EndRef:
    def __init__(self, path_owner=None, path_port=None, owner_name=None, owner_index=None,
                 port_name=None, port_index=None, instance=None, port=None):
        # the PathOwner and PathPort nodes of a written end; both None for an
        # end that sugaring made, and the owner None for a Self end
        self.path_owner: Optional[Node] = path_owner
        self.path_port: Optional[Node] = path_port
        # resolved:
        self.owner_name: Optional[str] = owner_name
        self.owner_index: Optional[int] = owner_index
        self.port_name: Optional[str] = port_name
        self.port_index: Optional[int] = port_index
        self.instance: Optional[Instance] = instance
        self.port: Optional[Port] = port

    @property
    def is_self(self) -> bool:
        return self.path_owner is None and self.instance is None

    def key(self):
        """Identity of the port end for census and single-use checks."""
        return (self.owner_name, self.owner_index, self.port_name, self.port_index)

    def display(self) -> str:
        return end_display(self.owner_name, self.owner_index, self.port_name,
                           self.port_index)


class Connection:
    def __init__(self, name, source, sink, fifo_ast=None, no_strict=False, span=None,
                 scope=None):
        self.name: str = name
        self.source: EndRef = source
        self.sink: EndRef = sink
        self.fifo_ast: Optional[Node] = fifo_ast
        self.no_strict: bool = no_strict
        self.span: Optional[Node] = span
        # the implementation or `for` element scope its ends and depth resolve
        # in; None only for a connection that sugaring inserted
        self.scope: Optional[Scope] = scope
        self.fifo_depth: int = 0


class Implementation:
    def __init__(self, id, scope, doc=None, span=None):
        self.id: str = id
        self.scope: Scope = scope
        self.of_ast: Optional[Node] = None
        self.doc: Optional[str] = doc
        self.template_params: list[TemplateParam] = []
        self.external: bool = False
        self.instances: dict[str, Instance] = {}
        self.connections: list[Connection] = []
        # (scope the assert evaluates in, assert statement)
        self.asserts: list[tuple[Scope, Node]] = []
        self.generative: list[Node] = []  # if/for blocks
        self.process_block: Optional[str] = None
        self.derived_from: Optional[Node] = None  # ImplInstDecl target, if any
        self.span: Optional[Node] = span
        self.state: EvalState = EvalState.NOT_INFERRED
        self.error: Optional[TydiError] = None
        self.streamlet: Optional[Streamlet] = None

    @property
    def is_template(self) -> bool:
        return bool(self.template_params)

    def label(self) -> str:
        return f"impl {self.id}"


class Scope:
    def __init__(self, name, category, relation=None, impl_args=None, package=None):
        self.name: str = name
        self.category = category  # package/group/union/stream/streamlet/implement/iffor
        self.variables: dict[str, Variable] = {}
        self.types: dict[str, TypeEntry] = {}
        self.streamlets: dict[str, Streamlet] = {}
        self.implements: dict[str, Implementation] = {}
        self.ports: dict[str, Port] = {}
        self.instances: dict[str, Instance] = {}
        self.connections: list[Connection] = []
        # the one outward relation, a (kind, scope) pair, or None
        self.relation: Optional[tuple[ScopeRelationKind, Scope]] = relation
        self.impl_args: dict[str, Implementation] = {} if impl_args is None else impl_args
        # the package whose source declares the scope; None only for scopes
        # built by hand outside the builder
        self.package: Optional[Package] = package

    def add_relation(self, kind: ScopeRelationKind, target: "Scope"):
        self.relation = (kind, target)

    def __repr__(self):
        return f"Scope({self.name})"


class Package:
    """One source file's package: its scope and the text its spans index."""

    def __init__(self, name, path, text):
        self.name: str = name
        self.path: str = path
        self.scope = Scope(f"package_{name}", "package", package=self)
        self._data = text.encode("utf-8")  # spans are UTF-8 byte offsets

    def snip(self, location: Located) -> str:
        """The source text of a location, such as an AST node."""
        return self._data[location[START]:location[END]].decode("utf-8")


class Project:
    def __init__(self, name):
        self.name: str = name
        self.packages: dict[str, Package] = {}

    def top_implementation(self, top: str) -> Implementation:
        """The implementation `top` ("package.impl") names; a usage error if
        it names none or a template."""
        pkg_name, _, impl_name = top.partition(".")
        pkg = self.packages.get(pkg_name)
        impl = pkg.scope.implements.get(impl_name) if pkg else None
        if impl is None:
            raise TydiError("usage", f"top implementation {top!r} not found")
        if impl.is_template:
            raise TydiError("usage", f"top implementation {top!r} is a template")
        return impl


def declare(scope: Scope, entity, category: str, span: Optional[Located] = None,
            path: Optional[str] = None) -> None:
    """Insert an entity into one category map of a scope.

    Forward references are legal because resolution happens at evaluation
    time; the only checks are uniqueness and the package-scope-only rule for
    streamlets and implementations.
    """
    if category in ("streamlet", "implementation") and scope.category != "package":
        raise TydiError(
            "resolution",
            f"{category} {entity.id!r} may only be declared in a package scope,"
            f" not inside {scope.name}", path, span)
    table = getattr(scope, _CATEGORY_MAPS[category])
    key = entity.id if hasattr(entity, "id") else entity.name
    if key in table:
        raise TydiError(
            "resolution",
            f"duplicate {category} {key!r} in scope {scope.name}", path, span)
    table[key] = entity


def resolve_name(start_scope: Scope, name: str, category: str,
                 path: Optional[str] = None, span: Optional[Located] = None):
    """Find `name` in `start_scope` or outward through permitted relations.

    Inner names shadow outer names; the search follows each scope's one
    relation while its kind is permitted. Returns (entity, owning scope); on
    a miss, raises a resolution TydiError at `path`/`span` naming the scopes
    searched, apart from the `for` element scopes, which bind only loop
    variables.
    """
    allowed = TRAVERSABLE[category]
    attr = _CATEGORY_MAPS[category]
    searched: list[str] = []
    scope = start_scope
    while scope is not None:
        if scope.category != "iffor":
            searched.append(scope.name)
        table = getattr(scope, attr)
        if name in table:
            return table[name], scope
        relation = scope.relation
        scope = relation[1] if relation is not None and relation[0] in allowed else None
    chain = " -> ".join(searched)
    raise TydiError("resolution", f"{category} {name!r} not found (searched {chain})",
                    path, span)


def resolve_ref(project: Project, scope: Scope, ref: Node, category: str):
    """The entity a `name` or `package.name` reference denotes.

    `ref` is an ID leaf or a node whose ID children spell the reference
    (QualifiedId, VarExp, IndexExp, LogicalUserDefinedType). A plain name
    resolves outward from `scope`; a qualified one is a member of a package
    whose `$package$` magic variable resolves from `scope`, as an import
    declares it in the importing package scope. A miss raises a resolution
    TydiError at the path of the scope's package and the location of `ref`.
    """
    path = scope.package.path
    ids = [ref[TEXT]] if ref[KIND] == "ID" else \
        [c[TEXT] for c in ref[CHILDREN] if c[KIND] == "ID"]
    if len(ids) == 1:
        return resolve_name(scope, ids[0], category, path, ref)[0]
    pkg_name, member = ids
    try:
        resolve_name(scope, f"$package${pkg_name}", "variable")
    except TydiError:
        raise TydiError("resolution", f"package {pkg_name!r} is not imported here",
                        path, ref) from None
    pkg = project.packages.get(pkg_name)
    if pkg is None:
        raise TydiError("resolution", f"package {pkg_name!r} does not exist", path, ref)
    entity = getattr(pkg.scope, _CATEGORY_MAPS[category]).get(member)
    if entity is None:
        raise TydiError("resolution",
                        f"{category} {member!r} not found in package {pkg_name!r}",
                        path, ref)
    return entity
