"""The code structure: a mutable project/package/scope graph.

Scopes house variables, logical types, streamlets, implementations, ports,
instances and connections, and are linked by typed scope relationships that
govern which name categories may resolve through them. Every scope the
builder makes knows its `Package`, which holds the source path and text
that diagnostics and dumps need. An entry holds the AST it was built from,
and `Package.snip` gives the source text of any of its nodes; no entry keeps
a copy of that text. An entity's `span` field holds the node that declares
it, which diagnostics take as its location. A template instance is
registered in its template's package under its mangled name, and that table
is its memo. Every stage looks up a `name` or `package.name` reference
through `resolve_ref`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional

from .errors import Located, ResolutionError, TydiError
from .tree import AstNode
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


@dataclass
class Variable:
    id: str
    scope: Optional["Scope"] = None
    # int/str/float/bool/clockdomain; a template parameter's kind
    declared_kind: Optional[str] = None
    expr_ast: Optional[AstNode] = None
    is_magic: bool = False
    span: Optional[AstNode] = None
    state: EvalState = EvalState.NOT_INFERRED
    value: Optional[Value] = None
    error: Optional[TydiError] = None

    def label(self) -> str:
        owner = self.scope.name if self.scope else "?"
        return f"{owner}.{self.id}"


@dataclass
class TypeEntry:
    id: str
    ast: Optional[AstNode]  # the logical-type expression; None for bound args
    scope: Optional["Scope"] = None  # defining scope (resolution starts here)
    own_scope: Optional["Scope"] = None  # group/union inner scope, if any
    field_names: list[str] = field(default_factory=list)  # group/union order
    asserts: list[AstNode] = field(default_factory=list)
    span: Optional[AstNode] = None
    state: EvalState = EvalState.NOT_INFERRED
    evaluated: object = None  # LogicalType
    error: Optional[TydiError] = None

    def label(self) -> str:
        owner = self.scope.name if self.scope else "?"
        return f"{owner}.{self.id}"


@dataclass
class TemplateParam:
    name: str
    kind: str  # int/str/float/bool/clockdomain/type/impl
    impl_of: Optional[str] = None  # streamlet name for impl-of parameters


@dataclass
class Port:
    name: str
    type_ast: AstNode
    direction: str  # in | out
    array_size_ast: Optional[AstNode] = None
    cd_ast: Optional[AstNode] = None
    span: Optional[AstNode] = None
    # evaluated:
    state: EvalState = EvalState.NOT_INFERRED
    logical_type: object = None
    array_size: Optional[int] = None
    clockdomain: Optional[Value] = None


@dataclass
class Streamlet:
    id: str
    scope: "Scope"
    doc: Optional[str] = None
    template_params: list[TemplateParam] = field(default_factory=list)
    ports: dict[str, Port] = field(default_factory=dict)
    asserts: list[AstNode] = field(default_factory=list)
    span: Optional[AstNode] = None
    decl: Optional[AstNode] = None  # declaring statement; instances rebuild it
    state: EvalState = EvalState.NOT_INFERRED
    error: Optional[TydiError] = None

    @property
    def is_template(self) -> bool:
        return bool(self.template_params)

    def label(self) -> str:
        return f"streamlet {self.id}"


@dataclass
class Instance:
    name: str
    target_ast: Optional[AstNode] = None  # None for compiler-inserted instances
    array_size_ast: Optional[AstNode] = None
    span: Optional[AstNode] = None
    # the `for` element scope its target and size resolve in; None: the impl's
    scope: Optional["Scope"] = field(default=None, compare=False, repr=False)
    state: EvalState = EvalState.NOT_INFERRED
    target: Optional["Implementation"] = None
    array_size: Optional[int] = None


def indexed(name: str, index: Optional[int]) -> str:
    return name if index is None else f"{name}[{index}]"


def end_display(owner: Optional[str], owner_index: Optional[int],
                port_name: str, port_index: Optional[int]) -> str:
    """The `owner[i].port[j]` text of a port end; a None owner is Self."""
    owner_text = "Self" if owner is None else indexed(owner, owner_index)
    return f"{owner_text}.{indexed(port_name, port_index)}"


@dataclass
class EndRef:
    # the PathOwner and PathPort nodes of a written end; both None for an
    # end that sugaring made, and the owner None for a Self end
    path_owner: Optional[AstNode] = None
    path_port: Optional[AstNode] = None
    # resolved:
    owner_name: Optional[str] = None
    owner_index: Optional[int] = None
    port_name: Optional[str] = None
    port_index: Optional[int] = None
    instance: Optional[Instance] = None
    port: Optional[Port] = None

    @property
    def is_self(self) -> bool:
        return self.path_owner is None and self.instance is None

    def key(self):
        """Identity of the port end for census and single-use checks."""
        return (self.owner_name, self.owner_index, self.port_name, self.port_index)

    def display(self) -> str:
        return end_display(self.owner_name, self.owner_index, self.port_name,
                           self.port_index)


@dataclass
class Connection:
    name: str
    source: EndRef
    sink: EndRef
    fifo_ast: Optional[AstNode] = None
    no_strict: bool = False
    span: Optional[AstNode] = None
    # the `for` element scope its ends and depth resolve in; None: the impl's
    scope: Optional["Scope"] = field(default=None, compare=False, repr=False)
    state: EvalState = EvalState.NOT_INFERRED
    fifo_depth: int = 0


@dataclass
class Implementation:
    id: str
    scope: "Scope"
    of_ast: Optional[AstNode] = None
    doc: Optional[str] = None
    template_params: list[TemplateParam] = field(default_factory=list)
    external: bool = False
    instances: dict[str, Instance] = field(default_factory=dict)
    connections: list[Connection] = field(default_factory=list)
    # (scope the assert evaluates in, assert statement)
    asserts: list[tuple["Scope", AstNode]] = field(default_factory=list)
    generative: list[AstNode] = field(default_factory=list)  # pending if/for
    process_block: Optional[str] = None
    derived_from: Optional[AstNode] = None  # ImplInstDecl target, if any
    span: Optional[AstNode] = None
    decl: Optional[AstNode] = None  # declaring statement; instances rebuild it
    state: EvalState = EvalState.NOT_INFERRED
    error: Optional[TydiError] = None
    streamlet: Optional[Streamlet] = None

    @property
    def is_template(self) -> bool:
        return bool(self.template_params)

    def label(self) -> str:
        return f"impl {self.id}"


@dataclass
class Scope:
    name: str
    category: str  # package/group/union/stream/streamlet/implement/iffor
    variables: dict[str, Variable] = field(default_factory=dict)
    types: dict[str, TypeEntry] = field(default_factory=dict)
    streamlets: dict[str, Streamlet] = field(default_factory=dict)
    implements: dict[str, Implementation] = field(default_factory=dict)
    ports: dict[str, Port] = field(default_factory=dict)
    instances: dict[str, Instance] = field(default_factory=dict)
    connections: list[Connection] = field(default_factory=list)
    relations: list[tuple[ScopeRelationKind, "Scope"]] = field(default_factory=list)
    impl_args: dict[str, "Implementation"] = field(default_factory=dict)
    # the package whose source declares the scope; None only for scopes
    # built by hand outside the builder
    package: Optional["Package"] = field(default=None, compare=False)

    def add_relation(self, kind: ScopeRelationKind, target: "Scope"):
        self.relations.append((kind, target))

    def __repr__(self):
        return f"Scope({self.name})"


@dataclass
class Package:
    """One source file's package: its scope and the text its spans index."""

    name: str
    path: str
    text: str
    scope: Scope = field(init=False)

    def __post_init__(self):
        self.scope = Scope(f"package_{self.name}", "package", package=self)
        self._data = self.text.encode("utf-8")  # spans are UTF-8 byte offsets

    def snip(self, location: Located) -> str:
        """The source text of a location, such as an AST node."""
        return self._data[location.start:location.end].decode("utf-8")


@dataclass
class Project:
    name: str
    packages: dict[str, Package] = field(default_factory=dict)

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

    Inner names shadow outer names; relations are searched depth first, in
    the order they were added. Returns (entity, owning scope); on a miss,
    raises a ResolutionError at `path`/`span` naming the scopes searched,
    apart from the `for` element scopes, which bind only loop variables.
    """
    allowed = TRAVERSABLE[category]
    attr = _CATEGORY_MAPS[category]
    searched: list[str] = []
    stack = [start_scope]
    while stack:
        scope = stack.pop()
        if scope.category != "iffor":
            searched.append(scope.name)
        table = getattr(scope, attr)
        if name in table:
            return table[name], scope
        for kind, target in reversed(scope.relations):
            if kind in allowed:
                stack.append(target)
    chain = " -> ".join(searched)
    raise ResolutionError(f"{category} {name!r} not found (searched {chain})",
                          path, span)


def resolve_ref(project: Project, scope: Scope, ref: AstNode, category: str):
    """The entity a `name` or `package.name` reference denotes.

    `ref` is an ID leaf or a node whose ID children spell the reference
    (QualifiedId, VarExp, IndexExp, LogicalUserDefinedType). A plain name
    resolves outward from `scope`; a qualified one is a member of a package
    whose `$package$` magic variable resolves from `scope`, as an import
    declares it in the importing package scope. A miss raises a
    ResolutionError at the path of the scope's package and the location of
    `ref`.
    """
    path = scope.package.path
    ids = [ref.leaf_text] if ref.kind == "ID" else \
        [c.leaf_text for c in ref.children if c.kind == "ID"]
    if len(ids) == 1:
        return resolve_name(scope, ids[0], category, path, ref)[0]
    pkg_name, member = ids
    try:
        resolve_name(scope, f"$package${pkg_name}", "variable")
    except ResolutionError:
        raise ResolutionError(f"package {pkg_name!r} is not imported here",
                              path, ref) from None
    pkg = project.packages.get(pkg_name)
    if pkg is None:
        raise ResolutionError(f"package {pkg_name!r} does not exist", path, ref)
    entity = getattr(pkg.scope, _CATEGORY_MAPS[category]).get(member)
    if entity is None:
        raise ResolutionError(
            f"{category} {member!r} not found in package {pkg_name!r}", path, ref)
    return entity
