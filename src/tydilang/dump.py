"""Canonical text dump of the code structure.

The same renderer serves every pipeline stage: unevaluated entries print as
``UnknownType(NotInferred("raw"))`` style records, evaluated ones as values.
The raw text is the source of the entry's AST, sliced by `Package.snip` of
the package the dumped scope belongs to; the placeholder tags of entries
without source (imported packages, template parameters) are chosen here.
Entries within each section are emitted in lexicographic id order so the dump
does not depend on the order in which entities were evaluated.
"""

from __future__ import annotations

from typing import Optional

from .logical_types import (GroupType, StreamType, UnionType,
                            data_type_display, stream_display_name)
from .model import (Connection, EndRef, EvalState, Implementation, Instance,
                    Package, Port, Project, Scope, Streamlet, TypeEntry,
                    Variable, indexed)
from .tree import AstNode
from .values import escape, format_value

_PARAM_TAGS = {
    "int": "Int", "str": "Str", "float": "Float", "bool": "Bool",
    "clockdomain": "ClockDomain", "type": "LogicalDataType(DummyLogicalData)",
}
# the tag of a template parameter's magic variable, by the parameter's kind
_PARAM_PLACEHOLDERS = {
    "int": "DummyInt", "str": "DummyStr", "float": "DummyFloat",
    "bool": "DummyBool", "clockdomain": "DummyClockDomain",
    "type": "DummyLogicalData", "impl": "DummyImplement",
}


class _Writer:
    def __init__(self):
        self.lines: list[str] = []
        self.depth = 0

    def line(self, text: str):
        self.lines.append("  " * self.depth + text)

    def open(self, header: str):
        self.line(header + "{")
        self.depth += 1

    def close(self, suffix: str = ""):
        self.depth -= 1
        self.line("}" + suffix)

    def text(self) -> str:
        return "\n".join(self.lines) + "\n"


def dump_code_structure(project: Project) -> str:
    w = _Writer()
    w.open(f"Project({project.name})")
    for name in sorted(project.packages):
        pkg = project.packages[name]
        w.open(f"Package({name})")
        _dump_scope(w, pkg.scope)
        w.close()
    w.close()
    return w.text()


def _dump_scope(w: _Writer, scope: Scope):
    pkg = scope.package
    w.open(f"Scope({scope.name})")
    if scope.variables:
        w.open("Variables")
        for vid in sorted(scope.variables):
            _dump_variable(w, scope.variables[vid], pkg)
        w.close()
    if scope.types:
        w.open("Types")
        for tid in sorted(scope.types):
            _dump_type_entry(w, scope.types[tid], pkg)
        w.close()
    if scope.streamlets:
        w.open("Streamlets")
        for sid in sorted(scope.streamlets):
            _dump_streamlet(w, scope.streamlets[sid])
        w.close()
    if scope.implements:
        w.open("Implements")
        for iid in sorted(scope.implements):
            _dump_implement(w, scope.implements[iid])
        w.close()
    if scope.relations:
        w.open("ScopeRelations")
        for kind, target in scope.relations:
            w.line(f"--{kind.value}-->{target.name}")
        w.close()
    if scope.ports:
        w.open("Ports")
        for pid in sorted(scope.ports):
            w.line(_port_text(scope.ports[pid], pkg))
        w.close()
    if scope.instances:
        w.open("Instances")
        for nid in sorted(scope.instances):
            w.line(_instance_text(scope.instances[nid], pkg))
        w.close()
    if scope.connections:
        w.open("Connections")
        for conn in sorted(scope.connections,
                           key=lambda c: (c.name, _source_port_text(c, pkg))):
            w.line(_connection_text(conn, pkg))
        w.close()
    w.close()


def _not_inferred(pkg: Package, node: Optional[AstNode]) -> str:
    """The record of an unevaluated expression: its source text, escaped."""
    text = "" if node is None else pkg.snip(node)
    return f'NotInferred("{escape(text)}")'


def _dump_variable(w: _Writer, var: Variable, pkg: Package):
    if var.state is EvalState.EVALUATED:
        w.line(f"{var.id}:{format_value(var.value)}")
    elif not var.is_magic:
        w.line(f'{var.id}:{var.declared_kind or "UnknownType"}'
               f'({_not_inferred(pkg, var.expr_ast)})')
    elif var.declared_kind is None:  # an imported package
        w.line(f'{var.id}:PackageType(NotInferred(""))')
    else:  # a template parameter
        w.line(f'{var.id}:{_PARAM_PLACEHOLDERS[var.declared_kind]}'
               f'(NotInferred("$arg${var.id}"))')


# -- logical types -----------------------------------------------------------


def _dump_type_entry(w: _Writer, entry: TypeEntry, pkg: Package):
    if entry.state is EvalState.EVALUATED:
        _dump_evaluated_type(w, entry.id, entry.evaluated, entry.own_scope)
        return
    _dump_unevaluated_type(w, entry, pkg)


def _dump_evaluated_type(w: _Writer, label: str, t, own_scope):
    if isinstance(t, StreamType):
        w.open(f"{label}:Stream({stream_display_name(t)})")
        w.line(f"DataType={data_type_display(t.element)}")
        w.line(t.properties.summary())
        w.close()
        return
    if isinstance(t, (GroupType, UnionType)) and own_scope is not None:
        tag = "DataGroup" if isinstance(t, GroupType) else "DataUnion"
        w.open(f"{label}:{tag}({t.name})")
        _dump_scope(w, own_scope)
        w.close()
        return
    w.line(f"{label}:{data_type_display(t)}")


def _dump_unevaluated_type(w: _Writer, entry: TypeEntry, pkg: Package):
    ast = entry.ast
    inner = ast.children[0] if ast.kind == "LogicalType" else ast
    kind = inner.kind
    if kind in ("LogicalGroupType", "LogicalUnionType"):
        tag = "DataGroup" if kind == "LogicalGroupType" else "DataUnion"
        w.open(f"{entry.id}:{tag}({inner.children[0].leaf_text})")
        if entry.own_scope is not None:
            _dump_scope(w, entry.own_scope)
        w.close()
        return
    if kind == "LogicalStreamType":
        w.open(f"{entry.id}:Stream({entry.id})")
        w.line(f"DataType={_raw_element_text(inner.children[0], pkg)}")
        w.line(_raw_properties_text(inner, pkg))
        w.close()
        return
    w.line(f"{entry.id}:{_raw_element_text(ast, pkg)}")


def _raw_element_text(type_node: AstNode, pkg: Package) -> str:
    inner = type_node.children[0] if type_node.kind == "LogicalType" else type_node
    kind = inner.kind
    if kind == "LogicalNullType":
        return "DataNull"
    if kind == "LogicalBitType":
        return f"Bit({_not_inferred(pkg, inner.children[0])})"
    if kind == "LogicalUserDefinedType":
        name = ".".join(c.leaf_text for c in inner.children)
        return f"VarType({name})"
    return _not_inferred(pkg, inner)


_PROPERTY_ORDER = [
    ("StreamPropertyDimension", "dimension", "0"),
    ("StreamPropertyUser", "user", "DataNull"),
    ("StreamPropertyThroughput", "throughput", "1"),
    ("StreamPropertySynchronicity", "synchronicity", "Sync"),
    ("StreamPropertyComplexity", "complexity", "7"),
    ("StreamPropertyDirection", "direction", "Forward"),
    ("StreamPropertyKeep", "keep", "false"),
]


def _raw_properties_text(stream_node: AstNode, pkg: Package) -> str:
    parts = []
    for node_kind, label, default in _PROPERTY_ORDER:
        prop = stream_node.child(node_kind)
        if prop is None:
            parts.append(f"{label}={default}")
        elif label == "user":
            parts.append(f"user={_raw_element_text(prop.children[0], pkg)}")
        else:
            parts.append(f"{label}={_not_inferred(pkg, prop.children[0])}")
    return ", ".join(parts)


# -- streamlets / implementations ---------------------------------------------


def _param_tags(params) -> str:
    tags = []
    for p in params:
        if p.kind == "impl":
            tags.append(f"@ImplementOf({p.impl_of})")
        else:
            tags.append("@" + _PARAM_TAGS[p.kind])
    return ",".join(tags)


def _dump_streamlet(w: _Writer, s: Streamlet):
    head = f"<{_param_tags(s.template_params)}>" if s.is_template else "<NormalStreamlet>"
    w.open(f"Streamlet({s.id}){head}")
    _dump_scope(w, s.scope)
    w.close()


def _dump_implement(w: _Writer, impl: Implementation):
    if impl.is_template:
        head = f"<{_param_tags(impl.template_params)}>"
    elif impl.external:
        head = "<ExternalImplement>"
    else:
        head = "<NormalImplement>"
    w.open(f"Implement({impl.id}){head} -> {_impl_streamlet_text(impl)}")
    _dump_scope(w, impl.scope)
    w.line("simulation_process{Some}" if impl.process_block is not None
           else "simulation_process{None}")
    w.close()


def _impl_streamlet_text(impl: Implementation) -> str:
    if impl.streamlet is not None:
        return f"Streamlet({impl.streamlet.id})"
    pkg = impl.scope.package
    if impl.derived_from is not None:
        return _not_inferred(pkg, impl.derived_from)
    of = impl.of_ast
    if of.kind == "TemplateInstance":
        base = of.children[0]
        base_name = base.leaf_text if base.kind == "ID" else \
            ".".join(c.leaf_text for c in base.children)
        args = ",".join("@" + pkg.snip(a.children[0])
                        for a in of.children[1:])
        return f"ProxyStreamlet({base_name}<{args}>)"
    name = of.leaf_text if of.kind == "ID" else ".".join(c.leaf_text for c in of.children)
    return f"ProxyStreamlet({name}<>)"


# -- ports / instances / connections ------------------------------------------


def _port_text(port: Port, pkg: Package) -> str:
    if port.state is EvalState.EVALUATED:
        type_part = data_type_display(port.logical_type)
        cd = port.clockdomain.expression
    else:
        ast_inner = port.type_ast.children[0]
        if ast_inner.kind == "LogicalUserDefinedType":
            type_part = f"VarType({'.'.join(c.leaf_text for c in ast_inner.children)})"
        else:
            type_part = _not_inferred(pkg, port.type_ast)
        cd = "DefaultClockDomain" if port.cd_ast is None else \
            _not_inferred(pkg, port.cd_ast.children[0])
    size = ""
    if port.array_size_ast is not None:
        size = f"[{port.array_size}]" if port.array_size is not None \
            else f"[{_not_inferred(pkg, port.array_size_ast)}]"
    return f"{port.name}:Port({type_part},{port.direction}){size} `{cd}"


def _instance_text(inst: Instance, pkg: Package) -> str:
    if inst.state is EvalState.EVALUATED:
        body = f"(Implement({inst.target.id}))"
        size = f"[{inst.array_size}]" if inst.array_size is not None else ""
    else:
        body = f"({_not_inferred(pkg, inst.target_ast)})"
        size = ""
        if inst.array_size_ast is not None:
            size = "[?]"
    return f"{inst.name}:{body}{size}"


def _source_port_text(conn: Connection, pkg: Package) -> str:
    """The text connections of one name are ordered by: the source of the
    source end's port path, or the port name of an end sugaring made."""
    path_port = conn.source.path_port
    return conn.source.port_name if path_port is None else pkg.snip(path_port)


def _end_text(end: EndRef, pkg: Package) -> str:
    if end.port is None:  # not resolved
        owner = "Self" if end.is_self else \
            f"ExternalOwner({pkg.snip(end.path_owner)})"
        return f"{owner}.{_not_inferred(pkg, end.path_port)}"
    owner = "Self" if end.instance is None else \
        f"ExternalOwner({indexed(end.owner_name, end.owner_index)})"
    port = end.port  # a resolved end's port is evaluated
    return (f"{owner}.{indexed(end.port_name, end.port_index)}:Port("
            f"{data_type_display(port.logical_type)},{port.direction}) "
            f"`{port.clockdomain.expression}")


def _connection_text(conn: Connection, pkg: Package) -> str:
    if conn.state is EvalState.EVALUATED or conn.fifo_ast is None:
        fifo = str(conn.fifo_depth)
    else:
        fifo = _not_inferred(pkg, conn.fifo_ast)
    marker = " @NoStrictType@" if conn.no_strict else ""
    return (f"{_end_text(conn.source, pkg)} ={fifo}=> {_end_text(conn.sink, pkg)}"
            f"{marker} ({conn.name})")
