"""Canonical text dump of the code structure.

The same renderer serves every pipeline stage: unevaluated entries print as
``UnknownType(NotInferred("raw"))`` style records, evaluated ones as values.
The raw text is the source of the entry's AST, sliced by `Package.snip` of
the package the dumped scope belongs to; the placeholder tags of entries
without source (imported packages, template parameters) are chosen here.
Stream properties print through `_properties_text`, raw or evaluated, so a
property a stream does not set shows the `StreamProperties` default. Entries
within each section are emitted in lexicographic id order so the dump does
not depend on the order in which entities were evaluated. Each block
function appends finished lines, indented by the `pad` it is given, to one
list that `dump_code_structure` joins once.
"""

from __future__ import annotations

from typing import Optional

from .logical_types import (STREAM_PROPERTIES, GroupType, StreamProperties,
                            StreamType, UnionType, data_type_display,
                            stream_display_name)
from .model import (Connection, EndRef, EvalState, Implementation, Instance,
                    Package, Port, Project, Scope, Streamlet, TypeEntry,
                    Variable, indexed)
from .tree import CHILDREN, KIND, TEXT, Node, child
from .values import escape, format_float, format_value

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


def dump_code_structure(project: Project) -> str:
    out = [f"Project({project.name}){{"]
    for name in sorted(project.packages):
        out.append(f"  Package({name}){{")
        _dump_scope(out, project.packages[name].scope, "    ")
        out.append("  }")
    out.append("}")
    return "\n".join(out) + "\n"


def _dump_scope(out: list[str], scope: Scope, pad: str):
    """Append the lines of `scope` to `out`, its header indented by `pad`."""
    pkg = scope.package
    inner = pad + "  "  # a section's header and closing brace
    item = inner + "  "  # each entry of a section
    out.append(f"{pad}Scope({scope.name}){{")
    if scope.variables:
        out.append(inner + "Variables{")
        out += [item + _variable_text(scope.variables[vid], pkg)
                for vid in sorted(scope.variables)]
        out.append(inner + "}")
    if scope.types:
        out.append(inner + "Types{")
        for tid in sorted(scope.types):
            _dump_type_entry(out, scope.types[tid], pkg, item)
        out.append(inner + "}")
    if scope.streamlets:
        out.append(inner + "Streamlets{")
        for sid in sorted(scope.streamlets):
            _dump_streamlet(out, scope.streamlets[sid], item)
        out.append(inner + "}")
    if scope.implements:
        out.append(inner + "Implements{")
        for iid in sorted(scope.implements):
            _dump_implement(out, scope.implements[iid], item)
        out.append(inner + "}")
    if scope.relation is not None:
        out += [inner + "ScopeRelations{",
                f"{item}--{scope.relation[0].value}-->{scope.relation[1].name}",
                inner + "}"]
    if scope.ports:
        out.append(inner + "Ports{")
        out += [item + _port_text(scope.ports[pid], pkg) for pid in sorted(scope.ports)]
        out.append(inner + "}")
    if scope.instances:
        out.append(inner + "Instances{")
        out += [item + _instance_text(scope.instances[nid], pkg)
                for nid in sorted(scope.instances)]
        out.append(inner + "}")
    if scope.connections:
        out.append(inner + "Connections{")
        out += [item + _connection_text(conn, pkg) for conn in sorted(
            scope.connections, key=lambda c: (c.name, _source_port_text(c, pkg)))]
        out.append(inner + "}")
    out.append(pad + "}")


def _not_inferred(pkg: Package, node: Optional[Node]) -> str:
    """The record of an unevaluated expression: its source text, escaped."""
    text = "" if node is None else pkg.snip(node)
    return f'NotInferred("{escape(text)}")'


def _dotted(ref: Node) -> str:
    """The name an ``ID`` leaf holds, or the ``pkg.name`` of a qualified one."""
    return ref[TEXT] or ".".join(c[TEXT] for c in ref[CHILDREN])


def _variable_text(var: Variable, pkg: Package) -> str:
    if var.state is EvalState.EVALUATED:
        return f"{var.id}:{format_value(var.value)}"
    if not var.is_magic:
        return (f'{var.id}:{var.declared_kind or "UnknownType"}'
                f'({_not_inferred(pkg, var.expr_ast)})')
    if var.declared_kind is None:  # an imported package
        return f'{var.id}:PackageType(NotInferred(""))'
    # a template parameter
    return (f'{var.id}:{_PARAM_PLACEHOLDERS[var.declared_kind]}'
            f'(NotInferred("$arg${var.id}"))')


# -- logical types -----------------------------------------------------------


def _dump_type_entry(out: list[str], entry: TypeEntry, pkg: Package, pad: str):
    """Append the entry's one line, or its block: a stream's element and
    properties, or a group's or union's scope."""
    scope, body = None, ()
    if entry.state is EvalState.EVALUATED:
        t = entry.evaluated
        if isinstance(t, StreamType):
            head = f"Stream({stream_display_name(t)})"
            body = (f"DataType={data_type_display(t.element)}",
                    _properties_text(t.properties))
        elif isinstance(t, (GroupType, UnionType)) and entry.own_scope is not None:
            tag = "DataGroup" if isinstance(t, GroupType) else "DataUnion"
            head, scope = f"{tag}({t.name})", entry.own_scope
        else:
            out.append(f"{pad}{entry.id}:{data_type_display(t)}")
            return
    else:
        ast = entry.ast
        inner = ast[CHILDREN][0] if ast[KIND] == "LogicalType" else ast
        kind = inner[KIND]
        if kind in ("LogicalGroupType", "LogicalUnionType"):
            tag = "DataGroup" if kind == "LogicalGroupType" else "DataUnion"
            head, scope = f"{tag}({inner[CHILDREN][0][TEXT]})", entry.own_scope
        elif kind == "LogicalStreamType":
            head = f"Stream({entry.id})"
            body = (f"DataType={_raw_element_text(inner[CHILDREN][0], pkg)}",
                    _raw_properties_text(inner, pkg))
        else:
            out.append(f"{pad}{entry.id}:{_raw_element_text(ast, pkg)}")
            return
    out.append(f"{pad}{entry.id}:{head}{{")
    if scope is not None:
        _dump_scope(out, scope, pad + "  ")
    out += [f"{pad}  {line}" for line in body]
    out.append(pad + "}")


def _raw_element_text(type_node: Node, pkg: Package) -> str:
    inner = type_node[CHILDREN][0] if type_node[KIND] == "LogicalType" else type_node
    kind = inner[KIND]
    if kind == "LogicalNullType":
        return "DataNull"
    if kind == "LogicalBitType":
        return f"Bit({_not_inferred(pkg, inner[CHILDREN][0])})"
    if kind == "LogicalUserDefinedType":
        return f"VarType({_dotted(inner)})"
    return _not_inferred(pkg, inner)


def _raw_properties_text(stream_node: Node, pkg: Package) -> str:
    raw = {}
    for _, node_kind, field in STREAM_PROPERTIES:
        prop = child(stream_node, node_kind)
        if prop is not None:
            raw[field] = (_raw_element_text(prop[CHILDREN][0], pkg) if field == "user"
                          else _not_inferred(pkg, prop[CHILDREN][0]))
    return _properties_text(StreamProperties(), raw)


def _properties_text(props: StreamProperties, raw: Optional[dict[str, str]] = None) -> str:
    """The dump text of the properties, in `STREAM_PROPERTIES` order; a
    field in `raw` shows that text in place of its value."""
    texts = {"user": data_type_display(props.user),
             "throughput": format_float(props.throughput),
             "keep": "true" if props.keep else "false", **(raw or {})}
    return ", ".join(f"{field}={texts.get(field, getattr(props, field))}"
                     for _, _, field in STREAM_PROPERTIES)


# -- streamlets / implementations ---------------------------------------------


def _param_tags(params) -> str:
    return ",".join(f"@ImplementOf({p.impl_of})" if p.kind == "impl"
                    else "@" + _PARAM_TAGS[p.kind] for p in params)


def _dump_streamlet(out: list[str], s: Streamlet, pad: str):
    head = f"<{_param_tags(s.template_params)}>" if s.is_template else "<NormalStreamlet>"
    out.append(f"{pad}Streamlet({s.id}){head}{{")
    _dump_scope(out, s.scope, pad + "  ")
    out.append(pad + "}")


def _dump_implement(out: list[str], impl: Implementation, pad: str):
    if impl.is_template:
        head = f"<{_param_tags(impl.template_params)}>"
    elif impl.external:
        head = "<ExternalImplement>"
    else:
        head = "<NormalImplement>"
    out.append(f"{pad}Implement({impl.id}){head} -> {_impl_streamlet_text(impl)}{{")
    _dump_scope(out, impl.scope, pad + "  ")
    process = "None" if impl.process_block is None else "Some"
    out += [f"{pad}  simulation_process{{{process}}}", pad + "}"]


def _impl_streamlet_text(impl: Implementation) -> str:
    if impl.streamlet is not None:
        return f"Streamlet({impl.streamlet.id})"
    pkg = impl.scope.package
    if impl.derived_from is not None:
        return _not_inferred(pkg, impl.derived_from)
    of = impl.of_ast
    if of[KIND] == "TemplateInstance":
        args = ",".join("@" + pkg.snip(a[CHILDREN][0])
                        for a in of[CHILDREN][1:])
        return f"ProxyStreamlet({_dotted(of[CHILDREN][0])}<{args}>)"
    return f"ProxyStreamlet({_dotted(of)}<>)"


# -- ports / instances / connections ------------------------------------------


def _port_text(port: Port, pkg: Package) -> str:
    if port.logical_type is not None:
        type_part = data_type_display(port.logical_type)
        cd = port.clockdomain.expression
    else:
        ast_inner = port.type_ast[CHILDREN][0]
        if ast_inner[KIND] == "LogicalUserDefinedType":
            type_part = f"VarType({_dotted(ast_inner)})"
        else:
            type_part = _not_inferred(pkg, port.type_ast)
        cd = "DefaultClockDomain" if port.cd_ast is None else \
            _not_inferred(pkg, port.cd_ast[CHILDREN][0])
    size = ""
    if port.array_size_ast is not None:
        size = f"[{port.array_size}]" if port.array_size is not None \
            else f"[{_not_inferred(pkg, port.array_size_ast)}]"
    return f"{port.name}:Port({type_part},{port.direction}){size} `{cd}"


def _instance_text(inst: Instance, pkg: Package) -> str:
    if inst.target is not None:
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
    if conn.sink.port is not None or conn.fifo_ast is None:
        fifo = str(conn.fifo_depth)
    else:
        fifo = _not_inferred(pkg, conn.fifo_ast)
    marker = " @NoStrictType@" if conn.no_strict else ""
    return (f"{_end_text(conn.source, pkg)} ={fifo}=> {_end_text(conn.sink, pkg)}"
            f"{marker} ({conn.name})")
