"""Streamlet/implementation evaluation, template monomorphization and
generative for/if expansion.

Evaluation is demand-driven: an implementation pulls in its streamlet, the
targets of its instances (instantiating templates on the way), the types of
every port it touches, and nothing else. A streamlet or implementation is
computed once, by `EvalContext.force`; a derived implementation
(`impl name(template<args>);`) adopts the body of a fresh instance and goes
on to evaluate it. Template instantiation builds the template's statement
again into its package's scope under a mangled ``name@arg@arg`` id, binds
each parameter's magic variable in the fresh scope, registers the instance
in the template's package and forces it; instantiating the same arguments
twice finds the registered entity there, whose own evaluation state replays
its result. `_resolve_entity` resolves every streamlet and implementation
reference (`of`, instance target, extraction owner, `impl of` argument): it
instantiates a `name<args>` use, finds an `impl of` argument in the scope and
resolves any other name, as it does a type, through `model.resolve_ref`.
`_evaluate_count` evaluates every array size and FIFO depth.

Each element of a `for` block gets a scope that binds the loop variable and
reaches the scope around it by an if/for relation. Expansion selects the
`if` branch or loops over the elements itself and hands every other item to
`builder.build_item`, once per element; what it builds evaluates in that
scope. An instance target of a `for` body that names nothing an element
scope binds is resolved once per implementation, at its first use.
"""

from __future__ import annotations

from typing import Optional

from .builder import build_impl, build_item, build_streamlet, substitute
from .context import EvalContext
from .errors import TydiError
from .logical_types import StreamType, short_name
from .math_engine import (RANGE_ELEMENT_LIMIT, evaluate_expression, evaluate_range,
                          evaluate_term, force_variable)
from .model import (Connection, EndRef, EvalState, Implementation, Instance,
                    Port, Scope, ScopeRelationKind, Streamlet, TypeEntry,
                    Variable, resolve_name, resolve_ref)
from .tree import CHILDREN, KIND, TEXT, Node
from .type_eval import evaluate_type, force_type_entry
from .values import (DEFAULT_CLOCKDOMAIN, ArrayValue, BoolValue, ClockDomainValue,
                     IntValue, Value, format_value, mangle_text, variant_name)


# -- streamlet evaluation ------------------------------------------------------


def evaluate_streamlet(ctx: EvalContext, s: Streamlet):
    ctx.force(s, _compute_streamlet)


def _compute_streamlet(ctx: EvalContext, s: Streamlet):
    for port in s.ports.values():
        evaluate_port(ctx, s.scope, port)
    for scope, a in s.asserts:
        check_assertion(ctx, scope, a)


def evaluate_port(ctx: EvalContext, scope: Scope, port: Port):
    path = scope.package.path
    logical_type = evaluate_type(ctx, scope, port.type_ast)
    if not isinstance(logical_type, StreamType):
        raise TydiError("type",
                        f"port {port.name!r} must have a stream type, got "
                        f"{short_name(logical_type)}", path, port.span)
    if port.array_size_ast is not None:
        port.array_size = _evaluate_count(ctx, scope, port.array_size_ast, 1, port.span,
                                          "port array size must be a positive int", "port")
    if port.cd_ast is None:
        port.clockdomain = DEFAULT_CLOCKDOMAIN
    else:
        body = port.cd_ast[CHILDREN][0]
        if body[KIND] == "STR":
            port.clockdomain = ClockDomainValue(body[TEXT])
        else:
            var = resolve_ref(ctx.project, scope, body, "variable")
            cd = force_variable(ctx, var, path, body)
            if not isinstance(cd, ClockDomainValue):
                raise TydiError("type",
                                f"port clockdomain {body[TEXT]!r} must be a "
                                f"clockdomain value, got {variant_name(cd)}", path, body)
            port.clockdomain = cd
    port.logical_type = logical_type  # last: a port with a type is evaluated


# -- implementation evaluation -------------------------------------------------


def evaluate_implementation(ctx: EvalContext, impl: Implementation):
    ctx.force(impl, _compute_implementation)


def _compute_implementation(ctx: EvalContext, impl: Implementation):
    if impl.derived_from is not None:
        _adopt_derived(ctx, impl)
    impl.streamlet = _resolve_of_streamlet(ctx, impl)
    evaluate_streamlet(ctx, impl.streamlet)
    for block in impl.generative:
        _expand_item(ctx, impl, block, impl.scope, "")
    shared: dict[int, list] = {}  # id of a `for`-body target: [its names, its target]
    for inst in impl.scope.instances.values():
        _evaluate_instance(ctx, inst, shared)
    for conn in impl.scope.connections:
        resolve_connection(ctx, impl, conn)
    for scope, a in impl.asserts:
        check_assertion(ctx, scope, a)


def _adopt_derived(ctx: EvalContext, impl: Implementation):
    """`impl name(template<args>);` — take the body of a fresh monomorph
    under the user name, which the implementation then evaluates."""
    template, args = _resolve_template_use(ctx, impl.scope, impl.derived_from,
                                           "implementation")
    body = _do_instantiate(template, args, impl.id)
    for name in ("scope", "instances", "connections", "external", "asserts",
                 "generative", "process_block", "of_ast"):
        setattr(impl, name, getattr(body, name))


def _resolve_of_streamlet(ctx: EvalContext, impl: Implementation) -> Streamlet:
    s = _resolve_entity(ctx, impl.scope, impl.of_ast, "streamlet")
    if s.is_template:
        raise TydiError(
            "resolution",
            f"streamlet {s.id!r} is a template; supply template arguments",
            impl.scope.package.path, impl.of_ast)
    return s


def _evaluate_instance(ctx: EvalContext, inst: Instance, shared: dict[int, list]):
    scope = inst.scope
    slot = _shared_slot(shared, inst.target_ast, scope)
    target = slot[1] if slot else None
    if target is None:
        target = _resolve_entity(ctx, scope, inst.target_ast, "implementation")
        if target.is_template:
            raise TydiError(
                "resolution",
                f"instance {inst.name!r} targets template {target.id!r} "
                "without arguments", scope.package.path, inst.span)
        evaluate_implementation(ctx, target)
        if slot:
            slot[1] = target
    if inst.array_size_ast is not None:
        inst.array_size = _evaluate_count(ctx, scope, inst.array_size_ast, 1, inst.span,
                                          "instance array size must be a positive int",
                                          "instance")
    inst.target = target  # last: an instance with a target is evaluated


def _shared_slot(shared: dict[int, list], target_ast: Node, scope: Scope):
    """The slot of `shared` that holds the target `target_ast` resolves to in
    every `for` element of the implementation, or None when `scope` is not an
    element's or an element scope up to the implementation's binds a name the
    node mentions: a loop variable, or a const or type the body declares."""
    if scope.category != "iffor":
        return None
    slot = shared.get(id(target_ast))
    if slot is None:
        order = [target_ast]
        for n in order:  # a loop, not recursion, as `tree.named`
            order.extend(n[CHILDREN])
        slot = shared[id(target_ast)] = [
            {n[TEXT] for n in order if n[TEXT] is not None}, None]
    names = slot[0]
    while scope.category == "iffor":
        if not (names.isdisjoint(scope.variables) and names.isdisjoint(scope.types)):
            return None
        scope = scope.relation[1]
    return slot


def _resolve_entity(ctx: EvalContext, scope: Scope, ref: Node, category: str):
    """The streamlet or implementation `ref` names in `scope`: the instance
    of a `name<args>` use, an `impl of` argument bound in `scope` (for an
    implementation), or else what `resolve_ref` finds."""
    if ref[KIND] == "TemplateInstance":
        template, args = _resolve_template_use(ctx, scope, ref, category)
        return instantiate_template(ctx, template, args)
    if category == "implementation" and ref[TEXT] in scope.impl_args:
        return scope.impl_args[ref[TEXT]]
    return resolve_ref(ctx.project, scope, ref, category)


def _evaluate_count(ctx: EvalContext, scope: Scope, exp: Node, least: int,
                    span: Node, message: str, array: Optional[str] = None) -> int:
    """The int `exp` evaluates to in `scope`: an array size or a FIFO depth.
    Anything else, or an int below `least`, is a type error with `message`
    at `span`. The size of a `port` or `instance` `array` makes as many
    elements, so above `RANGE_ELEMENT_LIMIT` it is a type error at `exp`; a
    FIFO depth makes none and is unbounded."""
    value = evaluate_expression(ctx, scope, exp)
    if not isinstance(value, IntValue) or value.value < least:
        raise TydiError("type", message, scope.package.path, span)
    if array and value.value > RANGE_ELEMENT_LIMIT:
        raise TydiError("type", f"{array} array size {value.value} is above the limit of "
                        f"{RANGE_ELEMENT_LIMIT}", scope.package.path, exp)
    return value.value


# -- connections ---------------------------------------------------------------


def resolve_connection(ctx: EvalContext, impl: Implementation, conn: Connection):
    for end in (conn.source, conn.sink):
        _resolve_end(ctx, impl, end, conn.scope)
    if conn.fifo_ast is not None:
        conn.fifo_depth = _evaluate_count(ctx, conn.scope, conn.fifo_ast, 0, conn.span,
                                          "FIFO depth must be a non-negative int")


def _path_part(node: Node, scope: Scope):
    """The name node of a PathOwner or PathPort node, the name it spells in
    `scope`, and its index expression (None without an index)."""
    name_node = node[CHILDREN][0]
    name = name_node[TEXT] if name_node[KIND] == "ID" else \
        substitute(name_node, scope)
    index = node[CHILDREN][1][CHILDREN][0] if len(node[CHILDREN]) > 1 else None
    return name_node, name, index


def _resolve_end(ctx: EvalContext, impl: Implementation, end: EndRef, scope: Scope):
    path = scope.package.path
    port_node, port_name, port_index = _path_part(end.path_port, scope)
    end.port_name = port_name
    if end.path_owner is None:
        port = impl.streamlet.ports.get(port_name)
        if port is None:
            raise TydiError(
                "resolution",
                f"unknown port {port_name!r} on streamlet {impl.streamlet.id!r}",
                path, port_node)
    else:
        owner_node, owner_name, owner_index = _path_part(end.path_owner, scope)
        end.owner_name = owner_name
        inst = impl.scope.instances.get(owner_name)
        if inst is None:
            raise TydiError(
                "resolution",
                f"unknown instance {owner_name!r} in implementation {impl.id!r}",
                path, owner_node)
        end.instance = inst
        end.owner_index = _end_index(ctx, scope, owner_index, inst.array_size,
                                     f"instance {owner_name!r}", owner_node)
        port = inst.target.streamlet.ports.get(port_name)
        if port is None:
            raise TydiError(
                "resolution",
                f"unknown port {port_name!r} on instance {owner_name!r} "
                f"(streamlet {inst.target.streamlet.id!r})",
                path, port_node)
    end.port = port
    end.port_index = _end_index(ctx, scope, port_index, port.array_size,
                                f"port {port_name!r}", port_node)


def _end_index(ctx, scope, index_ast, size, what, name_node) -> Optional[int]:
    path = scope.package.path
    if index_ast is None:
        if size is not None:
            raise TydiError("resolution", f"{what} is an array; an index is required",
                            path, name_node)
        return None
    if size is None:
        raise TydiError("resolution", f"{what} is not an array", path, index_ast)
    idx = evaluate_expression(ctx, scope, index_ast)
    if not isinstance(idx, IntValue):
        raise TydiError("type", f"index of {what} must be an int", path, index_ast)
    if not 0 <= idx.value < size:
        raise TydiError("resolution",
                        f"index {idx.value} out of bounds for {what} of size {size}",
                        path, index_ast)
    return idx.value


# -- assertions ------------------------------------------------------------------


def check_assertion(ctx: EvalContext, scope: Scope, assert_stmt: Node):
    path = scope.package.path
    exp = assert_stmt[CHILDREN][0]
    value = evaluate_expression(ctx, scope, exp)
    if not isinstance(value, BoolValue):
        raise TydiError("type",
                        f"assert expects a boolean argument, got {variant_name(value)}",
                        path, assert_stmt)
    if value.value:
        return
    raw = scope.package.snip(exp)
    operands = ", ".join(format_value(evaluate_term(ctx, scope, t))
                         for t in exp[CHILDREN] if t[KIND] == "Term")
    raise TydiError("assertion",
                    f"assertion failed: {raw} (operands: {operands})", path, assert_stmt)


# -- member extraction -------------------------------------------------------------


def _extract_member(ctx: EvalContext, scope: Scope, extract: Node, table: str,
                    what: str):
    """The entry a `streamlet/impl/type owner.member` extraction names in the
    owner's `table` of variables or types; a miss names the member `what`."""
    keyword = extract[CHILDREN][0][TEXT]
    owner_ast = extract[CHILDREN][1]
    path = scope.package.path
    if keyword in ("streamlet", "impl"):
        category = "streamlet" if keyword == "streamlet" else "implementation"
        owner_scope = _resolve_entity(ctx, scope, owner_ast, category).scope
    else:  # keyword 'type': group/union member access
        if owner_ast[KIND] not in ("ID", "QualifiedId"):
            raise TydiError("resolution", "type member extraction needs a type name",
                            path, owner_ast)
        entry = resolve_ref(ctx.project, scope, owner_ast, "type")
        owner_scope = getattr(force_type_entry(ctx, entry), "scope", None)
        if owner_scope is None:
            raise TydiError(
                "resolution",
                f"type {entry.id!r} has no member scope (only groups and unions do)",
                path, owner_ast)
    member = extract[CHILDREN][2][TEXT]
    found = getattr(owner_scope, table).get(member)
    if found is None:
        raise TydiError("resolution",
                        f"{what} {member!r} not found in scope {owner_scope.name!r}",
                        path, extract)
    return found


def extract_member_value(ctx: EvalContext, scope: Scope, extract: Node) -> Value:
    var = _extract_member(ctx, scope, extract, "variables", "member")
    return force_variable(ctx, var, scope.package.path, extract)


def extract_member_type(ctx: EvalContext, scope: Scope, extract: Node):
    entry = _extract_member(ctx, scope, extract, "types", "type member")
    return force_type_entry(ctx, entry)


# -- template instantiation ----------------------------------------------------------


def _resolve_template_use(ctx: EvalContext, scope: Scope, inst_ast: Node,
                          category: str):
    """Resolve a `name<args>` use; evaluates the arguments in `scope`."""
    path = scope.package.path
    base = inst_ast[CHILDREN][0]
    template = resolve_ref(ctx.project, scope, base, category)
    if not template.is_template:
        raise TydiError("resolution",
                        f"{category} {template.id!r} is not a template",
                        path, inst_ast)
    arg_nodes = inst_ast[CHILDREN][1:]
    params = template.template_params
    if len(arg_nodes) != len(params):
        raise TydiError(
            "resolution",
            f"template {template.id!r} expects {len(params)} argument(s), "
            f"got {len(arg_nodes)}", path, inst_ast)
    args = [_evaluate_template_arg(ctx, scope, template, p, a)
            for p, a in zip(params, arg_nodes)]
    return template, args


def _evaluate_template_arg(ctx: EvalContext, scope: Scope, template, param,
                           arg_node: Node):
    path = scope.package.path
    if param.kind == "type":
        if arg_node[KIND] != "TemplateArgType":
            raise TydiError("type",
                            f"template parameter {param.name!r} expects a logical type; "
                            "use the `type` keyword before the argument", path, arg_node)
        return evaluate_type(ctx, scope, arg_node[CHILDREN][0])
    if param.kind == "impl":
        if arg_node[KIND] != "TemplateArgImpl":
            raise TydiError("type",
                            f"template parameter {param.name!r} expects an implementation; "
                            "use the `impl` keyword before the argument", path, arg_node)
        target = _resolve_entity(ctx, scope, arg_node[CHILDREN][0], "implementation")
        if target.is_template:
            raise TydiError(
                "resolution",
                f"component argument {target.id!r} must be a concrete "
                "implementation, not a template", path, arg_node)
        evaluate_implementation(ctx, target)
        wanted, _ = resolve_name(template.scope.package.scope,
                                 param.impl_of, "streamlet", path, arg_node)
        if target.streamlet is not wanted:
            raise TydiError("type",
                            f"implementation {target.id!r} implements streamlet "
                            f"{target.streamlet.id!r}, but parameter {param.name!r} "
                            f"requires an implementation of {param.impl_of!r}",
                            path, arg_node)
        return target
    if arg_node[KIND] != "TemplateArgExp":
        raise TydiError("type",
                        f"template parameter {param.name!r} expects a {param.kind} value",
                        path, arg_node)
    value = evaluate_expression(ctx, scope, arg_node[CHILDREN][0])
    if variant_name(value) != param.kind:
        raise TydiError("type",
                        f"template parameter {param.name!r} expects {param.kind}, got "
                        f"{variant_name(value)}", path, arg_node)
    return value


def _mangle(kind: str, arg) -> str:
    if kind == "type":
        return short_name(arg)
    if kind == "impl":
        return arg.id
    return mangle_text(arg)


def mangled_name(template, args: list) -> str:
    return template.id + "".join("@" + _mangle(p.kind, a)
                                 for p, a in zip(template.template_params, args))


def instantiate_template(ctx: EvalContext, template, args: list):
    """Monomorphize once per (template package, mangled name): the instance
    is registered in the package's table, which later uses look it up in.
    Each argument is what its parameter's kind takes: a LogicalType, an
    Implementation or a Value."""
    mangled = mangled_name(template, args)
    pkg_scope = template.scope.package.scope
    if isinstance(template, Streamlet):
        table, compute = pkg_scope.streamlets, _compute_streamlet
    else:
        table, compute = pkg_scope.implements, _compute_implementation
    entity = table.get(mangled)
    if entity is None:
        entity = table[mangled] = _do_instantiate(template, args, mangled)
    # evaluated after registration, so partial results appear in dumps; an
    # evaluated or failed instance replays its result
    ctx.force(entity, compute)
    return entity


def _do_instantiate(template, args: list, new_name: str):
    """Build the template's statement again under `new_name`, in the
    template's package, and bind the arguments in the fresh scope."""
    build = build_streamlet if isinstance(template, Streamlet) else build_impl
    entity = build(template.span, template.scope.package.scope, new_name)
    entity.template_params = []
    _bind_args(entity.scope, template.template_params, args)
    return entity


def _bind_args(scope: Scope, params, args: list):
    for param, arg in zip(params, args):
        scope.variables.pop(param.name, None)
        if param.kind == "type":
            scope.types[param.name] = TypeEntry(
                id=param.name, ast=None, scope=scope,
                state=EvalState.EVALUATED, evaluated=arg)
        elif param.kind == "impl":
            scope.impl_args[param.name] = arg
        else:
            scope.variables[param.name] = Variable(
                id=param.name, scope=scope, declared_kind=param.kind,
                state=EvalState.EVALUATED, value=arg)


# -- generative for/if expansion -----------------------------------------------------


def _expand_item(ctx: EvalContext, impl: Implementation, item: Node,
                 scope: Scope, suffix: str):
    """Build `item`, or what an if/for block generates, into `impl`; its
    expressions evaluate in `scope`, the implementation's or a `for`
    element's."""
    if item[KIND] not in ("ForBlock", "IfBlock"):
        build_item(item, impl, impl.scope, scope, suffix)
        return
    ctx.deeper(scope.package.path)
    if item[KIND] == "ForBlock":
        expand_for(ctx, impl, item, scope, suffix)
    else:
        for child in _select_if_branch(ctx, scope, item):
            _expand_item(ctx, impl, child, scope, suffix)
    ctx.depth -= 1


def _select_if_branch(ctx, scope, block: Node) -> tuple[Node, ...]:
    """The items of the branch whose condition holds; none if no branch does."""
    def test(exp: Node) -> bool:
        v = evaluate_expression(ctx, scope, exp)
        if not isinstance(v, BoolValue):
            raise TydiError("type",
                            f"if condition must be a boolean value, got {variant_name(v)}",
                            scope.package.path, exp)
        return v.value

    if test(block[CHILDREN][0]):
        return block[CHILDREN][1][CHILDREN]
    for clause in block[CHILDREN][2:]:
        if clause[KIND] == "ElifClause":
            if test(clause[CHILDREN][0]):
                return clause[CHILDREN][1][CHILDREN]
        elif clause[KIND] == "ElseClause":
            return clause[CHILDREN][0][CHILDREN]
    return ()


def expand_for(ctx: EvalContext, impl: Implementation, block: Node,
               scope: Scope, suffix: str):
    """Build the body once per element, in an element scope that binds the
    loop variable and resolves everything else through `scope`."""
    path = scope.package.path
    var = block[CHILDREN][0][TEXT]
    iterable = block[CHILDREN][1]
    body = block[CHILDREN][2]
    if iterable[KIND] == "RangeExp":
        values = evaluate_range(ctx, scope, iterable)
    else:
        v = evaluate_expression(ctx, scope, iterable)
        if not isinstance(v, ArrayValue):
            raise TydiError("type",
                            f"for iterates an array of basic values, got {variant_name(v)}",
                            path, iterable)
        values = v
    _reject_plain_instances(body, path)
    for index, element in enumerate(values.elements):
        # named after the scope around it, which labels and dumps name as before
        element_scope = Scope(scope.name, "iffor", impl_args=scope.impl_args,
                              relation=(ScopeRelationKind.IFFOR, scope),
                              package=scope.package)
        element_scope.variables[var] = Variable(
            id=var, scope=element_scope, state=EvalState.EVALUATED, value=element)
        for item in body[CHILDREN]:
            _expand_item(ctx, impl, item, element_scope, f"{suffix}_for_{var}_{index}")


def _reject_plain_instances(body: Node, path):
    """Plain-named instances inside a for body would collide after expansion."""
    for item in body[CHILDREN]:
        if item[KIND] == "InstanceDecl" and item[CHILDREN][0][KIND] == "ID":
            raise TydiError(
                "resolution",
                f"instance {item[CHILDREN][0][TEXT]!r} cannot be declared in "
                "a for scope; interpolate the name with {{...}} instead",
                path, item)
        if item[KIND] in ("IfBlock", "ForBlock", "StatementBlock", "ElifClause",
                         "ElseClause"):
            _reject_plain_instances(item, path)
