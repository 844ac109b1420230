"""Logical type evaluation: aliases, bit widths, streams and their properties.

Every type entry evaluates at most once. One function, `evaluate_type`,
evaluates every logical-type expression: of a type entry, a port, a
template argument or a stream's element. A named type or a member
extraction evaluates to the very object its declaration evaluated to,
through any alias chain, and a type written in place to a fresh object, so
strict type checking compares objects by identity; compatibility is the
structural comparison from `logical_types`. Each type is built once, when
its fields or properties are all known. Named types resolve through
`model.resolve_ref`.
"""

from __future__ import annotations

from typing import Any, Optional

from .context import EvalContext
from .errors import TydiError
from .logical_types import (DIRECTION_VALUES, NULL, STREAM_PROPERTIES,
                            SYNCHRONICITY_VALUES, BitType, GroupType,
                            StreamProperties, StreamType, UnionType)
from .math_engine import evaluate_expression
from .model import Scope, TypeEntry, resolve_ref
from .tree import CHILDREN, KIND, TEXT, Node
from .values import BoolValue, FloatValue, IntValue, StrValue, variant_name

_PROPERTY_KEYS = {kind: field for _, kind, field in STREAM_PROPERTIES}


def force_type_entry(ctx: EvalContext, entry: TypeEntry):
    """Evaluate a type entry once; returns the evaluated LogicalType."""
    ctx.force(entry, _compute_type_entry)
    return entry.evaluated


def _compute_type_entry(ctx: EvalContext, entry: TypeEntry):
    if entry.own_scope is not None:  # a group or union the builder built
        entry.evaluated = _evaluate_group(ctx, entry)
    else:
        entry.evaluated = evaluate_type(ctx, entry.scope, entry.ast,
                                        declared_name=entry.id)


def _evaluate_group(ctx: EvalContext, entry: TypeEntry):
    group_ast = entry.ast
    name = group_ast[CHILDREN][0][TEXT]
    scope = entry.own_scope
    cls = GroupType if group_ast[KIND] == "LogicalGroupType" else UnionType
    fields = tuple((fname, force_type_entry(ctx, scope.types[fname]))
                   for fname in entry.field_names)
    from .elaboration import check_assertion
    for a_scope, a in entry.asserts:
        check_assertion(ctx, a_scope, a)
    return cls(name=name, scope=scope, fields=fields)


def evaluate_type(ctx: EvalContext, scope: Scope, type_node: Node,
                  declared_name: Optional[str] = None):
    """Evaluate a logical-type expression to a concrete LogicalType: the
    object its declaration evaluated to for a named type or a member
    extraction (through any alias chain), a new one for a type written out
    in place.

    `declared_name` names the stream when the expression sits directly under
    a `type x = Stream(...)` declaration; inline streams stay anonymous.
    """
    inner = type_node[CHILDREN][0] if type_node[KIND] == "LogicalType" else type_node
    path = scope.package.path
    kind = inner[KIND]
    ctx.deeper(path)
    if kind == "LogicalUserDefinedType":
        t = force_type_entry(ctx, resolve_ref(ctx.project, scope, inner, "type"))
    elif kind == "LogicalTypeExtract":
        from .elaboration import extract_member_type
        t = extract_member_type(ctx, scope, inner)
    elif kind == "LogicalNullType":
        t = NULL
    elif kind == "LogicalBitType":
        width = evaluate_expression(ctx, scope, inner[CHILDREN][0])
        if not isinstance(width, IntValue):
            raise TydiError("type", f"Bit width must be an int, got {variant_name(width)}",
                            path, inner)
        if width.value < 1:
            raise TydiError("type", f"Bit width must be at least 1, got {width.value}",
                            path, inner)
        t = BitType(width.value)
    elif kind == "LogicalStreamType":
        t = _evaluate_stream(ctx, scope, inner, declared_name)
    else:  # a group or union, the last kinds of logical type the parser makes
        raise TydiError("type",
                        "inline group/union types must be declared with their own "
                        "`type` statement", path, inner)
    ctx.depth -= 1
    return t


def _evaluate_stream(ctx: EvalContext, scope: Scope, stream_node: Node,
                     declared_name: Optional[str]) -> StreamType:
    path = scope.package.path
    element = evaluate_type(ctx, scope, stream_node[CHILDREN][0])
    props: dict[str, Any] = {}
    for child in stream_node[CHILDREN][1:]:
        key = _PROPERTY_KEYS[child[KIND]]
        if key == "user":
            user = evaluate_type(ctx, scope, child[CHILDREN][0])
            if isinstance(user, StreamType):
                raise TydiError("type", "stream user type must not be a stream",
                                path, child)
            props[key] = user
            continue
        value = evaluate_expression(ctx, scope, child[CHILDREN][0])
        if key == "dimension":
            if not isinstance(value, IntValue) or value.value < 0:
                raise TydiError("type", "dimension must be a non-negative int", path, child)
        elif key == "throughput":
            if isinstance(value, IntValue):
                value = FloatValue(float(value.value))
            if not isinstance(value, FloatValue) or value.value <= 0:
                raise TydiError("type", "throughput must be a positive number",
                                path, child)
        elif key == "synchronicity":
            if not isinstance(value, StrValue) or value.value not in SYNCHRONICITY_VALUES:
                raise TydiError("type", "synchronicity must be one of "
                                f"{'/'.join(SYNCHRONICITY_VALUES)}", path, child)
        elif key == "complexity":
            if not isinstance(value, IntValue) or not 1 <= value.value <= 7:
                got = value.value if isinstance(value, IntValue) else variant_name(value)
                raise TydiError("type", f"complexity must be an int in [1, 7], got {got}",
                                path, child)
        elif key == "direction":
            if not isinstance(value, StrValue) or value.value not in DIRECTION_VALUES:
                raise TydiError("type", "direction must be one of "
                                f"{'/'.join(DIRECTION_VALUES)}", path, child)
        elif key == "keep":
            if not isinstance(value, BoolValue):
                raise TydiError("type", "keep must be a bool", path, child)
        props[key] = value.value
    return StreamType(name=declared_name, element=element,
                      properties=StreamProperties(**props))
