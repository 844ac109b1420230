"""Constant-expression evaluation with lazy, memoized variable forcing.

Implements the operator/type matrix for constant variables: arithmetic with
int/float promotion, bool logic, comparisons, string concatenation, bitwise
operations, `round`/`floor`/`ceil`/`log`, array literals and insertion, and
integer ranges. Integer arithmetic is 64-bit; overflow is a compile error
rather than silent wraparound, as is a float literal or result that is not
finite. A `name` or `package.name` reference resolves through
`model.resolve_ref`.
"""

from __future__ import annotations

import math
from typing import Optional

from .context import EvalContext
from .errors import Located, TydiError
from .model import Scope, Variable, resolve_ref
from .tree import CHILDREN, KIND, TEXT, Node
from .values import (ArrayValue, BoolValue, ClockDomainValue, FloatValue,
                     IntValue, StrValue, Value, in_int64_range, mangle_text,
                     variant_name)

PRECEDENCE = {
    "||": 1, "&&": 2, "|": 3, "&": 4, "==": 5, "!=": 5,
    "<": 6, ">": 6, "<=": 6, ">=": 6, "<<": 7, ">>": 7,
    "+": 8, "-": 8, "*": 9, "/": 9, "%": 9, "^": 10,
}

RANGE_ELEMENT_LIMIT = 1_000_000


def generated_clockdomain(package_name: str, var_id: str) -> str:
    """Deterministic expression for a bare `const x: clockdomain;`."""
    return f"$generated${package_name}${var_id}"


def _check_int(n: int, span: Optional[Located], path, what: str = "integer") -> int:
    if not in_int64_range(n):
        raise TydiError("type", f"{what} overflows 64-bit range: {n}", path, span)
    return n


def _check_float(x: float, span: Optional[Located], path,
                 what: str = "float result") -> FloatValue:
    if not math.isfinite(x):
        raise TydiError("type", f"{what} out of range", path, span)
    return FloatValue(x)


def _trunc_div(a: int, b: int) -> int:
    q = abs(a) // abs(b)
    return q if (a >= 0) == (b >= 0) else -q


def _trunc_mod(a: int, b: int) -> int:
    r = abs(a) % abs(b)
    return r if a >= 0 else -r


def err(message: str, path, span: Optional[Located] = None) -> TydiError:
    return TydiError("type", message, path, span)


def evaluate_expression(ctx: EvalContext, scope: Scope, exp: Node) -> Value:
    """Terms left to right; an operator applies once the next one binds no
    tighter, so equal precedences group from the left, with no recursion.
    Each referenced variable is forced once, through `EvalContext.force`,
    however many expressions mention it."""
    children = exp[CHILDREN]
    values = [evaluate_term(ctx, scope, children[0])]
    ops: list[str] = []
    for k in range(1, len(children) + 1, 2):
        op = children[k][TEXT] if k < len(children) else None
        while ops and (op is None or PRECEDENCE[ops[-1]] >= PRECEDENCE[op]):
            right = values.pop()
            values[-1] = apply_binary(ops.pop(), values[-1], right,
                                      scope.package.path, exp)
        if op is not None:
            ops.append(op)
            values.append(evaluate_term(ctx, scope, children[k + 1]))
    return values[0]


def evaluate_term(ctx: EvalContext, scope: Scope, term: Node) -> Value:
    path = scope.package.path
    ctx.deeper(path)
    inner = term[CHILDREN][0]
    if inner[KIND] == "Exp":
        value = evaluate_expression(ctx, scope, inner)
    elif inner[KIND] == "UnaryExp":
        operand = evaluate_term(ctx, scope, inner[CHILDREN][1])
        value = apply_unary(inner[CHILDREN][0][TEXT], operand, path, inner)
    elif inner[KIND] == "ArrayExp":
        elems = tuple(evaluate_expression(ctx, scope, e) for e in inner[CHILDREN])
        kinds = {type(e) for e in elems}
        if len(kinds) > 1:
            raise err("array elements must all have the same type", path, inner)
        if ArrayValue in kinds:
            raise err("nested arrays are not supported", path, inner)
        value = ArrayValue(elems)
    else:
        value = _eval_atom(ctx, scope, inner)
    ctx.depth -= 1
    return value


def _eval_atom(ctx: EvalContext, scope: Scope, atom: Node) -> Value:
    kind = atom[KIND]
    if kind == "IntExp":
        leaf = atom[CHILDREN][0]
        text = leaf[TEXT]
        n = int(text) if leaf[KIND] == "INT_RAW_NORAML" else int(text, 0)
        return IntValue(_check_int(n, atom, scope.package.path, "integer literal"))
    if kind == "FloatExp":
        return _check_float(float(atom[CHILDREN][0][TEXT]), atom, scope.package.path,
                            "float literal")
    if kind == "StringExp":
        return StrValue(atom[CHILDREN][0][TEXT])
    if kind == "BoolExp":
        return BoolValue(atom[CHILDREN][0][TEXT] == "true")
    if kind == "VarExp" or kind == "IndexExp":
        return _eval_variable(ctx, scope, atom)
    if kind == "FunctionExp":
        return _eval_function(ctx, scope, atom)
    # MemberExtractExp, the last kind of atom the parser makes
    from .elaboration import extract_member_value
    return extract_member_value(ctx, scope, atom)


def _eval_variable(ctx: EvalContext, scope: Scope, atom: Node) -> Value:
    """A VarExp's variable, or the element of it that an IndexExp selects."""
    path = scope.package.path
    var = resolve_ref(ctx.project, scope, atom, "variable")
    arr = force_variable(ctx, var, path, atom)
    if atom[KIND] == "VarExp":
        return arr
    index_exp = atom[CHILDREN][-1]
    if not isinstance(arr, ArrayValue):
        raise err(f"{atom[CHILDREN][-2][TEXT]!r} is not an array", path, atom)
    idx = evaluate_expression(ctx, scope, index_exp)
    if not isinstance(idx, IntValue):
        raise err("array index must be an int", path, index_exp)
    if not 0 <= idx.value < len(arr.elements):
        raise err(
            f"index {idx.value} out of bounds for array of size "
            f"{len(arr.elements)}", path, atom)
    return arr.elements[idx.value]


def _eval_function(ctx: EvalContext, scope: Scope, atom: Node) -> Value:
    path = scope.package.path
    func = atom[CHILDREN][0][TEXT]
    if func == "log":
        base = evaluate_expression(ctx, scope, atom[CHILDREN][1])
        arg = evaluate_expression(ctx, scope, atom[CHILDREN][2])
        return _eval_log(base, arg, path, atom)
    arg = evaluate_expression(ctx, scope, atom[CHILDREN][1])
    if not isinstance(arg, FloatValue):
        raise err(f"{func} expects a float, got {variant_name(arg)}", path, atom)
    x = arg.value
    if func == "round":
        n = math.floor(x + 0.5) if x >= 0 else math.ceil(x - 0.5)
    elif func == "floor":
        n = math.floor(x)
    else:  # ceil: the parser makes a FUNC of the builtins only
        n = math.ceil(x)
    return IntValue(_check_int(int(n), atom, path, f"{func} result"))


# -- operators: values plus the location (path, span) an error is reported at -------

def _eval_log(base: Value, arg: Value, path, span) -> Value:
    for v, what in ((base, "base"), (arg, "argument")):
        if not isinstance(v, (IntValue, FloatValue)):
            raise err(f"log {what} must be numeric, got {variant_name(v)}", path, span)
    b, x = base.value, arg.value
    if x <= 0:
        raise err(f"log argument must be positive, got {x}", path, span)
    if b <= 0 or b == 1:
        raise err(f"log base must be positive and not 1, got {b}", path, span)
    if b == 2:
        return FloatValue(math.log2(x))
    if b == 10:
        return FloatValue(math.log10(x))
    return FloatValue(math.log(x) / math.log(b))


def apply_unary(op: str, v: Value, path, span) -> Value:
    if op == "-":
        if isinstance(v, IntValue):
            return IntValue(_check_int(-v.value, span, path))
        if isinstance(v, FloatValue):
            return FloatValue(-v.value)
        raise err(f"unary '-' expects int or float, got {variant_name(v)}", path, span)
    if op == "!":
        if isinstance(v, BoolValue):
            return BoolValue(not v.value)
        raise err(f"unary '!' expects bool, got {variant_name(v)}", path, span)
    # "~", the last of the parser's unary operators
    if isinstance(v, IntValue):
        return IntValue(_check_int(~v.value, span, path))
    raise err(f"unary '~' expects int, got {variant_name(v)}", path, span)


def apply_binary(op: str, a: Value, b: Value, path, span) -> Value:
    if op == "+" and (isinstance(a, ArrayValue) or isinstance(b, ArrayValue)):
        return _array_insert(a, b, path, span)

    if op in ("&&", "||"):
        if isinstance(a, BoolValue) and isinstance(b, BoolValue):
            return BoolValue(a.value and b.value if op == "&&"
                             else a.value or b.value)
        raise _bin_err(op, a, b, path, span)

    if op in ("==", "!="):
        if type(a) is not type(b) or isinstance(a, ArrayValue):
            raise _bin_err(op, a, b, path, span)
        if isinstance(a, ClockDomainValue):
            same = a.expression == b.expression
        else:
            same = a.value == b.value
        return BoolValue(same if op == "==" else not same)

    if op in ("<", ">", "<=", ">="):
        if not (isinstance(a, (IntValue, FloatValue))
                and isinstance(b, (IntValue, FloatValue))):
            raise _bin_err(op, a, b, path, span)
        x, y = a.value, b.value
        result = {"<": x < y, ">": x > y, "<=": x <= y, ">=": x >= y}[op]
        return BoolValue(result)

    if op in ("<<", ">>", "&", "|", "%"):
        if not (isinstance(a, IntValue) and isinstance(b, IntValue)):
            raise _bin_err(op, a, b, path, span)
        x, y = a.value, b.value
        if op == "%":
            if y == 0:
                raise err("modulo by zero", path, span)
            return IntValue(_trunc_mod(x, y))
        if op in ("<<", ">>"):
            if not 0 <= y < 64:
                raise err(f"shift amount must be in [0, 64), got {y}", path, span)
            n = x << y if op == "<<" else x >> y
            return IntValue(_check_int(n, span, path, "shift result"))
        n = x & y if op == "&" else x | y
        return IntValue(_check_int(n, span, path))

    if op == "+" and (isinstance(a, StrValue) or isinstance(b, StrValue)):
        if isinstance(a, ClockDomainValue) or isinstance(b, ClockDomainValue):
            raise _bin_err("+", a, b, path, span)
        return StrValue(mangle_text(a) + mangle_text(b))

    # + - * / ^, the rest of the parser's infix operators
    if not (isinstance(a, (IntValue, FloatValue))
            and isinstance(b, (IntValue, FloatValue))):
        raise _bin_err(op, a, b, path, span)
    return _numeric(op, a, b, path, span)


def _numeric(op: str, a: Value, b: Value, path, span) -> Value:
    both_int = isinstance(a, IntValue) and isinstance(b, IntValue)
    x, y = a.value, b.value
    if op == "/":
        if y == 0:
            raise err("division by zero", path, span)
        if both_int:
            return IntValue(_check_int(_trunc_div(x, y), span, path))
        return _check_float(x / y, span, path)
    if op == "^":
        if both_int and y >= 0:
            # past 2 ^ 64 the power surely overflows: do not compute it
            if abs(x) >= 2 and y > 64:
                raise err(f"power result out of range: {x} ^ {y}", path, span)
            return IntValue(_check_int(x ** y, span, path, "power result"))
        try:
            n = float(x) ** float(y)
        except (OverflowError, ZeroDivisionError):
            n = None
        if not isinstance(n, float):  # also a negative base to a fraction
            raise err(f"power result out of range: {x} ^ {y}", path, span)
        return FloatValue(n)
    n = {"+": x + y, "-": x - y, "*": x * y}[op]
    if both_int:
        return IntValue(_check_int(n, span, path))
    return _check_float(float(n), span, path)


def _array_insert(a: Value, b: Value, path, span) -> Value:
    if isinstance(a, ArrayValue) and isinstance(b, ArrayValue):
        raise err("cannot add two arrays", path, span)
    arr, elem, append = (a, b, True) if isinstance(a, ArrayValue) else (b, a, False)
    if arr.elements and type(arr.elements[0]) is not type(elem):
        raise err(
            f"inserted {variant_name(elem)} does not match array of "
            f"{variant_name(arr.elements[0])}", path, span)
    elements = arr.elements + (elem,) if append else (elem,) + arr.elements
    return ArrayValue(elements)


def _bin_err(op, a, b, path, span) -> TydiError:
    return err(
        f"operator {op!r} not defined for {variant_name(a)} * {variant_name(b)}",
        path, span)


def evaluate_range(ctx: EvalContext, scope: Scope, range_exp: Node) -> ArrayValue:
    """`start=step=>end` produces the half-open int sequence [start, end)."""
    path = scope.package.path
    vals = [evaluate_expression(ctx, scope, c) for c in range_exp[CHILDREN]]
    for v in vals:
        if not isinstance(v, IntValue):
            raise err("range bounds must all be int", path, range_exp)
    start, step, stop = (v.value for v in vals)
    if step == 0:
        raise err("range step must not be zero", path, range_exp)
    size = max(0, -(-(stop - start) // step))
    if size > RANGE_ELEMENT_LIMIT:
        raise err(f"range produces too many elements ({size})", path, range_exp)
    return ArrayValue(tuple(IntValue(n) for n in range(start, stop, step)))


def force_variable(ctx: EvalContext, var: Variable, path: Optional[str] = None,
                   span: Optional[Located] = None) -> Value:
    """Evaluate a variable at most once; later requests reuse the result.
    `path` and `span` locate the reference that demands it."""
    if var.is_magic:  # a template parameter or package name: reported per use
        raise TydiError(
            "resolution", f"{var.id!r} cannot be used as a value here", path, span)
    ctx.force(var, _compute_variable)
    return var.value


def _compute_variable(ctx: EvalContext, var: Variable):
    path = var.scope.package.path
    if var.declared_kind == "clockdomain":
        if var.expr_ast is None:
            var.value = ClockDomainValue(
                generated_clockdomain(var.scope.package.name, var.id))
            return
        v = evaluate_expression(ctx, var.scope, var.expr_ast)
        if not isinstance(v, StrValue):
            raise TydiError("type",
                            "clockdomain initializer must be a string, got "
                            f"{variant_name(v)}", path, var.span)
        var.value = ClockDomainValue(v.value)
        return
    if var.expr_ast is None:
        raise TydiError("type", f"variable {var.id!r} has no initializer", path, var.span)
    value = evaluate_expression(ctx, var.scope, var.expr_ast)
    if var.declared_kind is not None and variant_name(value) != var.declared_kind:
        raise TydiError("type",
                        f"variable {var.id!r} declared {var.declared_kind} but "
                        f"evaluates to {variant_name(value)}", path, var.span)
    var.value = value
