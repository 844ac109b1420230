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


class ExpressionEvaluator:
    """Evaluates one expression tree within a scope.

    Referenced variables are forced through the context's once-only guards,
    so each variable is computed a single time no matter how many
    expressions mention it.
    """

    def __init__(self, ctx: EvalContext, scope: Scope):
        self.ctx = ctx
        self.scope = scope
        self.path = scope.package.path

    def err(self, message: str, span: Optional[Located] = None) -> TydiError:
        return TydiError("type", message, self.path, span)

    # -- entry points ----------------------------------------------------------

    def eval_exp(self, exp: Node) -> Value:
        """Terms left to right; an operator applies once the next one binds no
        tighter, so equal precedences group from the left, with no recursion."""
        children = exp[CHILDREN]
        values = [self.eval_term(children[0])]
        ops: list[str] = []
        for k in range(1, len(children) + 1, 2):
            op = children[k][TEXT] if k < len(children) else None
            while ops and (op is None or PRECEDENCE[ops[-1]] >= PRECEDENCE[op]):
                right = values.pop()
                values[-1] = self.apply_binary(ops.pop(), values[-1], right, exp)
            if op is not None:
                ops.append(op)
                values.append(self.eval_term(children[k + 1]))
        return values[0]

    def eval_term(self, term: Node) -> Value:
        self.ctx.deeper(self.path)
        inner = term[CHILDREN][0]
        if inner[KIND] == "Exp":
            value = self.eval_exp(inner)
        elif inner[KIND] == "UnaryExp":
            operand = self.eval_term(inner[CHILDREN][1])
            value = self.apply_unary(inner[CHILDREN][0][TEXT], operand, inner)
        elif inner[KIND] == "ArrayExp":
            elems = tuple(self.eval_exp(e) for e in inner[CHILDREN])
            kinds = {type(e) for e in elems}
            if len(kinds) > 1:
                raise self.err("array elements must all have the same type", inner)
            if ArrayValue in kinds:
                raise self.err("nested arrays are not supported", inner)
            value = ArrayValue(elems)
        else:
            value = self.eval_atom(inner)
        self.ctx.depth -= 1
        return value

    # -- atoms ------------------------------------------------------------------

    def eval_atom(self, atom: Node) -> Value:
        kind = atom[KIND]
        if kind == "IntExp":
            leaf = atom[CHILDREN][0]
            text = leaf[TEXT]
            n = int(text) if leaf[KIND] == "INT_RAW_NORAML" else int(text, 0)
            return IntValue(_check_int(n, atom, self.path, "integer literal"))
        if kind == "FloatExp":
            return _check_float(float(atom[CHILDREN][0][TEXT]), atom, self.path,
                                "float literal")
        if kind == "StringExp":
            return StrValue(atom[CHILDREN][0][TEXT])
        if kind == "BoolExp":
            return BoolValue(atom[CHILDREN][0][TEXT] == "true")
        if kind == "VarExp":
            return self.eval_reference(atom)
        if kind == "IndexExp":
            return self.eval_index(atom)
        if kind == "FunctionExp":
            return self.eval_function(atom)
        # MemberExtractExp, the last kind of atom the parser makes
        from .elaboration import extract_member_value
        return extract_member_value(self.ctx, self.scope, atom)

    def eval_reference(self, ref: Node) -> Value:
        """The value of the variable a VarExp or IndexExp names."""
        var = resolve_ref(self.ctx.project, self.scope, ref, "variable")
        return force_variable(self.ctx, var, self.path, ref)

    def eval_index(self, atom: Node) -> Value:
        index_exp = atom[CHILDREN][-1]
        arr = self.eval_reference(atom)
        if not isinstance(arr, ArrayValue):
            raise self.err(f"{atom[CHILDREN][-2][TEXT]!r} is not an array", atom)
        idx = self.eval_exp(index_exp)
        if not isinstance(idx, IntValue):
            raise self.err("array index must be an int", index_exp)
        if not 0 <= idx.value < len(arr.elements):
            raise self.err(
                f"index {idx.value} out of bounds for array of size "
                f"{len(arr.elements)}", atom)
        return arr.elements[idx.value]

    def eval_function(self, atom: Node) -> Value:
        func = atom[CHILDREN][0][TEXT]
        if func == "log":
            base = self.eval_exp(atom[CHILDREN][1])
            arg = self.eval_exp(atom[CHILDREN][2])
            return self._eval_log(base, arg, atom)
        arg = self.eval_exp(atom[CHILDREN][1])
        if not isinstance(arg, FloatValue):
            raise self.err(f"{func} expects a float, got {variant_name(arg)}", atom)
        x = arg.value
        if func == "round":
            n = math.floor(x + 0.5) if x >= 0 else math.ceil(x - 0.5)
        elif func == "floor":
            n = math.floor(x)
        else:  # ceil: the parser makes a FUNC of the builtins only
            n = math.ceil(x)
        return IntValue(_check_int(int(n), atom, self.path, f"{func} result"))

    def _eval_log(self, base: Value, arg: Value, span) -> Value:
        for v, what in ((base, "base"), (arg, "argument")):
            if not isinstance(v, (IntValue, FloatValue)):
                raise self.err(f"log {what} must be numeric, got {variant_name(v)}", span)
        b = base.value
        x = arg.value
        if x <= 0:
            raise self.err(f"log argument must be positive, got {x}", span)
        if b <= 0 or b == 1:
            raise self.err(f"log base must be positive and not 1, got {b}", span)
        if b == 2:
            return FloatValue(math.log2(x))
        if b == 10:
            return FloatValue(math.log10(x))
        return FloatValue(math.log(x) / math.log(b))

    # -- operators ---------------------------------------------------------------

    def apply_unary(self, op: str, v: Value, span) -> Value:
        if op == "-":
            if isinstance(v, IntValue):
                return IntValue(_check_int(-v.value, span, self.path))
            if isinstance(v, FloatValue):
                return FloatValue(-v.value)
            raise self.err(f"unary '-' expects int or float, got {variant_name(v)}", span)
        if op == "!":
            if isinstance(v, BoolValue):
                return BoolValue(not v.value)
            raise self.err(f"unary '!' expects bool, got {variant_name(v)}", span)
        # "~", the last of the parser's unary operators
        if isinstance(v, IntValue):
            return IntValue(_check_int(~v.value, span, self.path))
        raise self.err(f"unary '~' expects int, got {variant_name(v)}", span)

    def apply_binary(self, op: str, a: Value, b: Value, span) -> Value:
        if op == "+" and (isinstance(a, ArrayValue) or isinstance(b, ArrayValue)):
            return self._array_insert(a, b, span)

        if op in ("&&", "||"):
            if isinstance(a, BoolValue) and isinstance(b, BoolValue):
                return BoolValue(a.value and b.value if op == "&&"
                                 else a.value or b.value)
            raise self._bin_err(op, a, b, span)

        if op in ("==", "!="):
            if type(a) is not type(b) or isinstance(a, ArrayValue):
                raise self._bin_err(op, a, b, span)
            if isinstance(a, ClockDomainValue):
                same = a.expression == b.expression
            else:
                same = a.value == b.value
            return BoolValue(same if op == "==" else not same)

        if op in ("<", ">", "<=", ">="):
            if not (isinstance(a, (IntValue, FloatValue))
                    and isinstance(b, (IntValue, FloatValue))):
                raise self._bin_err(op, a, b, span)
            x, y = a.value, b.value
            result = {"<": x < y, ">": x > y, "<=": x <= y, ">=": x >= y}[op]
            return BoolValue(result)

        if op in ("<<", ">>", "&", "|", "%"):
            if not (isinstance(a, IntValue) and isinstance(b, IntValue)):
                raise self._bin_err(op, a, b, span)
            x, y = a.value, b.value
            if op == "%":
                if y == 0:
                    raise self.err("modulo by zero", span)
                return IntValue(_trunc_mod(x, y))
            if op in ("<<", ">>"):
                if not 0 <= y < 64:
                    raise self.err(f"shift amount must be in [0, 64), got {y}", span)
                n = x << y if op == "<<" else x >> y
                return IntValue(_check_int(n, span, self.path, "shift result"))
            n = x & y if op == "&" else x | y
            return IntValue(_check_int(n, span, self.path))

        if op == "+" and (isinstance(a, StrValue) or isinstance(b, StrValue)):
            return self._str_concat(a, b, span)

        # + - * / ^, the rest of the parser's infix operators
        if not (isinstance(a, (IntValue, FloatValue))
                and isinstance(b, (IntValue, FloatValue))):
            raise self._bin_err(op, a, b, span)
        return self._numeric(op, a, b, span)

    def _numeric(self, op: str, a: Value, b: Value, span) -> Value:
        both_int = isinstance(a, IntValue) and isinstance(b, IntValue)
        x, y = a.value, b.value
        if op == "/":
            if y == 0:
                raise self.err("division by zero", span)
            if both_int:
                return IntValue(_check_int(_trunc_div(x, y), span, self.path))
            return _check_float(x / y, span, self.path)
        if op == "^":
            if both_int and y >= 0:
                # past 2 ^ 64 the power surely overflows: do not compute it
                if abs(x) >= 2 and y > 64:
                    raise self.err(f"power result out of range: {x} ^ {y}", span)
                return IntValue(_check_int(x ** y, span, self.path, "power result"))
            try:
                n = float(x) ** float(y)
            except (OverflowError, ZeroDivisionError):
                n = None
            if not isinstance(n, float):  # also a negative base to a fraction
                raise self.err(f"power result out of range: {x} ^ {y}", span)
            return FloatValue(n)
        n = {"+": x + y, "-": x - y, "*": x * y}[op]
        if both_int:
            return IntValue(_check_int(n, span, self.path))
        return _check_float(float(n), span, self.path)

    def _str_concat(self, a: Value, b: Value, span) -> Value:
        if isinstance(a, ClockDomainValue) or isinstance(b, ClockDomainValue):
            raise self._bin_err("+", a, b, span)
        return StrValue(mangle_text(a) + mangle_text(b))

    def _array_insert(self, a: Value, b: Value, span) -> Value:
        if isinstance(a, ArrayValue) and isinstance(b, ArrayValue):
            raise self.err("cannot add two arrays", span)
        arr, elem, append = (a, b, True) if isinstance(a, ArrayValue) else (b, a, False)
        if arr.elements and type(arr.elements[0]) is not type(elem):
            raise self.err(
                f"inserted {variant_name(elem)} does not match array of "
                f"{variant_name(arr.elements[0])}", span)
        elements = arr.elements + (elem,) if append else (elem,) + arr.elements
        return ArrayValue(elements)

    def _bin_err(self, op, a, b, span) -> TydiError:
        return self.err(
            f"operator {op!r} not defined for {variant_name(a)} * {variant_name(b)}",
            span)


def evaluate_expression(ctx: EvalContext, scope: Scope, exp: Node) -> Value:
    return ExpressionEvaluator(ctx, scope).eval_exp(exp)


def evaluate_range(ctx: EvalContext, scope: Scope, range_exp: Node) -> ArrayValue:
    """`start=step=>end` produces the half-open int sequence [start, end)."""
    ev = ExpressionEvaluator(ctx, scope)
    vals = [ev.eval_exp(c) for c in range_exp[CHILDREN]]
    for v in vals:
        if not isinstance(v, IntValue):
            raise ev.err("range bounds must all be int", range_exp)
    start, step, stop = (v.value for v in vals)
    if step == 0:
        raise ev.err("range step must not be zero", range_exp)
    size = max(0, -(-(stop - start) // step))
    if size > RANGE_ELEMENT_LIMIT:
        raise ev.err(f"range produces too many elements ({size})", range_exp)
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
