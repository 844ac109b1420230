import random

import pytest

from tydilang.context import EvalContext
from tydilang.elaboration import evaluate_implementation
from tydilang.errors import Span, TydiError
from tydilang.math_engine import evaluate_range, force_variable
from tydilang.tree import END, START
from tydilang.type_eval import force_type_entry
from tydilang.values import (ArrayValue, BoolValue, FloatValue, IntValue,
                             StrValue)

from conftest import evaluated_project, project_of


def eval_const(expr: str, extra: str = ""):
    project, ctx = evaluated_project(f"package p;\n{extra}\nconst x = {expr};")
    return project.packages["p"].scope.variables["x"].value


def eval_error(expr: str, extra: str = "") -> str:
    project = project_of(f"package p;\n{extra}\nconst x = {expr};")
    ctx = EvalContext(project)
    with pytest.raises(TydiError) as exc:
        force_variable(ctx, project.packages["p"].scope.variables["x"])
    return exc.value.message


# -- the operator/type matrix -----------------------------------------------------


def test_add_int():
    assert eval_const("1 + 100") == IntValue(101)


def test_numeric_promotion():
    assert eval_const("1 + 0.5") == FloatValue(1.5)
    assert eval_const("2 * 0.5") == FloatValue(1.0)
    assert eval_const("3 - 1") == IntValue(2)


def test_division_int_truncates_toward_zero():
    assert eval_const("7 / 2") == IntValue(3)
    assert eval_const("-7 / 2") == IntValue(-3)
    assert eval_const("7 / -2") == IntValue(-3)
    assert eval_const("7 / 2.0") == FloatValue(3.5)


def test_modulo_int_only():
    assert eval_const("7 % 3") == IntValue(1)
    assert eval_const("-7 % 3") == IntValue(-1)
    assert "%" in eval_error("7.0 % 3.0")


def test_power_follows_minus_promotion():
    assert eval_const("10^15 - 1") == IntValue(999999999999999)
    assert eval_const("2^0.5") == FloatValue(2 ** 0.5)
    assert eval_const("2 ^ -1") == FloatValue(0.5)


def test_shifts_and_bitwise():
    assert eval_const("1 << 4") == IntValue(16)
    assert eval_const("256 >> 4") == IntValue(16)
    assert eval_const("12 & 10") == IntValue(8)
    assert eval_const("12 | 10") == IntValue(14)
    assert eval_const("~0") == IntValue(-1)


def test_bool_logic():
    assert eval_const("true && false") == BoolValue(False)
    assert eval_const("false || flag", "const flag = true;") == BoolValue(True)
    assert eval_const("!true") == BoolValue(False)
    assert "&&" in eval_error("1 && 2")


def test_equality_same_variant_only():
    assert eval_const('"a" == "a"') == BoolValue(True)
    assert eval_const("1 != 2") == BoolValue(True)
    assert eval_const("true == true") == BoolValue(True)
    assert "==" in eval_error('1 == "1"')


def test_ordered_comparisons_mix_int_float():
    assert eval_const("1 < 1.5") == BoolValue(True)
    assert eval_const("2.0 >= 2") == BoolValue(True)
    assert "<" in eval_error('"a" < "b"')


def test_string_concatenation():
    assert eval_const('"n=" + 4') == StrValue("n=4")
    assert eval_const('1.5 + "x"') == StrValue("1.5x")
    assert eval_const('true + "!"') == StrValue("true!")
    assert eval_const('"a" + "b"') == StrValue("ab")


def test_unary_minus_keeps_variant():
    assert eval_const("-(3)") == IntValue(-3)
    assert eval_const("-(3.5)") == FloatValue(-3.5)
    assert "-" in eval_error('-"x"')


def test_round_floor_ceil():
    assert eval_const("round(2.5)") == IntValue(3)
    assert eval_const("round(-2.5)") == IntValue(-3)
    assert eval_const("floor(2.9)") == IntValue(2)
    assert eval_const("ceil(2.1)") == IntValue(3)
    assert "float" in eval_error("ceil(2)")


def test_log_forms():
    assert eval_const("ceil(log2(10^15 - 1))") == IntValue(50)
    assert eval_const("ceil(log2(12))") == IntValue(4)
    assert eval_const("ceil(log2(31))") == IntValue(5)
    assert eval_const("log 2 (8)") == FloatValue(3.0)
    assert eval_const("log10(1000.0)") == FloatValue(3.0)
    assert eval_const("round(log3(81))") == IntValue(4)
    assert "positive" in eval_error("log2(0)")
    assert "base" in eval_error("log 1 (5)")


def test_division_by_zero():
    assert "zero" in eval_error("1 / 0")
    assert "zero" in eval_error("1 % 0")


def test_int64_overflow_is_an_error():
    assert "overflow" in eval_error("2^63")
    assert eval_const("2^62") == IntValue(2 ** 62)
    assert "overflow" in eval_error("9223372036854775807 + 1")


def test_precedence_tiers():
    assert eval_const("1 + 2 * 3") == IntValue(7)
    assert eval_const("2 * 3 ^ 2") == IntValue(18)
    assert eval_const("1 << 1 + 1") == IntValue(4)
    assert eval_const("16 > 1 << 3") == BoolValue(True)
    # == binds tighter than &, so the right operand becomes a bool and the
    # bitwise op correctly rejects it; the other grouping would have passed
    assert "int * bool" in eval_error("3 & 1 == 1")
    assert eval_const("1 + 1 == 2 && 2 + 2 == 4") == BoolValue(True)


def test_declared_kind_mismatch():
    project = project_of("package p;\nconst x: int = 1.5;")
    ctx = EvalContext(project)
    with pytest.raises(TydiError) as exc:
        force_variable(ctx, project.packages["p"].scope.variables["x"])
    assert "declared int" in exc.value.message


# -- arrays -------------------------------------------------------------------


def test_array_literals():
    assert eval_const("{1,2,3,4,5}") == ArrayValue(tuple(IntValue(i) for i in (1, 2, 3, 4, 5)))
    assert eval_const('{"123", "456"}') == ArrayValue((StrValue("123"), StrValue("456")))


def test_array_append_and_prepend():
    assert eval_const("{1.1,2.1,3.1} + 50.5") == ArrayValue(
        tuple(FloatValue(f) for f in (1.1, 2.1, 3.1, 50.5)))
    assert eval_const("true + {true,false}") == ArrayValue(
        (BoolValue(True), BoolValue(True), BoolValue(False)))


def test_array_variant_mismatch():
    assert "does not match" in eval_error("true + {1,2}")
    assert "same type" in eval_error("{1, 2.0}")


def test_array_indexing():
    assert eval_const("arr[1]", "const arr = {10,20,30};") == IntValue(20)
    assert "bounds" in eval_error("arr[3]", "const arr = {10,20,30};")


# -- ranges -------------------------------------------------------------------


def range_of(start, step, end):
    project, ctx = evaluated_project("package p;")
    from tydilang.parser import _Parser
    p = _Parser(f"({start}={step}=>{end})")
    p.expect("(")
    first = p.parse_exp()
    p.expect("=")
    stepx = p.parse_exp()
    p.expect("=>")
    stop = p.parse_exp()
    rng = p.node("RangeExp", 0, 1, [first, stepx, stop])
    return evaluate_range(ctx, project.packages["p"].scope, rng)


def test_range_half_open():
    assert range_of(0, 1, 4) == ArrayValue(tuple(IntValue(i) for i in range(4)))


def test_range_empty():
    assert range_of(0, 1, 0) == ArrayValue(())


def test_range_with_step():
    assert range_of(0, 2, 5) == ArrayValue((IntValue(0), IntValue(2), IntValue(4)))


def test_range_zero_step_rejected():
    with pytest.raises(TydiError):
        range_of(0, 0, 4)


# -- clockdomains -----------------------------------------------------------------


def test_clockdomain_equality_is_expression_equality():
    project, _ = evaluated_project(
        "package p;\n"
        'const cd2: clockdomain = "100MHz-ph1";\n'
        'const cd3: clockdomain = "100MHz-ph1";\n'
        "const same = cd2 == cd3;\n")
    assert project.packages["p"].scope.variables["same"].value == BoolValue(True)


def test_bare_clockdomains_are_distinct():
    project, _ = evaluated_project(
        "package p;\n"
        "const cd0: clockdomain;\n"
        "const cd1: clockdomain;\n"
        "const same = cd0 == cd1;\n")
    assert project.packages["p"].scope.variables["same"].value == BoolValue(False)


def test_clockdomain_initializer_must_be_string():
    project = project_of("package p;\nconst cd: clockdomain = 5;")
    ctx = EvalContext(project)
    with pytest.raises(TydiError):
        force_variable(ctx, project.packages["p"].scope.variables["cd"])


# -- laziness / memoization / cycles -------------------------------------------------


def test_unused_cross_package_variable_stays_uninferred():
    project, _ = evaluated_project(
        "package simple_0;\nimport simple_1;\n"
        "const i1: int = 1 + 100;\n"
        "const external_var0 = simple_1.i1 + 10;\n"
        "const external_flag0 = false || simple_1.flag;\n",
        "package simple_1;\nconst i1 = 100;\nconst flag = true;\nconst i2 = 500;\n")
    s1 = project.packages["simple_1"].scope.variables
    assert s1["i1"].value == IntValue(100)
    assert s1["flag"].value == BoolValue(True)
    assert s1["i2"].value is None  # never demanded

    s0 = project.packages["simple_0"].scope.variables
    assert s0["i1"].value == IntValue(101)
    assert s0["external_var0"].value == IntValue(110)
    assert s0["external_flag0"].value == BoolValue(True)


def test_memoization_computes_each_variable_once():
    project, ctx = evaluated_project(
        "package p;\n"
        "const base = 2 + 3;\n"
        "const a = base + 1;\n"
        "const b = base + 2;\n"
        "const c = a + b + base;\n")
    assert ctx.eval_counts["package_p.base"] == 1
    value = project.packages["p"].scope.variables["base"].value
    assert force_variable(ctx, project.packages["p"].scope.variables["base"]) == value
    assert ctx.eval_counts["package_p.base"] == 1


CYCLES = {
    "constant": (
        "package p;\nconst a = b + 1;\nconst b = c + 1;\nconst c = a + 1;\n",
        force_variable, "variables", "a",
        "package_p.a -> package_p.b -> package_p.c -> package_p.a"),
    "type_alias": (
        "package p;\ntype t = u;\ntype u = t;\n",
        force_type_entry, "types", "t",
        "package_p.t -> package_p.u -> package_p.t"),
    "impl": (
        "package p;\n"
        "type s = Stream(Bit(1));\n"
        "streamlet a_s { x: s in, };\n"
        "streamlet b_s { x: s in, };\n"
        "impl a_i of a_s { instance inner(b_i), x => inner.x, };\n"
        "impl b_i of b_s { instance inner(a_i), x => inner.x, };\n",
        evaluate_implementation, "implements", "a_i",
        "impl a_i -> impl b_i -> impl a_i"),
}


@pytest.mark.parametrize("case", sorted(CYCLES))
def test_cycle_reports_members(case):
    source, force, table, name, cycle = CYCLES[case]
    project = project_of(source)
    ctx = EvalContext(project)
    entity = getattr(project.packages["p"].scope, table)[name]
    with pytest.raises(TydiError) as exc:
        force(ctx, entity)
    assert exc.value.message == f"circular dependency: {cycle}"
    # reported where the cycle closes: the declaration demanded twice
    assert (exc.value.diagnostic.path, exc.value.diagnostic.span) == (
        "file_0.td", Span(entity.span[START], entity.span[END]))


def test_self_cycle():
    project = project_of("package p;\nconst a = a + 1;\n")
    ctx = EvalContext(project)
    with pytest.raises(TydiError) as exc:
        force_variable(ctx, project.packages["p"].scope.variables["a"])
    assert "circular" in exc.value.message


# -- reference oracle over the typed matrix ----------------------------------------


class RefError(Exception):
    pass


def ref_eval(tree):
    """Straight-line reference interpreter for the operator/type matrix."""
    op = tree[0]
    if op == "lit":
        return tree[1]
    if op == "neg":
        v = ref_eval(tree[1])
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise RefError
        return -v
    if op == "not":
        v = ref_eval(tree[1])
        if not isinstance(v, bool):
            raise RefError
        return not v
    a, b = ref_eval(tree[1]), ref_eval(tree[2])
    both_num = all(isinstance(v, (int, float)) and not isinstance(v, bool)
                   for v in (a, b))
    both_int = all(isinstance(v, int) and not isinstance(v, bool) for v in (a, b))
    if op in "+-*":
        if isinstance(a, str) or isinstance(b, str):
            if op != "+":
                raise RefError
            def txt(v):
                if isinstance(v, str):
                    return v
                if isinstance(v, bool):
                    return "true" if v else "false"
                if isinstance(v, float):
                    r = repr(v)
                    return r[:-2] if r.endswith(".0") else r
                return str(v)
            return txt(a) + txt(b)
        if not both_num:
            raise RefError
        r = {"+": a + b, "-": a - b, "*": a * b}[op]
        return r if not both_int else int(r)
    if op == "/":
        if not both_num:
            raise RefError
        if b == 0:
            raise RefError
        if both_int:
            q = abs(a) // abs(b)
            return q if (a >= 0) == (b >= 0) else -q
        return a / b
    if op in ("<", ">", "<=", ">="):
        if not both_num:
            raise RefError
        return {"<": a < b, ">": a > b, "<=": a <= b, ">=": a >= b}[op]
    if op in ("==", "!="):
        if type(a) is not type(b):
            raise RefError
        return (a == b) if op == "==" else (a != b)
    if op in ("&&", "||"):
        if not (isinstance(a, bool) and isinstance(b, bool)):
            raise RefError
        return (a and b) if op == "&&" else (a or b)
    raise RefError


def random_tree(rng, depth):
    if depth == 0 or rng.random() < 0.3:
        kind = rng.choice(["int", "float", "bool", "str"])
        if kind == "int":
            return ("lit", rng.randint(-5, 9))
        if kind == "float":
            return ("lit", round(rng.uniform(-4, 4), 2))
        if kind == "bool":
            return ("lit", rng.choice([True, False]))
        return ("lit", rng.choice(["a", "bc", "x1"]))
    op = rng.choice(["+", "-", "*", "/", "<", ">", "<=", ">=", "==", "!=",
                     "&&", "||", "neg", "not"])
    if op in ("neg", "not"):
        return (op, random_tree(rng, depth - 1))
    return (op, random_tree(rng, depth - 1), random_tree(rng, depth - 1))


def render(tree) -> str:
    op = tree[0]
    if op == "lit":
        v = tree[1]
        if isinstance(v, bool):
            return "true" if v else "false"
        if isinstance(v, str):
            return f'"{v}"'
        if isinstance(v, float):
            return repr(v) if "." in repr(v) else repr(v) + ".0"
        return f"({v})" if v < 0 else str(v)
    if op == "neg":
        return f"-({render(tree[1])})"
    if op == "not":
        return f"!({render(tree[1])})"
    return f"({render(tree[1])} {op} {render(tree[2])})"


def unwrap(value):
    if isinstance(value, (IntValue, FloatValue, StrValue)):
        return value.value
    if isinstance(value, BoolValue):
        return bool(value.value)
    raise AssertionError(value)


def test_engine_matches_reference_interpreter_on_random_programs():
    rng = random.Random(20240612)
    checked = 0
    for _ in range(300):
        tree = random_tree(rng, 4)
        try:
            expected = ref_eval(tree)
        except RefError:
            expected = RefError
        text = render(tree)
        project = project_of(f"package p;\nconst x = {text};")
        ctx = EvalContext(project)
        var = project.packages["p"].scope.variables["x"]
        if expected is RefError:
            with pytest.raises(TydiError):
                force_variable(ctx, var)
        else:
            got = unwrap(force_variable(ctx, var))
            assert type(got) is type(expected) and got == expected, text
            checked += 1
    assert checked > 50


def test_log_with_identifier_base():
    assert eval_const("log b (arg)", "const b = 2;\nconst arg = 8.0;") == FloatValue(3.0)


def test_builtin_names_usable_as_variables():
    assert eval_const("ceil + 1", "const ceil = 5;") == IntValue(6)


def test_range_negative_step():
    assert range_of(4, -1, 0) == ArrayValue(tuple(IntValue(i) for i in (4, 3, 2, 1)))
