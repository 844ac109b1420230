"""Constant-variable values: int, str, float, bool, clockdomain and arrays.

A value is frozen and equals only a value of its variant with an equal
payload: `IntValue(1)`, `BoolValue(True)` and `FloatValue(1.0)` differ. The
logical types and DRC diagnostics are built on `Frozen` and `ByValue` too.
"""

from __future__ import annotations

from typing import Union

INT64_MIN = -(2 ** 63)
INT64_MAX = 2 ** 63 - 1

set_field = object.__setattr__  # how a frozen record's `__init__` sets a field


class Frozen:
    """A record whose fields `__init__` sets once; it compares by identity."""

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__}.{name} is frozen")


class ByValue(Frozen):
    """A frozen record equal to, and hashed like, one of its class with equal fields."""

    def __eq__(self, other):
        return type(other) is type(self) and other.__dict__ == self.__dict__

    def __hash__(self):
        return hash(tuple(self.__dict__.values()))


class IntValue(ByValue):
    def __init__(self, value: int):
        set_field(self, "value", value)


class StrValue(ByValue):
    def __init__(self, value: str):
        set_field(self, "value", value)


class FloatValue(ByValue):
    def __init__(self, value: float):
        set_field(self, "value", value)


class BoolValue(ByValue):
    def __init__(self, value: bool):
        set_field(self, "value", value)


class ClockDomainValue(ByValue):
    """Equality of clockdomains is string equality of the expression."""

    def __init__(self, expression: str):
        set_field(self, "expression", expression)


class ArrayValue(ByValue):
    def __init__(self, elements: tuple):
        set_field(self, "elements", elements)  # of one variant, no arrays


Value = Union[IntValue, StrValue, FloatValue, BoolValue, ClockDomainValue, ArrayValue]

DEFAULT_CLOCKDOMAIN = ClockDomainValue("DefaultClockDomain")

_VARIANT_NAMES = {
    IntValue: "int",
    StrValue: "str",
    FloatValue: "float",
    BoolValue: "bool",
    ClockDomainValue: "clockdomain",
    ArrayValue: "array",
}


def variant_name(v: Value) -> str:
    return _VARIANT_NAMES[type(v)]


def in_int64_range(n: int) -> bool:
    return INT64_MIN <= n <= INT64_MAX


def format_float(x: float) -> str:
    """Shortest round-trip text; integral values drop the trailing '.0'."""
    text = repr(x)
    if text.endswith(".0"):
        return text[:-2]
    return text


def escape(s: str) -> str:
    """`s` with a backslash before each backslash and double quote, as
    quoted text in dumps and DOT labels needs it."""
    return s.replace("\\", "\\\\").replace('"', '\\"')


def format_value(v: Value) -> str:
    """Dump text for an evaluated value, e.g. ``int(101)`` or ``bool(true)``."""
    if isinstance(v, StrValue):
        return f'str("{escape(v.value)}")'
    if isinstance(v, ArrayValue):
        return "array([" + ",".join(format_value(e) for e in v.elements) + "])"
    return f"{variant_name(v)}({mangle_text(v)})"


def mangle_text(v: Value) -> str:
    """How a value renders inside a template-instance mangled name or a
    string concatenation."""
    if isinstance(v, IntValue):
        return str(v.value)
    if isinstance(v, StrValue):
        return v.value
    if isinstance(v, FloatValue):
        return format_float(v.value)
    if isinstance(v, BoolValue):
        return "true" if v.value else "false"
    return v.expression  # a ClockDomainValue: `_evaluate_template_arg` admits no array
