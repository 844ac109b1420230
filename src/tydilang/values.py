"""Constant-variable values: int, str, float, bool, clockdomain and arrays."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

INT64_MIN = -(2 ** 63)
INT64_MAX = 2 ** 63 - 1


@dataclass(frozen=True)
class IntValue:
    value: int


@dataclass(frozen=True)
class StrValue:
    value: str


@dataclass(frozen=True)
class FloatValue:
    value: float


@dataclass(frozen=True)
class BoolValue:
    value: bool


@dataclass(frozen=True)
class ClockDomainValue:
    """Equality of clockdomains is string equality of the expression."""

    expression: str


@dataclass(frozen=True)
class ArrayValue:
    elements: tuple  # of one variant and no arrays, as `math_engine` checks


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
    if isinstance(v, IntValue):
        return f"int({v.value})"
    if isinstance(v, StrValue):
        return f'str("{escape(v.value)}")'
    if isinstance(v, FloatValue):
        return f"float({format_float(v.value)})"
    if isinstance(v, BoolValue):
        return f"bool({'true' if v.value else 'false'})"
    if isinstance(v, ClockDomainValue):
        return f"clockdomain({v.expression})"
    return "array([" + ",".join(format_value(e) for e in v.elements) + "])"


def mangle_text(v: Value) -> str:
    """How a value renders inside a template-instance mangled name."""
    if isinstance(v, IntValue):
        return str(v.value)
    if isinstance(v, StrValue):
        return v.value
    if isinstance(v, FloatValue):
        return format_float(v.value)
    if isinstance(v, BoolValue):
        return "true" if v.value else "false"
    return v.expression  # a ClockDomainValue: `_evaluate_template_arg` admits no array
