"""Every diagnostic the compiler can report, pinned by one minimal source.

Each case compiles its sources (named ``f0.td``, ``f1.td``, ...) with
`compile_sources` and expects exactly one diagnostic, with the given
category, message and location (``path:line:col``, the bare path when the
diagnostic has no span, ``<project>`` when it has no path). A few checks
are reachable only through the library API; `API_CASES` pins those.

`test_every_diagnostic_site_is_pinned` reads the compiler's source and
checks that each message it can raise is pinned here or listed, with the
reason, in `UNREACHABLE`.
"""

import ast
import re
from pathlib import Path

import pytest

from tydilang import errors
from tydilang.builder import build_project
from tydilang.context import EvalContext
from tydilang.emit import flatten
from tydilang.errors import TydiError
from tydilang.logical_types import StreamType, bit_width
from tydilang.model import Scope, ScopeRelationKind, Streamlet, declare, resolve_name
from tydilang.parser import parse_fragment, parse_project
from tydilang.pipeline import (CompileConfig, compile_project, compile_sources,
                               evaluate_project)
from tydilang.sugaring import sugar_project

from conftest import project_of

P = "package p; "
# a stream, a streamlet with one input and one output, and a leaf implementation
IO = (P + "type s = Stream(Bit(1)); streamlet io_s { i: s in, o: s out, }; "
      "external impl leaf_i of io_s { }; ")

# (id, sources, options, category, message, location)
CASES = [
    # -- lexer
    ("lex_block_comment", P + "/* x", {}, "syntax",
     "unterminated block comment", "f0.td:1:12"),
    ("lex_doc_string", P + "#doc", {}, "syntax",
     "unterminated documentation string", "f0.td:1:12"),
    ("lex_escape", P + 'const s = "a\\q";', {}, "syntax",
     "unsupported escape in string literal", "f0.td:1:24"),
    ("lex_string", P + 'const s = "abc', {}, "syntax",
     "unterminated string literal", "f0.td:1:22"),
    ("lex_character", P + "const x = 1 $ 2;", {}, "syntax",
     "unexpected character '$'", "f0.td:1:24"),
    ("lex_number", P + "const x = 12ab;", {}, "syntax",
     "malformed number '12'", "f0.td:1:22"),
    ("lex_underscores", P + "const a__b = 1;", {}, "syntax",
     "consecutive underscores are not allowed in identifier 'a__b'", "f0.td:1:18"),
    ("lex_process_block", P + "impl i of s { process { ", {}, "syntax",
     "unterminated process block", "f0.td:1:34"),
    # -- parser
    ("parse_token", "package p", {}, "syntax",
     "expected ';', found 'end of file'", "f0.td:1:10"),
    ("parse_named_token", "package 1;", {}, "syntax",
     "expected package name, found '1'", "f0.td:1:9"),
    ("parse_keyword", "pkg p;", {}, "syntax",
     "expected keyword 'package', found 'pkg'", "f0.td:1:1"),
    ("parse_long_token", P + "x" * 45 + ";", {}, "syntax",
     "expected a top-level declaration, found '" + "x" * 37 + "...'", "f0.td:1:12"),
    ("parse_top_level", P + "1;", {}, "syntax",
     "expected a top-level declaration, found '1'", "f0.td:1:12"),
    ("parse_separator", P + "streamlet q { a: t in b: t out };", {}, "syntax",
     "expected ',', found 'b'", "f0.td:1:34"),
    ("parse_const_kind", P + "const x: list = 1;", {}, "syntax",
     "expected one of int/str/float/bool/clockdomain, found 'list'", "f0.td:1:21"),
    ("parse_logical_type", P + "type t = 1;", {}, "syntax",
     "expected a logical type, found '1'", "f0.td:1:21"),
    ("parse_stream_property", P + "type t = Stream(Bit(1), q = 1);", {}, "syntax",
     "expected a stream property (d/u/t/s/c/r/x), found 'q'", "f0.td:1:36"),
    ("parse_port_direction", P + "streamlet q { a: t sideways, };", {}, "syntax",
     "expected port direction 'in' or 'out', found 'sideways'", "f0.td:1:31"),
    ("parse_external_instantiation", P + "external impl i(t<1>);", {}, "syntax",
     "expected 'of' (external implementations cannot be template instantiations),"
     " found '('", "f0.td:1:27"),
    ("parse_instantiation", P + "impl i(t);", {}, "syntax",
     "expected a template instantiation, found ')'", "f0.td:1:20"),
    ("parse_template_parameter", P + "streamlet q<n: list> { };", {}, "syntax",
     "expected a template parameter kind, found 'list'", "f0.td:1:27"),
    ("parse_integer_literal", P + "const x = 0b2;", {}, "syntax",
     "expected a valid integer literal, found '0b2'", "f0.td:1:22"),
    ("parse_expression", P + "const x = ;", {}, "syntax",
     "expected an expression, found ';'", "f0.td:1:22"),
    ("parse_duplicate_package", ("package p;", "package p;"), {}, "syntax",
     "duplicate package 'p' declared in f0.td and f1.td", "f1.td"),
    ("parse_nesting", P + "const x = " + "(" * 2000 + "1" + ")" * 2000 + ";", {},
     "syntax", "nesting too deep while parsing", "f0.td"),
    ("eval_nesting", P + "".join(f"const c{k} = c{k + 1} + 1; " for k in range(2000))
     + "const c2000 = 0;", {}, "resolution", "nesting too deep while evaluating",
     "f0.td"),
    # -- builder and declarations
    ("build_interpolated_instance", IO + "impl i of io_s { instance a_{{k}}(leaf_i), };",
     {}, "resolution", "interpolated identifier is only usable inside a for scope",
     "f0.td:1:136"),
    ("build_external_body", IO + "external impl i of io_s { instance a(leaf_i), };", {},
     "syntax", "external implementation 'i' must have an empty body", "f0.td:1:136"),
    ("declare_duplicate", P + "const x = 1; const x = 2;", {}, "resolution",
     "duplicate variable 'x' in scope package_p", "f0.td:1:25"),
    # a failed entity that a later root demands again is reported once
    ("type_failed_then_demanded", P + "type t = q; type u = t;", {}, "resolution",
     "type 'q' not found (searched package_p)", "f0.td:1:21"),
    ("streamlet_failed_then_demanded",
     IO + "streamlet q { a: nope in, }; impl i of q { }; impl j of q { };", {},
     "resolution", "type 'nope' not found (searched streamlet_q -> package_p)",
     "f0.td:1:127"),
    ("cycle", P + "const x = y; const y = x;", {}, "resolution",
     "circular dependency: package_p.x -> package_p.y -> package_p.x", "f0.td:1:12"),
    # -- constant expressions
    ("literal_overflow", P + "const x = 9223372036854775808;", {}, "type",
     "integer literal overflows 64-bit range: 9223372036854775808", "f0.td:1:22"),
    ("array_mixed", P + 'const x = {1, "a"};', {}, "type",
     "array elements must all have the same type", "f0.td:1:22"),
    ("array_nested", P + "const x = { {1} };", {}, "type",
     "nested arrays are not supported", "f0.td:1:22"),
    ("variable_not_found", P + "const x = y;", {}, "resolution",
     "variable 'y' not found (searched package_p)", "f0.td:1:22"),
    ("variable_package_not_imported",
     ("package a; const x = b.y;", "package b; const y = 1;"), {}, "resolution",
     "package 'b' is not imported here", "f0.td:1:22"),
    ("variable_package_missing", "package a; import b; const x = b.y;", {},
     "resolution", "package 'b' does not exist", "f0.td:1:32"),
    ("variable_not_in_package",
     ("package a; import b; const x = b.z;", "package b; const y = 1;"), {},
     "resolution", "variable 'z' not found in package 'b'", "f0.td:1:32"),
    ("index_unresolved", P + "const x = y[0];", {}, "resolution",
     "variable 'y' not found (searched package_p)", "f0.td:1:22"),
    ("index_package_not_imported",
     ("package a; const x = b.y[0];", "package b; const y = {1};"), {}, "resolution",
     "package 'b' is not imported here", "f0.td:1:22"),
    ("index_not_array", P + "const a = 1; const x = a[0];", {}, "type",
     "'a' is not an array", "f0.td:1:35"),
    ("index_not_int", P + "const a = {1}; const x = a[true];", {}, "type",
     "array index must be an int", "f0.td:1:39"),
    ("index_out_of_bounds", P + "const a = {1}; const x = a[1];", {}, "type",
     "index 1 out of bounds for array of size 1", "f0.td:1:37"),
    ("function_argument", P + "const x = round(1);", {}, "type",
     "round expects a float, got int", "f0.td:1:22"),
    ("function_overflow", P + "const x = floor(10.0 ^ 19.0);", {}, "type",
     "floor result overflows 64-bit range: 10000000000000000000", "f0.td:1:22"),
    ("log_base_type", P + 'const s = "a"; const x = log s (2);', {}, "type",
     "log base must be numeric, got str", "f0.td:1:37"),
    ("log_argument_type", P + "const x = log2(true);", {}, "type",
     "log argument must be numeric, got bool", "f0.td:1:22"),
    ("log_argument_positive", P + "const x = log2(0);", {}, "type",
     "log argument must be positive, got 0", "f0.td:1:22"),
    ("log_base_one", P + "const x = log1(8);", {}, "type",
     "log base must be positive and not 1, got 1", "f0.td:1:22"),
    ("unary_minus", P + "const x = -true;", {}, "type",
     "unary '-' expects int or float, got bool", "f0.td:1:22"),
    ("unary_not", P + "const x = !1;", {}, "type",
     "unary '!' expects bool, got int", "f0.td:1:22"),
    ("unary_complement", P + "const x = ~1.5;", {}, "type",
     "unary '~' expects int, got float", "f0.td:1:22"),
    ("unary_minus_overflow", P + "const x = -(-9223372036854775807 - 1);", {}, "type",
     "integer overflows 64-bit range: 9223372036854775808", "f0.td:1:22"),
    ("binary_operands", P + "const x = 1 && true;", {}, "type",
     "operator '&&' not defined for int * bool", "f0.td:1:22"),
    ("modulo_by_zero", P + "const x = 1 % 0;", {}, "type",
     "modulo by zero", "f0.td:1:22"),
    ("shift_amount", P + "const x = 1 << 64;", {}, "type",
     "shift amount must be in [0, 64), got 64", "f0.td:1:22"),
    ("shift_overflow", P + "const x = 1 << 63;", {}, "type",
     "shift result overflows 64-bit range: 9223372036854775808", "f0.td:1:22"),
    ("int_division_by_zero", P + "const x = 1 / 0;", {}, "type",
     "division by zero", "f0.td:1:22"),
    ("float_division_by_zero", P + "const x = 1.5 / 0;", {}, "type",
     "division by zero", "f0.td:1:22"),
    ("power_overflow", P + "const x = 2 ^ 64;", {}, "type",
     "power result overflows 64-bit range: 18446744073709551616", "f0.td:1:22"),
    ("power_out_of_range", P + "const x = 10.5 ^ 400;", {}, "type",
     "power result out of range: 10.5 ^ 400", "f0.td:1:22"),
    ("power_int_past_64", P + "const x = 3 ^ 3000000;", {}, "type",
     "power result out of range: 3 ^ 3000000", "f0.td:1:22"),
    ("power_int_zero_negative", P + "const x = 0 ^ -1;", {}, "type",
     "power result out of range: 0 ^ -1", "f0.td:1:22"),
    ("power_float_zero_negative", P + "const x = 0.0 ^ -1.0;", {}, "type",
     "power result out of range: 0.0 ^ -1.0", "f0.td:1:22"),
    ("power_complex", P + "const x = -8.0 ^ 0.5;", {}, "type",
     "power result out of range: -8.0 ^ 0.5", "f0.td:1:22"),
    ("sum_overflow", P + "const x = 9223372036854775807 + 1;", {}, "type",
     "integer overflows 64-bit range: 9223372036854775808", "f0.td:1:22"),
    ("concat_operand", P + 'const c: clockdomain = "f"; const x = "a" + c;', {},
     "type", "operator '+' not defined for str * clockdomain", "f0.td:1:50"),
    ("add_two_arrays", P + "const x = {1} + {2};", {}, "type",
     "cannot add two arrays", "f0.td:1:22"),
    ("insert_mismatch", P + 'const x = {1} + "a";', {}, "type",
     "inserted str does not match array of int", "f0.td:1:22"),
    ("magic_variable", P + "streamlet q<n: int> { }; const x = streamlet q.n;", {},
     "resolution", "'n' cannot be used as a value here", "f0.td:1:47"),
    ("clockdomain_initializer", P + "const c: clockdomain = 1;", {}, "type",
     "clockdomain initializer must be a string, got int", "f0.td:1:12"),
    ("no_initializer", P + "const a; const x = a;", {}, "type",
     "variable 'a' has no initializer", "f0.td:1:12"),
    ("declared_kind", P + 'const x: int = "a";', {}, "type",
     "variable 'x' declared int but evaluates to str", "f0.td:1:12"),
    ("range_bounds", IO + "impl i of io_s { for k in (0=1=>2.5) { } };", {}, "type",
     "range bounds must all be int", "f0.td:1:137"),
    ("range_step", IO + "impl i of io_s { for k in (0=0=>2) { } };", {}, "type",
     "range step must not be zero", "f0.td:1:137"),
    ("range_size", IO + "impl i of io_s { for k in (0=1=>2000000) { } };", {}, "type",
     "range produces too many elements (2000000)", "f0.td:1:137"),
    # -- logical types
    ("type_not_found", P + "type t = q;", {}, "resolution",
     "type 'q' not found (searched package_p)", "f0.td:1:21"),
    ("type_package_not_imported",
     ("package a; type t = b.bt;", "package b; type bt = Bit(1);"), {}, "resolution",
     "package 'b' is not imported here", "f0.td:1:21"),
    ("type_package_missing", "package a; import b; type t = b.bt;", {}, "resolution",
     "package 'b' does not exist", "f0.td:1:31"),
    ("type_not_in_package",
     ("package a; import b; type t = b.q;", "package b; type bt = Bit(1);"), {},
     "resolution", "type 'q' not found in package 'b'", "f0.td:1:31"),
    ("bit_width_kind", P + 'type t = Bit("a");', {}, "type",
     "Bit width must be an int, got str", "f0.td:1:21"),
    ("bit_width_minimum", P + "type t = Bit(0);", {}, "type",
     "Bit width must be at least 1, got 0", "f0.td:1:21"),
    ("inline_group", P + "type t = Stream(Group g { a: Bit(1) });", {}, "type",
     "inline group/union types must be declared with their own `type` statement",
     "f0.td:1:28"),
    ("stream_user", P + "type t = Stream(Bit(1), u = Stream(Bit(1)));", {}, "type",
     "stream user type must not be a stream", "f0.td:1:34"),
    ("stream_dimension", P + "type t = Stream(Bit(1), d = -1);", {}, "type",
     "dimension must be a non-negative int", "f0.td:1:34"),
    ("stream_throughput", P + 'type t = Stream(Bit(1), t = "a");', {}, "type",
     "throughput must be a non-negative number", "f0.td:1:34"),
    ("stream_synchronicity", P + 'type t = Stream(Bit(1), s = "x");', {}, "type",
     "synchronicity must be one of Sync/Flatten/Desync/FlatDesync", "f0.td:1:34"),
    ("stream_complexity", P + "type t = Stream(Bit(1), c = 9);", {}, "type",
     "complexity must be an int in [1, 7], got 9", "f0.td:1:34"),
    ("stream_complexity_kind", P + 'type t = Stream(Bit(1), c = "a");', {}, "type",
     "complexity must be an int in [1, 7], got str", "f0.td:1:34"),
    ("stream_direction", P + 'type t = Stream(Bit(1), r = "x");', {}, "type",
     "direction must be one of Forward/Reverse", "f0.td:1:34"),
    ("stream_keep", P + "type t = Stream(Bit(1), x = 1);", {}, "type",
     "keep must be a bool", "f0.td:1:34"),
    # -- a group inline under an alias sees no names around it, but its
    # diagnostics still carry the package's path
    ("detached_group_name", P + "const x = 8; type a = Group g { r: Bit(x), };", {},
     "resolution", "variable 'x' not found (searched group_g)", "f0.td:1:51"),
    ("detached_group_assert", P + "type a = Group g { r: Bit(1), assert(1 == 2), };",
     {}, "assertion", "assertion failed: 1 == 2 (operands: int(1), int(2))",
     "f0.td:1:42"),
    ("detached_group_qualified",
     ("package a; import b; type t = Group g { r: b.t, };", "package b; type t = Bit(1);"),
     {}, "resolution", "package 'b' is not imported here", "f0.td:1:44"),
    # -- ports
    ("port_not_stream", P + "streamlet q { a: Bit(1) in, }; impl i of q { };", {},
     "type", "port 'a' must have a stream type, got Bit(1)", "f0.td:1:26"),
    ("port_type_not_found", P + "streamlet q { a: nope in, }; impl i of q { };", {},
     "resolution", "type 'nope' not found (searched streamlet_q -> package_p)",
     "f0.td:1:29"),
    ("port_type_package_missing",
     "package a; import b; streamlet q { a: b.t in, }; impl i of q { };", {},
     "resolution", "package 'b' does not exist", "f0.td:1:39"),
    ("port_array_size", IO + "streamlet q { a: s [0] in, }; impl i of q { };", {},
     "type", "port array size must be a positive int", "f0.td:1:124"),
    ("port_clockdomain_not_found", IO + "streamlet q { a: s in `f, }; impl i of q { };",
     {}, "resolution", "variable 'f' not found (searched streamlet_q -> package_p)",
     "f0.td:1:133"),
    ("port_clockdomain_kind",
     IO + "const f = 1; streamlet q { a: s in `f, }; impl i of q { };", {}, "type",
     "port clockdomain 'f' must be a clockdomain value, got int", "f0.td:1:146"),
    # -- implementations and instances
    ("of_template", IO + "streamlet q<n: int> { }; impl i of q { };", {}, "resolution",
     "streamlet 'q' is a template; supply template arguments", "f0.td:1:145"),
    ("of_not_found", IO + "impl i of nope { };", {}, "resolution",
     "streamlet 'nope' not found (searched implement_i -> package_p)", "f0.td:1:120"),
    ("of_package_not_imported",
     ("package a; impl i of b.q { };", "package b; streamlet q { };"), {},
     "resolution", "package 'b' is not imported here", "f0.td:1:22"),
    ("of_package_missing", "package a; import b; impl i of b.q { };", {}, "resolution",
     "package 'b' does not exist", "f0.td:1:32"),
    ("of_not_in_package",
     ("package a; import b; impl i of b.r { };", "package b; streamlet q { };"), {},
     "resolution", "streamlet 'r' not found in package 'b'", "f0.td:1:32"),
    ("instance_not_found", IO + "impl i of io_s { instance a(nope), };", {},
     "resolution", "implementation 'nope' not found (searched implement_i -> package_p)",
     "f0.td:1:138"),
    ("instance_not_in_package",
     ("package a; import b; streamlet q { }; impl i of q { instance x(b.r), };",
      "package b; streamlet q { }; impl j of q { };"), {}, "resolution",
     "implementation 'r' not found in package 'b'", "f0.td:1:64"),
    ("instance_of_template",
     IO + "external impl t<n: int> of io_s { }; impl i of io_s { instance a(t), };", {},
     "resolution", "instance 'a' targets template 't' without arguments", "f0.td:1:164"),
    ("instance_array_size", IO + "impl i of io_s { instance a(leaf_i) [0], };", {},
     "type", "instance array size must be a positive int", "f0.td:1:127"),
    ("fifo_depth", IO + "impl i of io_s { i =-1=> o, };", {}, "type",
     "FIFO depth must be a non-negative int", "f0.td:1:127"),
    ("unknown_own_port", IO + "impl i of io_s { i => q, };", {}, "resolution",
     "unknown port 'q' on streamlet 'io_s'", "f0.td:1:132"),
    ("unknown_instance", IO + "impl i of io_s { i => a.i, };", {}, "resolution",
     "unknown instance 'a' in implementation 'i'", "f0.td:1:132"),
    ("unknown_instance_port", IO + "impl i of io_s { instance a(leaf_i), i => a.q, };",
     {}, "resolution", "unknown port 'q' on instance 'a' (streamlet 'io_s')",
     "f0.td:1:154"),
    ("end_needs_index", IO + "impl i of io_s { instance a(leaf_i) [2], i => a.i, };",
     {}, "resolution", "instance 'a' is an array; an index is required",
     "f0.td:1:156"),
    ("end_port_needs_index",
     P + "type s = Stream(Bit(1)); streamlet a_s { i: s [2] in, o: s out, }; "
     "impl i of a_s { i => o, };", {}, "resolution",
     "port 'i' is an array; an index is required", "f0.td:1:95"),
    ("end_not_array", IO + "impl i of io_s { instance a(leaf_i), i => a[0].i, };",
     {}, "resolution", "instance 'a' is not an array", "f0.td:1:154"),
    ("end_index_kind",
     IO + "impl i of io_s { instance a(leaf_i) [2], i => a[true].i, };", {}, "type",
     "index of instance 'a' must be an int", "f0.td:1:158"),
    ("end_index_bounds", IO + "impl i of io_s { instance a(leaf_i) [2], i => a[2].i, };",
     {}, "resolution", "index 2 out of bounds for instance 'a' of size 2", "f0.td:1:158"),
    ("end_interpolated", IO + "impl i of io_s { i => a_{{k}}.i, };", {}, "resolution",
     "interpolated identifier is only usable inside a for scope", "f0.td:1:132"),
    ("assert_kind", IO + "impl i of io_s { assert(1), };", {}, "type",
     "assert expects a boolean argument, got int", "f0.td:1:127"),
    ("assert_failed", IO + "impl i of io_s { assert(1 == 2), };", {}, "assertion",
     "assertion failed: 1 == 2 (operands: int(1), int(2))", "f0.td:1:127"),
    # -- member extraction
    ("extract_type_name", P + "type Group g { a: Bit(1) }; const x = type g<1>.a;", {},
     "resolution", "type member extraction needs a type name", "f0.td:1:55"),
    ("extract_no_member_scope", P + "type t = Bit(1); const x = type t.a;", {},
     "resolution", "type 't' has no member scope (only groups and unions do)",
     "f0.td:1:44"),
    ("extract_member", P + "streamlet q { const n = 1, }; const x = streamlet q.m;", {},
     "resolution", "member 'm' not found in scope 'streamlet_q'", "f0.td:1:52"),
    ("extract_type_member", P + "streamlet q { }; type t = streamlet q.m;", {},
     "resolution", "type member 'm' not found in scope 'streamlet_q'", "f0.td:1:38"),
    ("extract_owner_not_found", P + "const x = streamlet q.m;", {}, "resolution",
     "streamlet 'q' not found (searched package_p)", "f0.td:1:32"),
    ("extract_type_owner_package_missing", "package a; import b; const x = type b.g.m;",
     {}, "resolution", "package 'b' does not exist", "f0.td:1:37"),
    # -- templates
    ("not_a_template", IO + "impl i of io_s<1> { };", {}, "resolution",
     "streamlet 'io_s' is not a template", "f0.td:1:120"),
    ("template_arity", IO + "streamlet q<n: int> { }; impl i of q<1, 2> { };", {},
     "resolution", "template 'q' expects 1 argument(s), got 2", "f0.td:1:145"),
    ("template_type_argument", IO + "streamlet q<t: type> { }; impl i of q<1> { };",
     {}, "type", "template parameter 't' expects a logical type; use the `type` "
     "keyword before the argument", "f0.td:1:148"),
    ("template_impl_argument",
     IO + "external impl t<c: impl of io_s> of io_s { }; "
     "impl i of io_s { instance a(t<1>), };", {}, "type",
     "template parameter 'c' expects an implementation; use the `impl` keyword "
     "before the argument", "f0.td:1:186"),
    ("template_impl_argument_template",
     IO + "external impl t<c: impl of io_s> of io_s { }; "
     "external impl u<n: int> of io_s { }; impl i of io_s { instance a(t<impl u>), };",
     {}, "resolution",
     "component argument 'u' must be a concrete implementation, not a template",
     "f0.td:1:223"),
    ("template_impl_argument_streamlet",
     IO + "streamlet r { }; external impl r_i of r { }; "
     "external impl t<c: impl of io_s> of io_s { }; "
     "impl i of io_s { instance a(t<impl r_i>), };", {}, "type",
     "implementation 'r_i' implements streamlet 'r', but parameter 'c' requires an "
     "implementation of 'io_s'", "f0.td:1:231"),
    ("template_impl_of_not_found",
     IO + "external impl t<c: impl of nope> of io_s { }; "
     "impl i of io_s { instance a(t<impl leaf_i>), };", {}, "resolution",
     "streamlet 'nope' not found (searched package_p)", "f0.td:1:186"),
    ("template_value_argument", IO + "streamlet q<n: int> { }; impl i of q<type s> { };",
     {}, "type", "template parameter 'n' expects a int value", "f0.td:1:147"),
    ("template_value_kind", IO + 'streamlet q<n: int> { }; impl i of q<"a"> { };', {},
     "type", "template parameter 'n' expects int, got str", "f0.td:1:147"),
    # an instance that instances itself: reported at the template's declaration
    ("template_cycle",
     "package p;\ntype s = Stream(Bit(1));\nstreamlet a_s { x: s in, };\n"
     "impl a_i<n: int> of a_s { instance y(a_i<n>), x => y.x, };\n"
     "impl top_i of a_s { instance t(a_i<1>), x => t.x, };\n", {}, "resolution",
     "circular dependency: impl a_i@1 -> impl a_i@1", "f0.td:4:1"),
    # -- generative blocks
    ("for_iterable", IO + "impl i of io_s { for k in (1) { } };", {}, "type",
     "for iterates an array of basic values, got int", "f0.td:1:137"),
    ("for_plain_instance",
     IO + "impl i of io_s { for k in (0=1=>2) { instance a(leaf_i), } };", {},
     "resolution", "instance 'a' cannot be declared in a for scope; interpolate the "
     "name with {{...}} instead", "f0.td:1:147"),
    ("for_assert",
     IO + "impl i of io_s { for k in (0=1=>2) { assert(k < 2), assert(k < 1), } };",
     {}, "assertion", "assertion failed: k < 1 (operands: int(1), int(1))",
     "f0.td:1:162"),
    ("for_unresolved", IO + "impl i of io_s { for k in (0=1=>1) { i =q=> o, } };", {},
     "resolution", "variable 'q' not found (searched implement_i -> package_p)",
     "f0.td:1:150"),
    ("for_interpolated_constant", IO + "const n = 1; impl i of io_s { "
     "for k in (0=1=>1) { instance a_{{n}}(leaf_i), } };", {}, "resolution",
     "interpolated identifier is only usable inside a for scope", "f0.td:1:169"),
    ("if_condition", IO + "impl i of io_s { if (1) { } };", {}, "type",
     "if condition must be a boolean value, got int", "f0.td:1:131"),
    ("interpolated_float",
     IO + "impl i of io_s { for k in ({1.5}) { instance a_{{k}}(leaf_i), } };", {},
     "type", "loop variable of type float cannot be interpolated into an identifier",
     "f0.td:1:157"),
    ("interpolated_invalid",
     IO + 'impl i of io_s { for k in ({"-"}) { instance a_{{k}}(leaf_i), } };', {},
     "resolution", "interpolated identifier 'a_-' is not a valid identifier",
     "f0.td:1:155"),
    # -- pipeline
    ("top_not_found", IO, {"top": "p.ghost_i"}, "usage",
     "top implementation 'p.ghost_i' not found", "<project>"),
    ("top_template", IO + "external impl t<n: int> of io_s { };", {"top": "p.t"},
     "usage", "top implementation 'p.t' is a template", "<project>"),
    ("dot_without_top", IO, {"emit_dot": True}, "usage",
     "--dot requires --top <package.impl>", "<project>"),
]


@pytest.mark.parametrize(
    "sources, options, category, message, location",
    [case[1:] for case in CASES], ids=[case[0] for case in CASES])
def test_diagnostic_is_pinned(sources, options, category, message, location):
    if isinstance(sources, str):
        sources = (sources,)
    files = [(f"f{i}.td", text) for i, text in enumerate(sources)]
    result = compile_sources(CompileConfig(inputs=["<memory>"], **options), files)
    assert [(d.category, d.message) for d in result.diagnostics] == [(category, message)]
    assert result.diagnostics[0].location(dict(files).get(
        result.diagnostics[0].path)) == location


def _declare_streamlet_in_group():
    group = Scope("group_g", "group")
    declare(group, Streamlet(id="q", scope=Scope("streamlet_q", "streamlet")),
            "streamlet")


def _resolve_missing():
    inner = Scope("group_g", "group")
    inner.add_relation(ScopeRelationKind.GROUP, Scope("package_p", "package"))
    resolve_name(inner, "nope", "variable")


def _flatten_unevaluated():
    flatten(project_of(IO + "impl i of io_s { };"), "p", "i")


def _sugar_without_prelude():
    parsed, _ = parse_project([("f0.td", IO + "impl i of io_s { instance a(leaf_i), "
                                              "i => a.i, };")])
    project = build_project("x", parsed)
    ctx = EvalContext(project)
    assert evaluate_project(ctx, project) == []
    sugar_project(ctx, project)


def test_only_usage_errors_have_no_location():
    """Whatever a source can cause is reported at a file; only the usage
    errors, which no source causes, are located at <project>."""
    assert {case[3] for case in CASES if case[5] == "<project>"} == {"usage"}


# checks that no source reaches; the library API does. Each call raises the
# diagnostic or returns a result that holds it.
API_CASES = [
    ("declare_outside_package", _declare_streamlet_in_group, "resolution",
     "streamlet 'q' may only be declared in a package scope, not inside group_g"),
    ("resolve_name_miss", _resolve_missing, "resolution",
     "variable 'nope' not found (searched group_g -> package_p)"),
    ("flatten_unevaluated", _flatten_unevaluated, "resolution",
     "top implementation 'i' is not evaluated"),
    ("sugar_without_prelude", _sugar_without_prelude, "resolution",
     "standard-library template 'void_i' is required for sugaring but is not loaded"),
    ("bit_width_of_stream", lambda: bit_width(StreamType(None, None)), "type",
     "bit_width is undefined for stream types"),
    ("fragment_trailing_input", lambda: parse_fragment("Bit(1) x"), "syntax",
     "expected end of input, found 'x'"),
    ("no_input_files", lambda: compile_project(CompileConfig(inputs=[])), "usage",
     "no input files"),
]


@pytest.mark.parametrize("call, category, message",
                         [case[1:] for case in API_CASES],
                         ids=[case[0] for case in API_CASES])
def test_api_diagnostic_is_pinned(call, category, message):
    try:
        [diagnostic] = call().diagnostics
    except TydiError as e:
        diagnostic = e.diagnostic
    assert (diagnostic.category, diagnostic.message) == (category, message)


# -- every site is pinned ----------------------------------------------------------

SRC = Path(__file__).resolve().parent.parent / "src" / "tydilang"

# message sites that no source and no API call reaches, by "module.function:
# message" with {} for each interpolated value
UNREACHABLE: dict[str, str] = {}

# calls whose argument is a diagnostic message, by the name called, with the
# text the callee puts in front of it
_ERROR_CLASSES = {name for name, obj in vars(errors).items()
                  if isinstance(obj, type) and issubclass(obj, TydiError)}
_MESSAGE_HELPERS = {"err": "", "fail": "expected "}


def _skeleton(node) -> str:
    """The literal text of a message expression, {} for each computed part."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    if isinstance(node, ast.JoinedStr):
        return "".join(_skeleton(part) for part in node.values)
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
        return _skeleton(node.left) + _skeleton(node.right)
    return "{}"


def _message(node, function: str):
    """(prefix, message expression) if `node` makes a diagnostic."""
    if isinstance(node, ast.Call):
        callee = node.func.id if isinstance(node.func, ast.Name) else \
            getattr(node.func, "attr", None)
        index = 1 if callee in ("TydiError", "Diagnostic") else 0
        if (callee in _ERROR_CLASSES or callee == "Diagnostic"
                or callee in _MESSAGE_HELPERS) and len(node.args) > index:
            return _MESSAGE_HELPERS.get(callee, ""), node.args[index]
    # the lexer's `_fail` returns (message, start, end) for `err` to raise
    if isinstance(node, ast.Return) and function == "_fail" \
            and isinstance(node.value, ast.Tuple):
        return "", node.value.elts[0]
    return None


def diagnostic_sites() -> dict[str, str]:
    """Every message site in the compiler: its key and the text it makes."""
    sites = {}

    def visit(node, module: str, function: str):
        for child in ast.iter_child_nodes(node):
            inner = child.name if isinstance(child, ast.FunctionDef) else function
            found = _message(child, inner)
            if found is not None:
                text = found[0] + _skeleton(found[1])
                sites[f"{module}.{inner}: {text}"] = text
            visit(child, module, inner)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem, "<module>")
    return sites


def _matches(skeleton: str, message: str) -> bool:
    pattern = ".*".join(re.escape(part) for part in skeleton.split("{}"))
    return re.match(pattern, message) is not None


def test_every_diagnostic_site_is_pinned():
    """A new diagnostic cannot land without a pin or a recorded reason. A
    site that passes on a text made elsewhere ({} alone) matches any pin;
    the text is checked where it is made."""
    sites = diagnostic_sites()
    assert {"lexer", "parser", "builder", "model", "math_engine", "type_eval",
            "elaboration", "pipeline", "emit"} <= {key.split(".")[0] for key in sites}
    pinned = [case[4] for case in CASES] + [case[3] for case in API_CASES]
    unpinned = [key for key, skeleton in sites.items() if key not in UNREACHABLE
                and not any(_matches(skeleton, message) for message in pinned)]
    assert unpinned == []
    assert set(UNREACHABLE) <= set(sites), "stale UNREACHABLE entries"
