import gc
import os

import pytest

from tydilang.errors import TydiError
from tydilang.model import (Implementation, Instance, Port, Scope,
                            ScopeRelationKind, Streamlet, TypeEntry, Variable,
                            declare, resolve_name)
from tydilang.pipeline import CompileConfig, compile_project

from conftest import DATA_DIR, evaluated_project, project_of

CATEGORIES = ["variable", "type", "streamlet", "implementation", "port", "instance"]
RELATIONS = [ScopeRelationKind.GROUP, ScopeRelationKind.UNION,
             ScopeRelationKind.STREAM, ScopeRelationKind.STREAMLET,
             ScopeRelationKind.IMPLEMENT, ScopeRelationKind.IFFOR]

# Allowed (category, relation) traversals: variables and types pass every
# relation; streamlets and implementations pass only implement relations and
# the if/for relation of a `for` element's scope, so a `for` body sees what
# the implementation around it sees; ports and instances never traverse.
ALLOWED = {
    ("variable", k) for k in RELATIONS
} | {
    ("type", k) for k in RELATIONS
} | {
    ("streamlet", ScopeRelationKind.IMPLEMENT),
    ("implementation", ScopeRelationKind.IMPLEMENT),
    ("streamlet", ScopeRelationKind.IFFOR),
    ("implementation", ScopeRelationKind.IFFOR),
}


def _entity(category, name, scope):
    if category == "variable":
        return Variable(id=name, scope=scope)
    if category == "type":
        return TypeEntry(id=name, ast=None, scope=scope)
    if category == "streamlet":
        return Streamlet(id=name, scope=Scope(f"streamlet_{name}", "streamlet"))
    if category == "implementation":
        return Implementation(id=name, scope=Scope(f"implement_{name}", "implement"))
    if category == "port":
        return Port(name=name, type_ast=None, direction="in")
    return Instance(name=name)


@pytest.mark.parametrize("category", CATEGORIES)
@pytest.mark.parametrize("relation", RELATIONS)
def test_resolution_matrix_cell(category, relation):
    outer = Scope("package_p", "package")
    inner = Scope("inner", relation.name.lower())
    inner.add_relation(relation, outer)
    table = getattr(outer, {
        "variable": "variables", "type": "types", "streamlet": "streamlets",
        "implementation": "implements", "port": "ports", "instance": "instances",
    }[category])
    table["target"] = _entity(category, "target", outer)
    if (category, relation) in ALLOWED:
        entity, owner = resolve_name(inner, "target", category)
        assert owner is outer
    else:
        with pytest.raises(TydiError) as exc:
            resolve_name(inner, "target", category)
        assert exc.value.category == "resolution"


def test_matrix_has_thirty_six_cells():
    assert len(CATEGORIES) * len(RELATIONS) == 36


def test_inner_name_shadows_outer():
    outer = Scope("package_p", "package")
    inner = Scope("group_g", "group")
    inner.add_relation(ScopeRelationKind.GROUP, outer)
    outer.variables["x"] = Variable(id="x", scope=outer)
    inner.variables["x"] = shadow = Variable(id="x", scope=inner)
    entity, owner = resolve_name(inner, "x", "variable")
    assert owner is inner and entity is shadow


def test_resolution_is_deterministic():
    outer = Scope("package_p", "package")
    inner = Scope("group_g", "group")
    inner.add_relation(ScopeRelationKind.GROUP, outer)
    outer.variables["x"] = Variable(id="x", scope=outer)
    first = resolve_name(inner, "x", "variable")
    assert all(resolve_name(inner, "x", "variable") == first for _ in range(5))


def test_not_found_error_names_searched_scopes():
    outer = Scope("package_p", "package")
    inner = Scope("group_g", "group")
    inner.add_relation(ScopeRelationKind.GROUP, outer)
    with pytest.raises(TydiError) as exc:
        resolve_name(inner, "nope", "variable")
    assert exc.value.category == "resolution"
    assert "group_g" in exc.value.message and "package_p" in exc.value.message


def test_scope_repr_is_its_name():
    """Not the dataclass repr, which would print every scope it reaches."""
    outer = Scope("package_p", "package")
    inner = Scope("group_g", "group")
    inner.add_relation(ScopeRelationKind.GROUP, outer)
    assert repr(inner) == "Scope(group_g)"


def test_resolve_name_leaves_no_garbage():
    """A lookup builds no closure or other reference cycle: with the collector
    off, 1,000 hits and misses leave nothing for it to collect."""
    outer = Scope("package_p", "package")
    inner = Scope("group_g", "group")
    inner.add_relation(ScopeRelationKind.GROUP, outer)
    outer.variables["x"] = Variable(id="x", scope=outer)
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        for _ in range(500):
            resolve_name(inner, "x", "variable")
            try:
                resolve_name(inner, "nope", "variable")
            except TydiError as e:
                assert e.category == "resolution"
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


# -- declare ------------------------------------------------------------------


def test_declare_duplicate_rejected():
    scope = Scope("package_p", "package")
    declare(scope, Variable(id="x", scope=scope), "variable")
    with pytest.raises(TydiError):
        declare(scope, Variable(id="x", scope=scope), "variable")


def test_declare_streamlet_outside_package_rejected():
    group = Scope("group_g", "group")
    with pytest.raises(TydiError):
        declare(group, Streamlet(id="s", scope=Scope("streamlet_s", "streamlet")),
                "streamlet")


def test_type_and_variable_namespaces_are_separate():
    scope = Scope("package_p", "package")
    declare(scope, Variable(id="x", scope=scope), "variable")
    declare(scope, TypeEntry(id="x", ast=None, scope=scope), "type")  # no clash


# -- end-to-end resolution behavior ----------------------------------------------


def test_forward_reference_is_legal():
    project, _ = evaluated_project(
        "package test;\n"
        "type Group Date {\n"
        "  year: Bit(32),\n"
        "  day: bit5,  //not yet defined here\n"
        "};\n"
        "type bit5 = Bit(5);\n"
        "streamlet s { p: Stream(Date) in, };\n"
        "impl i of s { };\n")
    date = project.packages["test"].scope.types["Date"]
    assert dict(date.evaluated.fields)["day"].width == 5


def test_group_member_resolves_type_through_group_relation():
    project, _ = evaluated_project(
        "package tpch;\n"
        "type bit5 = Bit(5);\n"
        "type Group Date {\n"
        "  year: Bit(32),\n"
        "  month: Bit(4),\n"
        "  day: bit5,\n"
        "};\n"
        "streamlet s { p: Stream(Date) in, };\n"
        "impl i of s { };\n")
    date = project.packages["tpch"].scope.types["Date"]
    assert dict(date.evaluated.fields)["day"].width == 5


def test_package_magic_selects_package_scope_over_local():
    project, _ = evaluated_project(
        "package tpch;\n"
        "const i = 16;\n"
        "type Group rgb {\n"
        "  const i = 8,\n"
        "  r: Bit(tpch.i),\n"
        "  g: Bit(i),\n"
        "  b: Bit(i),\n"
        "};\n"
        "streamlet s { p: Stream(rgb) in, };\n"
        "impl x of s { };\n")
    fields = dict(project.packages["tpch"].scope.types["rgb"].evaluated.fields)
    assert fields["r"].width == 16
    assert fields["g"].width == 8


def test_cross_package_requires_import():
    project = project_of(
        "package a;\nconst x = b.v;\n",
        "package b;\nconst v = 1;\n")
    from tydilang.context import EvalContext
    from tydilang.math_engine import force_variable
    ctx = EvalContext(project)
    with pytest.raises(TydiError) as exc:
        force_variable(ctx, project.packages["a"].scope.variables["x"])
    assert "not imported" in exc.value.message


def test_detached_alias_group_cannot_see_package_scope():
    project = project_of(
        "package tpch;\n"
        "const x = 8;\n"
        "type rgb_alias = Group rgb {\n"
        "  r: Bit(x),\n"
        "};\n")
    from tydilang.context import EvalContext
    from tydilang.type_eval import force_type_entry
    ctx = EvalContext(project)
    entry = project.packages["tpch"].scope.types["rgb_alias"]
    with pytest.raises(TydiError):
        force_type_entry(ctx, entry)
    assert "rgb" not in project.packages["tpch"].scope.types


def test_attached_alias_group_usable_through_alias_only():
    project, _ = evaluated_project(
        "package tpch;\n"
        "type rgb_alias = Group rgb {\n"
        "  const x = 8,\n"
        "  r: Bit(x),\n"
        "};\n"
        "streamlet s { p: Stream(rgb_alias) in, };\n"
        "impl i of s { };\n")
    entry = project.packages["tpch"].scope.types["rgb_alias"]
    assert dict(entry.evaluated.fields)["r"].width == 8


def _reachable_scopes(project):
    """Every scope reachable from the project's package scopes."""
    seen = {}
    stack = [pkg.scope for pkg in project.packages.values()]
    while stack:
        scope = stack.pop()
        if id(scope) in seen:
            continue
        seen[id(scope)] = scope
        if scope.relation is not None:
            stack.append(scope.relation[1])
        stack.extend(e.own_scope for e in scope.types.values() if e.own_scope)
        stack.extend(s.scope for s in scope.streamlets.values())
        stack.extend(i.scope for i in scope.implements.values())
        stack.extend(i.target.scope for i in scope.instances.values() if i.target)
        stack.extend(i.scope for i in scope.impl_args.values())
    return list(seen.values())


@pytest.mark.parametrize("inputs, top", [
    (["tpch1.td"], "std.main_i"),
    (["golden_templates"], "app.top_i"),
], ids=["tpch1", "golden_templates"])
def test_every_scope_knows_its_package(inputs, top):
    """Package, streamlet, implementation and group scopes, template
    instances, for-expanded implementations and the prelude instances that
    sugaring inserts all belong to a package of the project."""
    config = CompileConfig(inputs=[os.path.join(DATA_DIR, i) for i in inputs],
                           top=top, emit_drc=True)
    result = compile_project(config)
    assert result.exit_code == 0, result.diagnostics
    packages = list(result.project.packages.values())
    scopes = _reachable_scopes(result.project)
    assert [s.name for s in scopes if not any(s.package is p for p in packages)] == []
    assert {"package", "streamlet", "implement", "group"} <= {s.category for s in scopes}
    names = {s.name for s in scopes}
    assert any("@" in n and n.startswith("implement_") for n in names)
    assert any(n.startswith("implement_duplicator_i@") for n in names)
