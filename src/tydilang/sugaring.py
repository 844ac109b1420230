"""Implicit stream plumbing: duplicator and voider insertion.

After elaboration every port must ultimately be connected exactly once. A
source end used k >= 2 times as a source gets a k-channel duplicator spliced
in; an instance output that is never used gets a voider to complete its
handshake. Self ports of an implementation are its external interface and
stay untouched when unused. `port_uses` is the one census of port ends: one
pass over the connections counts each end's uses and indexes each source's,
and only the ends not used exactly once become records. DRC's R5 recounts the
sugared implementation with the same census.
"""

from __future__ import annotations

from typing import Optional

from .context import EvalContext
from .elaboration import instantiate_template
from .errors import TydiError
from .model import (Connection, EndRef, EvalState, Implementation, Instance,
                    Port, Project)
from .stdlib import PRELUDE_PACKAGE
from .values import IntValue

DUPLICATOR_IMPL = "duplicator_i"
VOIDER_IMPL = "void_i"


def _role(self_side: bool, direction: str) -> str:
    """A Self `in` port acts as a source inside its own implementation; an
    instance's `out` port is a source."""
    return "source" if direction == ("in" if self_side else "out") else "sink"


def end_role(end: EndRef) -> str:
    return _role(end.is_self, end.port.direction)


def _indices(array_size: Optional[int]):
    return (None,) if array_size is None else range(array_size)


def port_uses(impl: Implementation):
    """The array-expanded port ends of `impl` that are not used exactly once,
    as `(key, role, port, count)` in declaration order, and each source end's
    connections in order. Unused Self ends are left out: they are the
    implementation's external interface."""
    counts: dict[tuple, int] = {}
    uses: dict[tuple, list[Connection]] = {}
    for conn in impl.connections:
        source = conn.source.key()
        uses.setdefault(source, []).append(conn)
        for key in (source, conn.sink.key()):
            counts[key] = counts.get(key, 0) + 1
    owners = [(None, None, impl.streamlet)]
    for inst in impl.instances.values():
        owners += [(inst.name, ii, inst.target.streamlet)
                   for ii in _indices(inst.array_size)]
    irregular = []
    for owner, owner_index, streamlet in owners:
        for port in streamlet.ports.values():
            role = _role(owner is None, port.direction)
            for pi in _indices(port.array_size):
                key = (owner, owner_index, port.name, pi)
                count = counts.get(key, 0)
                if count > 1 or (count == 0 and owner is not None):
                    irregular.append((key, role, port, count))
    return irregular, uses


def _sanitize(name: str) -> str:
    while "__" in name:
        name = name.replace("__", "_")
    return name.strip("_") or "p"


def _unique_name(impl: Implementation, base: str) -> str:
    name = base
    n = 2
    while name in impl.scope.instances:
        name = f"{base}_{n}"
        n += 1
    return name


def _end_path_name(key: tuple) -> str:
    owner, owner_index, port_name, port_index = key
    parts = []
    if owner is None:
        parts.append("self")
    else:
        parts.append(owner)
        if owner_index is not None:
            parts.append(str(owner_index))
    parts.append(port_name)
    if port_index is not None:
        parts.append(str(port_index))
    return _sanitize("_".join(parts))


def _end(inst: Optional[Instance], port: Port, owner_index=None,
         port_index=None) -> EndRef:
    """A resolved end on a port of `inst`, or of Self when `inst` is None."""
    return EndRef(owner_name=inst.name if inst is not None else None,
                  owner_index=owner_index, port_name=port.name,
                  port_index=port_index, instance=inst, port=port)


def _std_template(ctx: EvalContext, name: str) -> Implementation:
    pkg = ctx.project.packages.get(PRELUDE_PACKAGE)
    template = pkg.scope.implements.get(name) if pkg else None
    if template is None:
        raise TydiError(
            "resolution",
            f"standard-library template {name!r} is required for sugaring but "
            "is not loaded")
    return template


def sugar_implementation(ctx: EvalContext, impl: Implementation) -> None:
    """Rewrite one implementation so every port end is singly connected."""
    if impl.external or impl.state is not EvalState.EVALUATED:
        return
    irregular, uses = port_uses(impl)

    def order(use):
        owner, owner_index, port_name, port_index = use[0]
        return (owner or "", -1 if owner_index is None else owner_index,
                port_name, -1 if port_index is None else port_index)

    sources = [use for use in irregular if use[1] == "source"]
    for key, _, port, count in sorted(sources, key=order):
        # only the uses as a source count: an end that is also wrongly used
        # as a sink keeps that use, and R3 and R5 report it
        source_uses = uses.get(key, [])
        k = len(source_uses)
        if k >= 2:
            inst = _insert(ctx, impl, key, port, DUPLICATOR_IMPL, [IntValue(k)],
                           f"duplicate_{_end_path_name(key)}_{k}")
            # retarget this source's uses, indexed before any insertion, onto
            # the outputs in declaration order; each keeps its fifo depth,
            # marker and name
            out_port = inst.target.streamlet.ports["output"]
            for j, conn in enumerate(source_uses):
                conn.source = _end(inst, out_port, port_index=j)
        elif count == 0:
            _insert(ctx, impl, key, port, VOIDER_IMPL, [], f"void_{_end_path_name(key)}")


def _insert(ctx, impl, key: tuple, port: Port, template_name: str, more_args: list,
            base: str) -> Instance:
    """Instance the prelude template `template_name` on the type of the
    source end `key` on `port` and `more_args`, under a unique name made from
    `base`, and connect the source end to its `input`."""
    target = instantiate_template(ctx, _std_template(ctx, template_name),
                                  [port.logical_type, *more_args])
    name = _unique_name(impl, _sanitize(base))
    inst = impl.scope.instances[name] = Instance(name=name, target=target)
    owner, owner_index, _, port_index = key
    source = _end(impl.instances[owner] if owner is not None else None, port,
                  owner_index, port_index)
    impl.scope.connections.append(Connection(
        name=f"{name}_in", source=source,
        sink=_end(inst, target.streamlet.ports["input"])))
    return inst


def sugar_project(ctx: EvalContext, project: Project) -> None:
    for pkg_name in sorted(project.packages):
        scope = project.packages[pkg_name].scope
        for impl_id in sorted(scope.implements):
            sugar_implementation(ctx, scope.implements[impl_id])
