"""Implicit stream plumbing: duplicator and voider insertion.

After elaboration every port must ultimately be connected exactly once. A
source end used k >= 2 times gets a k-channel duplicator spliced in; an
instance output that is never used gets a voider to complete its handshake.
Self ports of an implementation are its external interface and stay untouched
when unused. Each source's uses are indexed in one pass over connections.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .context import EvalContext
from .elaboration import instantiate_template
from .errors import TydiError
from .model import (Connection, EndRef, EvalState, Implementation, Instance,
                    Port, Project)
from .stdlib import PRELUDE_PACKAGE
from .values import IntValue

DUPLICATOR_IMPL = "duplicator_i"
VOIDER_IMPL = "void_i"


class PortUsage(NamedTuple):
    owner: object  # None for Self, otherwise the instance name
    owner_index: object
    port_name: str
    port_index: object
    role: str  # source | sink
    use_count: int
    port: Port

    def key(self):
        return (self.owner, self.owner_index, self.port_name, self.port_index)


def _role(self_side: bool, direction: str) -> str:
    """A Self `in` port acts as a source inside its own implementation; an
    instance's `out` port is a source."""
    return "source" if direction == ("in" if self_side else "out") else "sink"


def end_role(end: EndRef) -> str:
    return _role(end.is_self, end.port.direction)


def _universe(impl: Implementation):
    """Every addressable port end of an implementation, array-expanded."""
    ends = []

    def port_ends(owner, owner_index, port: Port, self_side: bool):
        indices = [None] if port.array_size is None else list(range(port.array_size))
        role = _role(self_side, port.direction)
        for pi in indices:
            ends.append(((owner, owner_index, port.name, pi), role, port))

    for port in impl.streamlet.ports.values():
        port_ends(None, None, port, self_side=True)
    for inst in impl.instances.values():
        inst_indices = [None] if inst.array_size is None else list(range(inst.array_size))
        for ii in inst_indices:
            for port in inst.target.streamlet.ports.values():
                port_ends(inst.name, ii, port, self_side=False)
    return ends


def _census(impl: Implementation):
    """Every port end's usage, and each source end's connections in order."""
    counts: dict[tuple, int] = {}
    uses: dict[tuple, list[Connection]] = {}
    for conn in impl.connections:
        source = conn.source.key()
        uses.setdefault(source, []).append(conn)
        for key in (source, conn.sink.key()):
            counts[key] = counts.get(key, 0) + 1
    return [PortUsage(*key, role, counts.get(key, 0), port)
            for key, role, port in _universe(impl)], uses


def usage_census(impl: Implementation) -> list[PortUsage]:
    return _census(impl)[0]


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


def _end_path_name(usage: PortUsage) -> str:
    parts = []
    if usage.owner is None:
        parts.append("self")
    else:
        parts.append(usage.owner)
        if usage.owner_index is not None:
            parts.append(str(usage.owner_index))
    parts.append(usage.port_name)
    if usage.port_index is not None:
        parts.append(str(usage.port_index))
    return _sanitize("_".join(parts))


def _end(inst: Optional[Instance], port: Port, owner_index=None,
         port_index=None) -> EndRef:
    """A resolved end on a port of `inst`, or of Self when `inst` is None."""
    return EndRef(owner_name=inst.name if inst is not None else None,
                  owner_index=owner_index, port_name=port.name,
                  port_index=port_index, instance=inst, port=port)


def _source_end(impl: Implementation, usage: PortUsage) -> EndRef:
    inst = impl.instances[usage.owner] if usage.owner is not None else None
    return _end(inst, usage.port, usage.owner_index, usage.port_index)


def _std_template(project: Project, name: str) -> Implementation:
    pkg = project.packages.get(PRELUDE_PACKAGE)
    template = pkg.scope.implements.get(name) if pkg else None
    if template is None:
        raise TydiError(
            "resolution",
            f"standard-library template {name!r} is required for sugaring but "
            "is not loaded")
    return template


def sugar_implementation(ctx: EvalContext, project: Project,
                         impl: Implementation) -> None:
    """Rewrite one implementation so every port end is singly connected."""
    if impl.external or impl.state is not EvalState.EVALUATED:
        return
    census, uses = _census(impl)
    ordered = sorted(
        (u for u in census if u.role == "source"),
        key=lambda u: (u.owner or "", u.owner_index if u.owner_index is not None else -1,
                       u.port_name, u.port_index if u.port_index is not None else -1))
    for usage in ordered:
        k = usage.use_count
        if k >= 2:
            inst = _insert(ctx, project, impl, usage, DUPLICATOR_IMPL, [IntValue(k)],
                           f"duplicate_{_end_path_name(usage)}_{k}")
            # retarget this source's uses, indexed before any insertion, onto
            # the outputs in declaration order; each keeps its fifo depth,
            # marker and name
            out_port = inst.target.streamlet.ports["output"]
            for j, conn in enumerate(uses.get(usage.key(), [])):
                conn.source = _end(inst, out_port, port_index=j)
        elif k == 0 and usage.owner is not None:
            _insert(ctx, project, impl, usage, VOIDER_IMPL, [],
                    f"void_{_end_path_name(usage)}")


def _insert(ctx, project, impl, usage: PortUsage, template_name: str,
            more_args: list, base: str) -> Instance:
    """Instance the prelude template `template_name` on the source's type
    and `more_args`, under a unique name made from `base`, and connect the
    source end to its `input`."""
    target = instantiate_template(ctx, _std_template(project, template_name),
                                  [usage.port.logical_type, *more_args])
    name = _unique_name(impl, _sanitize(base))
    inst = impl.scope.instances[name] = Instance(name=name, target=target)
    impl.scope.connections.append(Connection(
        name=f"{name}_in", source=_source_end(impl, usage),
        sink=_end(inst, target.streamlet.ports["input"])))
    return inst


def sugar_project(ctx: EvalContext, project: Project) -> None:
    for pkg_name in sorted(project.packages):
        scope = project.packages[pkg_name].scope
        for impl_id in sorted(scope.implements):
            sugar_implementation(ctx, project, scope.implements[impl_id])
