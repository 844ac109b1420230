"""Post-sugaring design rule check.

Rules enforced per connection of every non-external implementation:
  R1  unmarked connections must carry the very same evaluated type: what one
      type declaration evaluated to, named by both ends through any aliases,
      member extractions or template arguments, or one type written in place
      that a template argument or an inserted duplicator or voider passes
      on; merely structural equality is a warning, anything else an error
  R2  @NoStrictType@ connections must at least be structurally compatible
  R3  connections run source -> sink (a Self `in` port is a source inside
      its own implementation, an instance `out` port is a source)
  R4  both ends must live in the same clockdomain
  R5  every port end appears in exactly one connection, by the census that
      sugaring reads (`sugaring.port_uses`), taken afresh on the sugared
      implementation
"""

from __future__ import annotations

from .logical_types import types_compatible
from .model import EvalState, Implementation, Project, end_display
from .sugaring import end_role, port_uses
from .values import Frozen, set_field


class DrcDiagnostic(Frozen):
    def __init__(self, severity, rule, package, implementation, connection, message):
        set_field(self, "severity", severity)  # Error | Warning
        set_field(self, "rule", rule)  # R1..R5
        set_field(self, "package", package)
        set_field(self, "implementation", implementation)
        set_field(self, "connection", connection)
        set_field(self, "message", message)

    def line(self) -> str:
        return (f"[{self.severity}] {self.rule} {self.package}.{self.implementation}"
                f" ({self.connection}): {self.message}")


def run_drc(project: Project) -> list[DrcDiagnostic]:
    diags: list[DrcDiagnostic] = []
    for pkg_name in sorted(project.packages):
        scope = project.packages[pkg_name].scope
        for impl_id in sorted(scope.implements):
            impl = scope.implements[impl_id]
            if impl.external or impl.state is not EvalState.EVALUATED:
                continue
            diags.extend(_check_implementation(pkg_name, impl))
    diags.sort(key=lambda d: (d.package, d.implementation, d.connection, d.rule,
                              d.message))
    return diags


def _check_implementation(pkg_name: str, impl: Implementation) -> list[DrcDiagnostic]:
    out: list[DrcDiagnostic] = []

    def report(severity, rule, conn, message):
        out.append(DrcDiagnostic(severity, rule, pkg_name, impl.id, conn.name, message))

    for conn in impl.connections:
        src, snk = conn.source, conn.sink
        # R1 / R2: exactly one of the two type rules applies per connection
        if conn.no_strict:
            if not types_compatible(src.port.logical_type, snk.port.logical_type):
                report("Error", "R2", conn,
                       f"{src.display()} and {snk.display()} have incompatible "
                       "stream types")
        elif src.port.logical_type is snk.port.logical_type:
            pass  # strict: one evaluated type at both ends
        elif types_compatible(src.port.logical_type, snk.port.logical_type):
            report("Warning", "R1", conn,
                   f"{src.display()} and {snk.display()} are structurally "
                   "compatible but do not name the same type declaration; "
                   "add @NoStrictType@ to accept")
        else:
            report("Error", "R1", conn,
                   f"{src.display()} and {snk.display()} have incompatible "
                   "stream types")
        # R3: direction
        if end_role(src) != "source":
            report("Error", "R3", conn,
                   f"{src.display()} is not a source end")
        if end_role(snk) != "sink":
            report("Error", "R3", conn,
                   f"{snk.display()} is not a sink end")
        # R4: clockdomain equality
        src_cd = src.port.clockdomain
        snk_cd = snk.port.clockdomain
        if src_cd is not None and snk_cd is not None \
                and src_cd.expression != snk_cd.expression:
            report("Error", "R4", conn,
                   f"clockdomain mismatch: {src.display()} is `{src_cd.expression}"
                   f" but {snk.display()} is `{snk_cd.expression}")
    # R5: single-connection per end, recounted on the sugared implementation
    # (Self ends may legitimately stay unused -- they are the circuit's
    # external interface)
    for key, _, _, count in port_uses(impl)[0]:
        use = f"appears in {count} connections" if count else "is never connected"
        out.append(DrcDiagnostic("Error", "R5", pkg_name, impl.id, "-",
                                 f"port end {end_display(*key)} {use}"))
    return out


def render_drc_report(diags: list[DrcDiagnostic]) -> str:
    return "".join(d.line() + "\n" for d in diags) + drc_tally(diags) + "\n"


def drc_tally(diags: list[DrcDiagnostic]) -> str:
    """``N errors, M warnings``, as the report ends and the command line prints it."""
    errors = sum(1 for d in diags if d.severity == "Error")
    return f"{errors} errors, {len(diags) - errors} warnings"


def drc_has_errors(diags: list[DrcDiagnostic]) -> bool:
    return any(d.severity == "Error" for d in diags)
