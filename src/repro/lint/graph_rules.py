"""The whole-program greenlint rules (GL6–GL10).

These rules run over the project graph built by
:mod:`repro.lint.graph`; each module's findings are attributed back to
that module so the engine's suppression and sorting machinery applies
unchanged.

GL6
    Purity/determinism propagation.  Any function reachable from an
    experiment root — ``run_experiment``/``run_all``, a function taking
    a ``lab: Lab`` parameter, or a pipeline ``run()`` method — may not
    directly perform a wall-clock read, entropy draw, unseeded
    ``default_rng()``, or hash-order-dependent iteration.  Reachability
    follows typed receivers where possible and signature-compatible
    dynamic dispatch elsewhere, so protocol calls stay visible.
GL7
    Lock discipline.  A field declared ``# gl: guarded-by=<lock>`` must
    be written only while ``self.<lock>`` is held (constructors exempt:
    the object is not yet shared).  In classes that own a
    ``threading.Lock``, unannotated counter mutations outside any lock
    are flagged, and a declaration naming a lock the class does not own
    is inconsistent.
GL8
    Lock-order inversion.  Over the call graph, acquiring lock B while
    holding lock A — directly or transitively — establishes the order
    A→B.  Any cycle in the resulting order graph (including
    re-acquiring a non-reentrant lock while held) is a potential
    deadlock.
GL9
    Energy conservation.  A call whose result carries energy accounting
    (a ``*_j`` function, or one returning ``StagePower`` / ``IoStats``
    / ``DiskResult`` / ``RebuildReport``) must not be discarded, and a
    local assigned such a result must be folded into something — a
    dropped joule silently biases the paper's totals.
GL10
    Block-device protocol completeness.  Every class implementing the
    scalar :class:`~repro.machine.device.BlockDevice` path (``service``
    + ``submit_write``) must also implement the batched fast path
    (``service_batch``/``service_components`` and
    ``submit_write_batch``/``submit_write_components``), so a new
    device cannot silently fall back to per-op servicing or break the
    fault-injection wrapper.
"""

from __future__ import annotations

from typing import Iterator

from repro.lint.dims import ENERGY, suffix_dim
from repro.lint.engine import Finding, ModuleContext, rule
from repro.lint.graph import ClassInfo, FunctionInfo, ProjectGraph, _short

#: Return-annotation names that mark a result as carrying accounted
#: energy or device time which must be folded into an aggregate.
ENERGY_RESULT_TYPES = frozenset({
    "StagePower", "IoStats", "DiskResult", "RebuildReport",
})

#: Scalar protocol methods and the batched counterparts they require.
PROTOCOL_PAIRS: tuple[tuple[str, str], ...] = (
    ("service", "service_batch"),
    ("service", "service_components"),
    ("submit_write", "submit_write_batch"),
    ("submit_write", "submit_write_components"),
)

#: Methods every implementer must have for GL10 to consider it a device.
_SCALAR_PROTOCOL = ("service", "submit_write")


def _graph(ctx: ModuleContext) -> ProjectGraph:
    graph = ctx.project.graph
    if graph is None:  # pragma: no cover - engine always builds one
        graph = ProjectGraph()
    return graph


# ---------------------------------------------------------------------------
# GL6: purity/determinism propagation
# ---------------------------------------------------------------------------

@rule("GL6", "purity/determinism propagation", exempt_files=("rng.py",),
      scope="project")
def check_purity(ctx: ModuleContext) -> Iterator[Finding]:
    """Experiment-reachable code may not read wall clocks or entropy."""
    graph = _graph(ctx)
    reachable = graph.reachable_from_roots()
    findings: list[Finding] = []
    for qual in sorted(reachable):
        info = graph.functions.get(qual)
        if info is None or info.module != ctx.path or not info.impurities:
            continue
        chain = graph.root_path_to(qual)
        root = _short(chain[0]) if chain else _short(qual)
        via = (f" (reachable from {root}()"
               + (f" via {len(chain) - 1} call"
                  f"{'s' if len(chain) - 1 != 1 else ''})"
                  if len(chain) > 1 else ")"))
        for imp in info.impurities:
            findings.append(Finding(
                code="GL6", severity="error", path=ctx.path,
                line=imp.lineno, col=imp.col,
                message=f"{imp.reason} in {_short(qual)}{via}; experiment "
                        f"results must be pure functions of (seed, spec)"))
    return iter(findings)


# ---------------------------------------------------------------------------
# GL7: lock discipline (guarded-by)
# ---------------------------------------------------------------------------

#: Methods where unlocked writes are allowed: the instance is not yet —
#: or no longer — shared between threads.
_CONSTRUCTION_METHODS = frozenset({"__init__", "__new__", "__post_init__"})


@rule("GL7", "lock discipline", scope="project")
def check_lock_discipline(ctx: ModuleContext) -> Iterator[Finding]:
    """Guarded fields must be written only under their declared lock."""
    graph = _graph(ctx)
    findings: list[Finding] = []
    for cls in graph.iter_classes():
        if cls.module != ctx.path:
            continue
        for attr in sorted(cls.guarded):
            lock = cls.guarded[attr]
            if lock not in cls.lock_attrs:
                findings.append(Finding(
                    code="GL7", severity="error", path=ctx.path,
                    line=cls.guarded_lines.get(attr, cls.lineno), col=0,
                    message=f"{cls.name}.{attr} declares guarded-by={lock} "
                            f"but {cls.name} owns no lock attribute "
                            f"{lock!r}"))
        if not cls.guarded and not cls.lock_attrs:
            continue
        for name in sorted(cls.methods):
            if name in _CONSTRUCTION_METHODS:
                continue
            findings.extend(_method_write_findings(ctx, cls,
                                                   cls.methods[name]))
    return iter(findings)


def _method_write_findings(ctx: ModuleContext, cls: ClassInfo,
                           method: FunctionInfo) -> list[Finding]:
    findings: list[Finding] = []
    for w in method.writes:
        declared: str | None = cls.guarded.get(w.attr)
        if declared is not None:
            lock_id = f"{cls.name}.{declared}"
            if lock_id not in w.held_locks:
                what = ("mutated" if w.kind in ("mutcall", "item")
                        else "written")
                findings.append(Finding(
                    code="GL7", severity="error", path=ctx.path,
                    line=w.lineno, col=w.col,
                    message=f"self.{w.attr} is {what} in "
                            f"{cls.name}.{method.name}() without holding "
                            f"its declared lock self.{declared}"))
        elif (w.kind == "augassign" and cls.lock_attrs
                and not w.held_locks):
            findings.append(Finding(
                code="GL7", severity="error", path=ctx.path,
                line=w.lineno, col=w.col,
                message=f"unguarded mutation of self.{w.attr} in "
                        f"{cls.name}.{method.name}(); hold a lock and "
                        f"declare the field with '# gl: guarded-by=<lock>'"))
    return findings


# ---------------------------------------------------------------------------
# GL8: lock-order inversion
# ---------------------------------------------------------------------------

@rule("GL8", "lock-order inversion", scope="project")
def check_lock_order(ctx: ModuleContext) -> Iterator[Finding]:
    """Cycles in the observed lock-acquisition order are deadlocks."""
    graph = _graph(ctx)
    cycles = graph.lock_cycles()
    if not cycles:
        return iter(())
    edges = graph.lock_order_edges()
    findings: list[Finding] = []
    for cycle in cycles:
        if len(cycle) == 1:
            lock = cycle[0]
            for module, lineno, col, qual in edges[(lock, lock)]:
                if module != ctx.path:
                    continue
                findings.append(Finding(
                    code="GL8", severity="error", path=ctx.path,
                    line=lineno, col=col,
                    message=f"{_short(qual)}() may re-acquire "
                            f"non-reentrant lock {lock} while already "
                            f"holding it (self-deadlock)"))
            continue
        order = " -> ".join((*cycle, cycle[0]))
        for outer, inner in zip(cycle, (*cycle[1:], cycle[0])):
            for module, lineno, col, qual in edges.get((outer, inner), ()):
                if module != ctx.path:
                    continue
                findings.append(Finding(
                    code="GL8", severity="error", path=ctx.path,
                    line=lineno, col=col,
                    message=f"{_short(qual)}() acquires {inner} while "
                            f"holding {outer}, completing lock-order "
                            f"cycle {order}"))
    return iter(findings)


# ---------------------------------------------------------------------------
# GL9: energy conservation
# ---------------------------------------------------------------------------

def _returns_energy(info: FunctionInfo) -> bool:
    if suffix_dim(info.name) == ENERGY:
        return True
    return any(name in ENERGY_RESULT_TYPES for name in info.returns)


def _energy_callee(graph: ProjectGraph, caller: FunctionInfo,
                   name: str, site_targets: list[FunctionInfo]) -> str | None:
    """Why a call's result carries energy accounting, or None."""
    if name in ENERGY_RESULT_TYPES:
        return f"a {name}"
    if suffix_dim(name) == ENERGY:
        return f"the joule result of {name}()"
    for target in site_targets:
        if _returns_energy(target):
            kind = next((n for n in target.returns
                         if n in ENERGY_RESULT_TYPES), "a joule value")
            what = f"a {kind}" if kind in ENERGY_RESULT_TYPES else kind
            return f"{what} from {_short(target.qualname)}()"
    return None


@rule("GL9", "energy conservation", scope="project")
def check_energy_conservation(ctx: ModuleContext) -> Iterator[Finding]:
    """Energy-carrying results must flow into a roll-up, never be dropped."""
    graph = _graph(ctx)
    findings: list[Finding] = []
    for qual in sorted(graph.functions):
        info = graph.functions[qual]
        if info.module != ctx.path:
            continue
        for site in info.calls:
            if not site.discarded:
                continue
            reason = _energy_callee(graph, info, site.name,
                                    graph.resolve(info, site))
            if reason is not None:
                findings.append(Finding(
                    code="GL9", severity="error", path=ctx.path,
                    line=site.lineno, col=site.col,
                    message=f"result of {site.name}() is discarded, "
                            f"dropping {reason}; fold it into an "
                            f"aggregate or bind it explicitly"))
        for target, callee, lineno, col in info.local_assigns:
            if (callee is None or target.startswith("_")
                    or target in info.name_reads):
                continue
            if (callee in ENERGY_RESULT_TYPES
                    or suffix_dim(callee) == ENERGY):
                findings.append(Finding(
                    code="GL9", severity="error", path=ctx.path,
                    line=lineno, col=col,
                    message=f"{target!r} holds the energy-carrying result "
                            f"of {callee}() but is never used in "
                            f"{_short(qual)}(); dropped energy"))
    return iter(findings)


# ---------------------------------------------------------------------------
# GL10: block-device protocol completeness
# ---------------------------------------------------------------------------

@rule("GL10", "block-device protocol completeness", scope="project")
def check_protocol_completeness(ctx: ModuleContext) -> Iterator[Finding]:
    """Scalar BlockDevice implementers must also serve the batched path."""
    graph = _graph(ctx)
    findings: list[Finding] = []
    for cls in graph.iter_classes():
        if cls.module != ctx.path or cls.is_protocol:
            continue
        if any(base == "Protocol" for base in cls.bases):
            continue
        if not all(graph.mro_has_method(cls, m) for m in _SCALAR_PROTOCOL):
            continue
        missing = sorted({batch for scalar, batch in PROTOCOL_PAIRS
                          if not graph.mro_has_method(cls, batch)})
        for batch in missing:
            findings.append(Finding(
                code="GL10", severity="error", path=ctx.path,
                line=cls.lineno, col=0,
                message=f"{cls.name} implements the scalar BlockDevice "
                        f"path but lacks {batch}(); devices must stay on "
                        f"the batched fast path (see machine/device.py)"))
    return iter(findings)
