"""The dataflow-powered greenlint rules (GL11–GL14).

Where GL1–GL5 check what one expression shows and GL6–GL10 check what
the call graph shows, these rules consume the semantic analyses
layered on top of the graph (GL13 reads only its own module's summary,
so it is a file-scope rule served from the per-file cache):

GL11
    Interprocedural unit mismatch.  The abstract interpreter in
    :mod:`repro.lint.dataflow` propagates dimensions through
    assignments, tuple unpacking, and function-return summaries; any
    arithmetic or comparison that mixes dimensions *somewhere along a
    flow* — a joules helper result added to a seconds local two calls
    later — is flagged, even though no single expression names both
    units.  Only mismatches involving a derived dimension (one that
    arrived through a call summary or tuple unpack) are reported here,
    so GL11 findings are disjoint from GL1's by construction.
GL12
    Dimension-changing assignment.  A ``_j`` name rebound to a
    time- or data-dimensioned expression (including through helper
    returns), a suffixed function returning a different dimension than
    it declares, or a mismatched augmented assignment.  Same
    derived-only discipline as GL11.
GL13
    Static energy conservation.  A function that sums components of an
    accounting record (:class:`IoStats` busy-time parts,
    :class:`DiskResult` service-time parts, :class:`StagePower`
    dynamic/static split) must account every component: a sum reading
    two of four parts silently drops accounted time or energy from the
    paper's totals.  Reading the record's own total field instead, or
    handling the remaining components elsewhere in the function, both
    count as accounting.  Each function is checked over its own body; a
    nested function sees the enclosing functions' types.
GL14
    Static race detection (Eraser-style lockset analysis).  Thread
    entry roots are enumerated structurally — ``do_*`` HTTP handler
    methods plus every callable handed to ``submit``/``Thread``/
    ``Timer``/``initializer`` — and for each root the set of locks
    *always* held is propagated along call edges (set-intersection
    meet).  An instance attribute written from two or more roots whose
    write locksets share no common lock is a data race, whether or not
    the field carries a ``# gl: guarded-by`` annotation; this subsumes
    GL7's annotation-only heuristic.  Classes constructed *inside*
    thread-root code are exempt: each thread builds its own instance,
    so the attribute is thread-confined.
"""

from __future__ import annotations

import ast
import re
from functools import cached_property
from typing import Iterator

from repro.lint.dataflow import DimDataflow, DimEvent
from repro.lint.dims import dim_name
from repro.lint.engine import Finding, ModuleContext, rule
from repro.lint.graph import (
    ClassInfo,
    FunctionInfo,
    ProjectGraph,
    _call_name,
    _outer_annotation_name,
    _short,
)
from repro.lint.graph_rules import _CONSTRUCTION_METHODS, _graph

# ---------------------------------------------------------------------------
# GL11 / GL12: interprocedural dimension checks
# ---------------------------------------------------------------------------

_GL11_KINDS = frozenset({"binop", "compare", "mix"})
_GL12_KINDS = frozenset({"rebind", "return", "store"})


def _flow(ctx: ModuleContext) -> DimDataflow | None:
    return ctx.project.dataflow


def _gl11_message(e: DimEvent) -> str:
    fn = _short(e.qualname)
    if e.kind == "mix":
        return (f"{e.detail} mixes {dim_name(e.left)} with "
                f"{dim_name(e.right)} in {fn}(); the operands reached "
                f"here through calls a per-file check cannot see")
    verb = "compares" if e.kind == "compare" else e.detail
    return (f"{verb} {dim_name(e.left)} and {dim_name(e.right)} in {fn}(); "
            f"mixed dimensions flowed here through a call or unpacking")


@rule("GL11", "interprocedural unit mismatch", scope="project")
def check_flow_units(ctx: ModuleContext) -> Iterator[Finding]:
    """Arithmetic/comparison mixing dimensions anywhere along a flow."""
    flow = _flow(ctx)
    if flow is None:
        return iter(())
    return iter(Finding(
        code="GL11", severity="error", path=ctx.path,
        line=e.lineno, col=e.col, message=_gl11_message(e))
        for e in flow.events()
        if e.module == ctx.path and e.kind in _GL11_KINDS)


def _gl12_message(e: DimEvent) -> str:
    fn = _short(e.qualname)
    if e.kind == "return":
        return (f"{e.detail}() declares {dim_name(e.left)} by suffix but "
                f"returns {dim_name(e.right)} derived through a call")
    if e.kind == "store":
        return (f"stores {dim_name(e.right)} into a container holding "
                f"{dim_name(e.left)} in {fn}(); the value's dimension "
                f"flowed through a call")
    if e.detail == "augmenting":
        return (f"augmented assignment shifts {dim_name(e.left)} by "
                f"{dim_name(e.right)} in {fn}(); the operand's dimension "
                f"flowed through a call")
    return (f"{e.detail!r} declares {dim_name(e.left)} but is rebound to a "
            f"{dim_name(e.right)} value in {fn}(); dimension-changing "
            f"assignment through a helper return")


@rule("GL12", "dimension-changing assignment", scope="project")
def check_dim_rebind(ctx: ModuleContext) -> Iterator[Finding]:
    """A suffixed name must never be rebound to another dimension."""
    flow = _flow(ctx)
    if flow is None:
        return iter(())
    return iter(Finding(
        code="GL12", severity="error", path=ctx.path,
        line=e.lineno, col=e.col, message=_gl12_message(e))
        for e in flow.events()
        if e.module == ctx.path and e.kind in _GL12_KINDS)


# ---------------------------------------------------------------------------
# GL13: static energy conservation over component sums
# ---------------------------------------------------------------------------

#: Accounting records whose component fields must sum completely:
#: (owner class, component fields, the precomputed total field).
_COMPONENT_GROUPS: tuple[tuple[str, tuple[str, ...], str], ...] = (
    ("IoStats",
     ("arm_time", "rotation_time", "transfer_time", "fault_time"),
     "busy_time"),
    ("DiskResult",
     ("arm_time", "rotation_time", "transfer_time"),
     "service_time"),
    ("StagePower", ("avg_dynamic_w", "static_w"), "avg_total_w"),
)

_GROUP_BY_OWNER = {owner: (frozenset(parts), total)
                   for owner, parts, total in _COMPONENT_GROUPS}


def _own_nodes(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> list[ast.AST]:
    """``ast.walk(fn)`` without nested functions, which scan themselves."""
    nodes: list[ast.AST] = [fn]
    for node in nodes:  # breadth-first, as ast.walk yields
        nodes.extend(child for child in ast.iter_child_nodes(node)
                     if not isinstance(child, (ast.FunctionDef,
                                               ast.AsyncFunctionDef)))
    return nodes


class _SumScanner:
    """Find partial component sums in one function's own body.

    A nested function is scanned on its own and sees the enclosing
    functions' types, as a closure sees their names.
    """

    def __init__(self, classes: dict[str, list[ClassInfo]],
                 fn: ast.FunctionDef | ast.AsyncFunctionDef,
                 cls_name: str | None, outer: dict[str, str]) -> None:
        self.classes = classes
        self.fn = fn
        self.cls_name = cls_name
        self.nodes = _own_nodes(fn)
        #: local/param name -> class name, flow-insensitive; the last
        #: constructor assignment in walk order wins.
        self.types = dict(outer)
        args = fn.args
        for a in (*args.posonlyargs, *args.args, *args.kwonlyargs):
            name = _outer_annotation_name(a.annotation)
            if name is None:
                self.types.pop(a.arg, None)
            else:
                self.types[a.arg] = name
        for node in self.nodes:
            if isinstance(node, ast.Assign):
                ctor = _call_name(node.value)
                if ctor is not None and ctor[:1].isupper():
                    for target in node.targets:
                        if isinstance(target, ast.Name):
                            self.types[target.id] = ctor

    @cached_property
    def reads(self) -> dict[str, set[str]]:
        """Receiver source text -> every attribute read on it."""
        out: dict[str, set[str]] = {}
        for node in self.nodes:
            if isinstance(node, ast.Attribute):
                out.setdefault(ast.unparse(node.value), set()).add(node.attr)
        return out

    def _receiver_type(self, expr: ast.expr) -> str | None:
        if isinstance(expr, ast.Name):
            return self.types.get(expr.id)
        if (isinstance(expr, ast.Attribute)
                and isinstance(expr.value, ast.Name)
                and expr.value.id == "self" and self.cls_name is not None):
            for cls in self.classes.get(self.cls_name, ()):
                typed = cls.attr_types.get(expr.attr)
                if typed is not None:
                    return typed
        return None

    def findings(self) -> Iterator[tuple[int, int, str]]:
        """(line, col, message) per partial component sum."""
        # Maximal ``a + b + c`` chains: the outermost Add of each.
        adds = [node for node in self.nodes if isinstance(node, ast.BinOp)
                and isinstance(node.op, ast.Add)]
        inner = {id(child) for node in adds
                 for child in (node.left, node.right)}
        for node in adds:
            if id(node) not in inner:
                yield from self._check_chain(node)

    @staticmethod
    def _terms(chain: ast.BinOp) -> Iterator[ast.expr]:
        stack: list[ast.expr] = [chain]
        while stack:
            node = stack.pop()
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
                stack.extend((node.right, node.left))
            else:
                yield node

    def _check_chain(self, chain: ast.BinOp,
                     ) -> Iterator[tuple[int, int, str]]:
        #: (receiver text, owner) -> component fields summed in this chain.
        summed: dict[tuple[str, str], set[str]] = {}
        for term in self._terms(chain):
            if not isinstance(term, ast.Attribute):
                continue
            owner = self._receiver_type(term.value)
            if owner not in _GROUP_BY_OWNER:
                continue
            parts, _total = _GROUP_BY_OWNER[owner]
            if term.attr in parts:
                recv = ast.unparse(term.value)
                summed.setdefault((recv, owner), set()).add(term.attr)
        for (recv, owner), fields in sorted(summed.items()):
            if len(fields) < 2:
                continue
            parts, total = _GROUP_BY_OWNER[owner]
            missing = parts - fields
            elsewhere = self.reads.get(recv, set())
            if not missing or total in elsewhere or missing <= elsewhere:
                continue
            name = (f"{self.cls_name}.{self.fn.name}" if self.cls_name
                    else self.fn.name)
            yield (chain.lineno, chain.col_offset,
                   f"{name}() sums {len(fields)} of {len(parts)} {owner} "
                   f"components ({' + '.join(sorted(fields))}) on {recv} "
                   f"but never accounts {', '.join(sorted(missing))}; "
                   f"partial sums drop accounted time/energy (read "
                   f"{total} or include every component)")


@rule("GL13", "static energy conservation")
def check_component_sums(ctx: ModuleContext) -> Iterator[Finding]:
    """Component sums over accounting records must be complete."""
    classes = ctx.summary.classes
    findings: list[Finding] = []

    class Walker(ast.NodeVisitor):
        def __init__(self) -> None:
            self.class_stack: list[str] = []
            #: types of the enclosing function scopes, innermost last.
            self.scopes: list[dict[str, str]] = [{}]

        def visit_ClassDef(self, node: ast.ClassDef) -> None:
            self.class_stack.append(node.name)
            self.generic_visit(node)
            self.class_stack.pop()

        def _function(self, node: ast.FunctionDef | ast.AsyncFunctionDef,
                      ) -> None:
            cls = self.class_stack[-1] if self.class_stack else None
            scanner = _SumScanner(classes, node, cls, self.scopes[-1])
            for line, col, message in scanner.findings():
                findings.append(Finding(
                    code="GL13", severity="error", path=ctx.path,
                    line=line, col=col, message=message))
            self.scopes.append(scanner.types)
            self.generic_visit(node)
            self.scopes.pop()

        visit_FunctionDef = _function  # type: ignore[assignment]
        visit_AsyncFunctionDef = _function  # type: ignore[assignment]

    Walker().visit(ctx.tree)
    return iter(findings)


# ---------------------------------------------------------------------------
# GL14: static race detection
# ---------------------------------------------------------------------------

#: HTTP handler entry points: the server invokes these per request on a
#: per-connection thread.
_HTTP_HANDLER_RE = re.compile(r"^do_[A-Z]+$")


def _thread_roots(graph: ProjectGraph) -> dict[str, str]:
    """Thread entry points: qualname -> human label."""
    roots: dict[str, str] = {}
    for qual, f in sorted(graph.functions.items()):
        if f.cls is not None and _HTTP_HANDLER_RE.match(f.name):
            roots[qual] = _short(qual)
    for qual in sorted(graph.functions):
        f = graph.functions[qual]
        for kind, name, _lineno in f.thread_targets:
            for target in _resolve_thread_target(graph, f, kind, name):
                roots.setdefault(target.qualname, _short(target.qualname))
    return roots


def _resolve_thread_target(graph: ProjectGraph, f: FunctionInfo, kind: str,
                           name: str) -> list[FunctionInfo]:
    if kind == "self" and f.cls is not None:
        out = []
        for cls in graph.classes.get(f.cls, ()):
            if cls.module != f.module:
                continue
            m = graph.class_method(cls, name)
            if m is not None:
                out.append(m)
        return out
    local = graph.module_funcs.get((f.module, name))
    if local is not None:
        return [local]
    funcs = graph.funcs_by_name.get(name, ())
    return list(funcs) if len(funcs) == 1 else []


def _always_held(graph: ProjectGraph,
                 root: str) -> dict[str, frozenset[str]]:
    """Locks guaranteed held when each function runs under ``root``.

    Meet-over-paths with set intersection: a lock counts only if *every*
    call path from the root to the function holds it.  Locksets only
    shrink, so the worklist terminates.

    Reachability here follows only confidently-resolved edges: typed
    receivers (including protocol dispatch) and bare names.  The
    signature-compatible fallback GL6 uses for untyped receivers is too
    coarse for race reports — ``self.rfile.read(n)`` on a handler must
    not count as a thread reaching every project ``read()``.
    """
    held: dict[str, frozenset[str]] = {root: frozenset()}
    work = [root]
    while work:
        qual = work.pop()
        base = held[qual]
        for site, target in graph.edges(qual, confident=True):
            entering = base | frozenset(site.held_locks)
            cur = held.get(target)
            new = entering if cur is None else (cur & entering)
            if cur is None or new != cur:
                held[target] = new
                work.append(target)
    return held


def _thread_local_classes(graph: ProjectGraph,
                          reach: set[str]) -> set[tuple[str, str]]:
    """(class, module) pairs constructed inside thread-root code.

    Each thread builds its own instance (engine workers each construct
    their own ``Lab``), so writes to those attributes are
    thread-confined, not shared.
    """
    exempt: set[tuple[str, str]] = set()
    ctors: set[str] = set()
    for qual in reach:
        f = graph.functions.get(qual)
        if f is None:
            continue
        if f.name == "__init__" and f.cls is not None:
            exempt.add((f.cls, f.module))
        for site in f.calls:
            # ``BlockQueue(...)`` anywhere thread-reachable — bare, or
            # assigned onto self — constructs a per-thread instance.
            if site.name[:1].isupper() and site.name in graph.classes:
                ctors.add(site.name)
    for name in ctors:
        for cls in graph.classes.get(name, ()):
            exempt.add((cls.name, cls.module))
    return exempt


def _race_table(graph: ProjectGraph,
                ) -> list[tuple[str, int, int, str, str, list[str]]]:
    """Memoized whole-program races: (module, line, col, cls, attr, roots)."""
    cached = getattr(graph, "_gl14_races", None)
    if cached is not None:
        return cached
    roots = _thread_roots(graph)
    held_by_root = {q: _always_held(graph, q) for q in roots}
    reach: set[str] = set()
    for table in held_by_root.values():
        reach.update(table)
    exempt = _thread_local_classes(graph, reach)
    #: (cls, module, attr) -> [(root label, lockset, write)]
    accesses: dict[tuple[str, str, str], list] = {}
    for qual in sorted(graph.functions):
        f = graph.functions[qual]
        if (f.cls is None or not f.writes
                or f.name in _CONSTRUCTION_METHODS):
            continue
        lock_attrs: set[str] = set()
        for cls in graph.classes.get(f.cls, ()):
            if cls.module == f.module:
                lock_attrs |= cls.lock_attrs
        for w in f.writes:
            if w.attr in lock_attrs or "lock" in w.attr.lower():
                continue
            for root_qual, label in roots.items():
                held = held_by_root[root_qual].get(qual)
                if held is None:
                    continue
                accesses.setdefault((f.cls, f.module, w.attr), []).append(
                    (label, held | frozenset(w.held_locks), w))
    races: list[tuple[str, int, int, str, str, list[str]]] = []
    for (cls_name, module, attr), acc in sorted(accesses.items()):
        if (cls_name, module) in exempt:
            continue
        labels = sorted({label for label, _lockset, _w in acc})
        if len(labels) < 2:
            continue
        common = frozenset.intersection(
            *(lockset for _label, lockset, _w in acc))
        if common:
            continue
        w0 = min((w for _label, _lockset, w in acc),
                 key=lambda w: (w.lineno, w.col))
        races.append((module, w0.lineno, w0.col, cls_name, attr, labels))
    graph._gl14_races = races  # type: ignore[attr-defined]
    return races


@rule("GL14", "static race detection", scope="project")
def check_races(ctx: ModuleContext) -> Iterator[Finding]:
    """Shared writes from ≥2 thread roots need a common lock."""
    graph = _graph(ctx)
    findings: list[Finding] = []
    for module, line, col, cls_name, attr, labels in _race_table(graph):
        if module != ctx.path:
            continue
        root_list = ", ".join(f"{r}()" for r in labels)
        findings.append(Finding(
            code="GL14", severity="error", path=ctx.path,
            line=line, col=col,
            message=f"{cls_name}.{attr} is written from {len(labels)} "
                    f"thread roots ({root_list}) with no common lock; "
                    f"hold one lock around every write or confine the "
                    f"field to a single thread"))
    return iter(findings)
