"""Whole-program module/call graph with per-function summaries.

The per-file rules (GL1–GL5) check what a single module can prove.  The
concurrency and conservation rules (GL6–GL10) need to know what happens
*across* modules: whether a pipeline ``run()`` transitively reaches a
wall-clock read three calls away, whether two locks are ever taken in
opposite orders, whether every ``StagePower`` a stage produces rolls up
into a report.  This module builds the shared substrate those rules
query:

* a :class:`FunctionInfo` per function/method — its signature, every
  call site (with the receiver type when it can be resolved, and the
  ``except`` names around it), every lock acquisition, every
  ``self.attr`` write (with the locks held at the write), its direct
  *impurity facts* (wall-clock reads, ``os.urandom``, unseeded RNG,
  iteration over unordered sources), and the effect facts GL15–GL18
  read: raises with the ``except`` names around them, environment,
  name and ``self.`` reads, ``name.method()`` calls, global writes,
  loop spans and the ``# gl: idempotent`` line;
* a :class:`ClassInfo` per class — bases, methods, lock-typed
  attributes, attribute types inferred from ``__init__`` constructor
  assignments, class-level container attributes, and
  ``# gl: guarded-by=<lock>`` declarations;
* name-based call resolution with three precision tiers: exact receiver
  type (``self``, annotated parameters, locally constructed objects),
  then unique global name, then *signature-compatible dynamic dispatch*
  (an untyped ``device.service(req)`` reaches every project method
  named ``service`` whose signature accepts that call — how protocol
  dispatch stays visible to the analysis);
* two generic solvers over the resolved call edges: :func:`closure`
  (reachability from the experiment/pipeline roots, the digest scope,
  base classes) and :func:`propagate` (keyed facts with witnesses
  spread from callees to callers: transitive locks, raises-sets, retry
  mutations).

One walk per module (:func:`summarize_module`) collects every fact, so
the :class:`ModuleSummary` the lint cache persists is all the
whole-program rules read besides GL15's typestate walk.  Everything is
resolved by name over the linted tree only; nothing is imported or
executed.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Callable,
    Iterable,
    Iterator,
    Sequence,
    TypeVar,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.lint.engine import ModuleContext

#: ``# gl: guarded-by=<lock>`` — declares that the attribute assigned on
#: this line must only ever be written while ``self.<lock>`` is held.
_GUARDED_BY_RE = re.compile(r"#\s*gl:\s*guarded-by=([A-Za-z_]\w*)")

#: ``# gl: idempotent`` — declares a function safe to re-execute under a
#: retry loop even though it mutates state (e.g. per-attempt counters).
_IDEMPOTENT_RE = re.compile(r"#\s*gl:\s*idempotent\b")

#: Direct markers of a retry-driven loop body.
_RETRY_MARKERS = frozenset({"backoff_s", "charge_s"})

#: Wall-clock and entropy sources banned on experiment-reachable paths.
_WALL_CLOCK_TIME_ATTRS = frozenset({
    "time", "time_ns", "monotonic", "monotonic_ns", "perf_counter",
    "perf_counter_ns", "process_time", "process_time_ns", "sleep",
})
_DATETIME_NOW_ATTRS = frozenset({"now", "utcnow", "today"})

#: Sources whose iteration order depends on hash seeds / environment.
_UNORDERED_PRODUCERS = frozenset({"set", "frozenset", "vars", "globals"})

#: Container methods that mutate their receiver in place.  A call to one
#: of these on a guarded attribute is a write for lock-discipline checks.
_MUTATOR_METHODS = frozenset({
    "append", "appendleft", "add", "clear", "discard", "extend", "insert",
    "move_to_end", "pop", "popitem", "remove", "setdefault", "update",
})

#: Lowercase constructor names that still type a receiver: ``x = dict()``
#: followed by ``x.get(...)`` is a builtin call, never project dispatch.
_BUILTIN_CONTAINER_CTORS = frozenset({
    "dict", "list", "set", "frozenset", "tuple", "defaultdict", "deque",
})

#: Literals that build a mutable container (class attributes, GL18).
_CONTAINER_LITERALS = (ast.Dict, ast.List, ast.Set)

#: Caught-exception frames around a statement, innermost last.
Frames = tuple[frozenset[str], ...]


# ---------------------------------------------------------------------------
# Summaries
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ParamSig:
    """Call-compatibility signature (``self``/``cls`` already dropped)."""

    params: tuple[str, ...]
    n_required: int
    kwonly: tuple[str, ...]
    kwonly_required: frozenset[str]
    has_vararg: bool = False
    has_kwarg: bool = False

    def accepts(self, n_pos: int, kwnames: Sequence[str]) -> bool:
        """Could a call with this shape bind to the signature?"""
        if n_pos > len(self.params) and not self.has_vararg:
            return False
        known = set(self.params) | set(self.kwonly)
        if not self.has_kwarg and any(k not in known for k in kwnames):
            return False
        # Positionally-filled params cannot also be passed by keyword.
        if any(k in self.params[:n_pos] for k in kwnames):
            return False
        bound = set(self.params[:n_pos]) | set(kwnames)
        required = set(self.params[:self.n_required]) | self.kwonly_required
        return required <= bound


@dataclass(frozen=True)
class CallSite:
    """One call expression inside a function body."""

    name: str                        #: simple callee name (attr or bare)
    is_attr: bool                    #: obj.name(...) vs name(...)
    recv_type: str | None         #: receiver class when resolvable
    n_pos: int
    kwnames: tuple[str, ...]
    held_locks: tuple[str, ...]      #: lock ids held lexically at the call
    lineno: int
    col: int
    discarded: bool = False          #: an expression statement by itself
    caught: Frames = ()              #: ``except`` names of enclosing trys


@dataclass(frozen=True)
class LockAcquisition:
    """One ``with <lock>:`` entry, with the locks already held."""

    lock: str                        #: lock id, e.g. ``LruCache._lock``
    held: tuple[str, ...]
    lineno: int
    col: int


@dataclass(frozen=True)
class AttrWrite:
    """One mutation of ``self.<attr>`` inside a method."""

    attr: str
    kind: str                        #: assign | augassign | item | mutcall
    held_locks: tuple[str, ...]
    lineno: int
    col: int


@dataclass(frozen=True)
class Impurity:
    """One direct non-deterministic act inside a function body."""

    reason: str
    lineno: int
    col: int


@dataclass
class FunctionInfo:
    """Summary of one function or method."""

    qualname: str                    #: ``path::Class.name`` / ``path::name``
    name: str
    cls: str | None
    module: str                      #: source path as linted
    lineno: int
    sig: ParamSig
    returns: tuple[str, ...] = ()    #: names in the return annotation
    is_root: bool = False
    calls: list[CallSite] = field(default_factory=list)
    lock_acqs: list[LockAcquisition] = field(default_factory=list)
    writes: list[AttrWrite] = field(default_factory=list)
    impurities: list[Impurity] = field(default_factory=list)
    #: (target, callee-name-if-value-is-a-call, line, col) per local assign.
    local_assigns: list[tuple[str, str | None, int, int]] = field(
        default_factory=list)
    #: every name read in the body (``x += e`` reads x) -> first (line, col).
    name_reads: dict[str, tuple[int, int]] = field(default_factory=dict)
    #: callables handed to another thread of control: ``pool.submit(f)``,
    #: ``Thread(target=f)``, ``Executor(initializer=f)``.  Each entry is
    #: ``(kind, name, lineno)`` with kind ``"self"`` (``self.f``) or
    #: ``"bare"`` (a plain name).  These seed the GL14 thread roots.
    thread_targets: list[tuple[str, str, int]] = field(default_factory=list)
    #: (exception name, ``except`` frames around the raise, line).
    raises: list[tuple[str, Frames, int]] = field(default_factory=list)
    #: (line, col) of each ``os.environ``/``getenv`` read.
    env_reads: list[tuple[int, int]] = field(default_factory=list)
    #: ``self.<attr>`` loads anywhere in the body.
    self_attr_reads: set[str] = field(default_factory=set)
    #: (receiver name, method) for every ``name.method(...)`` call.
    recv_calls: set[tuple[str, str]] = field(default_factory=set)
    #: names rebound under a ``global`` declaration, plus subscript
    #: stores through a bare name (``G[k] = v``).
    global_writes: set[str] = field(default_factory=set)
    #: (header line, end line, retry-driven) per ``for``/``while`` loop:
    #: retry-driven when it calls a retry marker or bounds itself with
    #: ``max_attempts``.
    loops: list[tuple[int, int, bool]] = field(default_factory=list)
    #: line of the function's ``# gl: idempotent`` annotation.
    idempotent_line: int | None = None


@dataclass
class ClassInfo:
    """Summary of one class definition."""

    name: str
    module: str
    lineno: int
    bases: tuple[str, ...]
    is_protocol: bool = False
    methods: dict[str, FunctionInfo] = field(default_factory=dict)
    #: attr -> class name, inferred from ``self.attr = ClassName(...)``.
    attr_types: dict[str, str] = field(default_factory=dict)
    #: attrs assigned ``threading.Lock()`` / ``threading.RLock()``.
    lock_attrs: set[str] = field(default_factory=set)
    #: attr -> declared lock attr (``# gl: guarded-by=<lock>``).
    guarded: dict[str, str] = field(default_factory=dict)
    #: attr -> line of its guarded-by declaration (for findings).
    guarded_lines: dict[str, int] = field(default_factory=dict)
    #: class-level attrs bound to a container literal (shared state).
    container_attrs: set[str] = field(default_factory=set)


# ---------------------------------------------------------------------------
# Per-module collection
# ---------------------------------------------------------------------------

def _ref_name(node: ast.AST | None) -> str | None:
    """``x`` for a bare name ``x``, ``attr`` for ``obj.attr``, else None."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _call_name(node: ast.AST | None) -> str | None:
    """The simple callee name of a call: ``f`` in ``f()`` or ``o.f()``."""
    return _ref_name(node.func) if isinstance(node, ast.Call) else None


def _exc_names(node: ast.expr | None) -> frozenset[str]:
    """Exception class names an ``except`` clause catches."""
    if node is None:
        return frozenset({"BaseException"})
    if isinstance(node, ast.Tuple):
        return frozenset().union(*(_exc_names(elt) for elt in node.elts))
    name = _ref_name(node)
    return frozenset({name}) if name is not None else frozenset()


def _single_assign(stmt: ast.stmt) -> tuple[ast.expr | None, ast.expr | None]:
    """(target, value) of a one-target ``x = v`` or ``x: T = v``."""
    if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
        return stmt.targets[0], stmt.value
    if isinstance(stmt, ast.AnnAssign):
        return stmt.target, stmt.value
    return None, None


def _param_sig(fn: ast.FunctionDef | ast.AsyncFunctionDef,
               drop_self: bool) -> ParamSig:
    args = fn.args
    names = [a.arg for a in (*args.posonlyargs, *args.args)]
    if drop_self and names and names[0] in ("self", "cls"):
        names = names[1:]
    n_required = max(0, len(names) - len(args.defaults))
    kwonly = tuple(a.arg for a in args.kwonlyargs)
    kwonly_required = frozenset(
        a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is None)
    return ParamSig(
        params=tuple(names), n_required=n_required, kwonly=kwonly,
        kwonly_required=kwonly_required,
        has_vararg=args.vararg is not None,
        has_kwarg=args.kwarg is not None,
    )


def _annotation_names(node: ast.expr | None) -> list[str]:
    """Every plain class name mentioned in an annotation expression."""
    if node is None:
        return []
    names: list[str] = []
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.append(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.append(sub.attr)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            # String annotations: take the identifier tokens.
            names.extend(re.findall(r"[A-Za-z_]\w*", sub.value))
    return names


def _outer_annotation_name(node: ast.expr | None) -> str | None:
    """The root class of an annotation: ``dict[Any, int]`` -> ``dict``."""
    while isinstance(node, ast.Subscript):
        node = node.value
    return _ref_name(node)


def _call_shape(node: ast.Call) -> tuple[int, tuple[str, ...]]:
    n_pos = sum(1 for a in node.args if not isinstance(a, ast.Starred))
    kwnames = tuple(k.arg for k in node.keywords if k.arg is not None)
    return n_pos, kwnames


def _is_lock_ctor(node: ast.expr) -> bool:
    """``threading.Lock()`` / ``threading.RLock()`` / bare ``Lock()``."""
    return _call_name(node) in ("Lock", "RLock")


class _ModuleCollector(ast.NodeVisitor):
    """Walk one module, filling a :class:`ProjectGraph`'s tables."""

    def __init__(self, graph: ProjectGraph, path: str, source: str,
                 tree: ast.Module) -> None:
        self.graph = graph
        self.path = path
        self.tree = tree
        #: line -> lock of its ``# gl: guarded-by`` declaration.
        self.guards: dict[int, str] = {}
        #: lines carrying ``# gl: idempotent``, and whole-line comments.
        self.idempotent: set[int] = set()
        self.comments: set[int] = set()
        for lineno, line in enumerate(source.splitlines(), start=1):
            if "#" not in line:
                continue
            m = _GUARDED_BY_RE.search(line)
            if m:
                self.guards[lineno] = m.group(1)
            if _IDEMPOTENT_RE.search(line):
                self.idempotent.add(lineno)
            if line.lstrip().startswith("#"):
                self.comments.add(lineno)
        self.class_stack: list[ClassInfo] = []
        self.is_pipeline_module = "pipelines" in path.replace("\\", "/")

    # -- structure ----------------------------------------------------------

    def run(self) -> None:
        # Top-level container candidates for GL18: a literal, or a call
        # whose constructor name is judged against the whole project.
        found: list[tuple[str, int, str | None]] = []
        for stmt in self.tree.body:
            target, value = _single_assign(stmt)
            if not isinstance(target, ast.Name):
                continue
            ctor = _call_name(value)
            if ctor is not None or isinstance(value, (
                    *_CONTAINER_LITERALS, ast.DictComp, ast.ListComp,
                    ast.SetComp)):
                found.append((target.id, stmt.lineno, ctor))
        if found:
            self.graph.container_globals[self.path] = found
        self.visit(self.tree)

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        # ``Generic[...]``/``Protocol[...]`` bases name their origin.
        refs = (_ref_name(b.value if isinstance(b, ast.Subscript) else b)
                for b in node.bases)
        bases = tuple(name for name in refs if name is not None)
        cls = ClassInfo(
            name=node.name, module=self.path, lineno=node.lineno,
            bases=bases, is_protocol="Protocol" in bases)
        for stmt in node.body:
            target, value = _single_assign(stmt)
            if not isinstance(target, ast.Name):
                continue
            if isinstance(value, _CONTAINER_LITERALS):
                cls.container_attrs.add(target.id)
            # Class-level guarded-by declarations on annotated fields.
            if isinstance(stmt, ast.AnnAssign) and stmt.lineno in self.guards:
                cls.guarded[target.id] = self.guards[stmt.lineno]
                cls.guarded_lines[target.id] = stmt.lineno
        self.graph.classes.setdefault(node.name, []).append(cls)
        self.class_stack.append(cls)
        self.generic_visit(node)
        self.class_stack.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._function(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._function(node)

    # -- function summary ---------------------------------------------------

    def _function(self, node: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        cls = self.class_stack[-1] if self.class_stack else None
        in_class = cls is not None
        qual = (f"{self.path}::{cls.name}.{node.name}" if cls is not None
                else f"{self.path}::{node.name}")
        info = FunctionInfo(
            qualname=qual, name=node.name,
            cls=cls.name if cls is not None else None,
            module=self.path, lineno=node.lineno,
            sig=_param_sig(node, drop_self=in_class),
            returns=tuple(_annotation_names(node.returns)),
            idempotent_line=self._idempotent_line(node.lineno),
        )
        info.is_root = self._is_root(node, cls)
        _BodyScanner(self, info, cls, node).run()
        self.graph.functions[qual] = info
        if cls is not None:
            # First definition wins (overloads/conditionals are rare).
            cls.methods.setdefault(node.name, info)
            self.graph.methods_by_name.setdefault(node.name, []).append(info)
        else:
            self.graph.module_funcs.setdefault(
                (self.path, node.name), info)
            self.graph.funcs_by_name.setdefault(node.name, []).append(info)
        # Decorated/nested defs keep their summaries; do not recurse here
        # (the body scanner already visited nested defs).

    def _idempotent_line(self, lineno: int) -> int | None:
        """The ``# gl: idempotent`` line on or above a ``def``."""
        if lineno in self.idempotent:
            return lineno
        # Walk up the contiguous comment block above the def so the
        # annotation can carry a multi-line justification.
        lineno -= 1
        while lineno in self.comments:
            if lineno in self.idempotent:
                return lineno
            lineno -= 1
        return None

    def _is_root(self, node: ast.FunctionDef | ast.AsyncFunctionDef,
                 cls: ClassInfo | None) -> bool:
        """Experiment/pipeline entry points the purity rule anchors on."""
        if node.name in ("run_experiment", "run_all") and cls is None:
            return True
        if node.name == "run" and self.is_pipeline_module and cls is not None:
            return True
        # A function taking a Lab *itself* (not e.g. a ``Callable[[Lab],
        # ...]`` factory) is an experiment body wired into the registry.
        all_args = (*node.args.posonlyargs, *node.args.args,
                    *node.args.kwonlyargs)
        return any(_annotation_names(a.annotation) == ["Lab"]
                   for a in all_args)


class _BodyScanner(ast.NodeVisitor):
    """Scan one function body: calls, locks, writes, impurities, effects."""

    def __init__(self, mod: _ModuleCollector, info: FunctionInfo,
                 cls: ClassInfo | None,
                 node: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        self.mod = mod
        self.info = info
        self.cls = cls
        self.node = node
        self.held: list[str] = []
        self._discarded_calls: set[int] = set()
        #: ``except`` names of the enclosing try bodies, innermost last.
        self._caught: list[frozenset[str]] = []
        #: (handler exception names, bound name) of enclosing handlers.
        self._handlers: list[tuple[frozenset[str], str | None]] = []
        self._globals: set[str] = set()
        #: local name -> class name (constructor assignments, annotations).
        self.local_types: dict[str, str] = {}
        for a in (*node.args.posonlyargs, *node.args.args,
                  *node.args.kwonlyargs):
            for name in _annotation_names(a.annotation):
                if name[:1].isupper():
                    self.local_types[a.arg] = name
                    break

    def run(self) -> None:
        for stmt in self.node.body:
            self.visit(stmt)

    # -- lock identification ------------------------------------------------

    def _lock_id(self, expr: ast.expr) -> str | None:
        """Identity of a lock expression, or None if not lock-like."""
        if (isinstance(expr, ast.Attribute)
                and isinstance(expr.value, ast.Name)
                and expr.value.id == "self" and self.cls is not None):
            attr = expr.attr
            if attr in self.cls.lock_attrs or "lock" in attr.lower():
                return f"{self.cls.name}.{attr}"
            return None
        if isinstance(expr, ast.Name) and "lock" in expr.id.lower():
            return f"{self.info.module}::{expr.id}"
        return None

    def visit_With(self, node: ast.With) -> None:
        self._with(node)

    def visit_AsyncWith(self, node: ast.AsyncWith) -> None:
        self._with(node)

    def _with(self, node: ast.With | ast.AsyncWith) -> None:
        acquired: list[str] = []
        for item in node.items:
            self.visit(item.context_expr)
            lock = self._lock_id(item.context_expr)
            if lock is not None:
                self.info.lock_acqs.append(LockAcquisition(
                    lock=lock, held=tuple(self.held),
                    lineno=item.context_expr.lineno,
                    col=item.context_expr.col_offset))
                self.held.append(lock)
                acquired.append(lock)
            if item.optional_vars is not None:
                self.visit(item.optional_vars)
        for stmt in node.body:
            self.visit(stmt)
        for _ in acquired:
            self.held.pop()

    # -- exceptions ---------------------------------------------------------

    def visit_Try(self, node: ast.Try) -> None:
        self._caught.append(frozenset().union(
            *(_exc_names(h.type) for h in node.handlers)))
        for stmt in node.body:
            self.visit(stmt)
        self._caught.pop()
        for handler in node.handlers:
            if handler.type is not None:
                self.visit(handler.type)
            self._handlers.append((_exc_names(handler.type), handler.name))
            for stmt in handler.body:
                self.visit(stmt)
            self._handlers.pop()
        for stmt in (*node.orelse, *node.finalbody):
            self.visit(stmt)

    visit_TryStar = visit_Try  # type: ignore[assignment]

    def _raised_names(self, exc: ast.expr | None) -> frozenset[str]:
        if exc is None:
            # Bare re-raise: whatever the innermost handler caught.
            return self._handlers[-1][0] if self._handlers else frozenset()
        if isinstance(exc, ast.Name):
            if self._handlers and exc.id == self._handlers[-1][1]:
                return self._handlers[-1][0]
            # A dynamically-bound exception object: class unknown, and
            # guessing "Exception" here would flag every re-raise
            # helper, so stay silent.
            return frozenset()
        name = (_call_name(exc) if isinstance(exc, ast.Call)
                else _ref_name(exc))
        return frozenset({name}) if name else frozenset()

    def visit_Raise(self, node: ast.Raise) -> None:
        for name in sorted(self._raised_names(node.exc)):
            self.info.raises.append((name, tuple(self._caught), node.lineno))
        self.generic_visit(node)

    def visit_Assert(self, node: ast.Assert) -> None:
        self.info.raises.append(
            ("AssertionError", tuple(self._caught), node.lineno))
        self.generic_visit(node)

    # -- attribute writes ---------------------------------------------------

    def _self_attr(self, expr: ast.expr) -> str | None:
        if (isinstance(expr, ast.Attribute)
                and isinstance(expr.value, ast.Name)
                and expr.value.id == "self"):
            return expr.attr
        return None

    def _record_write(self, attr: str, kind: str, node: ast.AST) -> None:
        self.info.writes.append(AttrWrite(
            attr=attr, kind=kind, held_locks=tuple(self.held),
            lineno=getattr(node, "lineno", self.node.lineno),
            col=getattr(node, "col_offset", 0)))

    def _scan_target(self, target: ast.expr, kind: str) -> None:
        attr = self._self_attr(target)
        if attr is not None:
            self._record_write(attr, kind, target)
            return
        if isinstance(target, ast.Subscript):
            attr = self._self_attr(target.value)
            if attr is not None:
                self._record_write(attr, "item", target)
        if isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._scan_target(elt, kind)
            return
        if isinstance(target, ast.Starred):
            self._scan_target(target.value, kind)
            return
        self.visit(target)

    def visit_Assign(self, node: ast.Assign) -> None:
        self.visit(node.value)
        # Type inference: x = ClassName(...) / self.x = ClassName(...),
        # plus ``self.x = param`` where the parameter is annotated.
        inferred = self._ctor_class(node.value)
        if inferred is None and isinstance(node.value, ast.Name):
            inferred = self.local_types.get(node.value.id)
        value_call = _call_name(node.value)
        for target in node.targets:
            if isinstance(target, ast.Name):
                self.info.local_assigns.append(
                    (target.id, value_call, target.lineno, target.col_offset))
                if inferred is not None:
                    self.local_types[target.id] = inferred
                else:
                    self.local_types.pop(target.id, None)
            attr = self._self_attr(target)
            if attr is not None and self.cls is not None:
                if _is_lock_ctor(node.value):
                    self.cls.lock_attrs.add(attr)
                if inferred is not None:
                    self.cls.attr_types.setdefault(attr, inferred)
                if node.lineno in self.mod.guards:
                    self.cls.guarded.setdefault(
                        attr, self.mod.guards[node.lineno])
                    self.cls.guarded_lines.setdefault(attr, node.lineno)
            self._scan_target(target, "assign")

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self.visit(node.value)
        if isinstance(node.target, ast.Name):
            # ``x += e`` reads x even though the target ctx is Store.
            self.info.name_reads.setdefault(
                node.target.id, (node.target.lineno, node.target.col_offset))
        self._scan_target(node.target, "augassign")

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self.visit(node.value)
            attr = self._self_attr(node.target)
            if attr is not None and self.cls is not None:
                if _is_lock_ctor(node.value):
                    self.cls.lock_attrs.add(attr)
                inferred = (self._ctor_class(node.value)
                            or _outer_annotation_name(node.annotation))
                if inferred is not None:
                    self.cls.attr_types.setdefault(attr, inferred)
                if node.lineno in self.mod.guards:
                    self.cls.guarded.setdefault(
                        attr, self.mod.guards[node.lineno])
                    self.cls.guarded_lines.setdefault(attr, node.lineno)
            self._scan_target(node.target, "assign")
        if isinstance(node.target, ast.Name):
            for name in _annotation_names(node.annotation):
                if name[:1].isupper():
                    self.local_types[node.target.id] = name
                    break

    def _ctor_class(self, value: ast.expr) -> str | None:
        # Container literals type the receiver too: ``x = {}`` followed
        # by ``x.get(...)`` must not dynamically dispatch to a project
        # method that happens to be called ``get``.
        if isinstance(value, (ast.Dict, ast.DictComp)):
            return "dict"
        if isinstance(value, (ast.List, ast.ListComp)):
            return "list"
        if isinstance(value, (ast.Set, ast.SetComp)):
            return "set"
        name = _call_name(value)
        if name in _BUILTIN_CONTAINER_CTORS:
            return name
        if name is not None and name[:1].isupper():
            return name
        return None

    # -- reads and global writes --------------------------------------------

    def visit_Name(self, node: ast.Name) -> None:
        if isinstance(node.ctx, ast.Load):
            self.info.name_reads.setdefault(
                node.id, (node.lineno, node.col_offset))
        elif node.id in self._globals:
            self.info.global_writes.add(node.id)

    def visit_Global(self, node: ast.Global) -> None:
        self._globals.update(node.names)

    def visit_Subscript(self, node: ast.Subscript) -> None:
        if (isinstance(node.ctx, (ast.Store, ast.Del))
                and isinstance(node.value, ast.Name)):
            self.info.global_writes.add(node.value.id)
        self.generic_visit(node)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if node.attr == "environ":
            self.info.env_reads.append((node.lineno, node.col_offset))
        if (isinstance(node.value, ast.Name) and node.value.id == "self"
                and isinstance(node.ctx, ast.Load)):
            self.info.self_attr_reads.add(node.attr)
        self.generic_visit(node)

    # -- calls and impurities ----------------------------------------------

    def _receiver_type(self, recv: ast.expr) -> str | None:
        if isinstance(recv, ast.Name):
            if recv.id == "self" and self.cls is not None:
                return self.cls.name
            return self.local_types.get(recv.id)
        attr = self._self_attr(recv)
        if attr is not None and self.cls is not None:
            return self.cls.attr_types.get(attr)
        if (isinstance(recv, ast.Call) and isinstance(recv.func, ast.Name)
                and recv.func.id == "super" and self.cls is not None
                and self.cls.bases):
            return self.cls.bases[0]
        return self._ctor_class(recv)

    def visit_Expr(self, node: ast.Expr) -> None:
        if isinstance(node.value, ast.Call):
            self._discarded_calls.add(id(node.value))
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        name = _call_name(node)
        if name == "getenv":
            self.info.env_reads.append((node.lineno, node.col_offset))
        self.generic_visit(node)
        func = node.func
        if name is not None:
            n_pos, kwnames = _call_shape(node)
            self.info.calls.append(CallSite(
                name=name, is_attr=isinstance(func, ast.Attribute),
                recv_type=(self._receiver_type(func.value)
                           if isinstance(func, ast.Attribute) else None),
                n_pos=n_pos, kwnames=kwnames, held_locks=tuple(self.held),
                lineno=node.lineno, col=node.col_offset,
                discarded=id(node) in self._discarded_calls,
                caught=tuple(self._caught)))
        if isinstance(func, ast.Attribute):
            if isinstance(func.value, ast.Name):
                self.info.recv_calls.add((func.value.id, func.attr))
            # An in-place mutation of a guarded container is a write.
            attr = self._self_attr(func.value)
            if attr is not None and func.attr in _MUTATOR_METHODS:
                self._record_write(attr, "mutcall", node)
            self._check_impure_attr_call(node, func)
        elif isinstance(func, ast.Name):
            self._check_impure_name_call(node, func)
        self._scan_thread_targets(node)

    def _callable_ref(self, expr: ast.expr) -> tuple[str, str] | None:
        """A handed-off callable as (kind, name), or None."""
        attr = self._self_attr(expr)
        if attr is not None:
            return ("self", attr)
        if isinstance(expr, ast.Name):
            return ("bare", expr.id)
        return None

    def _scan_thread_targets(self, node: ast.Call) -> None:
        """Record callables this call hands to another thread of control."""
        fname = _call_name(node)
        refs: list[tuple[str, str] | None] = []
        if (fname == "submit" and isinstance(node.func, ast.Attribute)
                and node.args):
            # executor.submit(worker, ...): the worker runs on a pool thread.
            refs.append(self._callable_ref(node.args[0]))
        if fname in ("Thread", "Timer"):
            refs.extend(self._callable_ref(kw.value) for kw in node.keywords
                        if kw.arg == "target")
        # Pool initializers run once per worker, concurrently with the rest.
        refs.extend(self._callable_ref(kw.value) for kw in node.keywords
                    if kw.arg == "initializer")
        for ref in refs:
            if ref is not None:
                self.info.thread_targets.append((*ref, node.lineno))

    def _check_impure_attr_call(self, node: ast.Call,
                                func: ast.Attribute) -> None:
        mod_name = _ref_name(func.value)
        attr = func.attr
        if mod_name == "time" and attr in _WALL_CLOCK_TIME_ATTRS:
            self._impure(node, f"wall-clock call time.{attr}()")
        elif mod_name == "os" and attr == "urandom":
            self._impure(node, "entropy call os.urandom()")
        elif mod_name == "uuid" and attr in ("uuid1", "uuid4"):
            self._impure(node, f"entropy call uuid.{attr}()")
        elif mod_name == "secrets":
            self._impure(node, f"entropy call secrets.{attr}()")
        elif (mod_name in ("datetime", "date") and attr in _DATETIME_NOW_ATTRS):
            self._impure(node, f"wall-clock call {mod_name}.{attr}()")
        elif attr == "default_rng" and not node.args and not node.keywords:
            self._impure(
                node, "unseeded default_rng(); seed it from a named stream")

    def _check_impure_name_call(self, node: ast.Call, func: ast.Name) -> None:
        if func.id in _WALL_CLOCK_TIME_ATTRS and func.id != "time":
            # ``from time import perf_counter`` style; a bare ``time()``
            # is far more often a local helper than stdlib time.time.
            self._impure(node, f"wall-clock call {func.id}()")
        elif func.id == "urandom":
            self._impure(node, "entropy call urandom()")
        elif func.id == "default_rng" and not node.args and not node.keywords:
            self._impure(
                node, "unseeded default_rng(); seed it from a named stream")

    def _impure(self, node: ast.AST, reason: str) -> None:
        self.info.impurities.append(Impurity(
            reason=reason, lineno=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0)))

    # -- loops --------------------------------------------------------------

    def _unordered_source(self, expr: ast.expr) -> str | None:
        """Describe ``expr`` if its iteration order is hash/env-dependent."""
        if isinstance(expr, ast.Set):
            return "a set literal"
        name = _call_name(expr)
        if name in _UNORDERED_PRODUCERS:
            return f"{name}()"
        if (isinstance(expr, ast.Attribute) and expr.attr == "environ"
                and isinstance(expr.value, ast.Name)
                and expr.value.id == "os"):
            return "os.environ"
        return None

    def _check_iteration(self, iter_expr: ast.expr) -> None:
        src = self._unordered_source(iter_expr)
        if src is not None:
            self._impure(
                iter_expr,
                f"iteration over {src} is hash-order dependent; "
                f"sort or use an ordered container")

    def _loop(self, node: ast.For | ast.While, bound: ast.expr) -> None:
        retry = (any(_call_name(sub) in _RETRY_MARKERS
                     for sub in ast.walk(node))
                 or any(_ref_name(sub) == "max_attempts"
                        for sub in ast.walk(bound)))
        self.info.loops.append(
            (node.lineno, node.end_lineno or node.lineno, retry))

    def visit_For(self, node: ast.For) -> None:
        self._loop(node, node.iter)
        self._check_iteration(node.iter)
        self.generic_visit(node)

    def visit_While(self, node: ast.While) -> None:
        self._loop(node, node.test)
        self.generic_visit(node)

    def visit_AsyncFor(self, node: ast.AsyncFor) -> None:
        self._check_iteration(node.iter)
        self.generic_visit(node)

    def visit_comprehension(self, node: ast.comprehension) -> None:
        self._check_iteration(node.iter)
        self.generic_visit(node)

    # Nested defs get their own FunctionInfo via the module collector.
    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self.mod._function(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self.mod._function(node)

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self.mod.visit_ClassDef(node)

    def visit_Lambda(self, node: ast.Lambda) -> None:
        self.visit(node.body)


def index_functions(path: str, tree: ast.Module,
                    ) -> dict[str, ast.FunctionDef | ast.AsyncFunctionDef]:
    """Qualname -> definition, under the summaries' qualname scheme.

    Definitions are statements, so only statement lists are walked.
    Registration is pre-order and the last definition of a qualname
    wins.
    """
    out: dict[str, ast.FunctionDef | ast.AsyncFunctionDef] = {}

    def walk(node: ast.AST, cls: str | None) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner = f"{cls}." if cls is not None else ""
                out[f"{path}::{owner}{child.name}"] = child
                walk(child, cls)
            elif isinstance(child, ast.ClassDef):
                walk(child, child.name)
            elif isinstance(child, (ast.stmt, ast.excepthandler,
                                    ast.match_case)):
                walk(child, cls)

    walk(tree, None)
    return out


def _short(qualname: str) -> str:
    """``path::Class.name`` -> ``Class.name`` for messages."""
    return qualname.rsplit("::", 1)[-1]


# ---------------------------------------------------------------------------
# Generic solvers
# ---------------------------------------------------------------------------

_K = TypeVar("_K")
_V = TypeVar("_V")


def closure(seeds: Iterable[str],
            step: Callable[[str], Iterable[str]]) -> set[str]:
    """Everything reachable from ``seeds`` (included) through ``step``."""
    seen: set[str] = set()
    stack = list(seeds)
    while stack:
        item = stack.pop()
        if item not in seen:
            seen.add(item)
            stack.extend(step(item))
    return seen


def propagate(facts: dict[str, dict[_K, _V]],
              edges: Callable[[str], Iterable[tuple[CallSite, str]]],
              admit: Callable[[CallSite, _K], bool] | None = None,
              ) -> dict[str, dict[_K, _V]]:
    """Spread keyed facts from callees to callers until nothing changes.

    ``facts`` maps every function to its direct facts, ``{key: witness}``,
    and is extended in place.  ``edges`` gives a function's ``(call site,
    callee)`` pairs and is resolved once per function.  Each pass visits
    the functions in ``facts`` order and their edges in call-site order,
    so a caller keeps the first witness that reaches it.  ``admit(site,
    key)`` may stop a fact at a call site (an enclosing ``except``).
    """
    resolved = {qual: list(edges(qual)) for qual in facts}
    changed = True
    while changed:
        changed = False
        for qual, mine in facts.items():
            for site, target in resolved[qual]:
                for key, witness in facts.get(target, {}).items():
                    if key not in mine and (admit is None
                                            or admit(site, key)):
                        mine[key] = witness
                        changed = True
    return facts


# ---------------------------------------------------------------------------
# The graph
# ---------------------------------------------------------------------------

#: Module path -> top-level ``name = container`` assignments: (name, line,
#: constructor name, or None for a literal).
ContainerGlobals = dict[str, list[tuple[str, int, str | None]]]


@dataclass
class ModuleSummary:
    """One module's contribution to the project tables.

    Pure function of the module's source text, which makes it the unit
    the incremental lint cache (:mod:`repro.lint.cache`) persists: a
    cache hit merges the pickled summary instead of re-walking the AST.
    """

    path: str
    functions: dict[str, FunctionInfo] = field(default_factory=dict)
    classes: dict[str, list[ClassInfo]] = field(default_factory=dict)
    methods_by_name: dict[str, list[FunctionInfo]] = field(
        default_factory=dict)
    funcs_by_name: dict[str, list[FunctionInfo]] = field(default_factory=dict)
    module_funcs: dict[tuple[str, str], FunctionInfo] = field(
        default_factory=dict)
    container_globals: ContainerGlobals = field(default_factory=dict)


def summarize_module(path: str, source: str, tree: ast.Module,
                     ) -> ModuleSummary:
    """Collect one module's function/class summaries in isolation."""
    scratch = ProjectGraph()
    _ModuleCollector(scratch, path, source, tree).run()
    return ModuleSummary(
        path=path,
        functions=scratch.functions,
        classes=scratch.classes,
        methods_by_name=scratch.methods_by_name,
        funcs_by_name=scratch.funcs_by_name,
        module_funcs=scratch.module_funcs,
        container_globals=scratch.container_globals,
    )


class ProjectGraph:
    """Project-wide function/class tables plus memoized analyses."""

    def __init__(self) -> None:
        self.functions: dict[str, FunctionInfo] = {}
        self.classes: dict[str, list[ClassInfo]] = {}
        self.methods_by_name: dict[str, list[FunctionInfo]] = {}
        self.funcs_by_name: dict[str, list[FunctionInfo]] = {}
        self.module_funcs: dict[tuple[str, str], FunctionInfo] = {}
        self.container_globals: ContainerGlobals = {}
        self._edges: dict[tuple[str, bool], list[tuple[CallSite, str]]] = {}
        self._callees: dict[str, tuple[str, ...]] = {}
        self._reachable: frozenset[str] | None = None
        self._transitive_locks: dict[str, frozenset[str]] | None = None
        self._lock_edges: (
            dict[tuple[str, str], list[tuple[str, int, int, str]]] | None
        ) = None

    # -- construction -------------------------------------------------------

    @classmethod
    def build(cls, modules: Iterable[ModuleContext]) -> ProjectGraph:
        return cls.from_summaries(ctx.summary for ctx in modules)

    @classmethod
    def from_summaries(cls, summaries: Iterable[ModuleSummary],
                       ) -> ProjectGraph:
        """Merge per-module summaries (fresh or cache-loaded) into a graph."""
        graph = cls()
        for s in summaries:
            graph.functions.update(s.functions)
            for name, infos in s.classes.items():
                graph.classes.setdefault(name, []).extend(infos)
            for name, infos in s.methods_by_name.items():
                graph.methods_by_name.setdefault(name, []).extend(infos)
            for name, infos in s.funcs_by_name.items():
                graph.funcs_by_name.setdefault(name, []).extend(infos)
            for key, info in s.module_funcs.items():
                graph.module_funcs.setdefault(key, info)
            graph.container_globals.update(s.container_globals)
        return graph

    # -- class helpers ------------------------------------------------------

    def iter_classes(self) -> Iterator[ClassInfo]:
        for infos in self.classes.values():
            yield from infos

    def bases(self, name: str) -> list[str]:
        """Direct base names over every project class called ``name``."""
        return [b for cls in self.classes.get(name, ()) for b in cls.bases]

    def class_method(self, cls: ClassInfo,
                     name: str) -> FunctionInfo | None:
        """Method ``name`` on ``cls`` or (project-known) bases, depth-first."""
        seen: set[str] = set()
        stack = [cls]
        while stack:
            c = stack.pop(0)
            if c.name in seen:
                continue
            seen.add(c.name)
            if name in c.methods:
                return c.methods[name]
            for base in c.bases:
                stack.extend(self.classes.get(base, []))
        return None

    def mro_has_method(self, cls: ClassInfo, name: str) -> bool:
        return self.class_method(cls, name) is not None

    # -- call resolution ----------------------------------------------------

    def resolve(self, caller: FunctionInfo,
                site: CallSite) -> list[FunctionInfo]:
        """Project functions a call site may dispatch to."""
        if site.is_attr:
            found: list[FunctionInfo] = []
            if site.recv_type is not None:
                candidates = self.classes.get(site.recv_type, [])
                for cls in candidates:
                    m = self.class_method(cls, site.name)
                    if m is not None:
                        found.append(m)
                if not any(cls.is_protocol for cls in candidates):
                    # A typed receiver is authoritative: a builtin or
                    # out-of-project type means the call cannot land in
                    # project code, so no dynamic-dispatch fallback.
                    return found
            # Untyped or Protocol-typed receiver: signature-compatible
            # dynamic dispatch over every project callable of that name
            # (protocol implementations stay visible; incompatible
            # same-name methods are excluded).
            seen = {m.qualname for m in found}
            out = found + [
                m for m in self.methods_by_name.get(site.name, ())
                if m.qualname not in seen
                and m.sig.accepts(site.n_pos, site.kwnames)]
            out += [f for f in self.funcs_by_name.get(site.name, ())
                    if f.sig.accepts(site.n_pos, site.kwnames)]
            return out
        # Bare name: same module first, then a unique project-wide name,
        # then a class constructor.
        local = self.module_funcs.get((caller.module, site.name))
        if local is not None:
            return [local]
        funcs = self.funcs_by_name.get(site.name, [])
        if len(funcs) == 1:
            return list(funcs)
        ctors: list[FunctionInfo] = []
        for cls in self.classes.get(site.name, []):
            init = self.class_method(cls, "__init__")
            if init is not None:
                ctors.append(init)
        return ctors

    def edges(self, qualname: str,
              confident: bool = False) -> list[tuple[CallSite, str]]:
        """Resolved ``(call site, callee qualname)`` pairs (memoized).

        In call-site order, each site's targets in resolution order.
        ``confident`` drops untyped attribute calls, whose
        signature-compatible dispatch is too coarse to carry locksets
        or effects (GL14–GL17).
        """
        key = (qualname, confident)
        cached = self._edges.get(key)
        if cached is None:
            if confident:
                cached = [(site, target)
                          for site, target in self.edges(qualname)
                          if not (site.is_attr and site.recv_type is None)]
            else:
                info = self.functions[qualname]
                cached = [(site, t.qualname) for site in info.calls
                          for t in self.resolve(info, site)]
            self._edges[key] = cached
        return cached

    def callees(self, qualname: str) -> tuple[str, ...]:
        """Memoized resolved callee qualnames of one function."""
        cached = self._callees.get(qualname)
        if cached is None:
            cached = self._callees[qualname] = tuple(sorted(
                {target for _site, target in self.edges(qualname)}))
        return cached

    # -- analyses -----------------------------------------------------------

    def reachable_from_roots(self) -> frozenset[str]:
        """Qualnames reachable from experiment/pipeline roots (memoized)."""
        if self._reachable is None:
            self._reachable = frozenset(closure(
                (q for q, f in self.functions.items() if f.is_root),
                self.callees))
        return self._reachable

    def root_path_to(self, qualname: str) -> tuple[str, ...]:
        """A shortest root→function call chain, for diagnostics."""
        parents: dict[str, str | None] = {
            q: None for q, f in self.functions.items() if f.is_root}
        frontier = sorted(parents)
        while frontier:
            nxt: list[str] = []
            for qual in frontier:
                if qual == qualname:
                    chain = [qual]
                    while parents[chain[-1]] is not None:
                        chain.append(parents[chain[-1]])  # type: ignore[arg-type]
                    return tuple(reversed(chain))
                for callee in self.callees(qual):
                    if callee not in parents:
                        parents[callee] = qual
                        nxt.append(callee)
            frontier = nxt
        return ()

    def transitive_locks(self) -> dict[str, frozenset[str]]:
        """Locks each function may acquire, directly or via callees."""
        if self._transitive_locks is None:
            locks = propagate(
                {q: dict.fromkeys(a.lock for a in f.lock_acqs)
                 for q, f in self.functions.items()}, self.edges)
            self._transitive_locks = {
                q: frozenset(held) for q, held in locks.items()}
        return self._transitive_locks

    def lock_order_edges(
            self) -> dict[tuple[str, str], list[tuple[str, int, int, str]]]:
        """Observed lock orders: (outer, inner) -> witness sites.

        An edge exists when ``inner`` is acquired — directly, or
        transitively through a call — while ``outer`` is held.  A
        self-edge ``(L, L)`` means a non-reentrant lock may be
        re-acquired while held (a self-deadlock).  Sites are
        ``(module, line, col, holder qualname)``.
        """
        if self._lock_edges is None:
            edges: dict[tuple[str, str], list[tuple[str, int, int, str]]] = {}

            def witness(outer: str, inner: str, module: str, lineno: int,
                        col: int, qual: str) -> None:
                edges.setdefault((outer, inner), []).append(
                    (module, lineno, col, qual))

            trans = self.transitive_locks()
            for qual in sorted(self.functions):
                f = self.functions[qual]
                for acq in f.lock_acqs:
                    for outer in acq.held:
                        witness(outer, acq.lock, f.module,
                                acq.lineno, acq.col, qual)
                for site in f.calls:
                    if not site.held_locks:
                        continue
                    inner_locks: set[str] = set()
                    for target in self.resolve(f, site):
                        inner_locks |= trans.get(target.qualname, frozenset())
                    for inner in sorted(inner_locks):
                        for outer in site.held_locks:
                            witness(outer, inner, f.module,
                                    site.lineno, site.col, qual)
            self._lock_edges = edges
        return self._lock_edges

    def lock_cycles(self) -> list[tuple[str, ...]]:
        """Lock-order cycles (each a tuple of lock ids), deterministic."""
        edges = self.lock_order_edges()
        adj: dict[str, set[str]] = {}
        for (outer, inner) in edges:
            adj.setdefault(outer, set()).add(inner)
            adj.setdefault(inner, set())
        cycles: list[tuple[str, ...]] = []
        seen_cycles: set[frozenset[str]] = set()
        for start in sorted(adj):
            if (start, start) in edges:
                key = frozenset((start,))
                if key not in seen_cycles:
                    seen_cycles.add(key)
                    cycles.append((start,))
            # Bounded DFS for cycles through ``start`` (lock graphs are
            # tiny; this is exact and deterministic).
            stack: list[tuple[str, tuple[str, ...]]] = [(start, (start,))]
            while stack:
                node, path = stack.pop()
                for nxt in sorted(adj.get(node, ()), reverse=True):
                    if nxt == start and len(path) > 1:
                        key = frozenset(path)
                        if key not in seen_cycles:
                            seen_cycles.add(key)
                            cycles.append(path)
                    elif nxt not in path and len(path) < 8:
                        stack.append((nxt, path + (nxt,)))
        return cycles
