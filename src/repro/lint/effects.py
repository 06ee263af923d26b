"""Resource/effect summaries layered on the call graph (GL15–GL18).

Where :mod:`repro.lint.graph` answers *who calls whom*, this module
answers *what a call does to the world*: which exceptions can escape a
function, which resources it acquires and fails to release, which of
its writes a retry loop would double-apply, and which ambient state a
cached computation reads without digesting it into its cache key.

:class:`EffectAnalysis` follows the :class:`~repro.lint.dataflow.DimDataflow`
idiom — constructed eagerly by the engine with ``(graph, modules)``,
computing everything lazily on first query, so runs that select none of
GL15–GL18 pay nothing.  Its facts are the ones the graph's module walk
already put in each function summary (raises, reads, writes, loops,
annotations), so a cache hit brings them along; only GL15's typestate
walk reads function bodies.  Four lazily-memoized products back the
four lifecycle rules:

* **resource findings (GL15)** — an intraprocedural typestate automaton
  (OPEN → RELEASED / ESCAPED) per function over a table of must-release
  acquisitions, plus a class-level ownership check: a class whose
  methods store acquired resources on ``self`` must release them from
  some method of its own (its teardown).  Escape — via ``return``, an
  attribute/container store, or passing as a call argument — transfers
  the close obligation to the new owner.
* **exception escapes (GL16)** — a raises-set fixpoint over the call
  graph with lexical try/except narrowing and a builtin + project
  exception hierarchy; queried for the worker roots (``do_*`` HTTP
  handlers and thread targets).
* **retry findings (GL17)** — loops driven by ``RetryPolicy``/
  ``RetrySession`` (a ``backoff_s``/``charge_s`` call or a
  ``max_attempts`` bound) re-execute their bodies; anything they reach
  must be free of at-most-once mutations (counter bumps, container
  pushes) or carry a ``# gl: idempotent`` annotation, whose honesty is
  checked in reverse.
* **ambient findings (GL18)** — reads of environment variables, mutated
  module-level containers, and mutated mutable class attributes on the
  experiment-reachable (cached-compute) path, outside the digest scope
  of ``cache_key``/``lab_snapshot_key``.

Only confidently-resolved call edges (typed receivers, protocol
dispatch, bare names) propagate facts — the same discipline GL14 uses —
so an untyped ``obj.read()`` never smears effects across every project
``read``.  Propagation and reachability go through the graph's generic
:func:`~repro.lint.graph.propagate` and :func:`~repro.lint.graph.closure`.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Iterable, Sequence

from repro.lint.graph import (
    _RETRY_MARKERS,
    CallSite,
    Frames,
    FunctionInfo,
    ProjectGraph,
    _call_name,
    _exc_names,
    _short,
    closure,
    propagate,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.lint.engine import ModuleContext

#: Constructors/factories whose result must eventually be released.
#: Values are the resource kind used in messages.
_RESOURCE_CTORS = {
    "socket": "socket",
    "create_connection": "socket",
    "HTTPConnection": "connection",
    "HTTPSConnection": "connection",
    "ServiceClient": "client",
    "ExperimentService": "service",
    "ThreadPoolExecutor": "executor",
    "ProcessPoolExecutor": "executor",
    "Thread": "thread",
    "Timer": "thread",
    "Process": "process",
    "Popen": "process",
    "open": "file",
    "NamedTemporaryFile": "file",
    "TemporaryFile": "file",
    "TemporaryDirectory": "tempdir",
    "HTTPServer": "server",
    "ThreadingHTTPServer": "server",
}

#: A ``Pipe()`` call acquires *two* connections via tuple unpacking.
_PAIR_CTORS = {"Pipe": "pipe"}

#: Method names that discharge a resource's release obligation.
_RELEASE_METHODS = frozenset({
    "close", "shutdown", "join", "stop", "release", "server_close",
    "cleanup", "terminate", "kill", "cancel", "detach", "wait",
    "communicate", "__exit__",
})

#: Base classes that make a project class a resource in its own right.
_RESOURCE_BASES = frozenset({
    "HTTPServer", "ThreadingHTTPServer", "BaseServer", "TCPServer",
})

#: Escapes that can never carry a root-killing exception in practice.
_EXEMPT_ESCAPES = frozenset({
    "KeyboardInterrupt", "SystemExit", "GeneratorExit", "StopIteration",
})

#: Builtin exception hierarchy (child -> parent), enough for narrowing.
_BUILTIN_EXC_PARENT = {
    "ArithmeticError": "Exception",
    "ZeroDivisionError": "ArithmeticError",
    "OverflowError": "ArithmeticError",
    "FloatingPointError": "ArithmeticError",
    "AssertionError": "Exception",
    "AttributeError": "Exception",
    "BufferError": "Exception",
    "EOFError": "Exception",
    "ImportError": "Exception",
    "ModuleNotFoundError": "ImportError",
    "LookupError": "Exception",
    "IndexError": "LookupError",
    "KeyError": "LookupError",
    "MemoryError": "Exception",
    "NameError": "Exception",
    "UnboundLocalError": "NameError",
    "OSError": "Exception",
    "IOError": "OSError",
    "EnvironmentError": "OSError",
    "ConnectionError": "OSError",
    "BrokenPipeError": "ConnectionError",
    "ConnectionAbortedError": "ConnectionError",
    "ConnectionRefusedError": "ConnectionError",
    "ConnectionResetError": "ConnectionError",
    "FileExistsError": "OSError",
    "FileNotFoundError": "OSError",
    "InterruptedError": "OSError",
    "IsADirectoryError": "OSError",
    "NotADirectoryError": "OSError",
    "PermissionError": "OSError",
    "TimeoutError": "OSError",
    "ReferenceError": "Exception",
    "RuntimeError": "Exception",
    "NotImplementedError": "RuntimeError",
    "RecursionError": "RuntimeError",
    "StopIteration": "Exception",
    "StopAsyncIteration": "Exception",
    "SyntaxError": "Exception",
    "IndentationError": "SyntaxError",
    "TabError": "IndentationError",
    "SystemError": "Exception",
    "TypeError": "Exception",
    "ValueError": "Exception",
    "UnicodeError": "ValueError",
    "UnicodeDecodeError": "UnicodeError",
    "UnicodeEncodeError": "UnicodeError",
    "Exception": "BaseException",
    "KeyboardInterrupt": "BaseException",
    "SystemExit": "BaseException",
    "GeneratorExit": "BaseException",
}

#: Mutation kinds retries double-apply.  A plain or keyed assignment of
#: a deterministic value is last-write-wins and therefore re-execution
#: safe; ``+=`` and container pushes are not.
_SUSPECT_WRITE_KINDS = frozenset({"augassign", "mutcall"})

#: Builtin container constructors whose module-level instances are
#: mutable ambient state for GL18.
_MUTABLE_CTORS = frozenset({
    "dict", "list", "set", "defaultdict", "deque", "OrderedDict",
    "Counter",
})

#: Method names that mutate a module-level instance (GL18).  Superset of
#: the graph's ``_MUTATOR_METHODS``: project memo types use ``put``.
_GL18_MUTATORS = frozenset({
    "append", "appendleft", "add", "clear", "discard", "extend", "insert",
    "move_to_end", "pop", "popitem", "remove", "setdefault", "update",
    "put", "store", "record", "push", "cache",
})

#: Functions whose bodies *are* the cache key derivation: ambient reads
#: here land in the digest, which is the whole point.
_DIGEST_FUNCS = frozenset({"cache_key", "lab_snapshot_key",
                           "_testbed_repr"})


# ---------------------------------------------------------------------------
# Finding payloads (plain data; lifecycle_rules turns them into Findings)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Issue:
    """One GL15–GL18 witness: a leak, an escape, a retried mutation, or
    an undigested ambient read."""

    module: str
    line: int
    col: int
    message: str


# ---------------------------------------------------------------------------
# GL15 typestate walker
# ---------------------------------------------------------------------------

_OPEN, _RELEASED, _ESCAPED = "open", "released", "escaped"


@dataclass
class _Res:
    """Typestate of one locally-acquired resource."""

    var: str
    kind: str
    line: int
    state: str = _OPEN
    protected: bool = False      #: release guaranteed by finally / handler
    risky: bool = False          #: a may-raise stmt ran while open
    reported: bool = False

    def copy(self) -> "_Res":
        return _Res(self.var, self.kind, self.line, self.state,
                    self.protected, self.risky, self.reported)


class _Typestate:
    """Intraprocedural OPEN/RELEASED/ESCAPED automaton for one function."""

    def __init__(self, analysis: "EffectAnalysis", info: FunctionInfo,
                 fn: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        self.analysis = analysis
        self.info = info
        self.fn = fn
        self.issues: list[Issue] = []
        #: ``self.<attr>`` ownerships recorded while walking.
        self.owned: dict[str, tuple[str, int]] = {}
        self._sites = {(s.lineno, s.col): s for s in info.calls}

    # -- acquisition classification ----------------------------------------

    def _acq_kind(self, node: ast.expr) -> str | None:
        """Resource kind acquired by this expression, if any."""
        if not isinstance(node, ast.Call):
            return None
        name = _call_name(node)
        if name is None:
            return None
        if name in ("Thread", "Timer"):
            # Fire-and-forget daemon threads carry no join obligation.
            for kw in node.keywords:
                if (kw.arg == "daemon" and isinstance(kw.value, ast.Constant)
                        and kw.value.value is True):
                    return None
        kind = _RESOURCE_CTORS.get(name)
        if kind is not None:
            return kind
        if name in self.analysis._resource_classes:
            return self.analysis._resource_classes[name]
        site = self._sites.get((node.lineno, node.col_offset))
        if site is not None:
            return self.analysis._returner_kind(self.info, site)
        return None

    def _report(self, res: _Res, line: int, why: str) -> None:
        if res.reported:
            return
        res.reported = True
        self.issues.append(Issue(
            module=self.info.module, line=line, col=0,
            message=f"{res.kind} '{res.var}' acquired at line {res.line} "
                    f"{why}"))

    # -- driver -------------------------------------------------------------

    def run(self) -> None:
        state, terminated = self._block(self.fn.body, {})
        if not terminated:
            for res in state.values():
                if res.state == _OPEN and not res.protected:
                    self._report(res, res.line,
                                 "is never released or handed off "
                                 "(close/stop/join it, or use 'with')")

    def _block(self, stmts: Sequence[ast.stmt],
               state: dict[str, _Res]) -> tuple[dict[str, _Res], bool]:
        for stmt in stmts:
            terminated = self._stmt(stmt, state)
            if terminated:
                return state, True
        return state, False

    @staticmethod
    def _copy(state: dict[str, _Res]) -> dict[str, _Res]:
        return {k: v.copy() for k, v in state.items()}

    @staticmethod
    def _merge(a: dict[str, _Res], b: dict[str, _Res]) -> dict[str, _Res]:
        """May-release join: a release on either branch discharges."""
        out = dict(a)
        for var, res in b.items():
            mine = out.get(var)
            if mine is None:
                out[var] = res
            elif mine.state == _OPEN and res.state != _OPEN:
                out[var] = res
            elif mine.state == _OPEN and res.state == _OPEN:
                mine.risky = mine.risky or res.risky
                mine.protected = mine.protected and res.protected
                mine.reported = mine.reported or res.reported
        return out

    # -- statement dispatch -------------------------------------------------

    def _stmt(self, stmt: ast.stmt, state: dict[str, _Res]) -> bool:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef, ast.Import, ast.ImportFrom,
                             ast.Global, ast.Nonlocal, ast.Pass)):
            return False
        if isinstance(stmt, ast.Assign):
            self._assign(stmt, state)
        elif isinstance(stmt, ast.Return):
            self._returns(stmt, state)
            return True
        elif isinstance(stmt, ast.Raise):
            self._escape_names(stmt, state)
            self._scan_calls(stmt, state)
            for res in state.values():
                if res.state == _OPEN and not res.protected:
                    self._report(res, stmt.lineno,
                                 f"leaks when line {stmt.lineno} raises; "
                                 "release it before raising or in a finally")
            return True
        elif isinstance(stmt, ast.If):
            self._scan_calls_expr(stmt.test, state)
            self._risky(stmt.test, state)
            s1, t1 = self._block(stmt.body, self._copy(state))
            s2, t2 = self._block(stmt.orelse, self._copy(state))
            merged = (s2 if t1 else s1 if t2 else self._merge(s1, s2))
            state.clear()
            state.update(merged)
            return t1 and t2
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._scan_calls_expr(stmt.iter, state)
            self._risky(stmt.iter, state)
            body_state, _ = self._block(stmt.body, self._copy(state))
            merged = self._merge(state, body_state)
            state.clear()
            state.update(merged)
            self._block(stmt.orelse, state)
        elif isinstance(stmt, ast.While):
            self._scan_calls_expr(stmt.test, state)
            self._risky(stmt.test, state)
            body_state, _ = self._block(stmt.body, self._copy(state))
            merged = self._merge(state, body_state)
            state.clear()
            state.update(merged)
            self._block(stmt.orelse, state)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            self._with(stmt, state)
        elif isinstance(stmt, ast.Try):
            return self._try(stmt, state)
        else:
            self._scan_calls(stmt, state)
            self._risky(stmt, state)
        return False

    # -- assignment ---------------------------------------------------------

    def _assign(self, stmt: ast.Assign, state: dict[str, _Res]) -> None:
        value = stmt.value
        target = stmt.targets[0] if len(stmt.targets) == 1 else None
        # self.attr = <acquisition> records class ownership directly.
        kind = self._acq_kind(value)
        if (kind is not None and isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"):
            self.owned.setdefault(target.attr, (kind, stmt.lineno))
            self._scan_calls(stmt, state)
            self._risky(stmt, state, exclude=None)
            return
        if kind is not None and isinstance(target, ast.Name):
            prior = state.get(target.id)
            if prior is not None and prior.state == _OPEN:
                self._report(prior, stmt.lineno,
                             f"is overwritten at line {stmt.lineno} while "
                             "still open")
            state[target.id] = _Res(target.id, kind, stmt.lineno)
            # Arguments of the acquisition may hand off *other* resources.
            self._scan_calls(stmt, state, skip=value)
            self._risky(stmt, state, exclude=target.id)
            return
        pair = (isinstance(value, ast.Call)
                and _call_name(value) in _PAIR_CTORS
                and isinstance(target, ast.Tuple)
                and all(isinstance(e, ast.Name) for e in target.elts))
        if pair:
            for elt in target.elts:
                assert isinstance(elt, ast.Name)
                state[elt.id] = _Res(elt.id, _PAIR_CTORS[_call_name(value)],
                                     stmt.lineno)
            self._risky(stmt, state, exclude=frozenset(
                e.id for e in target.elts if isinstance(e, ast.Name)))
            return
        # Aliasing or storing a tracked resource moves its obligation.
        if isinstance(value, ast.Name) and value.id in state:
            res = state[value.id]
            if res.state == _OPEN:
                res.state = _ESCAPED
                if (isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"):
                    self.owned.setdefault(target.attr,
                                          (res.kind, stmt.lineno))
                elif (isinstance(target, ast.Subscript)
                      and isinstance(target.value, ast.Attribute)
                      and isinstance(target.value.value, ast.Name)
                      and target.value.value.id == "self"):
                    self.owned.setdefault(target.value.attr,
                                          (res.kind, stmt.lineno))
            return
        self._scan_calls(stmt, state)
        self._risky(stmt, state)

    # -- escapes / releases / riskiness -------------------------------------

    def _escape_names(self, node: ast.AST, state: dict[str, _Res]) -> None:
        for sub in ast.walk(node):
            if (isinstance(sub, ast.Name) and sub.id in state
                    and isinstance(sub.ctx, ast.Load)):
                res = state[sub.id]
                if res.state == _OPEN:
                    res.state = _ESCAPED

    def _returns(self, stmt: ast.Return, state: dict[str, _Res]) -> None:
        returned: set[str] = set()
        if stmt.value is not None:
            self._scan_calls_expr(stmt.value, state)
            for sub in ast.walk(stmt.value):
                if isinstance(sub, ast.Name) and sub.id in state:
                    returned.add(sub.id)
        for var in returned:
            res = state[var]
            if res.state == _OPEN:
                if res.risky and not res.protected:
                    self._report(
                        res, stmt.lineno,
                        "can leak on an exception path: a call between "
                        "acquisition and the return can raise while it is "
                        "open; close it in an except/finally before "
                        "re-raising")
                res.state = _ESCAPED
        for res in state.values():
            if res.state == _OPEN and not res.protected:
                self._report(res, stmt.lineno,
                             f"is still open at the return on line "
                             f"{stmt.lineno}")

    def _scan_calls(self, stmt: ast.stmt, state: dict[str, _Res],
                    skip: ast.expr | None = None) -> None:
        for sub in ast.walk(stmt):
            if isinstance(sub, ast.Call) and sub is not skip:
                self._one_call(sub, state)

    def _scan_calls_expr(self, expr: ast.expr,
                         state: dict[str, _Res]) -> None:
        for sub in ast.walk(expr):
            if isinstance(sub, ast.Call):
                self._one_call(sub, state)

    def _one_call(self, call: ast.Call, state: dict[str, _Res]) -> None:
        func = call.func
        # Release: <var>.close() and friends.
        if (isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
                and func.value.id in state
                and func.attr in _RELEASE_METHODS):
            res = state[func.value.id]
            if res.state == _OPEN:
                if res.risky and not res.protected:
                    self._report(
                        res, call.lineno,
                        f"is released at line {call.lineno}, but a call "
                        "in between can raise and skip the release; move "
                        "it into a finally block or use 'with'")
                res.state = _RELEASED
            return
        # Chained call on a fresh acquisition: the object is unreachable
        # the moment the expression ends.
        if (isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Call)
                and func.attr not in _RELEASE_METHODS):
            kind = self._acq_kind(func.value)
            if kind is not None:
                self.issues.append(Issue(
                    module=self.info.module, line=call.lineno,
                    col=call.col_offset,
                    message=f"a {kind} is created and immediately "
                            f"discarded after '.{func.attr}()'; bind it "
                            "and close it (or use 'with')"))
        # Any tracked resource passed as an argument escapes.
        for arg in (*call.args, *(kw.value for kw in call.keywords)):
            self._escape_names(arg, state)

    def _risky(self, node: ast.AST, state: dict[str, _Res],
               exclude: object = None) -> None:
        """Mark open resources vulnerable if this statement may raise."""
        may_raise = any(isinstance(sub, (ast.Call, ast.Raise))
                        for sub in ast.walk(node))
        if not may_raise:
            return
        excluded = (exclude if isinstance(exclude, frozenset)
                    else frozenset() if exclude is None
                    else frozenset({exclude}))
        for var, res in state.items():
            if var in excluded:
                continue
            if res.state == _OPEN and not res.protected:
                res.risky = True

    # -- structured statements ---------------------------------------------

    def _with(self, stmt: ast.With | ast.AsyncWith,
              state: dict[str, _Res]) -> None:
        for item in stmt.items:
            expr = item.context_expr
            if isinstance(expr, ast.Name) and expr.id in state:
                res = state[expr.id]
                if res.state == _OPEN:
                    res.state = _RELEASED
                    res.protected = True
            else:
                # ``with acquire() as x``: the context manager owns the
                # release; x is never tracked.
                self._scan_calls_expr(expr, state)
        self._risky(stmt, state)
        self._block(stmt.body, state)

    def _protects(self, stmts: Sequence[ast.stmt], var: str) -> bool:
        """Do these cleanup statements release or hand off ``var``?"""
        for stmt in stmts:
            for sub in ast.walk(stmt):
                if not isinstance(sub, ast.Call):
                    continue
                func = sub.func
                if (isinstance(func, ast.Attribute)
                        and isinstance(func.value, ast.Name)
                        and func.value.id == var
                        and func.attr in _RELEASE_METHODS):
                    return True
                for arg in (*sub.args,
                            *(kw.value for kw in sub.keywords)):
                    if any(isinstance(n, ast.Name) and n.id == var
                           for n in ast.walk(arg)):
                        return True
        return False

    def _try(self, stmt: ast.Try, state: dict[str, _Res]) -> bool:
        catch_all = [
            h for h in stmt.handlers
            if _exc_names(h.type) & {"BaseException", "Exception"}]
        cleanup: list[ast.stmt] = list(stmt.finalbody)
        for h in catch_all:
            cleanup.extend(h.body)
        for var, res in state.items():
            if res.state == _OPEN and self._protects(cleanup, var):
                res.protected = True
        entry = self._copy(state)
        body_state, body_term = self._block(stmt.body, state)
        for var, res in body_state.items():
            if (res.state == _OPEN
                    and self._protects(cleanup, var)):
                res.protected = True
        # Handler entry: entry-state plus body-acquired resources that
        # were demonstrably open when a later body statement could raise.
        h_entry = self._copy(entry)
        for var, res in body_state.items():
            if var in h_entry:
                h_entry[var] = res.copy()
            elif res.risky and res.state in (_OPEN, _RELEASED):
                # Only acquisitions a *later* statement could interrupt
                # reach the handler: if the acquisition itself raised,
                # the name was never bound, so there is nothing to leak.
                opened = res.copy()
                opened.state = _OPEN
                h_entry[var] = opened
            elif res.state == _ESCAPED:
                h_entry[var] = res.copy()
        ends: list[dict[str, _Res]] = []
        all_term = body_term
        for handler in stmt.handlers:
            hs, ht = self._block(handler.body, self._copy(h_entry))
            if not ht:
                ends.append(hs)
            all_term = all_term and ht
        if not body_term:
            else_state, else_term = self._block(stmt.orelse, body_state)
            if not else_term:
                ends.append(else_state)
            all_term = all_term and else_term
        if ends:
            merged = ends[0]
            for other in ends[1:]:
                merged = self._merge(merged, other)
        else:
            merged = body_state
        state.clear()
        state.update(merged)
        _, fin_term = self._block(stmt.finalbody, state)
        return all_term or fin_term


# ---------------------------------------------------------------------------
# The analysis facade
# ---------------------------------------------------------------------------

class EffectAnalysis:
    """Lazy whole-program resource/effect analysis behind GL15–GL18.

    Every fact comes from the function summaries in the graph; only
    GL15's typestate walk reads function bodies.  Each table is computed
    on first use and memoized.
    """

    def __init__(self, graph: ProjectGraph,
                 modules: Iterable["ModuleContext"],
                 error_classes: Iterable[str] = ()) -> None:
        self.graph = graph
        self.error_classes = frozenset(error_classes)
        #: qualname -> function node, for GL15's typestate walk.
        self._nodes = {qual: node for ctx in modules
                       for qual, node in ctx.function_nodes.items()}

    def _edges(self, qual: str) -> list[tuple[CallSite, str]]:
        """Confidently-resolved call edges (GL14's discipline)."""
        return self.graph.edges(qual, confident=True)

    # -- shared lazy tables -------------------------------------------------

    @cached_property
    def _idempotent_lines(self) -> dict[str, int]:
        """Qualname -> annotation line for ``# gl: idempotent`` functions."""
        return {q: f.idempotent_line for q, f in self.graph.functions.items()
                if f.idempotent_line is not None}

    @cached_property
    def _resource_classes(self) -> dict[str, str]:
        """Project classes that are resources themselves -> kind."""
        out: dict[str, str] = {}
        for name in self.graph.classes:
            bases = closure(self.graph.bases(name), self.graph.bases)
            if bases & _RESOURCE_BASES:
                out[name] = "server"
            elif "ExperimentService" in bases:
                out[name] = "service"
            elif "ServiceClient" in bases:
                out[name] = "client"
        out.setdefault("ExperimentService", "service")
        out.setdefault("ServiceClient", "client")
        return out

    @cached_property
    def _returner_table(self) -> dict[str, str]:
        """Qualnames of functions whose annotation returns a resource."""
        resource_names = dict(_RESOURCE_CTORS)
        resource_names.update(self._resource_classes)
        resource_names.pop("open", None)
        out: dict[str, str] = {}
        for qual, info in self.graph.functions.items():
            for name in info.returns:
                kind = resource_names.get(name)
                if kind is not None:
                    out[qual] = kind
                    break
        return out

    def _returner_kind(self, caller: FunctionInfo,
                       site: CallSite) -> str | None:
        """Kind of resource a resolved call returns, if any."""
        if site.is_attr and site.recv_type is None:
            return None
        table = self._returner_table
        kinds = {table[t.qualname]
                 for t in self.graph.resolve(caller, site)
                 if t.qualname in table}
        if len(kinds) == 1:
            return next(iter(kinds))
        return None

    # -- exception hierarchy ------------------------------------------------

    @cached_property
    def _parents(self) -> dict[str, str]:
        table = dict(_BUILTIN_EXC_PARENT)
        for name, infos in self.graph.classes.items():
            if name in table:
                continue
            for cls in infos:
                if cls.bases:
                    table[name] = cls.bases[0]
                    break
        return table

    def _ancestors(self, exc: str) -> frozenset[str]:
        table = self._parents
        out = {exc}
        cur = exc
        for _ in range(32):
            parent = table.get(cur)
            if parent is None:
                # Unknown class: assume a plain Exception subclass.
                if cur not in ("Exception", "BaseException"):
                    out |= {"Exception", "BaseException"}
                break
            out.add(parent)
            cur = parent
        return frozenset(out)

    def _caught_by(self, frames: Frames, exc: str) -> bool:
        ancestors = self._ancestors(exc)
        return any(frame & ancestors for frame in frames)

    # -- GL16: raises-set fixpoint ------------------------------------------

    @cached_property
    def escapes(self) -> dict[str, dict[str, tuple[str, int]]]:
        """Qualname -> {exception: (origin qualname, origin line)}."""
        table: dict[str, dict[str, tuple[str, int]]] = {}
        for qual, info in self.graph.functions.items():
            direct: dict[str, tuple[str, int]] = {}
            for name, frames, lineno in info.raises:
                if not self._caught_by(frames, name):
                    direct.setdefault(name, (qual, lineno))
            table[qual] = direct
        return propagate(table, self._edges, admit=lambda site, exc: (
            not self._caught_by(site.caught, exc)))

    @cached_property
    def escape_issues(self) -> list[Issue]:
        from repro.lint.dataflow_rules import _thread_roots

        escapes = self.escapes
        issues: list[Issue] = []
        for qual, label in sorted(_thread_roots(self.graph).items()):
            info = self.graph.functions.get(qual)
            if info is None:
                continue
            for exc in sorted(escapes.get(qual, {})):
                if exc in self.error_classes or exc in _EXEMPT_ESCAPES:
                    continue
                origin_qual, origin_line = escapes[qual][exc]
                origin = self.graph.functions.get(origin_qual)
                where = (f"{origin.module}:{origin_line}" if origin is not None
                         else f"line {origin_line}")
                via = ("raised directly" if origin_qual == qual
                       else f"raised in {_short(origin_qual)} ({where})")
                issues.append(Issue(
                    module=info.module, line=info.lineno, col=0,
                    message=f"{exc} can escape worker entry point "
                            f"{label} ({via}); an uncaught exception kills "
                            "the worker instead of answering 5xx — catch "
                            "it or raise a ReproError subclass"))
        return issues

    # -- GL15 ---------------------------------------------------------------

    @cached_property
    def resource_issues(self) -> list[Issue]:
        issues: list[Issue] = []
        ownership: dict[str, dict[str, tuple[str, int, str]]] = {}
        for qual in sorted(self.graph.functions):
            node = self._nodes.get(qual)
            if node is None:
                continue
            info = self.graph.functions[qual]
            walker = _Typestate(self, info, node)
            walker.run()
            issues.extend(walker.issues)
            if info.cls is not None:
                owned = ownership.setdefault(info.cls, {})
                for attr, (kind, line) in walker.owned.items():
                    owned.setdefault(attr, (kind, line, info.module))
        issues.extend(self._ownership_issues(ownership))
        return issues

    def _ownership_issues(
            self, ownership: dict[str, dict[str, tuple[str, int, str]]],
    ) -> list[Issue]:
        """Classes owning resources must release them from some method."""
        issues: list[Issue] = []
        for cls_name in sorted(ownership):
            releasers = self._class_releasers(cls_name)
            for attr, (kind, line, module) in sorted(
                    ownership[cls_name].items()):
                if attr in releasers:
                    continue
                issues.append(Issue(
                    module=module, line=line, col=0,
                    message=f"{cls_name} stores a {kind} in self.{attr} "
                            f"(line {line}) but no method of the class "
                            "releases it — add a close/stop teardown that "
                            "does"))
        return issues

    def _class_releasers(self, cls_name: str) -> set[str]:
        """Attrs of ``cls_name`` some method both reads and releases."""
        out: set[str] = set()
        for name in closure([cls_name], self.graph.bases):
            for cls in self.graph.classes.get(name, []):
                for method in cls.methods.values():
                    # A method releases either by calling close/stop/...
                    # on something, or by *being* the teardown (its own
                    # name is a release verb, delegating the actual call
                    # to a helper like ``_hangup(self._conn)``).
                    if (method.name in _RELEASE_METHODS
                            or any(s.name in _RELEASE_METHODS
                                   for s in method.calls)):
                        out |= method.self_attr_reads
        return out

    # -- GL17 ---------------------------------------------------------------

    @cached_property
    def _marker_funcs(self) -> frozenset[str]:
        """Functions that lexically call ``backoff_s``/``charge_s``."""
        return frozenset(
            q for q, f in self.graph.functions.items()
            if any(s.name in _RETRY_MARKERS for s in f.calls))

    def _retry_spans(self, qual: str) -> list[tuple[int, int]]:
        """Line spans of retry-driven loops in one function.

        A loop without a marker of its own is retry-driven when it calls
        a function that has one.
        """
        loops = self.graph.functions[qual].loops
        spans = [(lo, hi) for lo, hi, retry in loops if retry]
        spans += [(lo, hi) for lo, hi, retry in loops if not retry and any(
            lo <= site.lineno <= hi and target in self._marker_funcs
            for site, target in self._edges(qual))]
        return spans

    @cached_property
    def _suspect_writes(self) -> dict[str, dict[tuple[str, str], int]]:
        """Transitive at-most-once mutations: qual -> {(attr, kind): line}.

        Annotated functions keep their own writes but neither receive
        nor pass on their callees'.
        """
        annotated = self._idempotent_lines
        table: dict[str, dict[tuple[str, str], int]] = {}
        for qual, info in self.graph.functions.items():
            mine: dict[tuple[str, str], int] = {}
            for w in info.writes:
                if w.kind in _SUSPECT_WRITE_KINDS:
                    mine.setdefault((w.attr, w.kind), w.lineno)
            table[qual] = mine
        return propagate(table, lambda qual: [] if qual in annotated else [
            (site, target) for site, target in self._edges(qual)
            if target not in annotated])

    @cached_property
    def retry_issues(self) -> list[Issue]:
        issues: list[Issue] = []
        writes = self._suspect_writes
        annotated = self._idempotent_lines
        for qual in sorted(self.graph.functions):
            info = self.graph.functions[qual]
            spans = self._retry_spans(qual)
            if spans and qual not in annotated:
                issues.extend(self._loop_issues(info, spans, writes))
            # Propagation never enters annotated functions, so look one
            # call level deep by hand: an annotation is stale only if
            # neither the function nor anything it calls performs an
            # at-most-once mutation.
            if (qual in annotated and not spans and not writes[qual]
                    and not any(writes.get(target)
                                for _site, target in self._edges(qual))):
                issues.append(Issue(
                    module=info.module, line=annotated[qual], col=0,
                    message=f"stale '# gl: idempotent' on "
                            f"{_short(qual)}: it performs no "
                            "at-most-once mutations — drop the "
                            "annotation"))
        return issues

    def _loop_issues(self, info: FunctionInfo, spans: list[tuple[int, int]],
                     writes: dict[str, dict[tuple[str, str], int]],
                     ) -> list[Issue]:
        issues: list[Issue] = []

        def in_span(line: int) -> bool:
            return any(lo <= line <= hi for lo, hi in spans)

        for w in info.writes:
            if w.kind in _SUSPECT_WRITE_KINDS and in_span(w.lineno):
                verb = ("bumps" if w.kind == "augassign" else "mutates")
                issues.append(Issue(
                    module=info.module, line=w.lineno, col=w.col,
                    message=f"{_short(info.qualname)} {verb} "
                            f"self.{w.attr} inside its retry loop; a "
                            "retried attempt double-applies it — make the "
                            "write idempotent or annotate the function "
                            "'# gl: idempotent'"))
        reported: set[str] = set()
        for site, target in self._edges(info.qualname):
            if (not in_span(site.lineno) or target in self._idempotent_lines
                    or not writes.get(target) or target in reported):
                continue
            reported.add(target)
            (attr, kind), line = next(iter(writes[target].items()))
            verb = "bumps" if kind == "augassign" else "mutates"
            issues.append(Issue(
                module=info.module, line=site.lineno, col=site.col,
                message=f"{_short(target)}() runs under "
                        f"{_short(info.qualname)}'s retry loop and "
                        f"{verb} {attr} (line {line}); retries "
                        "double-apply it — make it pure or annotate it "
                        "'# gl: idempotent'"))
        return issues

    # -- GL18 ---------------------------------------------------------------

    @cached_property
    def _digest_scope(self) -> frozenset[str]:
        """``cache_key``/``lab_snapshot_key`` and everything they call."""
        return frozenset(closure(
            (q for q, f in self.graph.functions.items()
             if f.name in _DIGEST_FUNCS), self.graph.callees))

    @cached_property
    def _mutable_globals(self) -> dict[str, dict[str, int]]:
        """Module path -> {global name: definition line} (mutated only)."""
        defined: dict[str, dict[str, int]] = {}
        for path, found in self.graph.container_globals.items():
            names = {name: line for name, line, ctor in found
                     if ctor is None or ctor in _MUTABLE_CTORS
                     or ctor in self.graph.classes}
            if names:
                defined[path] = names
        # Keep only globals some function in the same module mutates.
        out: dict[str, dict[str, int]] = {}
        for info in self.graph.functions.values():
            names = defined.get(info.module, {})
            hit = {
                g for g in names
                if g in info.global_writes
                or any(recv == g and meth in _GL18_MUTATORS
                       for recv, meth in info.recv_calls)}
            if hit:
                bucket = out.setdefault(info.module, {})
                for g in hit:
                    bucket[g] = names[g]
        return out

    @cached_property
    def _mutable_class_attrs(self) -> dict[str, set[str]]:
        """Class name -> class-level mutable attrs some method mutates."""
        out: dict[str, set[str]] = {}
        for name, infos in self.graph.classes.items():
            attrs = set().union(*(cls.container_attrs for cls in infos))
            mutated = {w.attr for cls in infos
                       for method in cls.methods.values()
                       for w in method.writes
                       if w.attr in attrs
                       and w.kind in ("item", "mutcall", "augassign")}
            if mutated:
                out[name] = mutated
        return out

    @cached_property
    def ambient_issues(self) -> list[Issue]:
        reachable = self.graph.reachable_from_roots()
        digest = self._digest_scope
        mutable = self._mutable_globals
        class_attrs = self._mutable_class_attrs
        issues: list[Issue] = []
        for qual in sorted(reachable - digest):
            info = self.graph.functions.get(qual)
            if info is None:
                continue
            for lineno, col in info.env_reads[:1]:
                issues.append(Issue(
                    module=info.module, line=lineno, col=col,
                    message=f"{_short(qual)} reads an environment "
                            "variable on the cached-compute path, but "
                            "cache_key never digests it — a changed "
                            "environment serves a stale cached result"))
            for g, def_line in sorted(mutable.get(info.module, {}).items()):
                read = info.name_reads.get(g)
                if read is None:
                    continue
                issues.append(Issue(
                    module=info.module, line=read[0], col=read[1],
                    message=f"{_short(qual)} reads mutated module "
                            f"global '{g}' (defined line {def_line}) on "
                            "the cached-compute path; its contents can "
                            "influence a result cache_key never sees"))
            for attr in sorted(class_attrs.get(info.cls or "", ())):
                if attr not in info.self_attr_reads:
                    continue
                issues.append(Issue(
                    module=info.module, line=info.lineno, col=0,
                    message=f"{_short(qual)} reads mutable class "
                            f"attribute {info.cls}.{attr} (shared "
                            "across instances) on the cached-compute "
                            "path without digesting it into "
                            "cache_key"))
        return issues
