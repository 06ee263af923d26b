"""Interprocedural dimensional dataflow: abstract interpretation on dims.

GL1 infers dimensions *inside* one module: suffixes, locals, arithmetic.
It is blind to flow through calls — a helper that returns seconds can be
assigned to ``energy_j`` three modules away and nothing notices, because
the helper's name carries no suffix.  This module closes that hole with
a whole-program abstract interpretation over the dimension lattice of
:mod:`repro.lint.dims`:

* the **abstract domain** is ``Dim | None`` (``None`` = unknown/top)
  plus finite tuples of abstract values, so tuple returns and tuple
  unpacking propagate element-wise;
* every function gets a **dimension summary** — parameters bound to
  their suffix dimensions, the body abstractly executed, the return
  dimension joined over all ``return`` statements — and summaries feed
  call sites, iterated to a fixpoint over the call graph (Jacobi style:
  each pass reads the previous pass's table, so recursion converges);
* arithmetic follows the physics exactly as GL1 does (E/T→P, E/D for
  per-byte, addition legal only between equal dimensions);
* dataclass field reads resolve through the field's quantity suffix
  (``sp.avg_total_w`` is watts wherever ``sp`` flowed from).

Every mismatch found carries a **provenance bit**: whether the
conflicting dimension was derived through a call summary or tuple
unpacking — information GL1 cannot see.  The dataflow rules (GL11/GL12)
only report *derived* mismatches, so their findings are disjoint from
GL1's by construction instead of by deduplication.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Sequence

from repro.lint.dims import (
    DIMENSIONLESS,
    Dim,
    div,
    mul,
    pow_,
    suffix_dim,
)
from repro.lint.graph import ProjectGraph

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.lint.engine import ModuleContext

#: Fixpoint safety valve; real summary chains settle in two or three
#: passes (the tree's helper depth), this only bounds pathological code.
MAX_PASSES = 8


def _known(d: Dim | None) -> bool:
    """Dims that participate in mismatch checks (GL1's convention)."""
    return d is not None and d != DIMENSIONLESS


@dataclass(frozen=True)
class AbsVal:
    """One abstract value: a dimension (or tuple) plus its provenance.

    ``derived`` is True when the dimension was obtained through
    information a single-module checker cannot see (a function summary
    or tuple unpacking across a call).
    """

    dim: Dim | None = None
    elems: tuple["AbsVal", ...] | None = None
    derived: bool = False

    def tagged(self, derived: bool) -> "AbsVal":
        if derived == self.derived:
            return self
        return AbsVal(self.dim, self.elems, derived)


UNKNOWN = AbsVal()


@dataclass(frozen=True)
class DimEvent:
    """One dimensional inconsistency witnessed during interpretation."""

    kind: str            #: binop | compare | mix | rebind | store | return
    module: str
    qualname: str
    lineno: int
    col: int
    left: Dim            #: expected/first dimension
    right: Dim           #: actual/second dimension
    detail: str          #: operator verb or target name


#: Return summary: a constant dim, a tuple of dims, or unknown.
Summary = AbsVal


class DimDataflow:
    """Whole-program dimension summaries plus the mismatches they expose.

    Construction only gathers the per-function ASTs from each module's
    index; the fixpoint and the event sweep run lazily on first use, so
    ``--select`` runs that skip GL11/GL12 pay nothing.
    """

    def __init__(self, graph: ProjectGraph,
                 modules: Iterable[ModuleContext]) -> None:
        self.graph = graph
        #: qualname -> function node, from each module's shared index.
        self._nodes = {qual: node for ctx in modules
                       for qual, node in ctx.function_nodes.items()}
        self._summaries: dict[str, Summary] | None = None
        self._events: list[DimEvent] | None = None

    # -- public API ---------------------------------------------------------

    def summaries(self) -> dict[str, Summary]:
        """Fixpoint of per-function dimension summaries."""
        if self._summaries is None:
            self._run()
        return self._summaries  # type: ignore[return-value]

    def events(self) -> list[DimEvent]:
        """Every derived-dimension mismatch in the program, sorted."""
        if self._events is None:
            self._run()
        return self._events  # type: ignore[return-value]

    def summary_for_call(self, name: str) -> Summary:
        """Joined return summary over every project callable ``name``.

        Conservative: if two same-named callables disagree, the call
        resolves to unknown — a wrong summary is worse than none.
        """
        table = self.summaries()
        joined: Summary | None = None
        for info in (*self.graph.methods_by_name.get(name, ()),
                     *self.graph.funcs_by_name.get(name, ())):
            s = table.get(info.qualname, UNKNOWN)
            if joined is None:
                joined = s
            elif s != joined:
                return UNKNOWN
        return joined if joined is not None else UNKNOWN

    # -- fixpoint driver ----------------------------------------------------

    def _run(self) -> None:
        table: dict[str, Summary] = {q: UNKNOWN for q in self._nodes}
        for _ in range(MAX_PASSES):
            nxt: dict[str, Summary] = {}
            self._summaries = table  # summary_for_call reads the old pass
            for qual, node in self._nodes.items():
                nxt[qual] = _Interp(self, qual).summarize(node)
            if nxt == table:
                break
            table = nxt
        self._summaries = table
        # Event sweep: one more interpretation with recording on.
        events: list[DimEvent] = []
        for qual, node in self._nodes.items():
            _Interp(self, qual, events=events).summarize(node)
        seen: set[tuple] = set()
        unique: list[DimEvent] = []
        for e in sorted(events, key=lambda e: (
                e.module, e.lineno, e.col, e.kind, e.detail)):
            key = (e.module, e.lineno, e.col, e.kind, e.left, e.right,
                   e.detail)
            if key not in seen:
                seen.add(key)
                unique.append(e)
        self._events = unique


# ---------------------------------------------------------------------------
# The abstract interpreter
# ---------------------------------------------------------------------------

class _Interp:
    """Abstractly execute one function body over the dimension domain."""

    def __init__(self, flow: DimDataflow, qualname: str,
                 events: list[DimEvent] | None = None) -> None:
        self.flow = flow
        self.module = qualname.rsplit("::", 1)[0]
        self.qualname = qualname
        self.events = events
        self.returns: list[AbsVal] = []
        self.ret_dim: Dim | None = None  # declared by the function's suffix

    # -- entry --------------------------------------------------------------

    def summarize(self, node: ast.FunctionDef | ast.AsyncFunctionDef,
                  ) -> Summary:
        env: dict[str, AbsVal] = {}
        args = node.args
        for a in (*args.posonlyargs, *args.args, *args.kwonlyargs):
            env[a.arg] = AbsVal(suffix_dim(a.arg))
        self.ret_dim = suffix_dim(node.name)
        for stmt in node.body:
            self.exec_stmt(stmt, env)
        if self.ret_dim is not None:
            # The suffix is the declared contract; GL1 checks the body
            # against it, callers trust it.
            return AbsVal(self.ret_dim)
        return self._join(self.returns)

    @staticmethod
    def _join(values: Sequence[AbsVal]) -> AbsVal:
        known = [v for v in values if v.dim is not None or v.elems is not None]
        if not known:
            return UNKNOWN
        first = known[0]
        for v in known[1:]:
            if v.dim != first.dim or v.elems != first.elems:
                return UNKNOWN
        return first

    # -- events -------------------------------------------------------------

    def _event(self, kind: str, node: ast.AST, left: Dim, right: Dim,
               detail: str, derived: bool) -> None:
        if self.events is None or not derived:
            return
        self.events.append(DimEvent(
            kind=kind, module=self.module, qualname=self.qualname,
            lineno=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            left=left, right=right, detail=detail))

    # -- expressions --------------------------------------------------------

    def eval(self, node: ast.expr | None, env: dict[str, AbsVal]) -> AbsVal:
        if node is None:
            return UNKNOWN
        if isinstance(node, ast.Constant):
            if isinstance(node.value, bool):
                return UNKNOWN
            if isinstance(node.value, (int, float)):
                return AbsVal(DIMENSIONLESS)
            return UNKNOWN
        if isinstance(node, ast.Name):
            sd = suffix_dim(node.id)
            if sd is not None:
                return AbsVal(sd)
            return env.get(node.id, UNKNOWN)
        if isinstance(node, ast.Attribute):
            self.eval(node.value, env)
            sd = suffix_dim(node.attr)
            return AbsVal(sd) if sd is not None else UNKNOWN
        if isinstance(node, ast.Subscript):
            v = self.eval(node.value, env)
            idx = self.eval(node.slice, env)
            del idx
            if (v.elems is not None and isinstance(node.slice, ast.Constant)
                    and isinstance(node.slice.value, int)
                    and -len(v.elems) <= node.slice.value < len(v.elems)):
                return v.elems[node.slice.value].tagged(
                    v.elems[node.slice.value].derived or v.derived)
            return AbsVal(v.dim, None, v.derived)
        if isinstance(node, ast.BinOp):
            return self._binop(node, env)
        if isinstance(node, ast.UnaryOp):
            v = self.eval(node.operand, env)
            return v if isinstance(node.op, (ast.USub, ast.UAdd)) else UNKNOWN
        if isinstance(node, ast.BoolOp):
            for v in node.values:
                self.eval(v, env)
            return UNKNOWN
        if isinstance(node, ast.Compare):
            return self._compare(node, env)
        if isinstance(node, ast.Call):
            return self._call(node, env)
        if isinstance(node, ast.IfExp):
            self.eval(node.test, env)
            return self._join([self.eval(node.body, env),
                               self.eval(node.orelse, env)])
        if isinstance(node, ast.Tuple):
            elems = tuple(self.eval(e, env) for e in node.elts)
            return AbsVal(None, elems)
        if isinstance(node, (ast.List, ast.Set)):
            for e in node.elts:
                self.eval(e, env)
            return UNKNOWN
        if isinstance(node, ast.Dict):
            for k in node.keys:
                if k is not None:
                    self.eval(k, env)
            for v in node.values:
                self.eval(v, env)
            return UNKNOWN
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp)):
            self._comprehension(node.generators, env)
            self.eval(node.elt, dict(env))
            return UNKNOWN
        if isinstance(node, ast.DictComp):
            self._comprehension(node.generators, env)
            scope = dict(env)
            self.eval(node.key, scope)
            self.eval(node.value, scope)
            return UNKNOWN
        if isinstance(node, ast.Lambda):
            return UNKNOWN
        if isinstance(node, ast.JoinedStr):
            for v in node.values:
                if isinstance(v, ast.FormattedValue):
                    self.eval(v.value, env)
            return UNKNOWN
        if isinstance(node, ast.Starred):
            return self.eval(node.value, env)
        if isinstance(node, (ast.Await, ast.YieldFrom)):
            return self.eval(node.value, env)
        if isinstance(node, ast.Yield):
            if node.value is not None:
                self.eval(node.value, env)
            return UNKNOWN
        if isinstance(node, ast.Slice):
            for part in (node.lower, node.upper, node.step):
                if part is not None:
                    self.eval(part, env)
            return UNKNOWN
        if isinstance(node, ast.NamedExpr):
            v = self.eval(node.value, env)
            self._assign(node.target, v, env)
            return v
        return UNKNOWN

    def _comprehension(self, generators: list, env: dict[str, AbsVal]) -> None:
        for gen in generators:
            self.eval(gen.iter, env)
            self._clear(gen.target, env)
            for cond in gen.ifs:
                self.eval(cond, env)

    def _binop(self, node: ast.BinOp, env: dict[str, AbsVal]) -> AbsVal:
        lv = self.eval(node.left, env)
        rv = self.eval(node.right, env)
        derived = lv.derived or rv.derived
        left, right = lv.dim, rv.dim
        op = node.op
        if isinstance(op, (ast.Add, ast.Sub)):
            if _known(left) and _known(right) and left != right:
                verb = "adding" if isinstance(op, ast.Add) else "subtracting"
                self._event("binop", node, left, right, verb, derived)
            if left is None or right is None:
                return UNKNOWN
            return AbsVal(right if left == DIMENSIONLESS else left,
                          None, derived)
        if left is None or right is None:
            if isinstance(op, ast.Pow) and left == DIMENSIONLESS:
                return AbsVal(DIMENSIONLESS, None, lv.derived)
            return UNKNOWN
        if isinstance(op, ast.Mult):
            return AbsVal(mul(left, right), None, derived)
        if isinstance(op, (ast.Div, ast.FloorDiv)):
            return AbsVal(div(left, right), None, derived)
        if isinstance(op, ast.Mod):
            return AbsVal(left, None, lv.derived)
        if isinstance(op, ast.Pow):
            if left == DIMENSIONLESS:
                return AbsVal(DIMENSIONLESS, None, lv.derived)
            if (isinstance(node.right, ast.Constant)
                    and isinstance(node.right.value, int)
                    and abs(node.right.value) <= 8):
                return AbsVal(pow_(left, node.right.value), None, lv.derived)
        return UNKNOWN

    _CHECKED_CMPOPS = (ast.Lt, ast.LtE, ast.Gt, ast.GtE, ast.Eq, ast.NotEq)

    def _compare(self, node: ast.Compare, env: dict[str, AbsVal]) -> AbsVal:
        vals = [self.eval(node.left, env)]
        vals += [self.eval(c, env) for c in node.comparators]
        for a, op, b in zip(vals, node.ops, vals[1:]):
            if (isinstance(op, self._CHECKED_CMPOPS)
                    and _known(a.dim) and _known(b.dim) and a.dim != b.dim):
                self._event("compare", node, a.dim, b.dim, "comparing",
                            a.derived or b.derived)
        return UNKNOWN

    def _call(self, node: ast.Call, env: dict[str, AbsVal]) -> AbsVal:
        func = node.func
        fname: str | None = None
        if isinstance(func, ast.Attribute):
            self.eval(func.value, env)
            fname = func.attr
        elif isinstance(func, ast.Name):
            fname = func.id
        else:
            self.eval(func, env)
        argvals = [self.eval(a, env) for a in node.args]
        for kw in node.keywords:
            self.eval(kw.value, env)
        if fname in ("abs", "float", "round"):
            return argvals[0] if argvals else UNKNOWN
        if fname in ("min", "max", "sum") and len(argvals) >= 2:
            known = [v for v in argvals if _known(v.dim)]
            for a, b in zip(known, known[1:]):
                if a.dim != b.dim:
                    self._event("mix", node, a.dim, b.dim, f"{fname}()",
                                a.derived or b.derived)
            if known:
                return known[0]
            return UNKNOWN
        if fname is None:
            return UNKNOWN
        sd = suffix_dim(fname)
        if sd is not None:
            return AbsVal(sd)
        summary = self.flow.summary_for_call(fname)
        if summary.dim is not None and summary.dim != DIMENSIONLESS:
            return AbsVal(summary.dim, None, True)
        if summary.elems is not None:
            return AbsVal(None, tuple(e.tagged(True) for e in summary.elems))
        return UNKNOWN

    # -- statements ---------------------------------------------------------

    def exec_stmt(self, stmt: ast.stmt, env: dict[str, AbsVal]) -> None:
        if isinstance(stmt, ast.Expr):
            self.eval(stmt.value, env)
        elif isinstance(stmt, ast.Assign):
            v = self.eval(stmt.value, env)
            for target in stmt.targets:
                self._assign(target, v, env)
        elif isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                self._assign(stmt.target, self.eval(stmt.value, env), env)
        elif isinstance(stmt, ast.AugAssign):
            tv = self.eval(stmt.target, env)
            vv = self.eval(stmt.value, env)
            if (isinstance(stmt.op, (ast.Add, ast.Sub))
                    and _known(tv.dim) and _known(vv.dim)
                    and tv.dim != vv.dim):
                self._event("rebind", stmt, tv.dim, vv.dim, "augmenting",
                            tv.derived or vv.derived)
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                v = self.eval(stmt.value, env)
                self.returns.append(v)
                if (self.ret_dim is not None and _known(v.dim)
                        and v.dim != self.ret_dim):
                    self._event("return", stmt, self.ret_dim, v.dim,
                                self.qualname.rsplit("::", 1)[-1], v.derived)
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for dec in stmt.decorator_list:
                self.eval(dec, env)
            # The body is indexed and interpreted as its own function.
        elif isinstance(stmt, ast.ClassDef):
            for dec in stmt.decorator_list:
                self.eval(dec, env)
        elif isinstance(stmt, ast.If):
            self.eval(stmt.test, env)
            self._exec_body(stmt.body, env)
            self._exec_body(stmt.orelse, env)
        elif isinstance(stmt, ast.While):
            self.eval(stmt.test, env)
            self._exec_body(stmt.body, env)
            self._exec_body(stmt.orelse, env)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            self.eval(stmt.iter, env)
            self._clear(stmt.target, env)
            self._exec_body(stmt.body, env)
            self._exec_body(stmt.orelse, env)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                self.eval(item.context_expr, env)
                if item.optional_vars is not None:
                    self._clear(item.optional_vars, env)
            self._exec_body(stmt.body, env)
        elif isinstance(stmt, ast.Try):
            self._exec_body(stmt.body, env)
            for handler in stmt.handlers:
                if handler.type is not None:
                    self.eval(handler.type, env)
                self._exec_body(handler.body, env)
            self._exec_body(stmt.orelse, env)
            self._exec_body(stmt.finalbody, env)
        elif isinstance(stmt, ast.Raise):
            if stmt.exc is not None:
                self.eval(stmt.exc, env)
            if stmt.cause is not None:
                self.eval(stmt.cause, env)
        elif isinstance(stmt, ast.Assert):
            self.eval(stmt.test, env)
            if stmt.msg is not None:
                self.eval(stmt.msg, env)
        elif isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    env.pop(target.id, None)
        elif isinstance(stmt, ast.Match):
            self.eval(stmt.subject, env)
            for case in stmt.cases:
                if case.guard is not None:
                    self.eval(case.guard, env)
                self._exec_body(case.body, env)

    def _exec_body(self, body: list, env: dict[str, AbsVal]) -> None:
        for stmt in body:
            self.exec_stmt(stmt, env)

    # -- assignment targets -------------------------------------------------

    def _assign(self, target: ast.expr, v: AbsVal,
                env: dict[str, AbsVal]) -> None:
        if isinstance(target, ast.Name):
            declared = suffix_dim(target.id)
            if declared is not None:
                if _known(v.dim) and v.dim != declared:
                    self._event("rebind", target, declared, v.dim,
                                target.id, v.derived)
                env[target.id] = AbsVal(declared)
            else:
                env[target.id] = v
        elif isinstance(target, ast.Attribute):
            self.eval(target.value, env)
            declared = suffix_dim(target.attr)
            if declared is not None and _known(v.dim) and v.dim != declared:
                self._event("rebind", target, declared, v.dim,
                            target.attr, v.derived)
        elif isinstance(target, ast.Subscript):
            container = self.eval(target.value, env)
            self.eval(target.slice, env)
            if (_known(container.dim) and _known(v.dim)
                    and container.dim != v.dim):
                self._event("store", target, container.dim, v.dim, "storing",
                            container.derived or v.derived)
        elif isinstance(target, (ast.Tuple, ast.List)):
            if v.elems is not None and len(v.elems) == len(target.elts):
                for elt, ev in zip(target.elts, v.elems):
                    self._assign(elt, ev.tagged(ev.derived or v.derived), env)
            else:
                for elt in target.elts:
                    self._clear(elt, env)
        elif isinstance(target, ast.Starred):
            self._clear(target.value, env)

    def _clear(self, target: ast.expr, env: dict[str, AbsVal]) -> None:
        self._assign(target, UNKNOWN, env)

