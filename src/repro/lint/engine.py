"""Greenlint's core: findings, the rule registry, and the lint driver.

The engine parses every target file once, builds project-wide tables
(callable signatures for GL5, the ``ReproError`` class hierarchy for
GL3), then runs each registered rule over each module.  Suppressions are
line-scoped comments::

    x = legacy_flags < (1 << 16)   # greenlint: ignore[GL2]
    y = whatever()                 # greenlint: ignore

and a file can opt out entirely with ``# greenlint: skip-file`` in its
first ten lines.  Suppressions are counted, not silently dropped, so the
reporter can surface how many findings a tree is carrying.
"""

from __future__ import annotations

import ast
import os
import re
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Sequence

from repro.errors import ConfigError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.lint.dataflow import DimDataflow
    from repro.lint.effects import EffectAnalysis
    from repro.lint.graph import ModuleSummary, ProjectGraph

SEVERITIES = ("error", "warning")

#: Rule scopes: ``file`` rules are pure functions of one module's source
#: and its summary (cacheable per file); ``project`` rules read
#: whole-program state (the call graph, the dataflow fixpoint) and always
#: run fresh, over summaries that are themselves cached.
SCOPES = ("file", "project")

_IGNORE_RE = re.compile(
    r"#\s*greenlint:\s*ignore(?:\[(?P<codes>[A-Za-z0-9_,\s]+)\])?"
)
_SKIP_FILE_RE = re.compile(r"#\s*greenlint:\s*skip-file")


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    code: str
    severity: str
    path: str
    line: int
    col: int
    message: str

    def sort_key(self) -> tuple:
        return (self.path, self.line, self.col, self.code, self.message)

    def format(self) -> str:
        """Render as the canonical ``path:line:col CODE message`` line."""
        return f"{self.path}:{self.line}:{self.col} {self.code} {self.message}"


@dataclass(frozen=True)
class Rule:
    """A registered greenlint rule."""

    code: str
    name: str
    severity: str
    description: str
    check: Callable[[ModuleContext], Iterable[Finding]]
    #: Base filenames this rule never applies to (e.g. ``units.py`` is
    #: allowed to define the very constants GL2 bans elsewhere).
    exempt_files: tuple[str, ...] = ()
    #: ``file`` (per-module, cacheable) or ``project`` (whole-program).
    scope: str = "file"


#: Registry of rules by code, populated by the :func:`rule` decorator.
RULES: dict[str, Rule] = {}


def rule(code: str, name: str, severity: str = "error",
         exempt_files: Sequence[str] = (), scope: str = "file") -> Callable:
    """Class/function decorator registering a greenlint rule checker."""
    if severity not in SEVERITIES:
        raise ConfigError(f"unknown severity {severity!r}")
    if scope not in SCOPES:
        raise ConfigError(f"unknown rule scope {scope!r}")

    def register(check: Callable[[ModuleContext], Iterable[Finding]],
                 ) -> Callable[[ModuleContext], Iterable[Finding]]:
        if code in RULES:
            raise ConfigError(f"duplicate rule code {code}")
        RULES[code] = Rule(
            code=code,
            name=name,
            severity=severity,
            description=(check.__doc__ or "").strip().splitlines()[0]
            if check.__doc__ else name,
            check=check,
            exempt_files=tuple(exempt_files),
            scope=scope,
        )
        return check

    return register


# ---------------------------------------------------------------------------
# Contexts
# ---------------------------------------------------------------------------

@dataclass
class CallableSig:
    """Positional parameter names of a project function/constructor."""

    params: tuple[str, ...]
    has_vararg: bool = False


@dataclass
class ProjectContext:
    """Cross-file knowledge shared by all rules.

    ``signatures`` maps a simple callable name (function, method, or
    class constructor) to every distinct signature seen under that name;
    rules only act when the name resolves unambiguously.
    ``error_classes`` holds every class transitively derived from
    ``ReproError`` anywhere in the linted tree.  ``graph`` is the
    whole-program call graph the cross-module rules (GL6–GL10) query;
    the driver builds it once over every parsed module.  ``dataflow``
    is the interprocedural dimension analysis (GL11/GL12) layered on
    the graph; its fixpoint runs lazily on first query.  ``effects``
    is the resource/effect summary layer (GL15–GL18), equally lazy.
    """

    signatures: dict[str, list[CallableSig]] = field(default_factory=dict)
    error_classes: set[str] = field(default_factory=set)
    graph: ProjectGraph | None = None
    dataflow: DimDataflow | None = None
    effects: EffectAnalysis | None = None

    def add_signature(self, name: str, sig: CallableSig) -> None:
        sigs = self.signatures.setdefault(name, [])
        if all(sig.params != s.params for s in sigs):
            sigs.append(sig)

    def unique_signature(self, name: str) -> CallableSig | None:
        sigs = self.signatures.get(name)
        if sigs and len(sigs) == 1:
            return sigs[0]
        return None


@dataclass
class ModuleContext:
    """One parsed module, ready for rule checks."""

    path: str
    source: str
    tree: ast.Module
    project: ProjectContext

    @property
    def basename(self) -> str:
        return os.path.basename(self.path)

    @cached_property
    def summary(self) -> ModuleSummary:
        """The module's graph summary, walked once for GL13 and the graph."""
        from repro.lint.graph import summarize_module

        return summarize_module(self.path, self.source, self.tree)

    @cached_property
    def function_nodes(
            self) -> dict[str, ast.FunctionDef | ast.AsyncFunctionDef]:
        """Qualname -> definition, shared by the dataflow and GL15 walks."""
        from repro.lint.graph import index_functions

        return index_functions(self.path, self.tree)


# ---------------------------------------------------------------------------
# Project-table construction
# ---------------------------------------------------------------------------

def _params_of(fn: ast.FunctionDef | ast.AsyncFunctionDef,
               drop_self: bool) -> CallableSig:
    args = fn.args
    names = [a.arg for a in (*args.posonlyargs, *args.args)]
    if drop_self and names and names[0] in ("self", "cls"):
        names = names[1:]
    return CallableSig(tuple(names), has_vararg=args.vararg is not None)


def _collect_signatures(tree: ast.Module, project: ProjectContext) -> None:
    class Collector(ast.NodeVisitor):
        def __init__(self) -> None:
            self.class_depth = 0

        def visit_ClassDef(self, node: ast.ClassDef) -> None:
            init = next(
                (n for n in node.body
                 if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
                 and n.name == "__init__"),
                None,
            )
            if init is not None:
                project.add_signature(node.name, _params_of(init, drop_self=True))
            else:
                # Dataclass-style: ordered class-level annotated fields
                # become constructor parameters.
                fields = tuple(
                    n.target.id for n in node.body
                    if isinstance(n, ast.AnnAssign)
                    and isinstance(n.target, ast.Name)
                    and not (isinstance(n.annotation, ast.Name)
                             and n.annotation.id == "ClassVar")
                )
                if fields:
                    project.add_signature(node.name, CallableSig(fields))
            self.class_depth += 1
            self.generic_visit(node)
            self.class_depth -= 1

        def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
            project.add_signature(
                node.name, _params_of(node, drop_self=self.class_depth > 0))
            self.generic_visit(node)

        visit_AsyncFunctionDef = visit_FunctionDef  # type: ignore[assignment]

    Collector().visit(tree)


def _collect_error_classes(trees: Iterable[ast.Module],
                           project: ProjectContext) -> None:
    bases: dict[str, set[str]] = {}
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                names = set()
                for b in node.bases:
                    if isinstance(b, ast.Name):
                        names.add(b.id)
                    elif isinstance(b, ast.Attribute):
                        names.add(b.attr)
                bases.setdefault(node.name, set()).update(names)
    known = {"ReproError"}
    changed = True
    while changed:
        changed = False
        for cls, parents in bases.items():
            if cls not in known and parents & known:
                known.add(cls)
                changed = True
    project.error_classes = known


# ---------------------------------------------------------------------------
# Suppressions
# ---------------------------------------------------------------------------

def _suppressions(source: str) -> dict[int, frozenset[str] | None]:
    """Map 1-based line number -> suppressed codes (None = all codes)."""
    out: dict[int, frozenset[str] | None] = {}
    for lineno, line in enumerate(source.splitlines(), start=1):
        m = _IGNORE_RE.search(line)
        if not m:
            continue
        codes = m.group("codes")
        if codes is None:
            out[lineno] = None
        else:
            out[lineno] = frozenset(
                c.strip().upper() for c in codes.split(",") if c.strip())
    return out


def _is_skip_file(source: str) -> bool:
    head = source.splitlines()[:10]
    return any(_SKIP_FILE_RE.search(line) for line in head)


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------

@dataclass
class LintResult:
    """Outcome of one lint run."""

    findings: list[Finding]
    files_checked: int
    suppressed: int
    #: Findings matched (and subtracted) by an accepted baseline file.
    baselined: int = 0
    #: Incremental-cache accounting; both stay 0 when caching is off.
    cache_hits: int = 0
    cache_misses: int = 0

    def counts(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for f in self.findings:
            out[f.code] = out.get(f.code, 0) + 1
        return dict(sorted(out.items()))

    def errors(self) -> list[Finding]:
        return [f for f in self.findings if f.severity == "error"]

    def warnings(self) -> list[Finding]:
        return [f for f in self.findings if f.severity == "warning"]


def iter_py_files(paths: Sequence[str]) -> Iterator[str]:
    """Yield every ``.py`` file under the given files/directories."""
    for path in paths:
        if os.path.isfile(path):
            yield path
        elif os.path.isdir(path):
            for dirpath, dirnames, filenames in os.walk(path):
                dirnames[:] = sorted(
                    d for d in dirnames
                    if d not in ("__pycache__", ".git"))
                for fn in sorted(filenames):
                    if fn.endswith(".py"):
                        yield os.path.join(dirpath, fn)
        else:
            raise ConfigError(f"no such file or directory: {path}")


def _select_rules(select: Sequence[str] | None) -> list[Rule]:
    # Import the rule implementations on first use so the registry is
    # populated regardless of which entry point loaded this module.
    from repro.lint import dataflow_rules as _dataflow_rules  # noqa: F401
    from repro.lint import graph_rules as _graph_rules  # noqa: F401
    from repro.lint import lifecycle_rules as _lifecycle_rules  # noqa: F401
    from repro.lint import rules as _rules  # noqa: F401

    if select is None:
        return [RULES[c] for c in sorted(RULES)]
    picked = []
    for code in select:
        code = code.strip().upper()
        if code not in RULES:
            raise ConfigError(
                f"unknown rule code {code!r}; have {sorted(RULES)}")
        picked.append(RULES[code])
    return picked


def _lint_module(ctx: ModuleContext, rules: Sequence[Rule]) -> tuple[list[Finding], int]:
    raw: list[Finding] = []
    for r in rules:
        if ctx.basename in r.exempt_files:
            continue
        raw.extend(r.check(ctx))
    suppress = _suppressions(ctx.source)
    kept: list[Finding] = []
    suppressed = 0
    for f in raw:
        codes = suppress.get(f.line, "missing")
        if codes == "missing":
            kept.append(f)
        elif codes is None or f.code in codes:
            suppressed += 1
        else:
            kept.append(f)
    return kept, suppressed


def lint_source(source: str, path: str = "<string>",
                select: Sequence[str] | None = None,
                project: ProjectContext | None = None) -> LintResult:
    """Lint a single source string (the unit-test entry point)."""
    rules = _select_rules(select)
    try:
        tree = ast.parse(source)
    except SyntaxError as exc:
        finding = Finding(
            code="GL0", severity="error", path=path,
            line=exc.lineno or 1, col=exc.offset or 0,
            message=f"syntax error: {exc.msg}")
        return LintResult([finding], files_checked=1, suppressed=0)
    if _is_skip_file(source):
        return LintResult([], files_checked=1, suppressed=0)
    ctx = ModuleContext(path=path, source=source, tree=tree,
                        project=project if project is not None
                        else ProjectContext())
    if project is None:
        _collect_signatures(tree, ctx.project)
        _collect_error_classes([tree], ctx.project)
    if ctx.project.graph is None:
        from repro.lint.graph import ProjectGraph

        ctx.project.graph = ProjectGraph.build([ctx])
    if ctx.project.dataflow is None:
        from repro.lint.dataflow import DimDataflow

        ctx.project.dataflow = DimDataflow(ctx.project.graph, [ctx])
    if ctx.project.effects is None:
        from repro.lint.effects import EffectAnalysis

        ctx.project.effects = EffectAnalysis(
            ctx.project.graph, [ctx],
            error_classes=ctx.project.error_classes)
    findings, suppressed = _lint_module(ctx, rules)
    findings.sort(key=Finding.sort_key)
    return LintResult(findings, files_checked=1, suppressed=suppressed)


def lint_paths(paths: Sequence[str],
               select: Sequence[str] | None = None,
               cache_dir: str | None = None) -> LintResult:
    """Lint every Python file under ``paths`` with project-wide context.

    With ``cache_dir`` set, per-file work (the file-scope rules and the
    module's graph summary, which carries every fact the whole-program
    rules read) is reused from an on-disk cache keyed by file content,
    and a run that stores entries prunes the cache to its bound;
    project-scope rules always run fresh over the merged summaries.
    """
    rules = _select_rules(select)
    file_rules = [r for r in rules if r.scope == "file"]
    project_rules = [r for r in rules if r.scope == "project"]
    modules: list[ModuleContext] = []
    findings: list[Finding] = []
    project = ProjectContext()
    files_checked = 0
    for path in iter_py_files(paths):
        files_checked += 1
        try:
            with open(path, encoding="utf-8") as fh:
                source = fh.read()
        except OSError as exc:
            raise ConfigError(f"cannot read {path}: {exc}") from exc
        try:
            tree = ast.parse(source, filename=path)
        except SyntaxError as exc:
            findings.append(Finding(
                code="GL0", severity="error", path=path,
                line=exc.lineno or 1, col=exc.offset or 0,
                message=f"syntax error: {exc.msg}"))
            continue
        if _is_skip_file(source):
            continue
        modules.append(ModuleContext(
            path=path, source=source, tree=tree, project=project))
    for ctx in modules:
        _collect_signatures(ctx.tree, project)
    _collect_error_classes((m.tree for m in modules), project)
    from repro.lint.dataflow import DimDataflow
    from repro.lint.graph import ModuleSummary, ProjectGraph

    cache = None
    if cache_dir is not None:
        from repro.lint.cache import LintCache

        cache = LintCache(cache_dir, salt=_cache_salt(file_rules, project))

    # Per-file phase: file-scope rules plus the module's graph summary,
    # served from the cache when the content is unchanged.
    suppressed = 0
    cache_hits = 0
    cache_misses = 0
    summaries: list[ModuleSummary] = []
    for ctx in modules:
        entry = cache.load(ctx.path, ctx.source) if cache is not None else None
        if entry is not None:
            cache_hits += 1
            findings.extend(entry.findings)
            suppressed += entry.suppressed
            summaries.append(entry.summary)
            continue
        kept, n_suppressed = _lint_module(ctx, file_rules)
        findings.extend(kept)
        suppressed += n_suppressed
        summaries.append(ctx.summary)
        if cache is not None:
            cache_misses += 1
            from repro.lint.cache import CacheEntry

            cache.store(ctx.path, ctx.source, CacheEntry(
                findings=kept, suppressed=n_suppressed, summary=ctx.summary))
    if cache is not None and cache_misses:
        cache.prune()

    # Whole-program phase: merge summaries, layer the dataflow analysis
    # on top, and run the project-scope rules fresh.
    project.graph = ProjectGraph.from_summaries(summaries)
    project.dataflow = DimDataflow(project.graph, modules)
    from repro.lint.effects import EffectAnalysis

    project.effects = EffectAnalysis(project.graph, modules,
                                     error_classes=project.error_classes)
    for ctx in modules:
        kept, n_suppressed = _lint_module(ctx, project_rules)
        findings.extend(kept)
        suppressed += n_suppressed
    findings.sort(key=Finding.sort_key)
    return LintResult(findings, files_checked=files_checked,
                      suppressed=suppressed,
                      cache_hits=cache_hits, cache_misses=cache_misses)


def _cache_salt(file_rules: Sequence[Rule], project: ProjectContext) -> str:
    """Everything beyond file content a cached entry depends on.

    File-scope rules read the project tables (GL5 signatures, GL3 error
    classes), so those digests are part of the key: a new overload in
    *any* file conservatively invalidates every entry.  The lint
    package's own sources are hashed too, so editing a rule never
    serves stale findings.
    """
    import hashlib

    h = hashlib.sha256()
    for r in file_rules:
        h.update(f"rule:{r.code}\n".encode())
    for name in sorted(project.signatures):
        for sig in project.signatures[name]:
            h.update(f"sig:{name}:{','.join(sig.params)}"
                     f":{int(sig.has_vararg)}\n".encode())
    for name in sorted(project.error_classes):
        h.update(f"err:{name}\n".encode())
    pkg_dir = os.path.dirname(__file__)
    for fn in sorted(os.listdir(pkg_dir)):
        if fn.endswith(".py"):
            with open(os.path.join(pkg_dir, fn), "rb") as fh:
                h.update(fn.encode() + b"\0" + fh.read())
    return h.hexdigest()
