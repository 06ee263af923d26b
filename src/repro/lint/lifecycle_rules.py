"""Lifecycle rules GL15–GL18: resources, escapes, retries, cache keys.

All four are project-scope rules over :class:`~repro.lint.effects.
EffectAnalysis`, the resource/effect summary layer on the call graph.
The analysis computes each product once per run and memoizes it; the
rules here only filter the per-module slice so the engine's usual
per-module suppression handling (``# greenlint: ignore[GL15]``) applies.

* **GL15** — every acquired resource (socket, client, server, executor,
  thread, process, temp file) must be released, handed off (returned,
  stored on an owner, passed to a callee), or managed by ``with`` — on
  every path, including exception paths.  Classes that end up owning a
  resource must release it from one of their own methods.
* **GL16** — only :class:`~repro.errors.ReproError` subclasses may
  escape a worker entry point (a ``do_*`` HTTP handler or a thread
  target): anything else kills the worker instead of producing a 5xx.
* **GL17** — code re-executed by a ``RetryPolicy``/``RetrySession``
  loop must not carry at-most-once mutations (``+=`` bumps, container
  pushes) unless annotated ``# gl: idempotent``; stale annotations are
  flagged in reverse so the convention stays honest.
* **GL18** — experiment-reachable code may not read ambient state (env
  vars, mutated module globals, shared mutable class attrs) that the
  sha256 ``cache_key``/``lab_snapshot_key`` never digests: such reads
  make cached results silently stale.
"""

from __future__ import annotations

from typing import Callable, Iterator

from repro.lint.effects import EffectAnalysis, Issue
from repro.lint.engine import Finding, ModuleContext, rule


def _findings(ctx: ModuleContext, code: str,
              issues: Callable[[EffectAnalysis], list[Issue]],
              ) -> Iterator[Finding]:
    """This module's slice of one memoized effect table, as findings."""
    eff = ctx.project.effects
    if eff is None:
        return
    for issue in issues(eff):
        if issue.module == ctx.path:
            yield Finding(code=code, severity="error", path=ctx.path,
                          line=issue.line, col=issue.col,
                          message=issue.message)


@rule("GL15", "resource lifecycle typestate", scope="project")
def check_resource_lifecycle(ctx: ModuleContext) -> Iterator[Finding]:
    """Acquired resources must be released, escaped, or with-managed."""
    return _findings(ctx, "GL15", lambda eff: eff.resource_issues)


@rule("GL16", "worker exception containment", scope="project")
def check_exception_flow(ctx: ModuleContext) -> Iterator[Finding]:
    """Only ReproError may escape HTTP handlers and thread targets."""
    return _findings(ctx, "GL16", lambda eff: eff.escape_issues)


@rule("GL17", "retry idempotence", scope="project")
def check_retry_safety(ctx: ModuleContext) -> Iterator[Finding]:
    """Retried code must be idempotent or annotated '# gl: idempotent'."""
    return _findings(ctx, "GL17", lambda eff: eff.retry_issues)


@rule("GL18", "cache-key soundness", scope="project")
def check_cache_key_soundness(ctx: ModuleContext) -> Iterator[Finding]:
    """Cached computations may not read state cache_key never digests."""
    return _findings(ctx, "GL18", lambda eff: eff.ambient_issues)
