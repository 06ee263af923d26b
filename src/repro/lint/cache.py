"""Incremental lint cache: per-file findings and graph summaries.

``repro lint`` re-lints the whole tree on every invocation; most of
that work is per-file and purely content-determined — the file-scope
rules (GL1–GL5, and GL13, which reads only its own module) and the
module's :class:`~repro.lint.graph.ModuleSummary` are functions of the
source text plus a small amount of project state.  This module persists
exactly that unit under ``tools/out/lint-cache/``:

* the key is ``sha256(salt + path + source)``, where the salt (computed
  by the engine) folds in the selected file-scope rules, the project
  signature/error tables, and the lint package's own sources — any of
  those changing invalidates every entry at once, so a hit is always
  exact;
* the value is a pickled :class:`CacheEntry` — the file's
  post-suppression findings, its suppressed count, and its module
  summary, which the engine merges into the project graph without
  re-walking the AST — in a sha256-checked :mod:`repro.integrity`
  frame.

The summary carries every per-function fact the whole-program rules
read (calls, locks, writes, raises, reads, loop spans, annotations).
What is never cached is what depends on every file: the analyses over
the merged summaries (reachability, lock order, the dimension fixpoint,
GL15's typestate walk, effect propagation) and the project-scope rules
GL6–GL12 and GL14–GL18 that report them.

An entry is unpickled only after its frame's digest checks out, and any
corrupt, truncated, foreign or unreadable entry is a miss that the next
store overwrites; writes go through a temp file and ``os.replace`` so a
killed run never leaves a torn entry behind.  Each salt writes a full
set of entries, so every run that stores one calls :meth:`LintCache.
prune`, which drops the least recently used entries beyond
:data:`MAX_ENTRIES`.  ``repro lint --no-cache`` bypasses the cache
entirely.
"""

from __future__ import annotations

import hashlib
import os
import pickle
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.integrity import frame, unframe, write_file

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.lint.engine import Finding
    from repro.lint.graph import ModuleSummary

#: Default location, relative to the invoking working directory (the
#: repo root for ``tools/check.sh`` and CI).
DEFAULT_CACHE_DIR = os.path.join("tools", "out", "lint-cache")

#: Entry frame magic and format version; other versions read as misses.
MAGIC = b"RPLC"
VERSION = 1

#: Soft bound on resident entries; the prune pass drops the oldest
#: beyond it so an often-edited tree cannot grow the cache unboundedly.
MAX_ENTRIES = 4096


@dataclass
class CacheEntry:
    """Everything per-file work produces for one (salt, path, source)."""

    findings: list[Finding]
    suppressed: int
    summary: ModuleSummary


class LintCache:
    """Content-keyed store of :class:`CacheEntry` pickles."""

    def __init__(self, root: str, salt: str) -> None:
        self.root = root
        self.salt = salt
        os.makedirs(root, exist_ok=True)

    def _entry_path(self, path: str, source: str) -> str:
        digest = hashlib.sha256(
            b"\0".join((self.salt.encode(), path.encode(),
                        source.encode()))).hexdigest()
        return os.path.join(self.root, f"{digest}.pkl")

    def load(self, path: str, source: str) -> CacheEntry | None:
        """The cached entry for this exact content, or None."""
        entry_path = self._entry_path(path, source)
        try:
            with open(entry_path, "rb") as fh:
                blob = fh.read()
        except OSError:
            return None
        try:
            entry = pickle.loads(unframe(blob, MAGIC, VERSION))
        except Exception:
            return None  # corrupt or old-format: a miss, overwritten
        if not isinstance(entry, CacheEntry):
            return None
        # Freshen mtime so the prune pass evicts by recency of use.
        try:
            os.utime(entry_path)
        except OSError:
            pass
        return entry

    def store(self, path: str, source: str, entry: CacheEntry) -> None:
        """Persist an entry; failures are silent (the cache is advisory)."""
        write_file(self._entry_path(path, source),
                   frame(MAGIC, VERSION, pickle.dumps(
                       entry, protocol=pickle.HIGHEST_PROTOCOL)))

    def prune(self) -> int:
        """Drop least-recently-used entries beyond the bound."""
        try:
            names = [n for n in os.listdir(self.root) if n.endswith(".pkl")]
        except OSError:
            return 0
        if len(names) <= MAX_ENTRIES:
            return 0
        stamped = []
        for name in names:
            full = os.path.join(self.root, name)
            try:
                stamped.append((os.path.getmtime(full), full))
            except OSError:
                continue
        stamped.sort()
        removed = 0
        for _mtime, full in stamped[:len(stamped) - MAX_ENTRIES]:
            try:
                os.unlink(full)
                removed += 1
            except OSError:
                continue
        return removed
