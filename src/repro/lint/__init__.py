"""greenlint — AST-based invariant checking for the repro codebase.

The paper's credibility rests on correct energy accounting: joules must
be the integral of watts over seconds.  This package mechanically
enforces the conventions the rest of :mod:`repro` documents informally:

* base-SI quantity suffixes (``_j``/``_w``/``_s``/``_bytes``/``_hz``)
  must combine dimensionally (GL1),
* unit constants come from :mod:`repro.units`, never as magic literals
  (GL2),
* every ``raise`` uses the :class:`~repro.errors.ReproError` hierarchy
  (GL3),
* randomness flows through :mod:`repro.rng` named streams (GL4), and
* quantity-suffixed parameters are passed by keyword (GL5).

On top of those per-file checks, :mod:`repro.lint.graph` builds a
whole-program call graph with per-function purity/lock/energy summaries
that powers the cross-module rules in :mod:`repro.lint.graph_rules`:

* experiment-reachable code is pure and deterministic (GL6),
* ``# gl: guarded-by=<lock>`` fields are written only under their lock
  (GL7),
* the observed lock-acquisition order is cycle-free (GL8),
* energy-carrying results are never dropped (GL9), and
* every scalar ``BlockDevice`` implementer also serves the batched
  path (GL10).

One layer further up, :mod:`repro.lint.dataflow` abstractly interprets
every function over the dimension lattice — propagating units through
assignments, tuple unpacking, and call-return summaries to a fixpoint —
which powers the semantic rules in :mod:`repro.lint.dataflow_rules`:

* no arithmetic/comparison mixes dimensions anywhere along a flow
  (GL11),
* no suffixed name is rebound to another dimension, even through a
  helper return (GL12),
* component sums over accounting records are complete (GL13), and
* no shared attribute is written from two thread roots without a
  common lock — Eraser-style static race detection (GL14).

Finally, :mod:`repro.lint.effects` layers resource/effect summaries
over the same graph, powering the lifecycle rules in
:mod:`repro.lint.lifecycle_rules`:

* acquired resources (sockets, clients, servers, threads, executors,
  temp files) are released, escaped to an owner, or with-managed on
  every path, including exception paths (GL15),
* only :class:`~repro.errors.ReproError` escapes worker entry points —
  ``do_*`` HTTP handlers and thread targets (GL16),
* code re-executed by ``RetryPolicy`` loops carries no at-most-once
  mutation unless annotated ``# gl: idempotent`` (GL17), and
* experiment-reachable code reads no ambient state the sha256
  ``cache_key``/``lab_snapshot_key`` never digests (GL18).

All of these rules read one fact pass: the graph's walk of each module
(:func:`repro.lint.graph.summarize_module`) records every per-function
fact they need, and the whole-program analyses run over the merged
summaries.  ``repro lint`` reuses per-file work — the file-scope rules
(GL1–GL5 and GL13) and each module's summary — via a content-keyed
cache (:mod:`repro.lint.cache`); ``--no-cache`` bypasses it.  Known
pre-existing findings live in ``tools/greenlint-baseline.json`` and are
subtracted by ``repro lint --baseline`` (see
:mod:`repro.lint.baseline`).

Run it with ``repro lint [paths...]`` or programmatically::

    from repro.lint import lint_paths
    result = lint_paths(["src/repro"])
    assert not result.findings

Suppress a single finding with a line comment::

    flags < (1 << 16)   # greenlint: ignore[GL2]  (u16 bitfield, not RAPL)
"""

from repro.lint.baseline import (
    apply_baseline,
    finding_records,
    load_baseline,
    normalize_path,
    write_baseline,
)
from repro.lint.engine import (
    RULES,
    Finding,
    LintResult,
    ModuleContext,
    ProjectContext,
    Rule,
    iter_py_files,
    lint_paths,
    lint_source,
    rule,
)
from repro.lint import dataflow_rules as _dataflow_rules  # noqa: F401  (populates RULES)
from repro.lint import graph_rules as _graph_rules  # noqa: F401  (populates RULES)
from repro.lint import lifecycle_rules as _lifecycle_rules  # noqa: F401  (populates RULES)
from repro.lint import rules as _rules  # noqa: F401  (populates RULES)
from repro.lint.dataflow import DimDataflow
from repro.lint.effects import EffectAnalysis
from repro.lint.graph import ProjectGraph
from repro.lint.report import render_json, render_sarif, render_text

__all__ = [
    "RULES",
    "DimDataflow",
    "EffectAnalysis",
    "Finding",
    "LintResult",
    "ModuleContext",
    "ProjectContext",
    "ProjectGraph",
    "Rule",
    "apply_baseline",
    "finding_records",
    "iter_py_files",
    "lint_paths",
    "lint_source",
    "load_baseline",
    "normalize_path",
    "render_json",
    "render_sarif",
    "render_text",
    "rule",
    "write_baseline",
]
