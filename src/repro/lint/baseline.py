"""Findings baselines: land strict rules without blocking on old debt.

A baseline is a committed JSON snapshot of known findings
(``tools/greenlint-baseline.json``).  ``repro lint --baseline FILE``
subtracts baselined findings from the run, so new rules gate *new*
violations immediately while pre-existing ones stay visible (counted,
listed in the file, reviewable) instead of blocking the rollout.

Matching is by ``(code, path, message)`` — deliberately not by line, so
unrelated edits above a baselined finding do not invalidate it.  Line
numbers a message quotes (``"defined line 80"``) are masked to
``line N`` on both sides for the same reason.  Paths
are normalized (relative to the working directory where possible, POSIX
separators) so the same baseline works across checkouts and operating
systems.  The match is exact in multiset terms: every baseline entry
must correspond to a live finding, otherwise it is *stale* and the lint
run fails until the file is regenerated with ``--write-baseline`` —
baselines may only ever shrink by being re-recorded, never silently.
"""

from __future__ import annotations

import json
import os
import re
from collections import Counter
from dataclasses import replace
from typing import Iterable

from repro.errors import ConfigError
from repro.lint.engine import Finding, LintResult

BASELINE_VERSION = 1

BaselineKey = tuple[str, str, str]

#: A source line a message cites, e.g. "acquired at line 12".
_LINE_RE = re.compile(r"\bline \d+")


def _mask_lines(message: str) -> str:
    return _LINE_RE.sub("line N", message)


def normalize_path(path: str) -> str:
    """Stable cross-filesystem spelling of a finding path."""
    abspath = os.path.abspath(path)
    cwd = os.getcwd()
    if abspath == cwd or abspath.startswith(cwd + os.sep):
        abspath = os.path.relpath(abspath, cwd)
    return abspath.replace(os.sep, "/")


def finding_key(finding: Finding) -> BaselineKey:
    """The identity a baseline entry matches on."""
    return (finding.code, normalize_path(finding.path),
            _mask_lines(finding.message))


def finding_records(findings: Iterable[Finding], *,
                    location: bool = True) -> list[dict]:
    """Normalized, deterministically ordered finding records.

    The single spelling shared by the JSON reporter and the baseline
    writer: paths normalized via :func:`normalize_path`, records sorted
    on the normalized path (then location, code, message) so the same
    tree serializes byte-identically on every filesystem.  With
    ``location=False`` the line/col fields are omitted — the baseline
    identity deliberately excludes them.
    """
    records = []
    for f in findings:
        rec = {"code": f.code, "path": normalize_path(f.path),
               "message": f.message}
        if location:
            rec = {"code": f.code, "severity": f.severity,
                   "path": rec["path"], "line": f.line, "col": f.col,
                   "message": f.message}
        records.append(rec)
    records.sort(key=lambda r: (r["path"], r.get("line", 0), r.get("col", 0),
                                r["code"], r["message"]))
    return records


def load_baseline(path: str) -> Counter[BaselineKey]:
    """Parse a baseline file into a multiset of finding keys."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read baseline {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"baseline {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or "entries" not in doc:
        raise ConfigError(f"baseline {path} lacks an 'entries' list")
    baseline: Counter[BaselineKey] = Counter()
    for i, entry in enumerate(doc["entries"]):
        try:
            key = (str(entry["code"]), str(entry["path"]),
                   _mask_lines(str(entry["message"])))
        except (TypeError, KeyError) as exc:
            raise ConfigError(
                f"baseline {path} entry {i} lacks code/path/message") from exc
        baseline[key] += 1
    return baseline


def write_baseline(path: str, result: LintResult) -> int:
    """Snapshot the run's findings as the new baseline; returns count."""
    entries = finding_records(result.findings, location=False)
    doc = {
        "version": BASELINE_VERSION,
        "tool": "greenlint-baseline",
        "entries": entries,
    }
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=False)
        fh.write("\n")
    return len(entries)


def apply_baseline(
        result: LintResult, baseline: Counter[BaselineKey],
) -> tuple[LintResult, list[BaselineKey]]:
    """Subtract baselined findings; report stale entries.

    Returns ``(new_result, stale)`` where ``new_result`` keeps only
    un-baselined findings (with ``baselined`` counting the subtracted
    ones) and ``stale`` lists baseline entries that matched nothing —
    fixed or vanished findings whose entries must be re-recorded.
    """
    remaining = Counter(baseline)
    kept: list[Finding] = []
    matched = 0
    for finding in result.findings:
        key = finding_key(finding)
        if remaining.get(key, 0) > 0:
            remaining[key] -= 1
            matched += 1
        else:
            kept.append(finding)
    stale = sorted(+remaining)
    new_result = replace(result, findings=kept,
                         baselined=result.baselined + matched)
    return new_result, stale
