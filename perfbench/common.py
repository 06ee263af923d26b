"""Shared plumbing of the benchmark: processes, /proc, statistics, output."""

from __future__ import annotations

import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")
#: The seed every experiment input is generated from (the paper seed).
EXPERIMENT_SEED = 2015


def reference() -> dict:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


def program_env() -> dict[str, str]:
    """Environment for a program process started from the checkout root."""
    env = dict(os.environ)
    src = os.path.join(os.getcwd(), "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    env.pop("PYTHONHASHSEED", None)
    return env


def percentile(values: list[float], q: float) -> float:
    """The q-th percentile (0..100) by linear interpolation."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("no samples")
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def median(values: list[float]) -> float:
    return statistics.median(values)


# -- /proc ----------------------------------------------------------------------

_CLK_TCK = os.sysconf("SC_CLK_TCK")


def _read(path: str) -> str | None:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError:
        return None


def proc_cpu_s(pid: int) -> float | None:
    """User + system CPU seconds of one process, from /proc/<pid>/stat."""
    raw = _read(f"/proc/{pid}/stat")
    if raw is None:
        return None
    fields = raw[raw.rindex(")") + 2:].split()
    return (int(fields[11]) + int(fields[12])) / _CLK_TCK


def pid_alive(pid: int) -> bool:
    """Whether ``pid`` is a live (not zombie) process."""
    raw = _read(f"/proc/{pid}/stat")
    return raw is not None and raw[raw.rindex(")") + 2] != "Z"


def proc_hwm_mb(pid: int) -> float | None:
    """Peak resident set (VmHWM) of one process in MiB."""
    raw = _read(f"/proc/{pid}/status")
    if raw is None:
        return None
    for line in raw.splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    return None


def children_of(pid: int) -> list[int]:
    """Direct children of ``pid`` (every thread's children file)."""
    out: list[int] = []
    tasks = f"/proc/{pid}/task"
    try:
        tids = os.listdir(tasks)
    except OSError:
        return out
    for tid in tids:
        raw = _read(f"{tasks}/{tid}/children")
        if raw:
            out.extend(int(p) for p in raw.split())
    return sorted(set(out))


def process_tree(pid: int) -> list[int]:
    """``pid`` and all its descendants."""
    tree, frontier = [], [pid]
    while frontier:
        current = frontier.pop()
        tree.append(current)
        frontier.extend(children_of(current))
    return tree


def leftover_program_processes() -> list[int]:
    """Program processes still running from this checkout.

    Matches ``python -m repro.cli`` and the benchmark's own children
    whose working directory is the checkout root.
    """
    root = os.getcwd()
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit() or int(entry) == os.getpid():
            continue
        raw = _read(f"/proc/{entry}/cmdline")
        if not raw:
            continue
        argv = raw.split("\0")
        if not any(a == "repro.cli" or a.endswith("perfbench/child.py")
                   for a in argv):
            continue
        try:
            if os.readlink(f"/proc/{entry}/cwd") != root:
                continue
        except OSError:
            continue
        found.append(int(entry))
    return found


def stop_process(proc: subprocess.Popen, timeout_s: float = 30.0) -> None:
    """SIGINT, wait, then SIGKILL what is left; always reaps."""
    if proc.poll() is None:
        proc.send_signal(signal.SIGINT)
        try:
            proc.wait(timeout=timeout_s)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


# -- output ---------------------------------------------------------------------


class Report:
    """Every number a run prints: metrics with units and sample counts."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.metrics: dict[str, dict] = {}
        self.diagnostics: dict[str, object] = {}
        #: What the workload leaves for the per-layer metrics of a trace run.
        self.layer_inputs: dict[str, object] = {}

    def op(self, ok: bool, why: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(why)
        return ok

    def put(self, name: str, value: float, unit: str, samples: int,
            raw: float | None = None, note: str = "") -> None:
        self.metrics[name] = {"value": float(value), "unit": unit,
                              "samples": int(samples), "raw": raw,
                              "note": note}

    def emit(self, names: list[str]) -> None:
        """Print the human table, the diagnostics, then the result line."""
        out = sys.stdout
        out.write(f"# workload {self.workload}: attempted {self.attempted}, "
                  f"failed {self.failed}\n")
        for name, m in self.metrics.items():
            raw = "" if m["raw"] is None else f"  raw {m['raw']:.6g}"
            note = f"  [{m['note']}]" if m["note"] else ""
            out.write(f"#   {name:28s} {m['value']:14.6g} {m['unit']:8s}"
                      f" n={m['samples']}{raw}{note}\n")
        for why in self.failures:
            out.write(f"# failed: {why}\n")
        out.write("# diagnostics " + json.dumps(self.diagnostics,
                                                sort_keys=True) + "\n")
        missing = [n for n in names if n not in self.metrics]
        if missing:
            raise RuntimeError(f"metrics not measured: {missing}")
        result = {
            "correct": self.failed == 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {n: {"value": self.metrics[n]["value"],
                            "unit": self.metrics[n]["unit"]}
                        for n in names},
        }
        out.write(json.dumps(result) + "\n")
        out.flush()


def clock() -> float:
    return time.perf_counter()
