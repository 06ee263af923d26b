"""The ``reproduce`` workload: the paper reproduction as a researcher runs it.

Fresh child processes each run the 18 registry experiments on one Lab
(the ``repro run all`` path), then one warm child repeats rounds on a
new Lab and reloads from the result cache the rounds fill.  Every
timing is normalized by the probes the children run between phases.
The workload seed has no effect here: the inputs are the paper seed's.
"""

from __future__ import annotations

import hashlib
import json
import os
import select
import subprocess
import sys

from common import (
    Report,
    clock,
    median,
    percentile,
    program_env,
    reference,
)
from probe import Speed, nominal_probe

CHILD = os.path.join(os.path.dirname(os.path.abspath(__file__)), "child.py")
#: Share of the run given to fresh processes; the warm child gets the rest.
FRESH_SHARE = 0.65
#: Nominal seconds of one fresh child, probes included.
FRESH_S = 3.4
#: Nominal seconds the warm child spends before its first measured round.
WARM_START_S = 3.0
#: Cache reloads after each warm round, and the nominal seconds of a
#: round (probes and store included) and of one reload (probe, digest).
RELOADS_PER_ROUND = 12
ROUND_S = 0.9
RELOAD_S = 0.04
#: A child that takes this much longer than planned is killed (a failed op).
CHILD_TIMEOUT_S = 60.0


def _spawn(mode: str, args: dict) -> tuple[subprocess.Popen, float]:
    t_spawn = clock()
    proc = subprocess.Popen([sys.executable, CHILD, mode, json.dumps(args)],
                            stdout=subprocess.PIPE, env=program_env())
    return proc, t_spawn


def _reap(proc: subprocess.Popen, timeout_s: float
          ) -> tuple[dict | None, float, object]:
    """Read the child's result line, wait; (result, exit time, rusage).

    A child still running after ``timeout_s`` is killed; its op fails.
    """
    deadline = clock() + timeout_s
    chunks = []
    while True:
        ready, _, _ = select.select([proc.stdout], [], [],
                                    max(0.0, deadline - clock()))
        if not ready:
            proc.kill()
            break
        chunk = os.read(proc.stdout.fileno(), 1 << 16)
        if not chunk:
            break
        chunks.append(chunk)
    out = b"".join(chunks)
    proc.stdout.close()
    _pid, status, usage = os.wait4(proc.pid, 0)
    t_exit = clock()
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0 or not out.strip():
        return None, t_exit, usage
    return json.loads(out.strip().splitlines()[-1]), t_exit, usage


def _read_results(path: str) -> list[bytes]:
    blobs = []
    with open(path, "rb") as fh:
        while header := fh.read(8):
            blobs.append(fh.read(int.from_bytes(header, "little")))
    return blobs


class _Acc:
    """Per-op samples of one run, normalized and raw."""

    def __init__(self) -> None:
        self.series: dict[str, list[float]] = {}

    def add(self, name: str, value: float) -> None:
        self.series.setdefault(name, []).append(value)

    def get(self, name: str) -> list[float]:
        return self.series.get(name, [])


def _phases(acc: _Acc, speed: Speed, phases: list, regime: str, op: int
            ) -> tuple[float, float]:
    """Normalized wall and CPU seconds of a registry pass, phase by phase.

    In a traced pass, each experiment's layer summary is kept with the
    op it belongs to and the factor that normalizes it.
    """
    wall = cpu = 0.0
    for eid, start, end, cpu_s, layers in phases:
        scale = speed.scale(start, end)
        wall += (end - start) * scale
        cpu += cpu_s * speed.cpu_scale(start, end)
        acc.add(f"exp.{eid}.{regime}_ms", (end - start) * scale * 1e3)
        if layers:
            acc.add(f"layers.{regime}", (op, scale, layers))
    return wall, cpu


def _fresh_op(report: Report, acc: _Acc, nominal: dict, tmp: str,
              digests: list[str], trace: bool, index: int) -> None:
    out_path = os.path.join(tmp, f"fresh-{index}.bin")
    proc, t_spawn = _spawn("fresh", {"out": out_path, "trace": trace})
    res, t_exit, usage = _reap(proc, CHILD_TIMEOUT_S)
    if res is None:
        report.op(False, f"fresh child exited {proc.returncode}")
        return
    speed = Speed(None, nominal, res["probes"])
    first = speed.nominal_wall / res["probes"][0][1]
    startup = (res["enter"] - t_spawn + res["numpy_s"]) * first
    t0, t1, import_cpu = res["import"]
    imported = (t1 - t0) * speed.scale(t0, t1)
    exps, cpu_norm = _phases(acc, speed, res["experiments"], "fresh", index)
    hb0, hb1 = res["handback"]
    tail = (hb1 - hb0 + t_exit - res["end"]) * speed.scale(hb0, hb1)
    setup = startup + imported
    fresh = setup + exps + tail
    probe_wall = sum(s[1] for s in res["probes"])
    probe_cpu = sum(s[2] for s in res["probes"])
    cpu = usage.ru_utime + usage.ru_stime - probe_cpu
    phase_cpu = import_cpu + sum(p[3] for p in res["experiments"])
    # CPU outside the timed phases (start-up, hand-back, exit) is scaled
    # by the first probe, like the start-up wall time.
    cpu_norm += (import_cpu * speed.cpu_scale(t0, t1)
                 + (cpu - phase_cpu) * speed.nominal_cpu / res["probes"][0][2])
    acc.add("setup_s", setup)
    acc.add("fresh_ms", fresh * 1e3)
    if trace:
        acc.add("traced.fresh_ms", fresh * 1e3)
        acc.add("traced.other_ms", (startup + tail) * 1e3)
    acc.add("raw.fresh_ms", (t_exit - t_spawn - probe_wall) * 1e3)
    acc.add("raw.setup_s", res["enter"] - t_spawn + res["numpy_s"] + t1 - t0)
    acc.add("import_ms", imported * 1e3)
    acc.add("cpu_ms", cpu_norm * 1e3)
    acc.add("raw.cpu_ms", cpu * 1e3)
    acc.add("rss_mb", usage.ru_maxrss / 1024.0)
    acc.add("probe_ms", [round(s[1] * 1e3, 3) for s in res["probes"]])
    blobs = _read_results(out_path)
    os.unlink(out_path)
    got = [hashlib.sha256(b).hexdigest() for b in blobs]
    report.op(got == digests, f"fresh child {index}: result digests differ")


def _warm_child(report: Report, acc: _Acc, nominal: dict, tmp: str,
                digests: list[str], trace: bool, rounds: int) -> None:
    cache = os.path.join(tmp, "result-cache")
    proc, _t_spawn = _spawn("warm", {"rounds": rounds, "cache": cache,
                                     "trace": trace,
                                     "reloads": RELOADS_PER_ROUND})
    res, _t_exit, _usage = _reap(
        proc, CHILD_TIMEOUT_S + rounds * (ROUND_S + RELOADS_PER_ROUND * RELOAD_S))
    if res is None:
        report.op(False, f"warm child exited {proc.returncode}")
        return
    speed = Speed(None, nominal, res["probes"])
    # A failed op still did its work: it is timed like the others and
    # counted as failed.
    for index, (phases, got) in enumerate(res["rounds"]):
        report.op(got == digests, f"warm round {index}: digests differ")
        wall, _cpu = _phases(acc, speed, phases, "warm", index)
        acc.add("warm_ms", wall * 1e3)
        acc.add("raw.warm_ms", sum(p[2] - p[1] for p in phases) * 1e3)
    for index, (start, end, layers) in enumerate(res["stores"]):
        scale = speed.scale(start, end)
        acc.add("store_ms", (end - start) * scale * 1e3)
        if layers:
            acc.add("layers.store", (index, scale, layers))
    for index, (start, end, layers, hits, got) in enumerate(res["reloads"]):
        report.op(hits == len(digests) and got == digests,
                  f"reload {index}: {hits} cache hits, or digests differ")
        scale = speed.scale(start, end)
        acc.add("reload_ms", (end - start) * scale * 1e3)
        acc.add("raw.reload_ms", (end - start) * 1e3)
        if layers:
            acc.add("layers.reload", (index, scale, layers))
    acc.add("probe_ms", [round(s[1] * 1e3, 3) for s in res["probes"]])


def run(report: Report, seconds: float, trace: bool, tmp: str) -> None:
    nominal = nominal_probe()
    digests = reference()["digests"]
    acc = _Acc()
    # Op counts follow from the run length at nominal speed, so every
    # run of one length does the same ops in the same order.
    n_fresh = max(2, round(seconds * FRESH_SHARE / FRESH_S))
    warm_s = seconds - n_fresh * FRESH_S - WARM_START_S
    rounds = max(2, round(warm_s / (ROUND_S + RELOADS_PER_ROUND * RELOAD_S)))
    for index in range(n_fresh):
        # In a traced run, every other fresh child runs untraced, so the
        # run also measures what tracing costs.
        traced = trace and index % 2 == 0
        _fresh_op(report, acc, nominal, tmp, digests, traced, index)
        if trace and not traced:
            acc.add("untraced.fresh_ms", acc.get("fresh_ms")[-1])
    _warm_child(report, acc, nominal, tmp, digests, trace, rounds)
    _summarize(report, acc)
    report.layer_inputs["acc"] = acc


def _summarize(report: Report, acc: _Acc) -> None:
    fresh = acc.get("fresh_ms")
    warm = acc.get("warm_ms")
    reload = acc.get("reload_ms")
    if not (fresh and warm and reload):
        return
    report.put("setup_s", median(acc.get("setup_s")), "s", len(fresh),
               median(acc.get("raw.setup_s")),
               "interpreter start + import repro.experiments, fresh child")
    report.put("rss_mb", median(acc.get("rss_mb")), "MB", len(fresh),
               note="peak RSS of a fresh child")
    report.put("cpu_ms_per_op", median(acc.get("cpu_ms")), "ms", len(fresh),
               median(acc.get("raw.cpu_ms")),
               "user+sys CPU of one fresh run-all child")
    report.put("cold_ms", median(fresh), "ms", len(fresh),
               median(acc.get("raw.fresh_ms")),
               "fresh_ms: fresh process, exec to exit, 18 results back")
    report.put("compute_ms", median(warm), "ms", len(warm),
               median(acc.get("raw.warm_ms")),
               "warm_ms: 18 experiments on a new Lab in a warm process")
    report.put("hit_ms", median(reload), "ms", len(reload),
               median(acc.get("raw.reload_ms")),
               "reload_ms: run_experiments reload, 18 disk hits")
    report.put("ops_per_s", 18e3 / median(warm), "1/s", len(warm),
               18e3 / median(acc.get("raw.warm_ms")),
               "experiments per second in warm rounds")
    report.diagnostics["store_ms"] = median(acc.get("store_ms"))
    report.diagnostics["probe_ms"] = acc.get("probe_ms")
    report.diagnostics["reload_p90_ms"] = percentile(reload, 90)
