"""The ``serve-hot`` and ``serve-churn`` workloads: a ``repro cluster`` under load.

The cluster runs at its CLI defaults (2 shards, 2 replicas, jobs 2, hot
threshold 8, queue depth 64) on ``--port 0`` with a fresh ``--cache``.
Load is closed-loop -- a ``repro query`` caller waits for its reply --
from one process with 2 client threads on 2 keep-alive connections.
It comes in ~1 s bursts with a host-speed probe in the quiet gap after
each; every latency is normalized by the probes around its burst.

The workload seed drives only the op stream: a seeded permutation that
gives the 18 experiment ids their zipf(1.1) popularity ranks, and, in
``serve-churn``, which ops are writes (one in eight).  A write is an
``/invalidate`` followed by a ``/run`` of the same key, which recomputes
it on the owner shard and stores it through the codec to the disk tier.
"""

from __future__ import annotations

import glob
import json
import os
import random
import re
import select
import signal
import subprocess
import sys
import threading
import time

from common import (
    EXPERIMENT_SEED,
    Report,
    clock,
    median,
    percentile,
    pid_alive,
    proc_cpu_s,
    proc_hwm_mb,
    process_tree,
    program_env,
    reference,
    stop_process,
)
from probe import Probe, Speed, nominal_probe

#: Length of one load burst, between two probes.
BURST_S = 1.0
#: Load threads, each with its own keep-alive connection (2 vCPUs).
CLIENTS = 2
#: One op in this many is a write in ``serve-churn``.
WRITE_EVERY = 8
ZIPF_S = 1.1
#: Share of the run spent in load bursts; fresh ``repro query``
#: processes (``cold_ms``) run after every ``QUERY_EVERY``-th burst.
LOAD_SHARE = 0.8
QUERY_EVERY = 2
#: ``serve-hot`` recomputes every key this many times after the load.
RECOMPUTE_PASSES = 5
#: Router ``hot_threshold`` default: cached hits before promotion.
HOT_THRESHOLD = 8
#: In a traced run, every this-many-th read is also sent to its shard.
DIRECT_EVERY = 4
STARTUP_TIMEOUT_S = 120.0
#: Reply timeout of every request; a timed-out request is a failed op.
OP_TIMEOUT_S = 20.0
_STARTUP = re.compile(r"routing \d+ experiments on http://([\d.]+):(\d+) -> "
                      r"\d+ shard\(s\) \[([^\]]*)\]")


def op_stream(seed: int, ids: list[str], churn: bool, n: int
              ) -> list[tuple[str, str]]:
    """``n`` seeded ``(kind, experiment id)`` ops, kind "read" or "write".

    Reads follow zipf ranks from a seeded permutation of the ids.  Writes
    cycle through the ids in seeded order, so every 18 writes recompute
    each experiment once: recompute cost differs 1000-fold between
    experiments, and zipf-ranked or randomly drawn write keys would make
    a run's cost depend on which experiments its seed favoured.
    """
    rng = random.Random(seed)
    ranked = list(ids)
    rng.shuffle(ranked)
    weights = [1.0 / (rank + 1) ** ZIPF_S for rank in range(len(ranked))]
    write_order = list(ids)
    rng.shuffle(write_order)
    ops = []
    writes = 0
    for key in rng.choices(ranked, weights=weights, k=n):
        if churn and rng.randrange(WRITE_EVERY) == 0:
            ops.append(("write", write_order[writes % len(ids)]))
            writes += 1
        else:
            ops.append(("read", key))
    return ops


class Cluster:
    """One ``repro cluster`` subprocess and what its startup line says."""

    def __init__(self, cache: str) -> None:
        self.cache = cache
        env = program_env()
        env["PYTHONUNBUFFERED"] = "1"
        self.t_spawn = clock()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "cluster", "--cache", cache,
             "--port", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, env=env,
            text=True)
        try:
            self.port, self.shard_ports = self._await_startup()
        except RuntimeError:
            self.stop()
            raise
        self.t_ready = clock()

    def _await_startup(self) -> tuple[int, dict[str, int]]:
        deadline = clock() + STARTUP_TIMEOUT_S
        while clock() < deadline:
            ready, _, _ = select.select([self.proc.stdout], [], [], 1.0)
            if not ready:
                if self.proc.poll() is not None:
                    break
                continue
            line = self.proc.stdout.readline()
            if not line:
                break
            match = _STARTUP.search(line)
            if match:
                shards = {}
                for item in match.group(3).split(","):
                    name, port = item.strip().rsplit(":", 1)
                    shards[name] = int(port)
                return int(match.group(2)), shards
        raise RuntimeError("repro cluster printed no startup line")

    def snapshot_s(self) -> float | None:
        """Seconds from spawn until the primed Lab snapshot was written."""
        snaps = glob.glob(os.path.join(self.cache, "lab-*.snap"))
        if not snaps:
            return None
        age = time.time() - os.path.getmtime(snaps[0])
        return (clock() - age) - self.t_spawn

    def tree(self) -> list[int]:
        return process_tree(self.proc.pid)

    def cpu_s(self) -> dict[int, float]:
        out = {}
        for pid in self.tree():
            cpu = proc_cpu_s(pid)
            if cpu is not None:
                out[pid] = cpu
        return out

    def hwm_mb(self) -> float:
        return sum(proc_hwm_mb(pid) or 0.0 for pid in self.tree())

    def stop(self) -> list[int]:
        """SIGINT the CLI and wait; the pids that had to be killed after."""
        tree = self.tree()
        stop_process(self.proc)
        self.proc.stdout.close()
        survivors = [pid for pid in tree if pid_alive(pid)]
        for pid in survivors:
            os.kill(pid, signal.SIGKILL)
        return survivors


class _Load:
    """Shared state of the client threads during one run."""

    def __init__(self, ops: list[tuple[str, str]], digests: dict[str, str],
                 port: int, shard_ports: dict[str, int]) -> None:
        from repro.service.client import ServiceClient

        self.ops = ops
        self.next_op = 0
        self.digests = digests
        self.lock = threading.Lock()
        self.records: list[tuple] = []
        self.direct: list[tuple] = []
        self.clients = [ServiceClient(port=port, read_timeout_s=OP_TIMEOUT_S)
                        for _ in range(CLIENTS)]
        self.shard_clients = [
            {name: ServiceClient(port=p, read_timeout_s=OP_TIMEOUT_S)
             for name, p in shard_ports.items()}
            for _ in range(CLIENTS)]
        self.trace = False
        self.stop_at = 0.0

    def take(self) -> tuple[int, str, str] | None:
        with self.lock:
            if clock() >= self.stop_at:
                return None
            index = self.next_op
            self.next_op += 1
        kind, key = self.ops[index % len(self.ops)]
        return index, kind, key

    def worker(self, slot: int) -> None:
        from repro.errors import ServiceError

        client = self.clients[slot]
        while (item := self.take()) is not None:
            index, kind, key = item
            retries = client.transport_stats()["retries"]
            t0 = clock()
            t_inv = None
            try:
                if kind == "write":
                    client.invalidate(key, EXPERIMENT_SEED)
                    t_inv = clock()
                reply = client.run(key, EXPERIMENT_SEED)
                error = None
            except ServiceError as exc:
                reply, error = None, f"{kind} {key}: {exc}"
            t1 = clock()
            if reply is not None:
                if client.transport_stats()["retries"] != retries:
                    error = f"{kind} {key}: client retried"
                elif reply.get("attempts", 1) != 1:
                    error = f"{kind} {key}: router tried {reply['attempts']} shards"
                elif reply.get("digest") != self.digests[key]:
                    error = f"{kind} {key}: digest differs"
            source = reply.get("source") if reply else None
            elapsed = reply.get("elapsed_ms") if reply else None
            record = (kind, key, t0, t1, t_inv, error, source, elapsed,
                      self.trace)
            with self.lock:
                self.records.append(record)
            if self.trace and error is None and index % DIRECT_EVERY == 0:
                self._direct(slot, key, reply, t1 - t0)

    def _direct(self, slot: int, key: str, routed: dict, routed_s: float
                ) -> None:
        """Send a sampled key straight to the shard that served it."""
        from repro.errors import ServiceError

        shard = self.shard_clients[slot][routed["shard"]]
        t0 = clock()
        try:
            reply = shard.run(key, EXPERIMENT_SEED)
        except ServiceError:
            return
        t1 = clock()
        if reply.get("digest") == self.digests[key]:
            with self.lock:
                self.direct.append((t0, routed_s, t1 - t0,
                                    reply["elapsed_ms"] / 1e3))

    def burst(self, seconds: float) -> None:
        self.stop_at = clock() + seconds
        threads = [threading.Thread(target=self.worker, args=(i,))
                   for i in range(CLIENTS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

    def transport(self) -> dict[str, int]:
        totals = {"connects": 0, "retries": 0}
        for client in self.clients:
            for k, v in client.transport_stats().items():
                totals[k] += v
        return totals

    def close(self) -> None:
        for client in self.clients:
            client.close()
        for clients in self.shard_clients:
            for client in clients.values():
                client.close()


def _router_stats(port: int) -> dict:
    from repro.service.client import stats
    return stats(port=port, timeout_s=OP_TIMEOUT_S)


def _warm_up(report: Report, speed: Speed, cluster: Cluster,
             digests: dict[str, str]) -> float:
    """Promote every key; the normalized seconds it took."""
    from repro.errors import ServiceError
    from repro.service.client import ServiceClient

    total = 0.0
    with ServiceClient(port=cluster.port,
                       read_timeout_s=OP_TIMEOUT_S) as client:
        for key, digest in digests.items():
            start = clock()
            for _ in range(HOT_THRESHOLD + 1):
                try:
                    reply = client.run(key, EXPERIMENT_SEED)
                except ServiceError as exc:
                    report.op(False, f"warm-up {key}: {exc}")
                    continue
                report.op(reply.get("digest") == digest,
                          f"warm-up {key}: digest differs")
            end = clock()
            speed.sample()
            total += (end - start) * speed.scale(start, end)
        # Replication is asynchronous: wait until the router reports every
        # key hot, then touch each key on both replicas.
        start = clock()
        deadline = start + 30.0
        while _router_stats(cluster.port)["router"]["hot_keys"] < len(digests):
            if clock() > deadline:
                report.op(False, "warm-up: keys never all promoted")
                break
            time.sleep(0.05)
        for key, digest in digests.items():
            for _ in range(2):
                try:
                    reply = client.run(key, EXPERIMENT_SEED)
                except ServiceError as exc:
                    report.op(False, f"warm-up {key}: {exc}")
                    continue
                report.op(reply.get("digest") == digest,
                          f"warm-up {key}: digest differs")
        end = clock()
        speed.sample()
        total += (end - start) * speed.scale(start, end)
    return total


def _recompute(report: Report, speed: Speed, port: int,
               digests: dict[str, str], passes: int) -> dict[str, list]:
    """``compute_ms`` samples of ``serve-hot``: invalidate + recompute each key.

    Runs on the idle cluster after the load; per key, ``passes`` samples
    of (normalized ms, raw ms).
    """
    from repro.errors import ServiceError
    from repro.service.client import ServiceClient

    out: dict[str, list] = {}
    with ServiceClient(port=port, read_timeout_s=OP_TIMEOUT_S) as client:
        for _ in range(passes):
            for key, digest in digests.items():
                start = clock()
                try:
                    client.invalidate(key, EXPERIMENT_SEED)
                    reply = client.run(key, EXPERIMENT_SEED)
                except ServiceError as exc:
                    report.op(False, f"recompute {key}: {exc}")
                    continue
                end = clock()
                speed.sample()
                ok = (reply.get("digest") == digest
                      and reply.get("source") == "computed")
                if report.op(ok, f"recompute {key}: digest or source "
                                 f"{reply.get('source')} differs"):
                    out.setdefault(key, []).append(
                        ((end - start) * speed.scale(start, end) * 1e3,
                         (end - start) * 1e3))
    return out


def _query_process(report: Report, speed: Speed, port: int, key: str,
                   digest: str) -> tuple[float, float] | None:
    """One ``cold_ms`` sample: a fresh ``repro query`` process, exec to exit.

    Returns (normalized ms, raw ms), or None when the op failed.
    """
    start = clock()
    try:
        done = subprocess.run(
            [sys.executable, "-m", "repro.cli", "query", key,
             "--seed", str(EXPERIMENT_SEED), "--port", str(port),
             "--timeout", str(OP_TIMEOUT_S), "--json"],
            capture_output=True, text=True, env=program_env(),
            timeout=3 * OP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        report.op(False, f"repro query {key}: timed out")
        return None
    end = clock()
    speed.sample()
    ok = done.returncode == 0
    why = f"repro query {key}: exit {done.returncode}"
    if ok:
        reply = json.loads(done.stdout)
        ok = reply.get("digest") == digest
        why = f"repro query {key}: digest differs ({reply.get('source')})"
    if not report.op(ok, why):
        return None
    return ((end - start) * speed.scale(start, end) * 1e3,
            (end - start) * 1e3)


def run(report: Report, workload: str, seed: int, seconds: float,
        trace: bool, tmp: str) -> None:
    speed = Speed(Probe(), nominal_probe(), each_cpu=True)
    ref = reference()
    digests = dict(zip(ref["experiments"], ref["digests"]))
    churn = workload == "serve-churn"
    ops = op_stream(seed, ref["experiments"], churn, 200_000)

    speed.sample()
    cluster = Cluster(os.path.join(tmp, "cluster-cache"))
    try:
        _measure(report, speed, cluster, digests, ops, seconds, trace, churn)
    finally:
        for pid in cluster.stop():
            report.op(False, f"cluster process {pid} outlived SIGINT")


def _measure(report: Report, speed: Speed, cluster: Cluster,
             digests: dict[str, str], ops: list, seconds: float,
             trace: bool, churn: bool) -> None:
    prime_s = cluster.snapshot_s()
    startup_s = cluster.t_ready - cluster.t_spawn
    speed.sample()
    start_scale = speed.scale(cluster.t_spawn, cluster.t_ready)
    warmup_s = _warm_up(report, speed, cluster, digests)
    setup_s = startup_s * start_scale + warmup_s

    before = _router_stats(cluster.port)
    load = _Load(ops, digests, cluster.port, cluster.shard_ports)
    bursts = []
    queries = []
    try:
        n_bursts = max(2, round(seconds * LOAD_SHARE / BURST_S))
        for index in range(n_bursts):
            # A traced run alternates traced and untraced bursts, so it
            # also measures what tracing costs.
            load.trace = trace and index % 2 == 0
            cpu0 = cluster.cpu_s()
            n0 = len(load.records)
            t0 = clock()
            load.burst(BURST_S)
            t1 = clock()
            cpu1 = cluster.cpu_s()
            speed.sample()
            bursts.append((t0, t1, n0, len(load.records), cpu0, cpu1,
                           load.trace))
            if index % QUERY_EVERY == QUERY_EVERY - 1:
                key = ops[index][1]
                sample = _query_process(report, speed, cluster.port, key,
                                        digests[key])
                if sample is not None:
                    queries.append(sample)
        transport = load.transport()
    finally:
        load.close()
    after = _router_stats(cluster.port)
    recompute = ({} if churn else
                 _recompute(report, speed, cluster.port, digests,
                            RECOMPUTE_PASSES))
    hwm = cluster.hwm_mb()
    _summarize(report, speed, load, bursts, queries, recompute, setup_s,
               hwm)
    setup = {"prime_s": prime_s and prime_s * start_scale,
             "start_s": startup_s * start_scale,
             "warmup_s": warmup_s, "raw_start_s": startup_s}
    report.diagnostics.update({
        "setup": setup,
        "router_before": before["router"], "router_after": after["router"],
        "totals_before": before["totals"], "totals_after": after["totals"],
        "shards_after": {n: {k: s.get(k) for k in
                             ("labs_built", "labs_restored", "computed",
                              "disk_hits")}
                         for n, s in after["shards"].items()},
        "transport": transport,
        "probe_ms": speed.series_ms(),
    })
    report.layer_inputs = {"load": load, "bursts": bursts,
                           "root": cluster.proc.pid, "before": before,
                           "after": after, "transport": transport,
                           "speed": speed, "setup": setup}


def _mean_of_medians(groups) -> float:
    medians = [median(g) for g in groups]
    return sum(medians) / len(medians)


def _summarize(report: Report, speed: Speed, load: _Load, bursts: list,
               queries: list, recompute: dict[str, list], setup_s: float,
               hwm: float) -> None:
    reads, reads_raw = [], []
    writes: dict[str, list[float]] = {}
    writes_raw: dict[str, list[float]] = {}
    ops_done = 0
    busy = 0.0
    cpu = 0.0
    cpu_raw = 0.0
    for t0, t1, n0, n1, cpu0, cpu1, traced in bursts:
        scale = speed.scale(t0, t1)
        for kind, key, s, e, _inv, error, _src, _el, _tr in load.records[n0:n1]:
            report.op(error is None, error or "")
            if error is not None:
                continue
            if kind == "read":
                reads.append((e - s) * scale * 1e3)
                reads_raw.append((e - s) * 1e3)
            else:
                writes.setdefault(key, []).append((e - s) * scale * 1e3)
                writes_raw.setdefault(key, []).append((e - s) * 1e3)
        if traced:
            continue
        ops_done += n1 - n0
        busy += (t1 - t0) * scale
        delta = sum(cpu1.get(p, 0.0) - c for p, c in cpu0.items())
        cpu += delta * speed.cpu_scale(t0, t1)
        cpu_raw += delta
    if not (reads and queries and ops_done):
        return
    n = len(reads)
    report.put("setup_s", setup_s, "s", 1,
               note="cluster spawn to startup line + promotion warm-up")
    report.put("rss_mb", hwm, "MB", 1,
               note="sum of VmHWM over the cluster's processes")
    report.put("cpu_ms_per_op", cpu / ops_done * 1e3, "ms", ops_done,
               cpu_raw / ops_done * 1e3,
               "user+sys CPU of the cluster process tree per op")
    report.put("cold_ms", median([q[0] for q in queries]), "ms", len(queries),
               median([q[1] for q in queries]),
               "fresh `repro query` process, exec to exit")
    if writes:
        # The mean over keys of each key's median write.  Recompute cost
        # spans 1000x across keys, so a pooled p50 lands between two cost
        # classes and hops between them from run to run.
        report.put("compute_ms", _mean_of_medians(writes.values()), "ms",
                   sum(len(v) for v in writes.values()),
                   _mean_of_medians(writes_raw.values()),
                   "write: /invalidate + the /run that recomputes; "
                   "mean over keys of the per-key median")
    elif recompute:
        report.put("compute_ms", _mean_of_medians(
                       [[s[0] for s in v] for v in recompute.values()]),
                   "ms", sum(len(v) for v in recompute.values()),
                   _mean_of_medians(
                       [[s[1] for s in v] for v in recompute.values()]),
                   "/invalidate + recomputing /run on the idle cluster; "
                   "mean over keys of the per-key median")
    report.put("hit_ms", median(reads), "ms", n, median(reads_raw),
               "p50_ms: client-observed /run read latency")
    report.put("p90_ms", percentile(reads, 90), "ms", n,
               percentile(reads_raw, 90), "read p90 (diagnostic)")
    report.put("ops_per_s", ops_done / busy, "1/s", ops_done,
               ops_done / sum(b[1] - b[0] for b in bursts if not b[6]),
               f"completed ops per second, {CLIENTS} closed-loop clients")
    extra = {"p99_ms": percentile(reads, 99), "reads": n}
    pooled = [v for values in writes.values() for v in values]
    if pooled:
        extra.update({"write_pooled_p50_ms": median(pooled),
                      "write_p90_ms": percentile(pooled, 90),
                      "write_p99_ms": percentile(pooled, 99),
                      "writes": len(pooled)})
    report.diagnostics["serve"] = extra
