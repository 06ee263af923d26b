"""Per-layer metrics of a traced run (``--trace 1``).

Every workload prints every per-layer metric; a layer the workload
bypasses reads 0.  Times are normalized like the end-to-end ones: a
span inside an experiment is scaled by that experiment's probe factor,
a serving sample by its burst's.  ``METRICS.md`` maps each metric to the
end-to-end metric it should move.
"""

from __future__ import annotations

from common import Report, median, percentile, reference


def _per_op(entries: list) -> list[dict[str, float]]:
    """Sum (op, scale, layer summary) entries into one dict per op.

    Self times (``<span>.self``) and inclusive times (``<span>.total``)
    are scaled to nominal host speed; counts are summed as they are.
    """
    ops: dict[int, dict[str, float]] = {}
    for op, scale, layers in entries:
        acc = ops.setdefault(op, {})
        for name, sec in layers["self_s"].items():
            acc[name + ".self"] = acc.get(name + ".self", 0.0) + sec * scale
        for name, sec in layers["total_s"].items():
            acc[name + ".total"] = acc.get(name + ".total", 0.0) + sec * scale
        for name, n in layers["counts"].items():
            acc[name] = acc.get(name, 0.0) + n
    return list(ops.values())


def _med(ops: list[dict[str, float]], key: str, factor: float = 1.0) -> float:
    if not ops:
        return 0.0
    return median([op.get(key, 0.0) for op in ops]) * factor


def _ratio(ops: list[dict[str, float]], hits: str, calls: str) -> float:
    total = sum(op.get(calls, 0.0) for op in ops)
    return sum(op.get(hits, 0.0) for op in ops) / total if total else 0.0


def reproduce_layers(acc) -> dict[str, tuple[float, int]]:
    """Per-layer values of a traced ``reproduce`` run, with sample counts."""
    fresh = _per_op(acc.get("layers.fresh"))
    warm = _per_op(acc.get("layers.warm"))
    store = _per_op(acc.get("layers.store"))
    reload = _per_op(acc.get("layers.reload"))
    out: dict[str, tuple[float, int]] = {
        "import.ms": (median(acc.get("import_ms")), len(acc.get("import_ms"))),
        "lab.outcomes_ms": (_med(fresh, "lab.outcomes.total", 1e3), len(fresh)),
        "lab.fio_ms": (_med(fresh, "lab.fio.total", 1e3), len(fresh)),
        "lab.apps_ms": (_med(fresh, "lab.apps.total", 1e3), len(fresh)),
        "sim.calls": (_med(fresh, "sim.calls"), len(fresh)),
        "sim.ms": (_med(fresh, "sim.self", 1e3), len(fresh)),
        "viz.calls": (_med(fresh, "viz.calls"), len(fresh)),
        "viz.ms": (_med(fresh, "viz.self", 1e3), len(fresh)),
        "frame.calls": (_med(fresh, "frame.calls"), len(fresh)),
        "frame.hit_ratio": (_ratio(fresh, "frame.hits", "frame.calls"),
                            len(fresh)),
        "storage.calls": (_med(fresh, "storage.calls"), len(fresh)),
        "storage.bytes": (_med(fresh, "storage.bytes"), len(fresh)),
        "storage.ms": (_med(fresh, "storage.self", 1e3), len(fresh)),
        "fio.ms": (_med(fresh, "fio.self", 1e3), len(fresh)),
        "device.batch_calls": (_med(fresh, "device.calls"), len(fresh)),
        "device.requests": (_med(fresh, "device.requests"), len(fresh)),
        "memo.gets": (_med(fresh, "memo.calls"), len(fresh)),
        "memo.fresh_hit_ratio": (_ratio(fresh, "memo.hits", "memo.calls"),
                                 len(fresh)),
        "memo.warm_hit_ratio": (_ratio(warm, "memo.hits", "memo.calls"),
                                len(warm)),
        "codec.encode_ms": (_med(store, "codec.encode.self", 1e3), len(store)),
        "codec.decode_ms": (_med(reload, "codec.decode.self", 1e3), len(reload)),
        "codec.bytes": (_med(reload, "codec.bytes"), len(reload)),
        "store.load_ms": (_med(reload, "store.load.self", 1e3), len(reload)),
        "store.store_ms": (_med(store, "store.store.self", 1e3), len(store)),
        "other.fresh_ms": (median(acc.get("traced.other_ms") or [0.0]), len(acc.get("traced.other_ms"))),
        "other.warm_ms": (_other(acc.get("warm_ms"), warm), len(warm)),
    }
    for eid in reference()["experiments"]:
        for regime in ("fresh", "warm"):
            values = acc.get(f"exp.{eid}.{regime}_ms")
            out[f"exp.{eid}.{regime}_ms"] = (median(values) if values
                                            else 0.0, len(values))
    traced = acc.get("traced.fresh_ms")
    untraced = acc.get("untraced.fresh_ms")
    if traced and untraced:
        out["trace.overhead_ms"] = (median(traced) - median(untraced),
                                    len(traced) + len(untraced))
    return out


def _other(round_ms: list[float], ops: list[dict[str, float]]) -> float:
    """Round wall time not covered by any layer's self time, per round."""
    if not (round_ms and ops):
        return 0.0
    covered = [sum(v for k, v in op.items() if k.endswith(".self"))
               for op in ops]
    return max(0.0, median(round_ms) - median(covered) * 1e3)


def serve_layers(inputs: dict) -> dict[str, tuple[float, int]]:
    """Per-layer values of a traced serving run, with sample counts."""
    load, bursts, speed = inputs["load"], inputs["bursts"], inputs["speed"]
    before, after = inputs["before"], inputs["after"]
    scales = [(t0, t1, speed.scale(t0, t1)) for t0, t1, *_ in bursts]

    def scale_at(t: float) -> float:
        for t0, t1, scale in scales:
            if t0 <= t <= t1:
                return scale
        return scales[-1][2]

    sources: dict[str, int] = {}
    compute, invalidate, run_ms, reads, writes = [], [], [], [], []
    traced_reads, untraced_reads = [], []
    for kind, _key, t0, t1, t_inv, error, source, elapsed, traced in (
            load.records):
        if error is not None:
            continue
        sources[source] = sources.get(source, 0) + 1
        scale = scale_at(t0)
        ms = (t1 - t0) * scale * 1e3
        if source == "computed":
            compute.append(elapsed * scale)
        if kind == "write":
            writes.append(ms)
            invalidate.append((t_inv - t0) * scale * 1e3)
            run_ms.append((t1 - t_inv) * scale * 1e3)
        else:
            reads.append(ms)
            (traced_reads if traced else untraced_reads).append(ms)
    routed, direct, service, router_hop, shard_hop = [], [], [], [], []
    for t0, routed_s, direct_s, elapsed_s in load.direct:
        scale = scale_at(t0) * 1e3
        routed.append(routed_s * scale)
        direct.append(direct_s * scale)
        service.append(elapsed_s * scale)
        router_hop.append((routed_s - direct_s) * scale)
        shard_hop.append((direct_s - elapsed_s) * scale)

    ops = 0
    cpu_router = cpu_shards = 0.0
    for t0, t1, n0, n1, cpu0, cpu1, traced in bursts:
        if traced:
            continue
        ops += n1 - n0
        factor = speed.cpu_scale(t0, t1)
        for pid, cpu in cpu0.items():
            delta = (cpu1.get(pid, cpu) - cpu) * factor
            if pid == inputs["root"]:
                cpu_router += delta
            else:
                cpu_shards += delta
    total = sum(sources.values())
    r0, r1 = before["router"], after["router"]
    t0_, t1_ = before["totals"], after["totals"]
    shards = after["shards"].values()
    setup = inputs["setup"]

    def med(values: list[float]) -> float:
        return median(values) if values else 0.0

    out = {
        "hop.routed_ms": (med(routed), len(direct)),
        "hop.router_ms": (med(router_hop), len(direct)),
        "hop.direct_ms": (med(direct), len(direct)),
        "hop.shard_ms": (med(shard_hop), len(direct)),
        "hop.service_ms": (med(service), len(direct)),
        "router.promotions": (r1["promotions"] - r0["promotions"], total),
        "router.demotions": (r1["demotions"] - r0["demotions"], total),
        "router.invalidations": (r1["invalidations"] - r0["invalidations"],
                                 total),
        "router.sheds": (r1["sheds"] - r0["sheds"], total),
        "router.failovers": (r1["failovers"] - r0["failovers"], total),
        "client.connects": (inputs["transport"]["connects"], total),
        "client.retries": (inputs["transport"]["retries"], total),
        "tier.memory": (sources.get("memory", 0), total),
        "tier.disk": (sources.get("disk", 0), total),
        "tier.computed": (sources.get("computed", 0), total),
        "tier.coalesced": (sources.get("coalesced", 0), total),
        "tier.hit_ratio": ((sources.get("memory", 0) + sources.get("disk", 0))
                           / total if total else 0.0, total),
        "shard.computed": (t1_["computed"] - t0_["computed"], total),
        "shard.disk_hits": (t1_["disk_hits"] - t0_["disk_hits"], total),
        "shard.labs_built": (sum(s.get("labs_built", 0) for s in shards),
                             total),
        "shard.labs_restored": (sum(s.get("labs_restored", 0)
                                    for s in shards), total),
        "service.compute_ms": (med(compute), len(compute)),
        "write.invalidate_ms": (med(invalidate), len(writes)),
        "write.run_ms": (med(run_ms), len(writes)),
        "cpu.router_ms_per_op": (cpu_router / ops * 1e3 if ops else 0.0,
                                 ops),
        "cpu.shards_ms_per_op": (cpu_shards / ops * 1e3 if ops else 0.0,
                                 ops),
        "setup.prime_s": (setup["prime_s"] or 0.0, 1),
        "setup.start_s": (setup["start_s"], 1),
        "setup.warmup_s": (setup["warmup_s"], 1),
        "lat.p99_ms": (percentile(reads, 99) if reads else 0.0, len(reads)),
        "write.p99_ms": (percentile(writes, 99) if writes else 0.0, len(writes)),
    }
    if traced_reads and untraced_reads:
        out["trace.overhead_ms"] = (median(traced_reads)
                                    - median(untraced_reads), len(reads))
    return out


def fill(report: Report, workload: str, spec: list[dict]) -> None:
    """Put every per-layer metric of ``spec``, 0 where the layer is idle."""
    inputs = report.layer_inputs
    if workload == "reproduce":
        values = reproduce_layers(inputs["acc"]) if "acc" in inputs else {}
    else:
        values = (serve_layers(inputs)
                  if "load" in inputs else {})
    for metric in spec:
        value, samples = values.get(metric["name"], (0.0, 0))
        report.put(metric["name"], value, metric["unit"], samples)
