"""Span tracing from outside the program: wrap each layer's entry points.

:class:`SpanTracer` reuses the patching of ``StageTimer`` in
``benchmarks/bench_perf_suite.py`` (methods are replaced on their
class; functions are rebound in every ``repro`` module that holds
them) but records a span per call instead of summing buckets.  A span
is ``[name, start, end, parent index, op id]``; spans stay in memory
until :meth:`SpanTracer.self_times` and :meth:`SpanTracer.totals` fold
them into per-layer times when the op they belong to has ended.

A call into a layer from inside the same layer (``render_with_contours``
calling ``render_field``, a RAID array calling its member disks) is
part of the outer span and opens none of its own.
"""

from __future__ import annotations

import os
import sys
import time
from collections import defaultdict

sys.path.insert(0, os.path.join(os.getcwd(), "benchmarks"))
from bench_perf_suite import StageTimer  # noqa: E402


class SpanTracer(StageTimer):
    """Records one span per outermost call into each wrapped layer."""

    def __init__(self) -> None:
        super().__init__()
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.op = 0
        self._stack: list[int] = []
        self._counters: dict[str, object] = {}

    def count_with(self, layer: str, counter) -> None:
        """Call ``counter(tracer, result, args)`` after each outermost call."""
        self._counters[layer] = counter

    def _timed(self, bucket: str, orig):
        def call(*args, **kwargs):
            stack = self._stack
            if stack and self.spans[stack[-1]][0] == bucket:
                return orig(*args, **kwargs)
            index = len(self.spans)
            span = [bucket, time.perf_counter(), 0.0,
                    stack[-1] if stack else -1, self.op]
            self.spans.append(span)
            stack.append(index)
            try:
                result = orig(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            self.counts[bucket + ".calls"] += 1
            counter = self._counters.get(bucket)
            if counter is not None:
                counter(self, result, args)
            return result
        return call

    def open(self, name: str) -> list:
        """Start a span by hand (an op, an import); close it with ``close``."""
        stack = self._stack
        span = [name, time.perf_counter(), 0.0,
                stack[-1] if stack else -1, self.op]
        stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def close(self, span: list) -> None:
        span[2] = time.perf_counter()
        self._stack.pop()

    def self_times(self) -> dict[str, float]:
        """Seconds per span name, minus the time its child spans cover."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _op in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _parent, _op) in enumerate(self.spans):
            out[name] += (end - start) - child_time[i]
        return dict(out)

    def totals(self) -> dict[str, float]:
        """Seconds per span name, child spans included."""
        out: dict[str, float] = defaultdict(float)
        for name, start, end, _parent, _op in self.spans:
            out[name] += end - start
        return dict(out)

    def reset(self) -> None:
        """Drop recorded spans and counts (patches stay in place)."""
        self.spans.clear()
        self.counts.clear()


def _count_storage(tracer: SpanTracer, result, _args) -> None:
    report = result[1] if isinstance(result, tuple) else result
    tracer.counts["storage.bytes"] += getattr(report, "nbytes", 0)


def _count_device(tracer: SpanTracer, _result, args) -> None:
    tracer.counts["device.requests"] += len(args[1])


def _count_memo(tracer: SpanTracer, result, _args) -> None:
    tracer.counts["memo.hits"] += result is not None


def _count_codec(tracer: SpanTracer, result, args) -> None:
    blob = result if isinstance(result, (bytes, bytearray)) else args[0]
    tracer.counts["codec.bytes"] += len(blob)


def _count_frame(tracer: SpanTracer, _result, _args) -> None:
    # A frame call that opened no render span was served by the cache.
    index = len(tracer.spans) - 1
    while index >= 0 and tracer.spans[index][0] != "frame":
        index -= 1
    rendered = any(s[0] == "viz" and s[3] == index
                   for s in tracer.spans[index + 1:])
    tracer.counts["frame.hits"] += not rendered


def instrument_reproduce() -> SpanTracer:
    """Wrap the entry points of every layer ``reproduce`` runs through."""
    from repro.experiments import codec, engine
    from repro.experiments.figures import Lab
    from repro.fingerprint import ContentMemo
    from repro.machine.device import LatencyBandwidthModel
    from repro.machine.disk import HddModel
    from repro.machine.raid import RaidArray
    from repro.pipelines import base as pipelines_base
    from repro.sim.heat import HeatSolver
    from repro.sim.heat3d import HeatSolver3D
    from repro.storage.reader import DataReader
    from repro.storage.writer import DataWriter
    from repro.viz import render as viz_render
    from repro.workloads.fio import FioRunner

    tracer = SpanTracer()
    for name in ("outcomes", "fio", "apps"):
        tracer.patch_method(f"lab.{name}", Lab, name)
    tracer.patch_method("sim", HeatSolver, "step")
    tracer.patch_method("sim", HeatSolver3D, "step")
    tracer.patch_function("frame", pipelines_base, "render_pipeline_frame")
    tracer.patch_function("viz", viz_render, "render_field")
    tracer.patch_function("viz", viz_render, "render_with_contours")
    tracer.patch_method("storage", DataWriter, "write_timestep")
    for name in ("read_timestep", "read_grid", "read_chunk"):
        tracer.patch_method("storage", DataReader, name)
    tracer.patch_method("fio", FioRunner, "run")
    for cls in (HddModel, LatencyBandwidthModel, RaidArray):
        tracer.patch_method("device", cls, "service_batch")
        tracer.patch_method("device", cls, "submit_write_batch")
    tracer.patch_method("memo", ContentMemo, "get")
    tracer.patch_function("codec.encode", codec, "encode_result")
    tracer.patch_function("codec.decode", codec, "decode_result")
    # load_result/store_result are thin shells over these two, which
    # run_experiments calls directly.
    tracer.patch_function("store.load", engine, "_cache_load")
    tracer.patch_function("store.store", engine, "_cache_store")
    tracer.count_with("storage", _count_storage)
    tracer.count_with("device", _count_device)
    tracer.count_with("memo", _count_memo)
    tracer.count_with("codec.encode", _count_codec)
    tracer.count_with("codec.decode", _count_codec)
    tracer.count_with("frame", _count_frame)
    return tracer
