"""Perf trajectory: wall time for every experiment id and for ``run_all``.

Unlike the figure benches (which reproduce one artifact each), this
suite times the whole evaluation and writes the numbers to
``benchmarks/output/BENCH_suite.json`` so future PRs can diff the perf
trajectory against the recorded baseline.

Methodology: each round builds a cold :class:`Lab` and runs the registry
in order; per-experiment and whole-suite times are the best over
``ROUNDS`` rounds (best-of-N discards scheduler noise, which on a busy
box easily exceeds the 20% headroom a mean would leave).

Two extra series ride along:

* **Stage breakdown** — one extra round runs with the stage chokepoints
  (FTCS solvers, pipeline frame rendering, storage reader/writer + fio)
  wrapped in wall-clock accumulators, splitting every experiment's time
  into ``sim`` / ``render`` / ``io`` / ``other``.  The instrumented
  round is separate so wrapper overhead never pollutes the headline
  ``run_all_s``.
* **Transport** — a separate engine pass (``jobs=2`` plus a throwaway
  result cache) times the parent-side codec work: framing results into
  cache entries and decoding cache hits back.
"""

import json
import os
import sys
import tempfile
import time

from repro.experiments import EXPERIMENTS, Lab

#: Serial ``run_all()`` wall time measured immediately before the batch
#: kernels / caching work landed (commit de149e0, same container class).
BASELINE_RUN_ALL_S = 14.77

#: The optimization work gates on a 5x improvement over that baseline.
REQUIRED_SPEEDUP = 5.0

#: Raw-speed floor for the whole serial suite on the reference
#: container.  The committed BENCH_suite.json must come in under this;
#: in-process the assert allows 3x for scheduler noise (CI gates via
#: ``compare_baseline.py`` with the same tolerance).
CEILING_RUN_ALL_S = 0.4

#: Experiment ids added after the 14.77 s baseline was recorded.  They
#: count toward ``run_all_s`` in the payload (the regression job diffs
#: that), but the speedup gate compares like against like and excludes
#: them — otherwise growing the registry would erode the gate.
POST_BASELINE_IDS = frozenset({"ext-faults"})

ROUNDS = 3

STAGE_BUCKETS = ("sim", "render", "io")


class StageTimer:
    """Wall-clock accumulators patched over the stage chokepoints.

    Each bucket keeps one reentrancy depth, so nested calls inside a
    stage (``render_with_contours`` calling the base render) count once.
    Function patching rebinds every ``repro.*`` module attribute that
    references the target, so from-imports are covered too.
    """

    def __init__(self) -> None:
        self.acc = dict.fromkeys(STAGE_BUCKETS, 0.0)
        self._depth = dict.fromkeys(STAGE_BUCKETS, 0)
        self._undo: list = []

    def _timed(self, bucket: str, orig):
        def call(*args, **kwargs):
            if self._depth[bucket]:
                return orig(*args, **kwargs)
            self._depth[bucket] += 1
            start = time.perf_counter()
            try:
                return orig(*args, **kwargs)
            finally:
                self.acc[bucket] += time.perf_counter() - start
                self._depth[bucket] -= 1
        return call

    def patch_method(self, bucket: str, cls: type, name: str) -> None:
        orig = cls.__dict__[name]
        setattr(cls, name, self._timed(bucket, orig))
        self._undo.append(lambda c=cls, n=name, o=orig: setattr(c, n, o))

    def patch_function(self, bucket: str, module, name: str) -> None:
        orig = getattr(module, name)
        timed = self._timed(bucket, orig)
        for mod in list(sys.modules.values()):
            if not getattr(mod, "__name__", "").startswith("repro"):
                continue
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, attr, timed)
                    self._undo.append(
                        lambda m=mod, a=attr, o=orig: setattr(m, a, o))

    def unpatch(self) -> None:
        while self._undo:
            self._undo.pop()()

    def snapshot(self) -> dict:
        return dict(self.acc)


def _instrument() -> StageTimer:
    from repro.pipelines import base as pipelines_base
    from repro.sim.heat import HeatSolver
    from repro.sim.heat3d import HeatSolver3D
    from repro.storage.reader import DataReader
    from repro.storage.writer import DataWriter
    from repro.viz import render as viz_render
    from repro.workloads.fio import FioRunner

    timer = StageTimer()
    timer.patch_method("sim", HeatSolver, "step")
    timer.patch_method("sim", HeatSolver3D, "step")
    timer.patch_function("render", pipelines_base, "render_pipeline_frame")
    timer.patch_function("render", viz_render, "render_field")
    timer.patch_function("render", viz_render, "render_with_contours")
    timer.patch_method("io", DataWriter, "write_timestep")
    timer.patch_method("io", DataReader, "read_timestep")
    timer.patch_method("io", DataReader, "read_grid")
    timer.patch_method("io", DataReader, "read_chunk")
    timer.patch_method("io", FioRunner, "run")
    return timer


def _measure_transport() -> dict:
    """Parent-side codec time across a cold-store + warm-load engine pass.

    ``encodes`` counts cache stores and ``decodes`` cache loads: pool
    workers return results through the pool's own pickling, not frames.
    """
    from repro.experiments import engine

    acc = {"encode_s": 0.0, "decode_s": 0.0, "encodes": 0, "decodes": 0}

    def wrap(name: str, time_key: str, count_key: str):
        orig = getattr(engine, name)

        def call(*args, **kwargs):
            start = time.perf_counter()
            try:
                return orig(*args, **kwargs)
            finally:
                acc[time_key] += time.perf_counter() - start
                acc[count_key] += 1
        setattr(engine, name, call)
        return lambda: setattr(engine, name, orig)

    undo = [wrap("encode_result", "encode_s", "encodes"),
            wrap("decode_result", "decode_s", "decodes")]
    try:
        with tempfile.TemporaryDirectory() as cache_dir:
            start = time.perf_counter()
            engine.run_experiments(seed=2015, jobs=2, cache_dir=cache_dir)
            cold_s = time.perf_counter() - start
            start = time.perf_counter()
            warm = engine.run_experiments(seed=2015, jobs=2,
                                          cache_dir=cache_dir)
            warm_s = time.perf_counter() - start
            assert warm.cache_misses == ()
    finally:
        for restore in undo:
            restore()
    return {
        "workload": "jobs=2 engine: cold compute+store, then warm load",
        "engine_cold_s": round(cold_s, 4),
        "engine_warm_s": round(warm_s, 4),
        "encode_s": round(acc["encode_s"], 4),
        "decode_s": round(acc["decode_s"], 4),
        "encodes": acc["encodes"],
        "decodes": acc["decodes"],
    }


def _measure_stage_breakdown() -> dict:
    """One instrumented registry round; per-experiment stage splits."""
    breakdown: dict[str, dict[str, float]] = {}
    timer = _instrument()
    try:
        lab = Lab(seed=2015)
        for eid, fn in EXPERIMENTS.items():
            before = timer.snapshot()
            start = time.perf_counter()
            fn(lab)
            elapsed = time.perf_counter() - start
            stages = {b: timer.acc[b] - before[b] for b in STAGE_BUCKETS}
            stages["other"] = max(0.0, elapsed - sum(stages.values()))
            breakdown[eid] = {k: round(v, 4) for k, v in stages.items()}
    finally:
        timer.unpatch()
    return breakdown


def test_perf_suite(output_dir):
    per_experiment: dict[str, float] = {}
    suite_samples = []
    for _ in range(ROUNDS):
        lab = Lab(seed=2015)
        round_start = time.perf_counter()
        for eid, fn in EXPERIMENTS.items():
            start = time.perf_counter()
            fn(lab)
            elapsed = time.perf_counter() - start
            per_experiment[eid] = min(per_experiment.get(eid, elapsed),
                                      elapsed)
        suite_samples.append(time.perf_counter() - round_start)

    stage_breakdown = _measure_stage_breakdown()
    transport = _measure_transport()
    run_all_s = min(suite_samples)
    baseline_era_s = sum(t for eid, t in per_experiment.items()
                         if eid not in POST_BASELINE_IDS)
    speedup = BASELINE_RUN_ALL_S / baseline_era_s
    payload = {
        "baseline_run_all_s": BASELINE_RUN_ALL_S,
        "ceiling_run_all_s": CEILING_RUN_ALL_S,
        "run_all_s": round(run_all_s, 4),
        "baseline_era_s": round(baseline_era_s, 4),
        "speedup": round(speedup, 2),
        "rounds": ROUNDS,
        "method": "best-of-rounds, cold Lab per round",
        "experiments": {eid: round(t, 4) for eid, t in per_experiment.items()},
        "stage_breakdown": stage_breakdown,
        "transport": transport,
    }
    path = os.path.join(output_dir, "BENCH_suite.json")
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"\nrun_all: best {run_all_s:.2f}s of {suite_samples}"
          f" (baseline-era {baseline_era_s:.2f}s, {speedup:.1f}x over"
          f" {BASELINE_RUN_ALL_S:.2f}s baseline; ceiling"
          f" {CEILING_RUN_ALL_S:.1f}s)")

    assert per_experiment.keys() == EXPERIMENTS.keys()
    assert speedup >= REQUIRED_SPEEDUP, (
        f"baseline-era experiments took {baseline_era_s:.2f}s, only"
        f" {speedup:.1f}x over the {BASELINE_RUN_ALL_S:.2f}s baseline"
        f" (need {REQUIRED_SPEEDUP:.0f}x)"
    )
    assert run_all_s < CEILING_RUN_ALL_S * 3, (
        f"run_all took {run_all_s:.2f}s, past even 3x the"
        f" {CEILING_RUN_ALL_S:.1f}s raw-speed ceiling"
    )
