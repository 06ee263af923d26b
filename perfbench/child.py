"""Child process of the ``reproduce`` workload.

Run from the checkout root with ``PYTHONPATH=src``::

    python3 perfbench/child.py fresh '{"out": PATH, "trace": false}'
    python3 perfbench/child.py warm '{"rounds": 5, "reloads": 10, "cache": DIR}'

``fresh`` is the ``repro run all`` path (one Lab, jobs 1, no cache) in a
new interpreter: it times its own import and each of the 18 registry
experiments, with a host-speed probe between phases, and hands the
canonical pickles of all 18 results back through ``out``.

``warm`` runs the registry once to warm the process, then repeats
``rounds`` times: all 18 experiments on a new ``Lab``, storing that
round's results into a result cache, and ``reloads`` calls of
``run_experiments(jobs=1, cache_dir=...)`` that load them back.  Every
result is digested outside the timed regions and sent back.

Both print one JSON object of raw timings, probe samples and digests as
the last line of standard output.  The probe's inputs are allocated
before ``repro`` is imported.
"""

from __future__ import annotations

import time

T_ENTER = time.perf_counter()

import numpy  # noqa: E402,F401  (timed as part of the program's import)

T_NUMPY = time.perf_counter()

import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from probe import Probe, Speed, nominal_probe  # noqa: E402

SEED = 2015


def _digests(results) -> list[str]:
    from repro.experiments.engine import pickle_result

    return [hashlib.sha256(pickle_result(r)).hexdigest() for r in results]


def _layer_summary(tracer) -> dict:
    if tracer is None:
        return {}
    return {"self_s": tracer.self_times(), "total_s": tracer.totals(),
            "counts": dict(tracer.counts), "spans": len(tracer.spans)}


def _timed_registry(experiments, speed: Speed, tracer) -> tuple[list, list]:
    """All 18 experiments on a new Lab, a probe after each one.

    Returns the results and one ``[id, start, end, cpu seconds, layers]``
    phase per experiment.
    """
    lab = experiments.Lab(seed=SEED)
    results, phases = [], []
    if tracer:
        tracer.op += 1
    for eid, fn in experiments.EXPERIMENTS.items():
        op = tracer.open("exp") if tracer else None
        cpu0, start = time.process_time(), time.perf_counter()
        results.append(fn(lab))
        end, cpu1 = time.perf_counter(), time.process_time()
        if tracer:
            tracer.close(op)
        phases.append([eid, start, end, cpu1 - cpu0, _layer_summary(tracer)])
        if tracer:
            tracer.reset()
        speed.sample()
    return results, phases


def fresh(args: dict, speed: Speed) -> dict:
    speed.sample()
    cpu0, t0 = time.process_time(), time.perf_counter()
    import repro.experiments as experiments
    t1, cpu1 = time.perf_counter(), time.process_time()
    tracer = None
    if args.get("trace"):
        from spans import instrument_reproduce
        tracer = instrument_reproduce()
    speed.sample()
    results, phases = _timed_registry(experiments, speed, tracer)
    from repro.experiments.engine import pickle_result
    start = time.perf_counter()
    with open(args["out"], "wb") as fh:
        for result in results:
            blob = pickle_result(result)
            fh.write(len(blob).to_bytes(8, "little"))
            fh.write(blob)
    t_out = time.perf_counter()
    return {"enter": T_ENTER, "numpy_s": T_NUMPY - T_ENTER,
            "import": [t0, t1, cpu1 - cpu0], "experiments": phases,
            "handback": [start, t_out], "end": t_out}


def warm(args: dict, speed: Speed) -> dict:
    import repro.experiments as experiments
    from repro.experiments.engine import run_experiments, store_result

    cache = args["cache"]
    lab = experiments.Lab(seed=SEED)
    first = [fn(lab) for fn in experiments.EXPERIMENTS.values()]
    for eid, result in zip(experiments.EXPERIMENTS, first):
        store_result(cache, eid, SEED, result)
    tracer = None
    if args.get("trace"):
        from spans import instrument_reproduce
        tracer = instrument_reproduce()
    rounds, stores, reloads = [], [], []
    speed.sample()
    for _ in range(args["rounds"]):
        results, phases = _timed_registry(experiments, speed, tracer)
        rounds.append([phases, _digests(results)])
        if tracer:
            tracer.op += 1
        start = time.perf_counter()
        for eid, result in zip(experiments.EXPERIMENTS, results):
            store_result(cache, eid, SEED, result)
        end = time.perf_counter()
        stores.append([start, end, _layer_summary(tracer)])
        if tracer:
            tracer.reset()
        speed.sample()
        for _ in range(args["reloads"]):
            if tracer:
                tracer.op += 1
            start = time.perf_counter()
            report = run_experiments(jobs=1, cache_dir=cache, seed=SEED)
            end = time.perf_counter()
            layers = _layer_summary(tracer)
            if tracer:
                tracer.reset()
            speed.sample()
            reloads.append([start, end, layers, len(report.cache_hits),
                            _digests(report.results.values())])
    return {"rounds": rounds, "stores": stores, "reloads": reloads}


def main() -> int:
    mode, raw = sys.argv[1], sys.argv[2]
    args = json.loads(raw)
    speed = Speed(Probe(), nominal_probe())
    out = fresh(args, speed) if mode == "fresh" else warm(args, speed)
    out["probes"] = speed.samples
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
