"""The long-lived experiment-serving core.

:class:`ExperimentService` turns the batch engine into a warm serving
stack shaped like an inference server:

* **Warm worker pool** — requests execute on a fixed thread pool whose
  workers each hold primed :class:`~repro.experiments.figures.Lab`\\ s
  (one per seed, LRU-bounded).  A Lab is constructed once per
  (worker, seed) and reused across requests, so repeat traffic skips
  testbed construction and shares the Lab's memoized pipeline runs.
  With a disk tier, a seed is primed once per cache directory and
  every other worker, in this process or another, restores the
  engine's warm-Lab snapshot of it.
  Experiments are pure functions of ``(seed, testbed spec)``, so a warm
  Lab returns byte-identical payloads to a cold serial run.
* **Two-tier cache** — a thread-safe in-memory LRU
  (:class:`~repro.service.cache.LruCache`) over the engine's
  content-addressed disk store, both addressed by the same sha256
  :func:`~repro.experiments.engine.cache_key`.  Memory hits never touch
  the pool; disk hits are promoted into memory.
* **Request coalescing (single-flight)** — concurrent requests for the
  same key collapse onto one in-flight computation: the first request
  computes, every concurrent duplicate waits on the shared future and
  receives the same result object.  Distinct keys proceed in parallel
  up to the configured worker count.

The CLI's ``repro serve`` wraps this in an HTTP transport
(:mod:`repro.service.http`); ``benchmarks/bench_serve.py`` drives it
in-process.  Both observe the same counters via :meth:`stats`.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable

from repro.errors import ConfigError, ServiceError
from repro.experiments.engine import (
    cache_key,
    drop_result,
    load_entry,
    primed_lab,
    result_entry,
    store_result,
)
from repro.experiments.figures import ExperimentResult, Lab
from repro.experiments.registry import get_experiment
from repro.rng import DEFAULT_SEED
from repro.service.cache import DEFAULT_MAX_BYTES, DEFAULT_MAX_ENTRIES, LruCache


@dataclass(frozen=True)
class ServiceConfig:
    """Knobs of one serving instance.

    ``jobs`` bounds concurrent computations (the worker pool width);
    ``cache_dir`` arms the persistent disk tier; ``mem_entries`` /
    ``mem_bytes`` bound the hot tier; ``labs_per_worker`` bounds how
    many primed seeds each worker keeps warm.
    """

    jobs: int = 2
    cache_dir: str | None = None
    mem_entries: int = DEFAULT_MAX_ENTRIES
    mem_bytes: int = DEFAULT_MAX_BYTES
    labs_per_worker: int = 4

    def __post_init__(self) -> None:
        if self.jobs < 1:
            raise ConfigError(f"jobs must be >= 1, got {self.jobs}")
        if self.labs_per_worker < 1:
            raise ConfigError(
                f"labs_per_worker must be >= 1, got {self.labs_per_worker}")


@dataclass(frozen=True)
class Served:
    """One fulfilled request: the payload plus how it was produced.

    ``source`` is ``"memory"``, ``"disk"``, ``"computed"``, or
    ``"coalesced"`` (waited on another request's in-flight compute).
    ``digest`` is the sha256 hex digest of the result's canonical
    pickle, carried from its cache frame (or its one pickle when
    computed without a disk tier).
    """

    experiment_id: str
    seed: int
    result: ExperimentResult
    source: str
    elapsed_s: float
    digest: str


class ExperimentService:
    """Serve experiment results from warm workers behind a two-tier cache.

    ``compute`` defaults to running the registry function on the
    worker's warm Lab; tests inject a controlled callable to probe the
    coalescing machinery without paying for real experiments.
    """

    def __init__(self, config: ServiceConfig | None = None,
                 compute: Callable[[str, Lab], ExperimentResult] | None = None,
                 ) -> None:
        self.config = config or ServiceConfig()
        self._compute = compute or (lambda eid, lab: get_experiment(eid)(lab))
        self._mem = LruCache(max_entries=self.config.mem_entries,
                             max_bytes=self.config.mem_bytes)
        self._pool = ThreadPoolExecutor(max_workers=self.config.jobs,
                                        thread_name_prefix="repro-serve")
        self._local = threading.local()
        self._lock = threading.Lock()
        self._inflight: dict[str, Future] = {}  # gl: guarded-by=_lock
        self._closed = False  # gl: guarded-by=_lock
        self._started_monotonic = time.monotonic()
        # Monotonic counters (under self._lock).
        self._requests = 0  # gl: guarded-by=_lock
        self._coalesced = 0  # gl: guarded-by=_lock
        self._disk_hits = 0  # gl: guarded-by=_lock
        self._computed = 0  # gl: guarded-by=_lock
        self._errors = 0  # gl: guarded-by=_lock
        self._labs_built = 0  # gl: guarded-by=_lock
        self._labs_restored = 0  # gl: guarded-by=_lock
        self._invalidations = 0  # gl: guarded-by=_lock

    # -- worker side ------------------------------------------------------------

    def _lab_for(self, seed: int) -> Lab:
        """This worker thread's Lab for ``seed`` (LRU of seeds).

        Without a disk tier the Lab is built lazily and nothing touches
        the disk.  With one, :func:`~repro.experiments.engine.primed_lab`
        restores the seed's warm-Lab snapshot (milliseconds), or primes
        the Lab and saves the snapshot when no worker sharing the cache
        directory has yet; the snapshot carries the memoized shared
        pipeline runs, so even a fresh process computes at warm-Lab
        speed.
        """
        labs: OrderedDict[int, Lab] | None = getattr(self._local, "labs", None)
        if labs is None:
            labs = self._local.labs = OrderedDict()
        lab = labs.get(seed)
        if lab is None:
            if self.config.cache_dir is None:
                lab, restored = Lab(seed=seed), False
            else:
                lab, restored = primed_lab(self.config.cache_dir, seed)
            with self._lock:
                if restored:
                    self._labs_restored += 1
                else:
                    self._labs_built += 1
        else:
            del labs[seed]
        labs[seed] = lab
        while len(labs) > self.config.labs_per_worker:
            labs.popitem(last=False)
        return lab

    def _fulfill(self, key: str, experiment_id: str, seed: int,
                 fut: Future) -> None:
        """Worker body: disk tier, else compute on the warm Lab.

        The memory tier holds ``(result, digest)`` charged at the
        pickle's length, both taken from the entry's frame: a disk hit
        pickles nothing, a computed result is pickled once.
        """
        try:
            source = "disk"
            entry = None
            if self.config.cache_dir is not None:
                entry = load_entry(self.config.cache_dir, experiment_id, seed)
            if entry is None:
                source = "computed"
                result = self._compute(experiment_id, self._lab_for(seed))
                if self.config.cache_dir is not None:
                    entry = store_result(self.config.cache_dir,
                                         experiment_id, seed, result)
                else:
                    entry = result_entry(result)
            self._mem.put(key, (entry.result, entry.digest), entry.nbytes)
        except Exception as exc:
            with self._lock:
                self._errors += 1
                self._inflight.pop(key, None)
            fut.set_exception(exc)
        else:
            with self._lock:
                if source == "disk":
                    self._disk_hits += 1
                else:
                    self._computed += 1
                self._inflight.pop(key, None)
            fut.set_result((entry.result, entry.digest, source))

    # -- request side -----------------------------------------------------------

    def serve(self, experiment_id: str,
              seed: int = DEFAULT_SEED) -> Served:
        """Fulfill one request, reporting which tier produced it."""
        get_experiment(experiment_id)  # fail fast on unknown ids
        # Serving latency is real wall time by design — it measures this
        # process, never the simulated machine, so it cannot bias results.
        start = time.perf_counter()  # greenlint: ignore[GL6]
        key = cache_key(experiment_id, seed)
        with self._lock:
            if self._closed:
                raise ServiceError("service is closed")
            self._requests += 1
            hit = self._mem.get(key)
            if hit is not None:
                return Served(
                    experiment_id, seed, hit[0], "memory",
                    time.perf_counter() - start,  # greenlint: ignore[GL6]
                    hit[1])
            fut = self._inflight.get(key)
            if fut is not None:
                self._coalesced += 1
                waited = True
            else:
                waited = False
                fut = Future()
                self._inflight[key] = fut
        if not waited:
            try:
                self._pool.submit(self._fulfill, key, experiment_id, seed, fut)
            except RuntimeError as exc:  # pool shut down under us
                with self._lock:
                    self._inflight.pop(key, None)
                raise ServiceError(f"service is closed: {exc}") from exc
        result, digest, source = fut.result()
        return Served(
            experiment_id, seed, result,
            "coalesced" if waited else source,
            time.perf_counter() - start,  # greenlint: ignore[GL6]
            digest)

    def run(self, experiment_id: str,
            seed: int = DEFAULT_SEED) -> ExperimentResult:
        """Fulfill one request; the payload only."""
        return self.serve(experiment_id, seed).result

    def run_many(self, experiment_ids: list[str],
                 seed: int = DEFAULT_SEED) -> dict[str, ExperimentResult]:
        """Fan a batch of requests over the pool; results in input order."""
        for eid in experiment_ids:
            get_experiment(eid)
        with ThreadPoolExecutor(
                max_workers=max(1, min(self.config.jobs,
                                       len(experiment_ids) or 1)),
                thread_name_prefix="repro-serve-batch") as requesters:
            futures = [requesters.submit(self.serve, eid, seed)
                       for eid in experiment_ids]
            served = [f.result() for f in futures]
        return {s.experiment_id: s.result for s in served}

    def invalidate(self, experiment_id: str,
                   seed: int = DEFAULT_SEED) -> bool:
        """Drop one key from both tiers; True when either held it.

        Requests already in flight for the key are unaffected (they
        complete and may re-populate the tiers); the next request after
        an invalidation recomputes.  The cluster router fans this out to
        every shard, so no shard keeps serving a dropped key.
        """
        get_experiment(experiment_id)  # fail fast on unknown ids
        key = cache_key(experiment_id, seed)
        # Under the service lock, as serve() reads the memory tier.
        with self._lock:
            dropped_mem = self._mem.remove(key)
            self._invalidations += 1
        dropped_disk = False
        if self.config.cache_dir is not None:
            dropped_disk = drop_result(self.config.cache_dir,
                                       experiment_id, seed)
        return dropped_mem or dropped_disk

    # -- observability / lifecycle ----------------------------------------------

    def stats(self) -> dict:
        """Counter snapshot: requests, tiers, coalescing, pool."""
        with self._lock:
            return {
                "requests": self._requests,
                "coalesced": self._coalesced,
                "disk_hits": self._disk_hits,
                "computed": self._computed,
                "errors": self._errors,
                "labs_built": self._labs_built,
                "labs_restored": self._labs_restored,
                "invalidations": self._invalidations,
                "inflight": len(self._inflight),
                "uptime_s": time.monotonic() - self._started_monotonic,
                "jobs": self.config.jobs,
                "cache_dir": self.config.cache_dir,
                "memory": self._mem.stats(),
            }

    def close(self, wait: bool = True) -> None:
        """Reject new requests and shut the pool down."""
        with self._lock:
            self._closed = True
        self._pool.shutdown(wait=wait)

    def __enter__(self) -> "ExperimentService":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
