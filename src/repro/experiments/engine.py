"""Parallel, cached experiment engine.

:func:`repro.experiments.registry.run_all` reproduces the evaluation
section one experiment at a time in one process.  The experiments are
pure functions of ``(seed, testbed spec)`` — that is the repository's
central determinism invariant — which makes them embarrassingly parallel
and their results content-addressable.  This module exploits both:

* **Parallel**: experiments fan out over a process pool.  Every worker
  owns a :class:`~repro.experiments.figures.Lab` for the run's seed, so
  experiments that land on the same worker still share memoized pipeline
  runs, and no state crosses process boundaries (workers return their
  results, which the pool pickles).  ``jobs=1`` degenerates to exactly
  ``registry.run_all``.
* **Cached**: results can persist on disk, keyed by a digest of
  everything they depend on (engine format version, package version,
  seed, experiment id, and the full testbed spec).  A second invocation
  with the same inputs loads instead of recomputing; any change to the
  inputs changes the key and misses.  Each entry is a sha256-checked
  :mod:`~repro.experiments.codec` frame: corrupt, truncated or
  foreign entries read as misses and are recomputed and overwritten,
  never trusted.  An unusable cache directory skips the store.

Either feature is bitwise-faithful: the engine returns the same
:class:`~repro.experiments.figures.ExperimentResult` payloads, in
registry order, that the serial path produces.
"""

from __future__ import annotations

import hashlib
import io
import multiprocessing
import os
import pickle
import struct
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

from repro.errors import CodecError, ConfigError, ReproError
from repro.experiments.codec import (
    PICKLE_PROTOCOL,
    decode_result,
    encode_result,
)

# Re-exported: the service and the benchmarks import it from here.
from repro.experiments.codec import pickle_result as pickle_result
from repro.experiments.figures import ExperimentResult, Lab
from repro.experiments.registry import EXPERIMENTS, get_experiment
from repro.integrity import frame, frame_stamp, unframe, write_file
from repro.machine.node import paper_testbed
from repro.rng import DEFAULT_SEED
from repro.version import __version__

#: Bump to invalidate every existing cache entry (result format change).
#: It also feeds :func:`cache_key`, which the cluster router hashes onto
#: shards; an entry-format change bumps the codec's frame version instead.
ENGINE_CACHE_VERSION = 1


@dataclass(frozen=True)
class EngineReport:
    """Outcome of one engine invocation."""

    results: dict[str, ExperimentResult]
    jobs: int
    cache_dir: str | None = None
    cache_hits: tuple[str, ...] = field(default=())
    cache_misses: tuple[str, ...] = field(default=())


# -- cache ----------------------------------------------------------------------


#: Memoized ``repr(paper_testbed())``.  The testbed spec is a process
#: constant, but rebuilding the Node tree and rendering its repr costs
#: real time, and ``run_experiments`` derives one key per experiment id
#: — so the spec portion is computed once and reused.
_TESTBED_REPR: str | None = None


def _testbed_repr() -> str:
    global _TESTBED_REPR
    if _TESTBED_REPR is None:
        _TESTBED_REPR = repr(paper_testbed())
    return _TESTBED_REPR


def cache_key(experiment_id: str, seed: int) -> str:
    """Digest of everything an experiment's result depends on."""
    material = ":".join((
        str(ENGINE_CACHE_VERSION),
        __version__,
        str(seed),
        experiment_id,
        _testbed_repr(),
    ))
    return hashlib.sha256(material.encode()).hexdigest()


def _cache_path(cache_dir: str, experiment_id: str, seed: int) -> str:
    return os.path.join(cache_dir,
                        f"{experiment_id}-{cache_key(experiment_id, seed)[:20]}.pkl")


@dataclass(frozen=True)
class ResultEntry:
    """A result with the length and sha256 hex digest of its canonical
    pickle (the ``/run`` reply digest)."""

    result: ExperimentResult
    nbytes: int
    digest: str


def result_entry(result: ExperimentResult) -> ResultEntry:
    """Stamp a result with no cache entry behind it (pickles it once)."""
    payload = pickle_result(result)
    return ResultEntry(result, len(payload),
                       hashlib.sha256(payload).hexdigest())


def _cache_load(path: str) -> ResultEntry | None:
    """A cached result with its frame's stamp, or None when
    absent/corrupt/foreign (never raises)."""
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError:
        return None
    try:
        return ResultEntry(decode_result(blob), *frame_stamp(blob))
    except CodecError:
        return None


def load_entry(cache_dir: str, experiment_id: str,
               seed: int) -> ResultEntry | None:
    """Load one experiment's cached entry, or None (never raises)."""
    return _cache_load(_cache_path(cache_dir, experiment_id, seed))


def load_result(cache_dir: str, experiment_id: str,
                seed: int) -> ExperimentResult | None:
    """Load one experiment's cached result, or None (never raises)."""
    entry = load_entry(cache_dir, experiment_id, seed)
    return None if entry is None else entry.result


def store_result(cache_dir: str, experiment_id: str, seed: int,
                 result: ExperimentResult) -> ResultEntry:
    """Persist one experiment's result (atomic, best-effort); returns
    the stored entry's stamp."""
    return _cache_store(_cache_path(cache_dir, experiment_id, seed), result)


def drop_result(cache_dir: str, experiment_id: str, seed: int) -> bool:
    """Delete one experiment's cached entry (invalidation, best-effort).

    Returns True when an entry existed.  The serving layer's coherent
    invalidation fans this out cluster-wide; shards sharing one cache
    directory make the delete idempotent across them.
    """
    try:
        os.remove(_cache_path(cache_dir, experiment_id, seed))
    except OSError:
        return False
    return True


def _cache_store(path: str, result: ExperimentResult) -> ResultEntry:
    """Atomically persist a result's frame (best-effort).

    An unusable cache directory skips the store; the caller still has
    the computed result, stamped from the frame either way.
    """
    blob = encode_result(result)
    write_file(path, blob)
    return ResultEntry(result, *frame_stamp(blob))


# -- warm-Lab snapshots ---------------------------------------------------------

#: Bump to invalidate every existing Lab snapshot (Lab layout change).
LAB_SNAPSHOT_VERSION = 3

#: A snapshot is a codec frame whose payload is ``i64 seed | pickle``.
_SNAP_MAGIC = b"RPLS"
_SNAP_SEED = struct.Struct("<q")


def _snapshot_singletons() -> dict[str, object]:
    """Module-level constants a Lab's products may reference.

    Experiments mix Lab-held products with objects they compute fresh,
    and the fresh objects reference these calibration singletons
    directly.  A naively unpickled Lab would hold *copies*, silently
    breaking the sharing structure (and thus the pickle-byte identity)
    of any result that touches both.  The snapshot pickler therefore
    maps each singleton to a stable persistent id and the unpickler
    resolves it back to the canonical module object.
    """
    import dataclasses

    from repro.calibration import CASE_STUDIES, PAPER, STAGE
    from repro.workloads.fio import FIO_JOBS

    consts: dict[str, object] = {}
    seen: set[int] = set()

    def walk(name: str, obj: object) -> None:
        # pickle never memoizes these, so their identity is irrelevant
        if obj is None or type(obj) in (bool, int, float):
            return
        if id(obj) in seen:
            return
        seen.add(id(obj))
        consts[name] = obj
        if isinstance(obj, dict):
            for i, (key, value) in enumerate(obj.items()):
                walk(f"{name}.k{i}", key)
                walk(f"{name}.v{i}", value)
        elif isinstance(obj, (list, tuple)):
            for i, item in enumerate(obj):
                walk(f"{name}[{i}]", item)
        elif dataclasses.is_dataclass(obj):
            for f in dataclasses.fields(obj):
                walk(f"{name}.{f.name}", getattr(obj, f.name))

    for name, table in (("CASE_STUDIES", CASE_STUDIES), ("PAPER", PAPER),
                        ("STAGE", STAGE), ("FIO_JOBS", FIO_JOBS)):
        walk(f"c:{name}", table)

    # numpy's builtin dtypes are interpreter-wide singletons, but a
    # pickle round-trip reconstructs them as copies — register them so
    # restored arrays keep sharing the live singletons.  Keyed by type
    # code, not .str: 'l' and 'q' can be equal-width yet distinct.
    import numpy as np
    for code in "?bBhHiIlLqQfd":
        walk(f"c:np.dtype[{code}]", np.dtype(code))
    return consts


_SNAP_BY_NAME: dict[str, object] | None = None
_SNAP_BY_ID: dict[int, str] | None = None


def _snapshot_registry() -> tuple[dict[str, object], dict[int, str]]:
    global _SNAP_BY_NAME, _SNAP_BY_ID
    if _SNAP_BY_NAME is None:
        by_name = _snapshot_singletons()
        _SNAP_BY_ID = {id(obj): name for name, obj in by_name.items()}
        _SNAP_BY_NAME = by_name
    return _SNAP_BY_NAME, _SNAP_BY_ID


class _SnapshotPickler(pickle.Pickler):
    """Pickler that externalizes calibration singletons and identifiers.

    Two kinds of persistent id, both plain strings (a string pid never
    re-enters ``persistent_id`` problematically — the prefixes below are
    not identifiers and are not registered):

    * ``c:<path>`` — a calibration singleton from the registry, matched
      by identity.
    * ``i:<text>`` — any ASCII identifier-like string.  These are the
      strings CPython interns (literals, attribute and keyword-argument
      names), which experiments share between Lab-held products and
      freshly computed objects; restoring them through :func:`sys.intern`
      re-merges them with the live interpreter's copies.
    """

    def __init__(self, file) -> None:
        super().__init__(file, protocol=PICKLE_PROTOCOL)
        self._by_id = _snapshot_registry()[1]

    def persistent_id(self, obj: object) -> str | None:
        name = self._by_id.get(id(obj))
        if name is not None:
            return name
        if type(obj) is str and obj.isascii() and obj.isidentifier():
            return "i:" + obj
        return None


class _SnapshotUnpickler(pickle.Unpickler):
    """Unpickler that resolves snapshot pids to live canonical objects."""

    def __init__(self, file) -> None:
        super().__init__(file)
        self._by_name = _snapshot_registry()[0]

    def persistent_load(self, pid: object) -> object:
        if isinstance(pid, str):
            if pid.startswith("i:"):
                return sys.intern(pid[2:])
            try:
                return self._by_name[pid]
            except KeyError:
                pass
        raise CodecError(
            f"lab snapshot references unknown singleton {pid!r}")


def lab_snapshot_key(seed: int) -> str:
    """Digest of everything a warm-Lab snapshot depends on.

    Mirrors :func:`cache_key`: any change to the snapshot format, the
    engine format, the package version, the seed, or the testbed spec
    changes the key, so a stale snapshot simply misses.
    """
    material = ":".join((
        "lab-snapshot",
        str(LAB_SNAPSHOT_VERSION),
        str(ENGINE_CACHE_VERSION),
        __version__,
        str(seed),
        _testbed_repr(),
    ))
    return hashlib.sha256(material.encode()).hexdigest()


def _snapshot_path(cache_dir: str, seed: int, suffix: str = ".snap") -> str:
    return os.path.join(cache_dir,
                        f"lab-{seed}-{lab_snapshot_key(seed)[:20]}{suffix}")


def snapshot_lab(lab: Lab) -> bytes:
    """Serialize a (preferably primed) Lab to a checked snapshot frame."""
    buf = io.BytesIO()
    buf.write(_SNAP_SEED.pack(lab.seed))
    _SnapshotPickler(buf).dump(lab)
    return frame(_SNAP_MAGIC, LAB_SNAPSHOT_VERSION, buf.getvalue())


def restore_lab(blob: bytes, seed: int) -> Lab:
    """Deserialize a snapshot frame; raises :class:`CodecError` on mismatch."""
    payload = unframe(blob, _SNAP_MAGIC, LAB_SNAPSHOT_VERSION)
    if len(payload) < _SNAP_SEED.size:
        raise CodecError("lab snapshot truncated")
    (snap_seed,) = _SNAP_SEED.unpack_from(payload)
    if snap_seed != seed:
        raise CodecError(f"lab snapshot seed {snap_seed} != {seed}")
    try:
        lab = _SnapshotUnpickler(io.BytesIO(payload[_SNAP_SEED.size:])).load()
    except CodecError:
        raise
    except Exception as exc:
        raise CodecError(f"lab snapshot failed to load: {exc}") from None
    if not isinstance(lab, Lab) or lab.seed != seed:
        raise CodecError("lab snapshot holds the wrong object")
    return lab


def save_lab_snapshot(cache_dir: str, lab: Lab) -> str | None:
    """Atomically persist a Lab snapshot (best-effort, never raises)."""
    path = _snapshot_path(cache_dir, lab.seed)
    try:
        blob = snapshot_lab(lab)
    except Exception:
        return None
    return path if write_file(path, blob) else None


def load_lab_snapshot(cache_dir: str, seed: int) -> Lab | None:
    """Load a Lab snapshot, or None when absent/stale/corrupt (never raises)."""
    try:
        with open(_snapshot_path(cache_dir, seed), "rb") as fh:
            blob = fh.read()
    except OSError:
        return None
    try:
        return restore_lab(blob, seed)
    except ReproError:
        return None


def _prime(lab: Lab) -> Lab:
    """Run the Lab's memoized shared pipeline runs and fio table."""
    lab.outcomes()
    lab.fio()
    lab.apps()
    return lab


def primed_lab(cache_dir: str, seed: int) -> tuple[Lab, bool]:
    """The seed's primed Lab, primed at most once per cache directory.

    Takes an exclusive ``flock`` on the seed's lock file in
    ``cache_dir``, then restores the seed's snapshot, or primes a Lab
    and saves its snapshot when there is none.  ``flock`` locks belong
    to an open file, so concurrent callers, whether worker threads of
    one service or shards sharing the directory, wait on the lock and
    then restore in milliseconds what the holder saved.  The kernel
    drops the lock when its holder dies, so a process killed mid-prime
    leaves the next waiter to prime.  Returns the Lab and whether it
    was restored.
    """
    try:
        import fcntl  # POSIX only
        os.makedirs(cache_dir, exist_ok=True)
        lock = open(_snapshot_path(cache_dir, seed, ".lock"), "ab")
    except (ImportError, OSError):
        # Without flock, or in a directory without room for the lock
        # file, the snapshots still serve; caching is best-effort.
        return _load_or_prime(cache_dir, seed)
    with lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        return _load_or_prime(cache_dir, seed)


def _load_or_prime(cache_dir: str, seed: int) -> tuple[Lab, bool]:
    lab = load_lab_snapshot(cache_dir, seed)
    if lab is not None:
        return lab, True
    lab = _prime(Lab(seed=seed))
    save_lab_snapshot(cache_dir, lab)
    return lab, False


def warm_lab(seed: int, cache_dir: str | None = None) -> Lab:
    """A fully primed Lab, deserialized from a snapshot when one exists.

    Priming (the memoized case-study and application pipeline runs plus
    the fio table) costs ~100x what loading the snapshot does.  With a
    ``cache_dir`` this is :func:`primed_lab`: a miss primes under the
    seed's lock and saves the snapshot for the next cold start.
    """
    if cache_dir is not None:
        return primed_lab(cache_dir, seed)[0]
    return _prime(Lab(seed=seed))


# -- workers --------------------------------------------------------------------

#: Per-worker-process Lab.  On fork-capable platforms the parent primes
#: this with the memoized shared pipeline runs before the pool starts,
#: so every worker inherits them copy-on-write; otherwise the pool
#: initializer builds a fresh Lab per worker.  Either way the memoized
#: state only accelerates — it never changes a produced number.
_WORKER_LAB: Lab | None = None


def _worker_init(seed: int) -> None:
    global _WORKER_LAB
    if _WORKER_LAB is None or _WORKER_LAB.seed != seed:
        _WORKER_LAB = Lab(seed=seed)


def _prime_shared_lab(seed: int, cache_dir: str | None = None) -> None:
    """Warm the pre-fork shared Lab, via snapshot when one is cached."""
    global _WORKER_LAB
    if _WORKER_LAB is None or _WORKER_LAB.seed != seed:
        _WORKER_LAB = warm_lab(seed, cache_dir)
    else:
        _prime(_WORKER_LAB)


def _worker_run(experiment_id: str, seed: int) -> ExperimentResult:
    """Run one experiment on this worker's Lab.

    The pool pickles the returned result across its pipe; the object
    graph, and with it the result's canonical pickle, survives intact.
    """
    lab = _WORKER_LAB if _WORKER_LAB is not None else Lab(seed=seed)
    return get_experiment(experiment_id)(lab)


# -- the engine -----------------------------------------------------------------


def run_experiments(
    experiment_ids: list[str] | None = None,
    seed: int = DEFAULT_SEED,
    jobs: int = 1,
    cache_dir: str | None = None,
) -> EngineReport:
    """Run experiments in parallel, consulting the on-disk cache first.

    Results come back in registry order regardless of completion order,
    and are bitwise-identical to the serial path for any ``jobs``.
    """
    if jobs < 1:
        raise ConfigError(f"jobs must be >= 1, got {jobs}")
    ids = list(EXPERIMENTS) if experiment_ids is None else list(experiment_ids)
    for eid in ids:
        get_experiment(eid)  # fail fast on unknown ids

    results: dict[str, ExperimentResult] = {}
    hits: list[str] = []
    misses: list[str] = []
    if cache_dir is not None:
        for eid in ids:
            cached = _cache_load(_cache_path(cache_dir, eid, seed))
            if cached is not None:
                results[eid] = cached.result
                hits.append(eid)
            else:
                misses.append(eid)
    else:
        misses = list(ids)

    if misses:
        if jobs == 1:
            lab = Lab(seed=seed)
            computed = {eid: get_experiment(eid)(lab) for eid in misses}
        else:
            if "fork" in multiprocessing.get_all_start_methods():
                _prime_shared_lab(seed, cache_dir)
                context = multiprocessing.get_context("fork")
            else:  # pragma: no cover - non-fork platforms
                context = multiprocessing.get_context()
            with ProcessPoolExecutor(
                max_workers=min(jobs, len(misses)),
                mp_context=context,
                initializer=_worker_init,
                initargs=(seed,),
            ) as pool:
                futures = {eid: pool.submit(_worker_run, eid, seed)
                           for eid in misses}
                computed = {eid: fut.result()
                            for eid, fut in futures.items()}
        if cache_dir is not None:
            for eid, result in computed.items():
                _cache_store(_cache_path(cache_dir, eid, seed), result)
        results.update(computed)

    ordered = {eid: results[eid] for eid in ids}
    return EngineReport(results=ordered, jobs=jobs, cache_dir=cache_dir,
                        cache_hits=tuple(hits), cache_misses=tuple(misses))
