"""The warm serving layer: caching, coalescing, byte-identity.

Covers the four properties ``repro serve`` promises:

* the in-memory LRU honours both bounds and evicts oldest-first;
* a thread storm of identical requests performs exactly one compute
  (single-flight coalescing), and distinct keys do not coalesce;
* the memory and disk tiers agree (same key scheme, promote-on-miss);
* every registry experiment served from a warm Lab is byte-identical
  to a cold serial ``run_experiment``.

With a disk tier, a seed's Lab is primed once per cache directory:
concurrent misses wait on the seed's lock and restore the snapshot, and
a lock holder killed mid-prime hands the prime to the next waiter.
"""

from __future__ import annotations

import os
import pickle
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor, wait

import pytest

import repro
from repro.errors import ConfigError, ServiceError
from repro.experiments.engine import load_lab_snapshot, load_result, warm_lab
from repro.experiments.figures import ExperimentResult, Lab
from repro.experiments.registry import EXPERIMENTS, run_experiment
from repro.service import ExperimentService, LruCache, ServiceConfig
from repro.service.http import _served_payload, result_digest

SEED = 2015


def _bytes(result) -> bytes:
    return pickle.dumps(result, protocol=4)


class TestLruCache:
    def test_entry_bound_evicts_oldest_first(self):
        cache = LruCache(max_entries=3, max_bytes=10_000)
        for key in "abcd":
            cache.put(key, key.upper(), 1)
        assert cache.keys() == ["b", "c", "d"]
        assert cache.get("a") is None
        assert cache.evictions == 1

    def test_get_marks_recency(self):
        cache = LruCache(max_entries=3, max_bytes=10_000)
        for key in "abc":
            cache.put(key, key.upper(), 1)
        assert cache.get("a") == "A"  # refresh a past b and c
        cache.put("d", "D", 1)
        assert cache.keys() == ["c", "a", "d"]
        assert "b" not in cache

    def test_byte_bound_evicts_independently_of_entry_bound(self):
        cache = LruCache(max_entries=100, max_bytes=10)
        cache.put("a", 1, 4)
        cache.put("b", 2, 4)
        cache.put("c", 3, 4)  # 12 bytes > 10: "a" must go
        assert cache.keys() == ["b", "c"]
        assert cache.nbytes == 8

    def test_oversized_value_is_refused_not_destructive(self):
        cache = LruCache(max_entries=4, max_bytes=10)
        assert cache.put("a", 1, 4)
        assert not cache.put("huge", 2, 11)
        assert cache.keys() == ["a"]

    def test_replacing_a_key_updates_the_byte_charge(self):
        cache = LruCache(max_entries=4, max_bytes=100)
        cache.put("a", 1, 40)
        cache.put("a", 2, 10)
        assert cache.nbytes == 10
        assert len(cache) == 1

    def test_counters(self):
        cache = LruCache(max_entries=2, max_bytes=100)
        cache.put("a", 1, 1)
        assert cache.get("a") == 1
        assert cache.get("zzz") is None
        stats = cache.stats()
        assert stats["hits"] == 1
        assert stats["misses"] == 1

    def test_invalid_bounds_rejected(self):
        with pytest.raises(ConfigError):
            LruCache(max_entries=0)
        with pytest.raises(ConfigError):
            LruCache(max_bytes=0)

    def test_remove_drops_entry_and_byte_charge(self):
        cache = LruCache(max_entries=4, max_bytes=100)
        cache.put("a", 1, 40)
        assert cache.remove("a")
        assert not cache.remove("a")  # already gone
        assert cache.get("a") is None
        assert cache.nbytes == 0
        assert len(cache) == 0

    def test_bounds_hold_under_concurrent_insert(self):
        """8 writers race distinct keys; both bounds stay invariants."""
        cache = LruCache(max_entries=64, max_bytes=500)
        n_threads, per_thread, size = 8, 200, 10
        barrier = threading.Barrier(n_threads)

        def churn(worker: int):
            barrier.wait()
            for i in range(per_thread):
                key = f"w{worker}-{i}"
                cache.put(key, i, size)
                cache.get(key)

        threads = [threading.Thread(target=churn, args=(w,))
                   for w in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert len(cache) <= 50  # 500 bytes / 10 per entry
        assert cache.nbytes <= 500
        # The byte ledger matches the surviving entries exactly.
        assert cache.nbytes == len(cache) * size
        stats = cache.stats()
        assert stats["evictions"] == n_threads * per_thread - len(cache)


class TestSingleFlight:
    def test_storm_on_one_key_computes_once(self):
        """N concurrent identical requests -> exactly one compute."""
        n_threads = 16
        release = threading.Event()
        calls = []
        call_lock = threading.Lock()

        def slow_compute(eid, lab):
            with call_lock:
                calls.append(eid)
            release.wait(timeout=30)
            return run_experiment(eid, lab)

        with ExperimentService(ServiceConfig(jobs=4),
                               compute=slow_compute) as service:
            barrier = threading.Barrier(n_threads + 1)
            served = []
            served_lock = threading.Lock()

            def request():
                barrier.wait()
                s = service.serve("table2", seed=SEED)
                with served_lock:
                    served.append(s)

            threads = [threading.Thread(target=request)
                       for _ in range(n_threads)]
            for t in threads:
                t.start()
            barrier.wait()       # all requesters lined up...
            # ...and joined the one in-flight compute: a requester that
            # arrived after it finished would be a memory hit instead.
            deadline = time.monotonic() + 30
            while (service.stats()["coalesced"] < n_threads - 1
                   and time.monotonic() < deadline):
                time.sleep(0.005)
            release.set()        # ...then let the one compute finish
            for t in threads:
                t.join(timeout=30)

            assert len(calls) == 1
            assert len(served) == n_threads
            stats = service.stats()
            assert stats["computed"] == 1
            assert stats["coalesced"] == n_threads - 1
            # Every waiter got the same result object as the computer.
            results = {id(s.result) for s in served}
            assert len(results) == 1
            assert sorted(s.source for s in served) == (
                ["coalesced"] * (n_threads - 1) + ["computed"])

    def test_distinct_keys_do_not_coalesce(self):
        """Different ids (and different seeds) each compute once."""
        with ExperimentService(ServiceConfig(jobs=4)) as service:
            service.serve("fig4", seed=SEED)
            service.serve("table2", seed=SEED)
            service.serve("fig4", seed=SEED + 1)
            stats = service.stats()
            assert stats["computed"] == 3
            assert stats["coalesced"] == 0

    def test_compute_error_propagates_and_does_not_wedge(self):
        boom = ConfigError("injected failure")

        def failing_compute(eid, lab):
            raise boom

        with ExperimentService(ServiceConfig(jobs=1),
                               compute=failing_compute) as service:
            with pytest.raises(ConfigError):
                service.serve("fig4", seed=SEED)
            assert service.stats()["errors"] == 1
            assert service.stats()["inflight"] == 0

    def test_compute_error_reaches_every_coalesced_waiter(self):
        """One failing compute -> N raising requests, then a clean retry."""
        n_threads = 8
        release = threading.Event()
        calls = []
        call_lock = threading.Lock()

        def compute(eid, lab):
            with call_lock:
                calls.append(eid)
            release.wait(timeout=30)
            if len(calls) == 1:
                raise ConfigError("injected failure")
            return run_experiment(eid, lab)

        with ExperimentService(ServiceConfig(jobs=2),
                               compute=compute) as service:
            barrier = threading.Barrier(n_threads + 1)
            outcomes = []
            outcome_lock = threading.Lock()

            def request():
                barrier.wait()
                try:
                    service.serve("table2", seed=SEED)
                except ConfigError as exc:
                    with outcome_lock:
                        outcomes.append(exc)
                else:  # pragma: no cover - the assertion below fires
                    with outcome_lock:
                        outcomes.append(None)

            threads = [threading.Thread(target=request)
                       for _ in range(n_threads)]
            for t in threads:
                t.start()
            barrier.wait()
            # Only release the failing compute once every requester has
            # actually coalesced onto it, so nobody arrives late and
            # starts a fresh flight.
            deadline = time.monotonic() + 30
            while (service.stats()["coalesced"] < n_threads - 1
                   and time.monotonic() < deadline):
                time.sleep(0.005)
            release.set()
            for t in threads:
                t.join(timeout=30)

            # The single failed compute reached all N waiters as the
            # same exception, and counted as one error, not N.
            assert len(calls) == 1
            assert len(outcomes) == n_threads
            assert all(isinstance(o, ConfigError) for o in outcomes)
            stats = service.stats()
            assert stats["errors"] == 1
            # The failure cleared the in-flight slot: a later request
            # for the same key starts a fresh compute and succeeds.
            assert stats["inflight"] == 0
            served = service.serve("table2", seed=SEED)
            assert served.source == "computed"
            assert len(calls) == 2

    def test_closed_service_rejects_requests(self):
        service = ExperimentService(ServiceConfig(jobs=1))
        service.close()
        with pytest.raises(ServiceError):
            service.serve("fig4", seed=SEED)


class TestTwoTierCache:
    def test_repeat_request_is_a_memory_hit(self):
        with ExperimentService(ServiceConfig(jobs=1)) as service:
            first = service.serve("fig4", seed=SEED)
            second = service.serve("fig4", seed=SEED)
            assert first.source == "computed"
            assert second.source == "memory"
            assert second.result is first.result

    def test_disk_tier_round_trip_and_promotion(self, tmp_path):
        cache_dir = str(tmp_path)
        config = ServiceConfig(jobs=1, cache_dir=cache_dir)
        with ExperimentService(config) as service:
            computed = service.serve("fig4", seed=SEED)
            assert computed.source == "computed"
        # The computed result landed in the engine's disk store...
        on_disk = load_result(cache_dir, "fig4", SEED)
        assert _bytes(on_disk) == _bytes(computed.result)
        # ...and a fresh service (cold memory) serves it from disk,
        # promoting it so the next request hits memory.
        with ExperimentService(config) as fresh:
            warm = fresh.serve("fig4", seed=SEED)
            assert warm.source == "disk"
            assert _bytes(warm.result) == _bytes(computed.result)
            again = fresh.serve("fig4", seed=SEED)
            assert again.source == "memory"
            stats = fresh.stats()
            assert stats["disk_hits"] == 1
            assert stats["computed"] == 0

    def test_replies_carry_the_frame_digest_without_repickling(
            self, tmp_path, monkeypatch):
        pickled = []
        dumps = pickle.dumps

        def counting_dumps(obj, *args, **kwargs):
            if isinstance(obj, ExperimentResult):
                pickled.append(obj)
            return dumps(obj, *args, **kwargs)

        monkeypatch.setattr(pickle, "dumps", counting_dumps)
        config = ServiceConfig(jobs=1, cache_dir=str(tmp_path))
        with ExperimentService(config) as service:
            computed = service.serve("fig4", seed=SEED)
            reply = _served_payload(computed)
        assert computed.source == "computed"
        assert len(pickled) == 1  # the cache entry's frame
        with ExperimentService(config) as fresh:
            del pickled[:]
            hit = fresh.serve("fig4", seed=SEED)
            hit_reply = _served_payload(hit)
            assert hit.source == "disk"
            assert pickled == []
            again = fresh.serve("fig4", seed=SEED)
            assert again.source == "memory"
            assert again.digest == hit.digest
        with ExperimentService(ServiceConfig(jobs=1)) as memory_only:
            del pickled[:]
            uncached = memory_only.serve("fig4", seed=SEED)
            assert len(pickled) == 1
        expected = result_digest(computed.result)
        assert (reply["digest"] == hit_reply["digest"] == uncached.digest
                == expected)

    def test_worker_lab_restored_from_snapshot(self, tmp_path):
        cache_dir = str(tmp_path)
        # A prior batch run (or serve) left a warm-Lab snapshot behind.
        warm_lab(SEED, cache_dir)
        config = ServiceConfig(jobs=1, cache_dir=cache_dir)
        with ExperimentService(config) as service:
            served = service.serve("fig4", seed=SEED)
            stats = service.stats()
            assert stats["labs_restored"] == 1
            assert stats["labs_built"] == 0
        assert _bytes(served.result) == _bytes(
            run_experiment("fig4", Lab(seed=SEED)))

    def test_invalidate_drops_both_tiers(self, tmp_path):
        cache_dir = str(tmp_path)
        config = ServiceConfig(jobs=1, cache_dir=cache_dir)
        with ExperimentService(config) as service:
            first = service.serve("fig4", seed=SEED)
            assert first.source == "computed"
            assert service.invalidate("fig4", seed=SEED)
            assert load_result(cache_dir, "fig4", SEED) is None
            again = service.serve("fig4", seed=SEED)
            assert again.source == "computed"  # both tiers were dropped
            assert _bytes(again.result) == _bytes(first.result)
            assert not service.invalidate("table2", seed=SEED)  # never held
            assert service.stats()["invalidations"] == 2
            with pytest.raises(ConfigError):
                service.invalidate("not-an-experiment", seed=SEED)

    def test_unusable_cache_dir_skips_the_store(self, tmp_path):
        not_a_dir = tmp_path / "file"
        not_a_dir.write_bytes(b"")
        config = ServiceConfig(jobs=1, cache_dir=str(not_a_dir))
        with ExperimentService(config) as service:
            served = service.serve("fig4", seed=SEED)
            assert served.source == "computed"
            assert service.stats()["errors"] == 0
        assert _bytes(served.result) == _bytes(
            run_experiment("fig4", Lab(seed=SEED)))

    def test_mem_tier_respects_entry_bound(self):
        config = ServiceConfig(jobs=1, mem_entries=1)
        with ExperimentService(config) as service:
            service.serve("fig4", seed=SEED)
            service.serve("table2", seed=SEED)  # evicts fig4
            refetch = service.serve("fig4", seed=SEED)
            assert refetch.source == "computed"
            assert service.stats()["memory"]["evictions"] >= 1


#: A process that takes the seed's lock and stalls inside the prime.
_STALLED_PRIME = """
import sys, time
from repro.experiments import engine

def stall(lab):
    print("priming", flush=True)
    time.sleep(600)

engine._prime = stall
engine.primed_lab(sys.argv[1], int(sys.argv[2]))
"""


class TestPrimeOnce:
    def test_concurrent_misses_prime_once(self, tmp_path):
        """Two services sharing a cache directory prime the seed once."""
        config = ServiceConfig(jobs=1, cache_dir=str(tmp_path))
        # Different experiments, so the result disk tier stays out of it:
        # both requests need the seed's Lab.
        ids = ("fig4", "table2")
        barrier = threading.Barrier(len(ids))
        served = {}

        def request(service, eid):
            barrier.wait()
            served[eid] = service.serve(eid, seed=SEED)

        with ExperimentService(config) as one, ExperimentService(config) as two:
            threads = [threading.Thread(target=request, args=(service, eid))
                       for service, eid in zip((one, two), ids)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            stats = [one.stats(), two.stats()]
        assert sum(s["labs_built"] for s in stats) == 1
        assert sum(s["labs_restored"] for s in stats) == 1
        for eid in ids:
            assert served[eid].source == "computed"
            assert _bytes(served[eid].result) == _bytes(
                run_experiment(eid, Lab(seed=SEED)))

    def test_holder_killed_mid_prime_lets_the_waiter_prime(self, tmp_path):
        cache_dir = str(tmp_path)
        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        holder = subprocess.Popen(
            [sys.executable, "-c", _STALLED_PRIME, cache_dir, str(SEED)],
            stdout=subprocess.PIPE, text=True,
            env=dict(os.environ, PYTHONPATH=src))
        try:
            assert holder.stdout.readline().strip() == "priming"
            config = ServiceConfig(jobs=1, cache_dir=cache_dir)
            with ExperimentService(config) as service, \
                    ThreadPoolExecutor(max_workers=1) as requester:
                pending = requester.submit(service.serve, "fig4", SEED)
                try:
                    # The request waits on the holder's lock.
                    blocked = not wait([pending], timeout=0.5).done
                finally:
                    # Leaving the block joins the request, which cannot
                    # finish while the holder lives.
                    holder.kill()
                assert blocked
                served = pending.result(timeout=120)
                stats = service.stats()
        finally:
            if holder.poll() is None:
                holder.kill()
            holder.wait()
            holder.stdout.close()
        assert stats["labs_built"] == 1
        assert stats["labs_restored"] == 0
        assert load_lab_snapshot(cache_dir, SEED) is not None
        assert _bytes(served.result) == _bytes(
            run_experiment("fig4", Lab(seed=SEED)))

    def test_memory_only_service_writes_nothing(self, tmp_path, monkeypatch):
        writes = []
        real_open = open

        def spying_open(file, mode="r", *args, **kwargs):
            if set(mode) & set("wax+"):
                writes.append(file)
            return real_open(file, mode, *args, **kwargs)

        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr("builtins.open", spying_open)
        with ExperimentService(ServiceConfig(jobs=1)) as service:
            service.serve("fig4", seed=SEED)
            stats = service.stats()
        assert stats["labs_built"] == 1
        assert writes == []
        assert os.listdir(tmp_path) == []


class TestByteIdentity:
    @pytest.fixture(scope="class")
    def warm_service(self):
        with ExperimentService(ServiceConfig(jobs=2)) as service:
            yield service

    @pytest.mark.parametrize("eid", sorted(EXPERIMENTS))
    def test_served_matches_cold_serial(self, warm_service, eid):
        """Warm-Lab serving == cold serial run, at the pickle-byte level."""
        cold = run_experiment(eid, Lab(seed=SEED))
        served = warm_service.serve(eid, seed=SEED)
        assert _bytes(served.result) == _bytes(cold)
