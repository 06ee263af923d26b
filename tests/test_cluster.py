"""The sharded serving tier: ring, admission, routing, one-hop hot reads.

Covers the cluster promises layered on top of ``repro serve``:

* the consistent-hash ring is deterministic, balanced, and remaps only
  a dead shard's keys (every other shard keeps its working set);
* the admission gate bounds queue depth and sheds with a 503 +
  ``Retry-After`` instead of queueing unboundedly;
* the router places keys on their owner shard, fails over around dead
  shards, answers promoted keys itself from the encoded replies it
  holds (with no shard hop, JSON encoding or hashing per read), and
  invalidates coherently, even against racing reads and on shards the
  health map marks dead;
* a cold-key storm through the router performs exactly one compute
  cluster-wide, and every reply is byte-identical (same sha256 digest)
  to a single-node ``ExperimentService`` serving the same key;
* the keep-alive :class:`ServiceClient` re-uses its connection, bounds
  every round trip, and retries transport failures and 503 sheds with
  the deterministic ``RetryPolicy`` schedule.

``LocalCluster`` hosts shards on threads behind real loopback HTTP, so
these tests exercise the exact wire protocol the forked deployment
(``repro cluster``) speaks; one ``SpawnedCluster`` smoke test covers
the process-per-shard path end to end, and ``repro cluster`` itself
runs as a process to show that no shard outlives it, however it is
stopped.
"""

from __future__ import annotations

import contextlib
import email.utils
import glob
import http.client
import importlib
import json
import multiprocessing
import os
import re
import select
import signal
import socket
import subprocess
import sys
import threading
import time
import urllib.request

import pytest

import repro
from repro.cluster import (
    AdmissionGate,
    AdmissionPolicy,
    ClusterConfig,
    HashRing,
    LocalCluster,
    RouterConfig,
    SpawnedCluster,
    shard_names,
)
from repro.cluster.router import HotKeyTracker
from repro.cluster.shard import Shard, make_shard_server, shard_stats_totals
from repro.errors import ConfigError, ServiceError
from repro.experiments.engine import cache_key, load_result, warm_lab
from repro.experiments.registry import EXPERIMENTS
from repro.faults.retry import RetryPolicy
from repro.service import ExperimentService, ServiceConfig
from repro.service.client import ServiceClient
from repro.service.http import (
    ClosingHTTPServer,
    Request,
    ServiceApp,
    json_body,
    make_server,
    result_digest,
)

SEED = 2015

#: Keys reserved per test so the module-scoped cluster stays coherent:
#: fig4 -> routing, fig5 -> stats, table2 -> hot promotion +
#: invalidation, fig9 -> storm.


def _fields(reply: dict | bytes) -> dict:
    """A ``/run`` payload as a dict: a held reply is an encoded body."""
    return json.loads(reply) if isinstance(reply, bytes) else reply


def _count_calls(monkeypatch, target: str) -> list:
    """Wrap the callable at dotted ``target``; the list of its calls."""
    module, name = target.rsplit(".", 1)
    real = getattr(importlib.import_module(module), name)
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(target, counting)
    return calls


def _await(predicate, timeout_s: float = 10.0, interval_s: float = 0.02):
    """Poll ``predicate`` until truthy; its value (fails the test late)."""
    deadline = time.monotonic() + timeout_s
    while True:
        value = predicate()
        if value:
            return value
        if time.monotonic() > deadline:
            return value
        time.sleep(interval_s)


# -- pure units -------------------------------------------------------------------


class TestHashRing:
    def test_placement_is_deterministic_across_instances(self):
        names = shard_names(4)
        a, b = HashRing(names), HashRing(names)
        for i in range(50):
            key = cache_key("fig4", SEED + i)
            assert a.preference(key) == b.preference(key)

    def test_preference_lists_distinct_shards_in_order(self):
        ring = HashRing(shard_names(4))
        prefs = ring.preference("some-key")
        assert sorted(prefs) == shard_names(4)
        assert ring.preference("some-key", n=2) == prefs[:2]
        assert ring.primary("some-key") == prefs[0]

    def test_dead_shard_remaps_only_its_own_keys(self):
        ring = HashRing(shard_names(4))
        keys = [f"key-{i}" for i in range(400)]
        before = {k: ring.primary(k) for k in keys}
        alive = [n for n in shard_names(4) if n != "shard-1"]
        for key in keys:
            after = ring.primary(key, alive=alive)
            if before[key] == "shard-1":
                assert after in alive  # failed over to a live successor
            else:
                assert after == before[key]  # everyone else undisturbed

    def test_virtual_nodes_keep_shares_roughly_uniform(self):
        ring = HashRing(shard_names(4))
        share = ring.share(f"key-{i}" for i in range(2000))
        assert sum(share.values()) == 2000
        assert min(share.values()) > 0
        assert max(share.values()) / min(share.values()) < 2.5

    def test_fewer_live_shards_than_requested(self):
        ring = HashRing(shard_names(3))
        assert ring.preference("k", n=5, alive=["shard-2"]) == ["shard-2"]
        assert ring.primary("k", alive=[]) is None
        assert ring.preference("k", alive=["not-a-shard"]) == []

    def test_invalid_construction_rejected(self):
        with pytest.raises(ConfigError):
            HashRing([])
        with pytest.raises(ConfigError):
            HashRing(["a", "a"])
        with pytest.raises(ConfigError):
            HashRing(["a"], vnodes=0)


class TestAdmissionGate:
    def test_sheds_past_the_watermark(self):
        gate = AdmissionGate(AdmissionPolicy(max_queue_depth=2,
                                             retry_after_s=0.5))
        assert gate.admit() and gate.admit()
        assert not gate.admit()  # depth == watermark: shed
        gate.release()
        assert gate.admit()  # a release frees a slot
        stats = gate.stats()
        assert stats["admitted"] == 3
        assert stats["shed"] == 1
        assert stats["peak_depth"] == 2

    def test_release_without_admit_is_a_bug(self):
        gate = AdmissionGate()
        with pytest.raises(ConfigError):
            gate.release()

    def test_depth_balances_under_concurrency(self):
        gate = AdmissionGate(AdmissionPolicy(max_queue_depth=8))
        outcomes = []
        lock = threading.Lock()

        def churn():
            for _ in range(200):
                admitted = gate.admit()
                if admitted:
                    gate.release()
                with lock:
                    outcomes.append(admitted)

        threads = [threading.Thread(target=churn) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert gate.depth == 0
        stats = gate.stats()
        assert stats["admitted"] + stats["shed"] == len(outcomes) == 1600
        assert stats["peak_depth"] <= 8

    def test_invalid_policy_rejected(self):
        with pytest.raises(ConfigError):
            AdmissionPolicy(max_queue_depth=0)
        with pytest.raises(ConfigError):
            AdmissionPolicy(retry_after_s=0)


#: A cached reply as the router holds it: encoded.
HELD = json_body({"digest": "d", "source": "memory", "attempts": 1,
                  "hot": True})


class TestHotKeyTracker:
    def test_only_cached_hits_heat_a_key(self):
        tracker = HotKeyTracker(threshold=2)
        for _ in range(10):
            tracker.record("k", None, None)
        assert tracker.hot_count() == 0  # computes/coalesced never promote
        assert tracker.record("k", None, HELD) == (False, False, 0)
        # (hot, promoted, demoted): promoted exactly at the crossing...
        assert tracker.record("k", None, HELD) == (True, True, 0)
        # ...and only there
        assert tracker.record("k", None, HELD) == (True, False, 0)
        assert tracker.hot_count() == 1

    def test_lru_eviction_reports_demoted_hot_keys(self):
        tracker = HotKeyTracker(threshold=1, max_keys=2)
        tracker.record("a", None, HELD)  # hot
        tracker.record("b", None, None)  # cold
        # Evicting hot "a" demotes it; evicting cold "b" does not.
        assert tracker.record("c", None, None)[2] == 1
        assert tracker.record("d", None, None)[2] == 0

    def test_reset_forgets_heat(self):
        tracker = HotKeyTracker(threshold=1)
        tracker.record("k", None, HELD)
        assert tracker.hot_count() == 1
        assert not tracker.reset("k")  # hot, but nothing was held
        assert tracker.hot_count() == 0
        _, token = tracker.lookup("k")
        assert token is None

    @staticmethod
    def _held(tracker: HotKeyTracker, key: str) -> None:
        """Track ``key``, then hold a reply with its token."""
        tracker.record(key, None, None)
        _, token = tracker.lookup(key)
        assert tracker.record(key, token, HELD)[0]
        assert tracker.lookup(key)[0] == HELD

    def test_a_hot_reply_is_held_until_reset(self):
        tracker = HotKeyTracker(threshold=1)
        self._held(tracker, "k")
        assert tracker.reset("k")  # it dropped the held reply
        assert tracker.lookup("k") == (None, None)

    def test_a_held_lookup_is_a_cached_hit_and_refreshes_recency(self):
        tracker = HotKeyTracker(threshold=1, max_keys=2)
        self._held(tracker, "k")
        tracker.record("a", None, None)  # LRU order: k, a
        held, token = tracker.lookup("k")  # LRU order: a, k
        assert held == HELD
        assert token is not None and token.cached_hits == 3
        tracker.record("b", None, None)  # evicts "a", not "k"
        assert tracker.lookup("a") == (None, None)
        assert tracker.lookup("k")[0] == HELD

    def test_evicting_a_hot_key_drops_its_reply(self):
        tracker = HotKeyTracker(threshold=1, max_keys=2)
        self._held(tracker, "k")
        tracker.record("a", None, None)
        assert tracker.record("b", None, None)[2] == 1  # "k" demoted
        assert tracker.lookup("k") == (None, None)

    def test_a_token_from_before_a_reset_or_eviction_is_refused(self):
        tracker = HotKeyTracker(threshold=1, max_keys=2)
        tracker.record("k", None, None)
        _, before_reset = tracker.lookup("k")
        tracker.reset("k")
        tracker.record("k", None, None)
        assert tracker.record("k", before_reset, HELD)[0]  # hot...
        assert tracker.lookup("k")[0] is None  # ...but nothing held
        _, before_eviction = tracker.lookup("k")
        tracker.record("a", None, None)
        tracker.record("b", None, None)  # evicts "k"
        tracker.record("k", None, None)
        assert tracker.record("k", before_eviction, HELD)[0]
        assert tracker.lookup("k")[0] is None
        assert tracker.record("k", None, HELD)[0]  # no token: no hold
        assert tracker.lookup("k")[0] is None

    def test_a_held_hit_is_counted_under_the_lock(self):
        tracker = HotKeyTracker(threshold=1)
        self._held(tracker, "k")
        _, heat = tracker.lookup("k")  # three cached hits so far
        counts = []

        class RecordingLock:
            """Notes the key's hit count as the lock is taken and let go."""

            def __enter__(self):
                counts.append(heat.cached_hits)

            def __exit__(self, *exc_info):
                counts.append(heat.cached_hits)

        tracker._lock = RecordingLock()
        assert tracker.lookup("k")[0] == HELD
        assert counts == [3, 4]  # one hit, counted while the lock was held


class TestShardStatsTotals:
    def test_aggregates_and_skips_dead_shards(self):
        totals = shard_stats_totals({
            "shard-0": {"requests": 3, "computed": 1,
                        "memory": {"hits": 2},
                        "admission": {"depth": 1, "shed": 4}},
            "shard-1": {"requests": 2, "disk_hits": 2},
            "shard-2": {"error": "unreachable"},
        })
        assert totals["requests"] == 5
        assert totals["computed"] == 1
        assert totals["disk_hits"] == 2
        assert totals["memory_hits"] == 2
        assert totals["queue_depth"] == 1
        assert totals["shed"] == 4


class TestConfigValidation:
    def test_cluster_config_bounds(self):
        with pytest.raises(ConfigError):
            ClusterConfig(shards=0)
        with pytest.raises(ConfigError):
            shard_names(0)

    @pytest.mark.parametrize("knob", [
        {"hot_threshold": 0}, {"max_queue_depth": 0}, {"retry_after_s": 0},
        {"jobs": 0}])
    def test_every_knob_is_checked_at_construction(self, knob):
        with pytest.raises(ConfigError):
            ClusterConfig(**knob)

    def test_a_bad_knob_forks_no_shard(self):
        with pytest.raises(ConfigError):
            SpawnedCluster(ClusterConfig(shards=2, hot_threshold=0)).start()
        assert not [child.name for child in multiprocessing.active_children()
                    if child.name.startswith("repro-shard")]

    def test_a_taken_router_port_leaves_no_shard(self):
        with socket.socket() as taken:
            taken.bind(("127.0.0.1", 0))
            taken.listen()
            cluster = SpawnedCluster(ClusterConfig(shards=2, jobs=1),
                                     router_port=taken.getsockname()[1])
            with pytest.raises(OSError):
                cluster.start()
        assert not [child.name for child in multiprocessing.active_children()
                    if child.name.startswith("repro-shard")]

    def test_router_config_bounds(self):
        with pytest.raises(ConfigError):
            RouterConfig(hot_threshold=0)
        with pytest.raises(ConfigError):
            RouterConfig(health_interval_s=0)


# -- a live local cluster ---------------------------------------------------------


@pytest.fixture(scope="module")
def cluster_dir(tmp_path_factory) -> str:
    """A shared cache directory pre-primed with the warm-Lab snapshot."""
    path = str(tmp_path_factory.mktemp("cluster-cache"))
    warm_lab(SEED, path)
    return path


@pytest.fixture(scope="module")
def cluster(cluster_dir):
    config = ClusterConfig(shards=3, jobs=2, cache_dir=cluster_dir,
                           hot_threshold=3)
    with LocalCluster(config) as running:
        yield running


@pytest.fixture(scope="module")
def reference(cluster):
    """An independent single-node service (no shared cache) to diff against."""
    with ExperimentService(ServiceConfig(jobs=2)) as service:
        yield service


@pytest.fixture()
def client(cluster):
    host, port = cluster.router_address
    with ServiceClient(host, port) as running:
        yield running


def _cluster_computed(cluster) -> int:
    return sum(cluster.service(name).stats()["computed"]
               for name in cluster._shard_servers)


def _hops(cluster) -> tuple[dict, dict]:
    """The router's ``routed`` map and every shard's ``requests``."""
    return (cluster.router.stats()["router"]["routed"],
            {name: cluster.service(name).stats()["requests"]
             for name in cluster._shard_servers})


class TestClusterServing:
    def test_routing_is_sticky_and_cache_warm(self, cluster, client):
        first = client.run("fig4", SEED)
        second = client.run("fig4", SEED)
        assert second["shard"] == first["shard"]  # one warm home per key
        assert second["source"] == "memory"
        assert second["digest"] == first["digest"]
        assert second["attempts"] == 1
        owner = cluster.router._ring.primary(cache_key("fig4", SEED))
        assert first["shard"] == owner

    @pytest.mark.parametrize("eid", sorted(EXPERIMENTS))
    def test_byte_identity_with_single_node_serve(self, client, reference,
                                                  eid):
        """Every registry id: cluster reply == single-node serve, by digest."""
        expected = result_digest(reference.serve(eid, seed=SEED).result)
        assert client.run(eid, SEED)["digest"] == expected

    def test_router_surfaces_cluster_stats(self, cluster, client):
        client.run("fig5", SEED)
        stats = client.stats()
        assert set(stats) == {"router", "shards", "totals"}
        assert stats["router"]["requests"] >= 1
        assert sorted(stats["shards"]) == shard_names(3)
        assert all(stats["router"]["healthy"].values())
        totals = stats["totals"]
        assert totals["requests"] >= totals["computed"] >= 1
        assert totals["queue_depth"] == 0  # nothing in flight now

    def test_hot_key_is_promoted_and_answered_by_the_router(
            self, cluster, client, reference):
        reply = None
        for _ in range(4 * cluster.config.hot_threshold):
            reply = client.run("table2", SEED)
            if reply["hot"]:
                break
        assert reply is not None and reply["hot"]
        router_stats = cluster.router.stats()["router"]
        assert router_stats["promotions"] >= 1
        assert router_stats["hot_keys"] >= 1
        # The promoting reply is held: later reads make no shard hop,
        # though the router still counts each request.
        before = _hops(cluster)
        requests = cluster.router.stats()["router"]["requests"]
        replies = [client.run("table2", SEED) for _ in range(8)]
        assert _hops(cluster) == before
        assert cluster.router.stats()["router"]["requests"] == requests + 8
        expected = result_digest(reference.serve("table2", seed=SEED).result)
        owner = cluster.router._ring.primary(cache_key("table2", SEED))
        for held in replies:
            assert (held["digest"], held["source"], held["attempts"],
                    held["hot"], held["shard"]) == (
                        expected, "memory", 1, True, owner)
        # The held reply is its encoded body: every read shares it.
        first, second = (cluster.router.route("table2", SEED)
                         for _ in range(2))
        assert isinstance(first, bytes) and first == second

    def test_invalidation_is_coherent_across_replicas(self, cluster,
                                                      cluster_dir, client):
        """No copy of an invalidated key survives: router, shard or disk."""
        before = _hops(cluster)
        reply = client.run("table2", SEED)  # held since the test above
        assert _hops(cluster) == before
        outcome = client.invalidate("table2", SEED)
        assert outcome["invalidated"]
        assert sorted(outcome["shards"]) == shard_names(3)
        key = cache_key("table2", SEED)
        owner = cluster.router._ring.primary(key)
        assert cluster.service(owner)._mem.get(key) is None
        assert load_result(cluster_dir, "table2", SEED) is None
        computed_before = _cluster_computed(cluster)
        fresh = client.run("table2", SEED)
        assert fresh["source"] == "computed"
        assert fresh["digest"] == reply["digest"]
        assert _cluster_computed(cluster) - computed_before == 1

    def test_cold_storm_computes_exactly_once_cluster_wide(self, cluster,
                                                           client):
        """32 concurrent cold requests for one key -> one compute total."""
        client.invalidate("fig9", SEED)  # make the key cold everywhere
        computed_before = _cluster_computed(cluster)
        host, port = cluster.router_address
        n_threads = 32
        barrier = threading.Barrier(n_threads)
        replies, failures = [], []
        lock = threading.Lock()

        def storm():
            try:
                with ServiceClient(host, port) as mine:
                    barrier.wait(timeout=30)
                    reply = mine.run("fig9", SEED)
                with lock:
                    replies.append(reply)
            except Exception as exc:  # noqa: BLE001 - surfaced below
                with lock:
                    failures.append(exc)

        threads = [threading.Thread(target=storm) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not failures
        assert len(replies) == n_threads
        assert len({r["digest"] for r in replies}) == 1
        assert _cluster_computed(cluster) - computed_before == 1

    def test_unknown_experiment_maps_to_400_not_failover(self, cluster,
                                                         client):
        failovers_before = cluster.router.stats()["router"]["failovers"]
        with pytest.raises(ServiceError) as excinfo:
            client.run("not-an-experiment", SEED)
        assert excinfo.value.status == 400
        # A request-level error is not a shard fault: no fail-over.
        assert cluster.router.stats()["router"]["failovers"] == failovers_before

    @pytest.mark.parametrize("path, body", [
        ("/run", {"experiment": "not-an-experiment", "seed": SEED}),
        ("/invalidate", {"experiment": "not-an-experiment", "seed": SEED}),
        ("/run", {"experiment": "fig5", "seed": 2015.7}),
        ("/invalidate", {"experiment": "fig5", "seed": True}),
    ])
    def test_bad_parameters_never_leave_the_router(self, client, path, body):
        """An unknown id or a non-integer seed: one 400, no hop, no count."""
        def counters():
            stats = client.stats()
            router = stats["router"]
            return (router["requests"], router["routed"],
                    router["invalidations"],
                    {name: (shard["requests"], shard["invalidations"])
                     for name, shard in stats["shards"].items()})

        before = counters()
        with pytest.raises(ServiceError) as excinfo:
            client.request(path, body=body)
        assert excinfo.value.status == 400
        message = str(excinfo.value)
        assert message.count("server rejected request") == 1
        assert ("not-an-experiment" in message
                if body["experiment"] == "not-an-experiment"
                else "seed must be an integer" in message)
        assert counters() == before

    def test_router_health_and_status_endpoints(self, cluster, client):
        health = client.health()
        assert health["status"] == "ok"
        assert sorted(health["healthy"]) == shard_names(3)
        status = client.status()
        assert status["role"] == "router"
        assert sorted(EXPERIMENTS) == sorted(status["experiments"])
        assert [s["name"] for s in status["shards"]] == shard_names(3)


class TestFailover:
    def test_requests_route_around_a_dead_shard(self, cluster_dir):
        config = ClusterConfig(shards=2, jobs=1, cache_dir=cluster_dir)
        with LocalCluster(config) as cluster:
            first = _fields(cluster.router.route("fig6", SEED))
            victim = first["shard"]
            survivor = next(n for n in shard_names(2) if n != victim)
            # Stop the background prober first: marking the victim dead
            # before the route below would skip the forwarding fail-over
            # this test checks.
            cluster.router.close()
            cluster.stop_shard(victim)
            second = _fields(cluster.router.route("fig6", SEED))
            assert second["shard"] == survivor
            assert second["digest"] == first["digest"]
            assert second["attempts"] > 1  # the dead owner was tried first
            health = cluster.router.healthy()
            assert health[victim] is False and health[survivor] is True
            # Once marked dead, the ring routes straight to the survivor.
            third = _fields(cluster.router.route("fig6", SEED))
            assert third["attempts"] == 1

    def test_a_held_key_is_answered_with_its_owner_dead(self, cluster_dir):
        config = ClusterConfig(shards=2, jobs=1, cache_dir=cluster_dir,
                               hot_threshold=1)
        with LocalCluster(config) as cluster:
            router = cluster.router
            router.route("fig6", SEED)  # tracks the key...
            # ...whose cached hit is held
            held = _fields(router.route("fig6", SEED))
            owner = held["shard"]
            router.close()  # the prober must not mark the owner dead
            cluster.stop_shard(owner)
            reply = _fields(router.route("fig6", SEED))
            assert (reply["attempts"], reply["source"], reply["shard"],
                    reply["digest"]) == (1, "memory", owner, held["digest"])
            # A key the router does not hold fails over as before.
            eid = next(e for e in sorted(EXPERIMENTS) if e != "fig6"
                       and router._ring.primary(cache_key(e, SEED)) == owner)
            moved = _fields(router.route(eid, SEED))
            assert moved["shard"] != owner and moved["attempts"] == 2

    def test_no_live_shard_raises_promptly(self, cluster_dir):
        config = ClusterConfig(shards=2, jobs=1, cache_dir=cluster_dir)
        with LocalCluster(config) as cluster:
            for name in shard_names(2):
                cluster.stop_shard(name)
            with pytest.raises(ServiceError) as excinfo:
                cluster.router.route("fig6", SEED)
            assert excinfo.value.status is None  # transport, not a shed
            # Every candidate is now marked dead: the next request fails
            # without probing sockets at all.
            with pytest.raises(ServiceError, match="no healthy shards"):
                cluster.router.route("fig6", SEED)

    def test_invalidate_reaches_a_shard_marked_dead(self, cluster_dir):
        """A live owner marked dead by one failed forward drops the key."""
        config = ClusterConfig(shards=2, jobs=1, cache_dir=cluster_dir)
        with LocalCluster(config) as cluster:
            router = cluster.router
            router.close()  # the prober must not mark the owner alive
            key = cache_key("table1", SEED)
            owner = router._ring.primary(key)
            other = next(n for n in shard_names(2) if n != owner)
            router.route("table1", SEED)
            assert _fields(router.route("table1", SEED))["source"] == "memory"
            router._set_health(owner, False)  # as a failed forward does
            outcome = router.invalidate("table1", SEED)
            assert sorted(outcome["shards"]) == shard_names(2)
            assert outcome["shards"][owner] is True
            assert cluster.service(owner)._mem.get(key) is None
            router._set_health(owner, True)
            reply = _fields(router.route("table1", SEED))
            assert (reply["source"], reply["shard"]) == ("computed", owner)
            # A shard that cannot be reached reports False.
            cluster.stop_shard(other)
            assert router.invalidate("table1", SEED)["shards"] == {
                owner: True, other: False}


class TestHeldReplyRaces:
    """A read that races ``/invalidate`` leaves no reply held after it."""

    @pytest.fixture()
    def racing(self, cluster_dir):
        config = ClusterConfig(shards=2, jobs=1, cache_dir=cluster_dir,
                               hot_threshold=1)
        with LocalCluster(config) as cluster:
            yield cluster.router, cluster.service(
                cluster.router._ring.primary(cache_key("table1", SEED)))

    def test_a_memory_hit_that_outlives_the_invalidate_is_not_held(
            self, racing):
        router, owner = racing
        router.route("table1", SEED)  # tracked, in the owner's memory
        serve = owner.serve
        blocked, release = threading.Event(), threading.Event()

        def late_serve(*args, **kwargs):
            served = serve(*args, **kwargs)
            if served.source == "memory" and not blocked.is_set():
                blocked.set()
                release.wait(30)
            return served

        owner.serve = late_serve
        late = []
        reader = threading.Thread(
            target=lambda: late.append(router.route("table1", SEED)))
        reader.start()
        try:
            assert blocked.wait(30)
            assert router.invalidate("table1", SEED)["invalidated"]
        finally:
            release.set()
            reader.join(timeout=30)
        assert not reader.is_alive()
        assert [(r["source"], r["hot"]) for r in map(_fields, late)] == [
            ("memory", True)]
        assert _fields(router.route("table1", SEED))["source"] == "computed"

    def test_reads_during_the_fan_out_are_not_held_after_it(self, racing):
        router, owner = racing
        router.route("table1", SEED)
        router.route("table1", SEED)  # held from here on
        invalidate = owner.invalidate
        blocked, release = threading.Event(), threading.Event()

        def slow_invalidate(*args, **kwargs):
            blocked.set()
            release.wait(30)
            return invalidate(*args, **kwargs)

        owner.invalidate = slow_invalidate
        outcome = []
        writer = threading.Thread(
            target=lambda: outcome.append(router.invalidate("table1", SEED)))
        writer.start()
        try:
            assert blocked.wait(30)
            # The owner still has the key in memory while it waits.
            for _ in range(2):
                read = _fields(router.route("table1", SEED))
                assert read["source"] == "memory"
        finally:
            release.set()
            writer.join(timeout=30)
        assert not writer.is_alive()
        assert [o["invalidated"] for o in outcome] == [True]
        assert _fields(router.route("table1", SEED))["source"] == "computed"


class TestHeldReplyBytes:
    """A held read writes stored bytes: no JSON encoding, no hashing."""

    @pytest.fixture(scope="class")
    def held(self, cluster_dir):
        """A cluster whose router holds ``table1``; (cluster, client)."""
        config = ClusterConfig(shards=2, jobs=1, cache_dir=cluster_dir,
                               hot_threshold=1)
        with LocalCluster(config) as cluster, \
                ServiceClient(*cluster.router_address) as client:
            # No health probes: only the reads below reach any adapter.
            cluster.router.close()
            client.run("table1", SEED)
            client.run("table1", SEED)  # cached and hot: held from here on
            yield cluster, client

    def test_held_reads_encode_no_json(self, held, monkeypatch):
        cluster, client = held
        before = _hops(cluster)  # its /stats fan-out encodes on the shards
        encodes = _count_calls(monkeypatch, "repro.service.http.json_body")
        replies = [client.run("table1", SEED) for _ in range(8)]
        assert encodes == []
        assert [r["source"] for r in replies] == ["memory"] * 8
        assert _hops(cluster) == before  # held: no shard hop

    def test_held_reads_compute_no_cache_key(self, held, monkeypatch):
        cluster, client = held
        before = _hops(cluster)
        hashes = _count_calls(monkeypatch, "repro.cluster.router.cache_key")
        for _ in range(8):
            client.run("table1", SEED)
        assert hashes == []
        assert _hops(cluster) == before

    def test_held_body_is_canonical_and_byte_identical(self, held,
                                                       reference):
        cluster, _client = held
        body = json.dumps({"experiment": "table1", "seed": SEED}).encode()
        conn = http.client.HTTPConnection(*cluster.router_address,
                                          timeout=30)
        try:
            bodies = []
            for _ in range(2):
                conn.request("POST", "/run", body=body)
                reply = conn.getresponse()
                assert reply.status == 200
                bodies.append(reply.read())
        finally:
            conn.close()
        first, second = bodies
        assert first == second
        assert first == json.dumps(json.loads(first), sort_keys=True).encode()
        fields = json.loads(first)
        owner = cluster.router._ring.primary(cache_key("table1", SEED))
        expected = result_digest(reference.serve("table1", seed=SEED).result)
        assert (fields["source"], fields["attempts"], fields["hot"],
                fields["shard"], fields["digest"]) == (
                    "memory", 1, True, owner, expected)


class TestAdmissionShedding:
    @pytest.fixture()
    def tiny_cluster(self, cluster_dir):
        """One shard, queue depth 1, with a compute we can hold open."""
        config = ClusterConfig(shards=1, jobs=1, cache_dir=cluster_dir,
                               max_queue_depth=1, retry_after_s=0.05)
        with LocalCluster(config) as cluster:
            service = cluster.service("shard-0")
            release = threading.Event()
            original = service._compute
            service._compute = lambda eid, lab: (release.wait(30),
                                                 original(eid, lab))[1]
            try:
                yield cluster, release
            finally:
                release.set()

    def test_overload_sheds_with_retry_after_and_recovers(self, tiny_cluster):
        cluster, release = tiny_cluster
        host, port = cluster.router_address
        service = cluster.service("shard-0")
        service.invalidate("fig8", SEED)
        service.invalidate("fig10", SEED)

        occupant_done = []

        def occupy():
            with ServiceClient(host, port) as held:
                occupant_done.append(held.run("fig8", SEED))

        occupant = threading.Thread(target=occupy, daemon=True)
        occupant.start()
        gate = cluster._shard_servers["shard-0"].app.gate
        assert _await(lambda: gate.depth >= 1)  # the slot is held open

        # A second, distinct cold key now exceeds the watermark: the
        # shard sheds, and the router propagates the 503 + hint instead
        # of spilling the key onto a non-owner.
        with ServiceClient(host, port,
                           retry=RetryPolicy(max_attempts=1)) as no_retry:
            with pytest.raises(ServiceError) as excinfo:
                no_retry.run("fig10", SEED)
            assert excinfo.value.status == 503
            assert excinfo.value.retry_after_s == pytest.approx(0.05)
            assert cluster.router.stats()["router"]["sheds"] >= 1

            # Repeated sheds on ONE keep-alive connection must each be a
            # clean 503: the shed path replies before parsing the POST
            # body, and an undrained body would desync the connection (the
            # next request would read it as a request line).
            for _ in range(3):
                with pytest.raises(ServiceError) as again:
                    no_retry.run("fig10", SEED)
                assert again.value.status == 503
            assert no_retry.transport_stats()["connects"] == 1

        # A retrying client honours the hint and succeeds once the
        # occupant drains.
        with ServiceClient(host, port, retry=RetryPolicy(
                max_attempts=50, backoff_base_s=0.05, backoff_factor=1.0,
                jitter_fraction=0.0)) as retrying:
            release.set()
            reply = retrying.run("fig10", SEED)
        assert reply["experiment"] == "fig10"
        occupant.join(timeout=30)
        assert occupant_done and occupant_done[0]["experiment"] == "fig8"
        assert gate.stats()["shed"] >= 1
        assert gate.depth == 0


class TestServiceClient:
    def test_keep_alive_reuses_one_connection(self, cluster):
        host, port = cluster.router_address
        with ServiceClient(host, port) as client:
            for _ in range(5):
                client.health()
            assert client.transport_stats()["connects"] == 1

    def test_error_reply_keeps_the_connection_in_step(self):
        """``repro serve`` has no /invalidate; its 404 still reads the body."""
        with ExperimentService(ServiceConfig(jobs=1)) as service, \
                _serving(make_server("127.0.0.1", 0, service)) as address, \
                ServiceClient(*address) as client:
            with pytest.raises(ServiceError) as excinfo:
                client.invalidate("fig4", SEED)
            assert excinfo.value.status == 404
            assert client.health()["status"] == "ok"
            assert client.transport_stats()["connects"] == 1

    def test_dead_endpoint_fails_promptly_after_bounded_retries(self):
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            dead_port = probe.getsockname()[1]
        with ServiceClient("127.0.0.1", dead_port,
                           connect_timeout_s=1.0,
                           retry=RetryPolicy(max_attempts=2,
                                             backoff_base_s=0.01,
                                             jitter_fraction=0.0)) as client:
            start = time.monotonic()
            with pytest.raises(ServiceError) as excinfo:
                client.health()
            assert time.monotonic() - start < 5.0
            assert excinfo.value.status is None  # transport, not HTTP
            assert client.transport_stats()["retries"] == 1

    def test_invalid_timeouts_rejected(self):
        with pytest.raises(ConfigError):
            ServiceClient(connect_timeout_s=0)
        with pytest.raises(ConfigError):
            ServiceClient(read_timeout_s=-1)

    def test_retry_after_header_parsing(self):
        from repro.service.client import _retry_after_s

        assert _retry_after_s("0.25") == 0.25
        assert _retry_after_s("0") == 0.0
        assert _retry_after_s(None) is None
        assert _retry_after_s("soon") is None
        assert _retry_after_s("-1") is None


# -- the wire subset ---------------------------------------------------------------


def _exchange(address, data: bytes, half_close: bool = True,
              timeout_s: float = 10.0) -> tuple[bytes, bool]:
    """Send raw bytes; everything the server sends, and whether it closed.

    With ``half_close`` the client signals EOF after ``data``, so a
    keep-alive server answers every request in it and then closes.
    Without it, only a server that ends the connection itself closes;
    otherwise the read stops at the timeout.
    """
    chunks = []
    with socket.create_connection(address, timeout=timeout_s) as sock:
        sock.sendall(data)
        if half_close:
            sock.shutdown(socket.SHUT_WR)
        try:
            while chunk := sock.recv(65536):
                chunks.append(chunk)
        except TimeoutError:
            return b"".join(chunks), False
    return b"".join(chunks), True


def _replies(data: bytes) -> list[tuple[int, bytes, bytes]]:
    """(status, head, body) of each Content-Length-framed reply in ``data``."""
    out = []
    while data:
        head, sep, rest = data.partition(b"\r\n\r\n")
        assert sep, data
        length = re.search(rb"(?im)^content-length: *([0-9]+)", head)
        size = int(length.group(1)) if length else len(rest)
        out.append((int(head.split(b" ", 2)[1]), head, rest[:size]))
        data = rest[size:]
    return out


def _date(head: bytes):
    """The ``Date`` field of a reply head, as a datetime."""
    value = re.search(rb"(?m)^Date: ([^\r]+)", head).group(1)
    return email.utils.parsedate_to_datetime(value.decode())


def _request(path: str = "/health", extra: bytes = b"",
             version: bytes = b"HTTP/1.1") -> bytes:
    """A bodiless GET with ``extra`` raw header lines."""
    return (b"GET " + path.encode() + b" " + version + b"\r\n"
            b"Host: test\r\n" + extra + b"\r\n")


@contextlib.contextmanager
def _serving(server):
    """Run a bound ``server`` on a thread; its (host, port)."""
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield "127.0.0.1", server.port
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


@pytest.fixture(scope="module")
def serve_address():
    """A plain ``repro serve`` endpoint (no cache, no cluster)."""
    with ExperimentService(ServiceConfig(jobs=1)) as service, \
            _serving(make_server("127.0.0.1", 0, service)) as address:
        yield address


class TestWireServer:
    """The request side of the subset, driven over raw sockets.

    Against ``repro serve`` here, and through the subclasses below
    against a shard and a cluster's router: one adapter serves them all.
    """

    @pytest.mark.parametrize("size, status", [(65536, 200), (65537, 431)])
    def test_header_line_limit(self, serve_address, size, status):
        line = b"X-Long: " + b"a" * (size - 10) + b"\r\n"
        assert len(line) == size
        data, _ = _exchange(serve_address, _request(extra=line))
        assert _replies(data)[0][0] == status

    @pytest.mark.parametrize("count, status", [(100, 200), (101, 431)])
    def test_header_count_limit(self, serve_address, count, status):
        # Host counts too: count - 1 more fields.
        extra = b"".join(b"X-F%d: v\r\n" % i for i in range(count - 1))
        data, _ = _exchange(serve_address, _request(extra=extra))
        assert _replies(data)[0][0] == status

    @pytest.mark.parametrize("extra", [
        b"X-A: one\r\n two\r\n",        # folded continuation
        b"X-A one\r\n",                   # no colon
        b"X-A : one\r\n",                 # space before the colon
    ])
    def test_malformed_header_lines_get_400(self, serve_address, extra):
        data, closed = _exchange(serve_address, _request(extra=extra),
                                 half_close=False)
        assert _replies(data)[0][0] == 400
        assert closed

    @pytest.mark.parametrize("value", [b"abc", b"-1", b"+5", b"1, 1", b""])
    def test_malformed_content_length_gets_prompt_400(self, serve_address,
                                                      value):
        request = (b"POST /run HTTP/1.1\r\nHost: test\r\n"
                   b"Content-Length: " + value + b"\r\n\r\n{}")
        start = time.monotonic()
        data, closed = _exchange(serve_address, request, half_close=False)
        assert time.monotonic() - start < 5.0
        (status, _head, _body), = _replies(data)
        assert status == 400
        assert closed

    def test_content_length_in_any_letter_case(self, serve_address):
        body = json.dumps({"experiment": "not-an-experiment"}).encode()
        request = (b"POST /run HTTP/1.1\r\nHost: test\r\n"
                   b"cOnTeNt-LeNgTh: %d\r\n\r\n" % len(body) + body)
        data, _ = _exchange(serve_address, request)
        (status, _head, reply), = _replies(data)
        # The body was read: the error names its experiment id.
        assert status == 400
        assert "not-an-experiment" in json.loads(reply)["error"]

    @pytest.mark.parametrize("request_bytes", [
        _request(extra=b"Connection: close\r\n"),
        _request(version=b"HTTP/1.0"),
    ])
    def test_close_after_reply(self, serve_address, request_bytes):
        data, closed = _exchange(serve_address, request_bytes,
                                 half_close=False)
        (status, head, _body), = _replies(data)
        assert status == 200
        assert b"Connection: close" in head
        assert closed

    def test_expect_100_continue(self, serve_address):
        body = json.dumps({"experiment": "not-an-experiment"}).encode()
        with socket.create_connection(serve_address, timeout=10) as sock:
            sock.sendall(b"POST /run HTTP/1.1\r\nHost: test\r\n"
                         b"Expect: 100-continue\r\n"
                         b"Content-Length: %d\r\n\r\n" % len(body))
            assert sock.recv(65536).startswith(b"HTTP/1.1 100 ")
            sock.sendall(body)
            sock.shutdown(socket.SHUT_WR)
            data = b"".join(iter(lambda: sock.recv(65536), b""))
        (status, _head, reply), = _replies(data)
        assert status == 400
        assert "not-an-experiment" in json.loads(reply)["error"]

    def test_leading_double_slash_collapses(self, serve_address):
        data, _ = _exchange(serve_address, _request("//health"))
        (status, _head, reply), = _replies(data)
        assert status == 200
        assert json.loads(reply)["status"] == "ok"

    @pytest.mark.parametrize("first, status, then", [
        (b"POST /nope", 404, "/health"),
        (b"GET /health", 200, "/status"),
    ])
    def test_every_body_is_read_before_the_next_request(
            self, serve_address, first, status, then):
        body = json.dumps({"experiment": "fig4", "seed": SEED}).encode()
        request = (first + b" HTTP/1.1\r\nHost: test\r\n"
                   b"Content-Length: %d\r\n\r\n" % len(body) + body)
        data, _ = _exchange(serve_address, request + _request(then))
        assert [reply[0] for reply in _replies(data)] == [status, 200]

    @pytest.mark.parametrize("line", [b"POST /run", b"GET /health"])
    def test_oversized_body_gets_400_and_close(self, serve_address, line):
        request = (line + b" HTTP/1.1\r\nHost: test\r\n"
                   b"Content-Length: 65537\r\n\r\n")
        data, closed = _exchange(serve_address, request, half_close=False)
        (status, head, reply), = _replies(data)
        assert status == 400
        assert json.loads(reply) == {"error": "request body over 65536 bytes"}
        assert b"Connection: close" in head
        assert closed

    def test_pipelined_requests_answered_in_order(self, serve_address):
        data, _ = _exchange(serve_address,
                            _request("/health") + _request("/status"))
        (s1, _h1, health), (s2, _h2, status) = _replies(data)
        assert (s1, s2) == (200, 200)
        assert json.loads(health)["status"] == "ok"
        assert "experiments" in json.loads(status)

    @pytest.mark.parametrize("line, status", [
        (b"GET /health HTTP/2.0", 505),
        (b"garbage", 400),
        (b"GET /health FOO/1.1", 400),
        (b"GET http://[::1/health HTTP/1.1", 400),  # urlsplit refuses it
    ])
    def test_bad_request_lines(self, serve_address, line, status):
        data, closed = _exchange(serve_address, line + b"\r\n\r\n",
                                 half_close=False)
        assert data.startswith(b"HTTP/1.1 %d " % status)
        assert closed

    def test_every_reply_carries_the_current_date(self, serve_address):
        requests = (_request("/health") + _request("/status")
                    + _request("/nope") + _request("/run"))
        data, _ = _exchange(serve_address, requests)
        replies = _replies(data)
        assert [status for status, _head, _body in replies] == [
            200, 200, 404, 400]
        now = time.time()
        for _status, head, _body in replies:
            assert abs(_date(head).timestamp() - now) <= 2

    def test_one_write_per_reply(self, serve_address, monkeypatch):
        writes = []
        real = socket.socket.sendall

        def counting(sock, data, *args):
            # Only this server's side of a connection has its port.
            if sock.getsockname()[1] == serve_address[1]:
                writes.append(len(data))
            return real(sock, data, *args)

        monkeypatch.setattr(socket.socket, "sendall", counting)
        data, _ = _exchange(serve_address, _request())
        assert writes == [len(data)]


class TestWireServerShard(TestWireServer):
    """The same wire checks against a shard.

    The shard stands alone: a router's health probes would add writes to
    its port while a test counts them.
    """

    @pytest.fixture(scope="class")
    def serve_address(self):
        with ExperimentService(ServiceConfig(jobs=1)) as service, \
                _serving(make_shard_server("127.0.0.1", 0, "shard-wire",
                                           service=service)) as address:
            yield address


class TestWireServerRouter(TestWireServer):
    """The same wire checks against a cluster's router."""

    @pytest.fixture(scope="class")
    def serve_address(self, cluster):
        return cluster.router_address


class _Constant:
    """A role that answers every request with one small reply."""

    def handle(self, request: Request):
        return 200, {"ok": True}, None


class TestReplyDate:
    def test_date_is_formatted_at_most_once_per_second(self, monkeypatch):
        clock = [time.time()]
        monkeypatch.setattr(time, "time", lambda: clock[0])
        formats = _count_calls(monkeypatch, "email.utils.formatdate")
        server = ClosingHTTPServer(("127.0.0.1", 0), _Constant())
        with _serving(server) as address:
            data, _ = _exchange(address, _request() * 50)
            assert len(_replies(data)) == 50
            assert len(formats) <= 2
            clock[0] += 2
            data, _ = _exchange(address, _request())
        (_status, head, _body), = _replies(data)
        assert _date(head).timestamp() == int(clock[0])


class _ScriptedServer:
    """One loopback listener answering requests from a script.

    Each script entry is ``(reply bytes, keep)``: the bytes go out in
    answer to the next request, and the connection is closed after
    them unless ``keep``.  With ``trickle`` every byte is its own
    segment.
    """

    def __init__(self, script: list[tuple[bytes, bool]],
                 trickle: bool = False) -> None:
        self.script = list(script)
        self.trickle = trickle
        self.requests: list[bytes] = []
        self._listener = socket.create_server(("127.0.0.1", 0))
        self.port = self._listener.getsockname()[1]
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self) -> None:
        try:
            while self.script:
                conn, _ = self._listener.accept()
                with conn, conn.makefile("rb") as reader:
                    conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                    self._answer(conn, reader)
        except OSError:
            pass  # the listener closed under accept()

    def _answer(self, conn: socket.socket, reader) -> None:
        while self.script:
            head = [reader.readline()]
            if not head[0]:
                return  # the client hung up
            while head[-1] not in (b"\r\n", b""):
                head.append(reader.readline())
            length = re.search(rb"(?im)^content-length: *([0-9]+)",
                               b"".join(head))
            body = reader.read(int(length.group(1))) if length else b""
            self.requests.append(b"".join(head) + body)
            reply, keep = self.script.pop(0)
            if self.trickle:
                for i in range(len(reply)):
                    conn.sendall(reply[i:i + 1])
                    time.sleep(0.001)
            else:
                conn.sendall(reply)
            if not keep:
                return

    def close(self) -> None:
        self._listener.close()
        self._thread.join(timeout=5)

    def __enter__(self) -> "_ScriptedServer":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def _http_reply(payload: dict, status: bytes = b"200 OK",
                extra: bytes = b"") -> bytes:
    body = json.dumps(payload).encode()
    return (b"HTTP/1.1 " + status + b"\r\nContent-Type: application/json\r\n"
            + extra + b"Content-Length: %d\r\n\r\n" % len(body) + body)


_FAST_RETRY = RetryPolicy(max_attempts=2, backoff_base_s=0.01,
                          jitter_fraction=0.0)


class TestWireClient:
    """The reply side of the subset, against a scripted server."""

    def test_reply_one_byte_per_segment_still_parses(self):
        reply = _http_reply({"status": "ok"}, extra=b"X-Pad: p\r\n")
        with _ScriptedServer([(reply, True)], trickle=True) as server, \
                ServiceClient(port=server.port) as client:
            assert client.health() == {"status": "ok"}
            assert client.transport_stats() == {"connects": 1, "retries": 0}

    def test_connection_close_reply_redials(self):
        script = [(_http_reply({"n": 1}, extra=b"Connection: close\r\n"),
                   False),
                  (_http_reply({"n": 2}), True)]
        with _ScriptedServer(script) as server, \
                ServiceClient(port=server.port) as client:
            assert client.health() == {"n": 1}
            assert client.health() == {"n": 2}
            assert client.transport_stats() == {"connects": 2, "retries": 0}

    @pytest.mark.parametrize("reply", [
        b"HTTP/1.1 200 OK\r\nContent-Le",                       # EOF in head
        b"HTTP/1.1 200 OK\r\nContent-Length: 50\r\n\r\n{}",       # short body
        b"HTTP/1.1 2x0 OK\r\nContent-Length: 2\r\n\r\n{}",        # status line
        b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
        b"2\r\n{}\r\n0\r\n\r\n",                                  # chunked
    ], ids=["eof-in-head", "short-body", "bad-status-line", "chunked"])
    def test_broken_replies_are_transport_failures(self, reply):
        with _ScriptedServer([(reply, False)] * 2) as server, \
                ServiceClient(port=server.port, retry=_FAST_RETRY) as client:
            with pytest.raises(ServiceError) as excinfo:
                client.health()
            assert excinfo.value.status is None
            assert client.transport_stats() == {"connects": 2, "retries": 1}

    def test_503_retry_after_is_honoured(self):
        script = [(_http_reply({"error": "busy"}, b"503 Service Unavailable",
                               b"Retry-After: 0.2\r\n"), True),
                  (_http_reply({"status": "ok"}), True)]
        with _ScriptedServer(script) as server, \
                ServiceClient(port=server.port, retry=_FAST_RETRY) as client:
            start = time.monotonic()
            assert client.health() == {"status": "ok"}
            assert time.monotonic() - start >= 0.2
            assert client.transport_stats() == {"connects": 1, "retries": 1}

    def test_one_write_per_request(self, monkeypatch):
        me = threading.get_ident()
        writes = []
        real = socket.socket.sendall

        def counting(sock, data, *args):
            if threading.get_ident() == me:
                writes.append(len(data))
            return real(sock, data, *args)

        monkeypatch.setattr(socket.socket, "sendall", counting)
        with _ScriptedServer([(_http_reply({"ok": 1}), True)]) as server, \
                ServiceClient(port=server.port) as client:
            client.run("fig4", SEED)
            request = server.requests[0]
        assert writes == [len(request)]
        assert request.startswith(b"POST /run HTTP/1.1\r\n")
        assert json.loads(request.partition(b"\r\n\r\n")[2]) == {
            "experiment": "fig4", "seed": SEED}


class TestWireInterop:
    """Stock clients get the same replies as ServiceClient."""

    STABLE = ("experiment", "seed", "title", "text", "digest")

    def _targets(self, cluster):
        owner = cluster.router._ring.primary(cache_key("fig7", SEED))
        return [cluster.router_address,
                (cluster.config.host, cluster.shard_port(owner))]

    def test_http_client_and_urllib_match_service_client(self, cluster):
        body = json.dumps({"experiment": "fig7", "seed": SEED}).encode()
        for host, port in self._targets(cluster):
            with ServiceClient(host, port) as client:
                expected = client.run("fig7", SEED)
            conn = http.client.HTTPConnection(host, port, timeout=30)
            try:
                stock = []
                for _ in range(2):  # twice on one keep-alive connection
                    conn.request("POST", "/run", body=body, headers={
                        "Content-Type": "application/json"})
                    reply = conn.getresponse()
                    assert reply.status == 200
                    stock.append(json.loads(reply.read()))
            finally:
                conn.close()
            request = urllib.request.Request(
                f"http://{host}:{port}/run", data=body,
                headers={"Content-Type": "application/json"})
            with urllib.request.urlopen(request, timeout=30) as reply:
                stock.append(json.loads(reply.read()))
            for got in stock:
                assert set(got) == set(expected)
                assert ({k: got[k] for k in self.STABLE}
                        == {k: expected[k] for k in self.STABLE})


# -- each role's handle(), with no socket ------------------------------------------

RUN_KEYS = {"experiment", "seed", "title", "text", "source", "elapsed_ms",
            "digest"}
SERVICE_STATS_KEYS = {"requests", "coalesced", "disk_hits", "computed",
                      "errors", "labs_built", "labs_restored",
                      "invalidations", "inflight", "uptime_s", "jobs",
                      "cache_dir", "memory"}
STATUS_KEYS = {"version", "experiments", "jobs", "cache_dir", "uptime_s",
               "inflight"}


def _post(route: str, **body) -> Request:
    return Request("POST", route, body=json.dumps(body).encode())


GET_RUN = Request("GET", "/run", {"experiment": "fig11", "seed": str(SEED)})
POST_RUN = _post("/run", experiment="fig11", seed=SEED)
#: A seed nothing computed: the fan-out drops nothing shared.
INVALIDATE = _post("/invalidate", experiment="fig11", seed=SEED + 1)

#: Role -> every (method, route) it answers, plus a 404: status and keys.
ROLE_TABLES = {
    "serve": [
        (Request("GET", "/health"), 200, {"status", "version"}),
        (Request("GET", "/stats"), 200, SERVICE_STATS_KEYS),
        (Request("GET", "/status"), 200, STATUS_KEYS),
        (GET_RUN, 200, RUN_KEYS),
        (POST_RUN, 200, RUN_KEYS),
        (INVALIDATE, 404, {"error"}),
        (Request("GET", "/nope"), 404, {"error"}),
    ],
    "shard": [
        (Request("GET", "/health"), 200,
         {"status", "version", "shard", "depth"}),
        (Request("GET", "/stats"), 200,
         SERVICE_STATS_KEYS | {"shard", "admission"}),
        (Request("GET", "/status"), 200, STATUS_KEYS),
        (GET_RUN, 200, RUN_KEYS),
        (POST_RUN, 200, RUN_KEYS),
        (INVALIDATE, 200, {"invalidated", "experiment", "seed", "shard"}),
        (Request("POST", "/stats"), 404, {"error"}),
    ],
    "router": [
        (Request("GET", "/health"), 200,
         {"status", "version", "role", "healthy"}),
        (Request("GET", "/stats"), 200, {"router", "shards", "totals"}),
        (Request("GET", "/status"), 200,
         {"version", "role", "experiments", "shards", "hot_threshold",
          "healthy"}),
        (GET_RUN, 200, RUN_KEYS | {"shard", "hot", "attempts"}),
        (POST_RUN, 200, RUN_KEYS | {"shard", "hot", "attempts"}),
        (INVALIDATE, 200, {"experiment", "seed", "invalidated", "shards"}),
        (Request("GET", "/nope"), 404, {"error"}),
    ],
}

#: Requests every role rejects with 400, and a phrase of the error.
BAD_RUNS = [
    (_post("/run", experiment="not-an-experiment"), "'not-an-experiment'"),
    (_post("/run", experiment="fig11", seed=2015.7), "seed must be an integer"),
    (_post("/run", experiment="fig11", seed=True), "seed must be an integer"),
    (Request("GET", "/run", {"experiment": "fig11", "seed": "2015.7"}),
     "seed must be an integer"),
    (_post("/run", seed=SEED), "missing 'experiment'"),
    (Request("POST", "/run", body=b"[1]"), "must be a JSON object"),
]
BAD_INVALIDATES = [
    (_post("/invalidate", experiment="not-an-experiment"),
     "'not-an-experiment'"),
    (_post("/invalidate", experiment="fig11", seed=2015.0),
     "seed must be an integer"),
]


class TestRoleReplies:
    """Each role's ``handle``, called with no socket in front of it."""

    @pytest.fixture()
    def roles(self, cluster, cluster_dir):
        config = ServiceConfig(jobs=1, cache_dir=cluster_dir)
        with ExperimentService(config) as service:
            yield {"serve": ServiceApp(service),
                   "shard": Shard(service, AdmissionGate(), "shard-t"),
                   "router": cluster.router}

    @pytest.mark.parametrize("role", sorted(ROLE_TABLES))
    def test_every_route_pins_its_status_and_payload_keys(self, roles, role):
        for request, status, keys in ROLE_TABLES[role]:
            got, payload, headers = roles[role].handle(request)
            assert (got, set(_fields(payload)), headers) == (
                status, keys, None), request

    @pytest.mark.parametrize("role", sorted(ROLE_TABLES))
    def test_bad_parameters_get_400_at_the_first_hop(self, roles, role):
        cases = BAD_RUNS + (BAD_INVALIDATES if role != "serve" else [])
        for request, phrase in cases:
            status, payload, _headers = roles[role].handle(request)
            assert status == 400 and phrase in payload["error"], request

    def test_router_stats_carry_the_fields_perfbench_reads(self, roles):
        _status, stats, _headers = roles["router"].handle(
            Request("GET", "/stats"))
        assert "hot_keys" in stats["router"]
        for shard in stats["shards"].values():
            assert {"labs_built", "labs_restored"} <= set(shard)

    def test_shed_carries_its_retry_after_hint(self, roles):
        gate = AdmissionGate(AdmissionPolicy(max_queue_depth=1,
                                             retry_after_s=0.25))
        assert gate.admit()
        shard = Shard(roles["shard"].service, gate, "shard-t")
        status, payload, headers = shard.handle(POST_RUN)
        assert (status, set(payload), headers) == (
            503, {"error", "shard", "retry_after_s"}, {"Retry-After": "0.25"})
        assert gate.stats()["shed"] == 1 and gate.depth == 1


class TestSpawnedCluster:
    def test_process_shards_serve_end_to_end(self, cluster_dir, reference):
        """The forked deployment speaks the same protocol, byte for byte."""
        config = ClusterConfig(shards=2, jobs=1, cache_dir=cluster_dir)
        with SpawnedCluster(config) as cluster:
            host, port = cluster.serve_in_background()
            with ServiceClient(host, port) as client:
                reply = client.run("fig4", SEED)
                expected = result_digest(
                    reference.serve("fig4", seed=SEED).result)
                assert reply["digest"] == expected
                assert reply["shard"] in shard_names(2)
                stats = client.stats()
                assert sorted(stats["shards"]) == shard_names(2)
                assert all(stats["router"]["healthy"].values())


# -- repro cluster as a process ---------------------------------------------------

_STARTUP = re.compile(r"routing \d+ experiments on http://[\d.]+:(\d+) ")
#: Execs the CLI with SIGINT ignored, as bash starts ``&`` jobs in a
#: non-interactive shell (and without preexec_fn, unsafe in a threaded
#: test process).
_IGNORING_SIGINT = ("import os, signal, sys; "
                    "signal.signal(signal.SIGINT, signal.SIG_IGN); "
                    "os.execv(sys.executable, [sys.executable, *sys.argv[1:]])")


def _process_tree(pid: int) -> list[int]:
    """``pid`` and its descendants (Linux /proc)."""
    out, frontier = [], [pid]
    while frontier:
        current = frontier.pop()
        out.append(current)
        try:
            for task in os.listdir(f"/proc/{current}/task"):
                with open(f"/proc/{current}/task/{task}/children") as fh:
                    frontier.extend(int(c) for c in fh.read().split())
        except FileNotFoundError:
            pass  # exited while walked
    return out


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                    reason="walks the process tree through Linux /proc")
class TestClusterProcess:
    """``repro cluster`` stopped by SIGTERM, SIGKILL or SIGINT leaves nothing."""

    @pytest.fixture
    def start(self, tmp_path):
        """Start ``repro cluster --cache``; (process, router port, tree)."""
        started = []  # (process, its tree at startup)
        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

        def _start(ignore_sigint: bool = False):
            argv = [sys.executable, "-m", "repro.cli", "cluster", "--port", "0",
                    "--cache", str(tmp_path)]
            if ignore_sigint:
                argv = [sys.executable, "-c", _IGNORING_SIGINT, *argv[1:]]
            proc = subprocess.Popen(
                argv, stdout=subprocess.PIPE, text=True,
                env=dict(os.environ, PYTHONPATH=src, PYTHONUNBUFFERED="1"))
            tree = [proc.pid]
            started.append((proc, tree))
            port = None
            deadline = time.monotonic() + 60.0
            while port is None:
                ready, _, _ = select.select(
                    [proc.stdout], [], [], max(0.0, deadline - time.monotonic()))
                line = proc.stdout.readline() if ready else ""
                assert line, "repro cluster printed no startup line"
                match = _STARTUP.search(line)
                port = int(match.group(1)) if match else None
            tree[:] = _process_tree(proc.pid)
            assert len(tree) == 3, tree  # the CLI and its two shards
            return proc, port, tree

        yield _start
        # Kill by the pids seen at startup: an orphaned shard is no
        # longer in the dead CLI's tree.
        for proc, tree in started:
            for pid in tree:
                if _alive(pid):
                    os.kill(pid, signal.SIGKILL)
            proc.wait()
            proc.stdout.close()

    def test_sigterm_tears_down_like_sigint(self, start, tmp_path, reference):
        proc, port, tree = start()
        # Nothing is primed before the first request...
        assert glob.glob(str(tmp_path / "lab-*.snap")) == []
        with ServiceClient(port=port) as client:
            reply = client.run("fig4", SEED)
            stats = client.stats()
        # ...which primes its seed once and leaves the snapshot.
        assert len(glob.glob(str(tmp_path / "lab-*.snap"))) == 1
        assert sum(s["labs_built"] for s in stats["shards"].values()) == 1
        assert reply["digest"] == result_digest(
            reference.serve("fig4", seed=SEED).result)
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=30) == 0
        assert not [pid for pid in tree if _alive(pid)]

    def test_sigkill_takes_the_shards_with_it(self, start):
        proc, _port, tree = start()
        proc.kill()
        proc.wait(timeout=30)
        # The shards stop on EOF of the lifeline the dead CLI held.
        _await(lambda: not any(_alive(pid) for pid in tree), timeout_s=15.0)
        assert not [pid for pid in tree if _alive(pid)]

    def test_sigint_honoured_when_started_ignoring_it(self, start):
        proc, _port, tree = start(ignore_sigint=True)
        proc.send_signal(signal.SIGINT)
        assert proc.wait(timeout=30) == 0
        assert not [pid for pid in tree if _alive(pid)]


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                    reason="walks the process tree through Linux /proc")
@pytest.mark.parametrize("signum", [signal.SIGINT, signal.SIGTERM],
                         ids=["SIGINT", "SIGTERM"])
def test_repro_serve_stops_on_signal_with_sigint_ignored(signum):
    """``repro serve`` runs its teardown on SIGINT and SIGTERM alike."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    proc = subprocess.Popen(
        [sys.executable, "-c", _IGNORING_SIGINT, "-m", "repro.cli", "serve",
         "--port", "0"],
        stdout=subprocess.PIPE, text=True,
        env=dict(os.environ, PYTHONPATH=src, PYTHONUNBUFFERED="1"))
    try:
        ready, _, _ = select.select([proc.stdout], [], [], 60.0)
        assert ready and proc.stdout.readline().startswith("serving ")
        proc.send_signal(signum)
        assert proc.wait(timeout=30) == 0
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
