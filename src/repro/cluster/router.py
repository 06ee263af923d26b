"""The front router: one address in front of N shard workers.

The router speaks the same ``/run`` protocol as a single ``repro
serve`` endpoint — clients cannot tell a cluster from one node.
:class:`Router` is itself the role behind the one HTTP adapter of
:mod:`repro.service.http`: each request arrives as one
:meth:`Router.handle` call.  It adds the cluster behaviours on top:

* **placement** — the engine's sha256
  :func:`~repro.experiments.engine.cache_key` is consistent-hashed onto
  the shard ring (:class:`~repro.cluster.ring.HashRing`), so each key
  has one warm home and cache hit rates survive membership changes;
* **health** — a background prober marks shards dead/alive; forwarding
  failures mark a shard dead immediately and the ring walks route
  around it (keys fail over to their ring successor);
* **retries** — forwarding re-uses
  :class:`~repro.faults.retry.RetryPolicy`'s bounded
  deterministic-backoff schedule across the fail-over candidates;
* **hot-key replication** — keys whose *cached* hit count crosses
  ``hot_threshold`` are promoted: requests rotate across R replicas
  (ring successors), which warm themselves from the shared disk tier,
  so one scorching key stops serializing on a single shard.  Demoted or
  invalidated keys have their replica copies dropped (coherent
  invalidation via each shard's ``/invalidate``);
* **admission propagation** — a shard's 503 shed is passed through to
  the client with its ``Retry-After`` hint rather than spilled onto
  other shards (overload must reach the client as back-pressure, not
  amplify as retries);
* **observability** — ``/stats`` aggregates per-shard tiers, queue
  depths, and shed counts next to the router's own counters.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field

from repro.cluster.ring import HashRing
from repro.cluster.shard import shard_stats_totals
from repro.errors import ConfigError, ReproError, ServiceError
from repro.experiments.engine import cache_key
from repro.experiments.registry import EXPERIMENTS
from repro.faults.retry import RetryPolicy
from repro.rng import DEFAULT_SEED
from repro.service.client import ServiceClient
from repro.service.http import ClosingHTTPServer, Reply, Request, run_params
from repro.units import KiB
from repro.version import __version__

#: Forwarding schedule: up to three candidates, 20 ms / 40 ms pauses.
DEFAULT_FORWARD_RETRY = RetryPolicy(max_attempts=3, backoff_base_s=0.02,
                                    backoff_factor=2.0, jitter_fraction=0.0)
#: Promotion threshold: cached hits before a key is replicated.
DEFAULT_HOT_THRESHOLD = 8
#: Bound on tracked keys; evicting a hot key demotes it coherently.
DEFAULT_HOT_KEYS_MAX = KiB


@dataclass(frozen=True)
class ShardInfo:
    """Address book entry for one shard worker."""

    name: str
    host: str
    port: int


@dataclass(frozen=True)
class RouterConfig:
    """Routing, replication, and health knobs of the front router."""

    replicas: int = 2
    hot_threshold: int = DEFAULT_HOT_THRESHOLD
    hot_keys_max: int = DEFAULT_HOT_KEYS_MAX
    health_interval_s: float = 0.5
    health_timeout_s: float = 2.0
    connect_timeout_s: float = 2.0
    read_timeout_s: float = 300.0
    forward_retry: RetryPolicy = field(default=DEFAULT_FORWARD_RETRY)

    def __post_init__(self) -> None:
        if self.replicas < 1:
            raise ConfigError(f"replicas must be >= 1, got {self.replicas}")
        if self.hot_threshold < 1:
            raise ConfigError(
                f"hot_threshold must be >= 1, got {self.hot_threshold}")
        if self.hot_keys_max < 1:
            raise ConfigError(
                f"hot_keys_max must be >= 1, got {self.hot_keys_max}")
        for knob in ("health_interval_s", "health_timeout_s",
                     "connect_timeout_s", "read_timeout_s"):
            if getattr(self, knob) <= 0:
                raise ConfigError(f"{knob} must be positive")


class _KeyHeat:
    """Mutable per-key promotion state (guarded by the tracker's lock)."""

    __slots__ = ("experiment_id", "seed", "cached_hits", "rotation")

    def __init__(self, experiment_id: str, seed: int) -> None:
        self.experiment_id = experiment_id
        self.seed = seed
        self.cached_hits = 0
        self.rotation = 0


class HotKeyTracker:
    """LRU-bounded per-key hit accounting driving promotion/demotion.

    Only *cached* replies (memory/disk tier) heat a key — a compute or
    a coalesced wait never does.  That rule keeps a cold-key storm from
    promoting mid-flight: until the first result exists somewhere, every
    request routes to the key's single owner, whose single-flight layer
    guarantees exactly one compute cluster-wide.
    """

    def __init__(self, threshold: int = DEFAULT_HOT_THRESHOLD,
                 max_keys: int = DEFAULT_HOT_KEYS_MAX) -> None:
        self.threshold = threshold
        self.max_keys = max_keys
        self._lock = threading.Lock()
        self._heat: OrderedDict[str, _KeyHeat] = OrderedDict()  # gl: guarded-by=_lock

    def is_hot(self, key: str) -> bool:
        with self._lock:
            heat = self._heat.get(key)
            return heat is not None and heat.cached_hits >= self.threshold

    def next_slot(self, key: str) -> int:
        """Round-robin counter spreading a hot key over its replicas."""
        with self._lock:
            heat = self._heat.get(key)
            if heat is None:
                return 0
            heat.rotation += 1
            return heat.rotation

    def record(self, key: str, experiment_id: str, seed: int,
               cached: bool) -> tuple[bool, list[tuple[str, int]]]:
        """Account one reply.

        Returns ``(promoted, demoted)``: whether this hit crossed the
        promotion threshold, and the (experiment, seed) pairs of any
        hot keys evicted by the LRU bound (their replicas must be
        invalidated to stay coherent).
        """
        with self._lock:
            heat = self._heat.get(key)
            if heat is None:
                heat = self._heat[key] = _KeyHeat(experiment_id, seed)
            else:
                self._heat.move_to_end(key)
            promoted = False
            if cached:
                heat.cached_hits += 1
                promoted = heat.cached_hits == self.threshold
            demoted: list[tuple[str, int]] = []
            while len(self._heat) > self.max_keys:
                _, evicted = self._heat.popitem(last=False)
                if evicted.cached_hits >= self.threshold:
                    demoted.append((evicted.experiment_id, evicted.seed))
            return promoted, demoted

    def reset(self, key: str) -> None:
        """Forget a key (after an explicit invalidation)."""
        with self._lock:
            self._heat.pop(key, None)

    def hot_count(self) -> int:
        with self._lock:
            return sum(1 for heat in self._heat.values()
                       if heat.cached_hits >= self.threshold)


class Router:
    """Route, replicate, and shed across a fixed set of shards."""

    def __init__(self, shards: list[ShardInfo],
                 config: RouterConfig | None = None) -> None:
        if not shards:
            raise ConfigError("a router needs at least one shard")
        self.config = config or RouterConfig()
        self._shards = {info.name: info for info in shards}
        if len(self._shards) != len(shards):
            raise ConfigError("duplicate shard names")
        self._ring = HashRing(list(self._shards))
        self._tracker = HotKeyTracker(self.config.hot_threshold,
                                      self.config.hot_keys_max)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._healthy = {name: True for name in self._shards}  # gl: guarded-by=_lock
        self._routed = {name: 0 for name in self._shards}  # gl: guarded-by=_lock
        self._requests = 0  # gl: guarded-by=_lock
        self._failovers = 0  # gl: guarded-by=_lock
        self._sheds = 0  # gl: guarded-by=_lock
        self._promotions = 0  # gl: guarded-by=_lock
        self._demotions = 0  # gl: guarded-by=_lock
        self._invalidations = 0  # gl: guarded-by=_lock
        self._no_shard_errors = 0  # gl: guarded-by=_lock
        self._started_monotonic = time.monotonic()
        self._stop = threading.Event()
        self._health_thread: threading.Thread | None = None

    # -- per-thread shard clients -------------------------------------------------

    def _client(self, name: str) -> ServiceClient:
        """This thread's keep-alive client for one shard."""
        clients: dict[str, ServiceClient] | None = getattr(
            self._local, "clients", None)
        if clients is None:
            clients = self._local.clients = {}
        client = clients.get(name)
        if client is None:
            info = self._shards[name]
            client = clients[name] = ServiceClient(
                info.host, info.port,
                connect_timeout_s=self.config.connect_timeout_s,
                read_timeout_s=self.config.read_timeout_s,
                # One attempt per hop: the router drives its own
                # fail-over loop across shards instead of hammering one.
                retry=RetryPolicy(max_attempts=1))
        return client

    # -- health -------------------------------------------------------------------

    def _alive(self) -> list[str]:
        with self._lock:
            return [name for name, ok in self._healthy.items() if ok]

    def _set_health(self, name: str, ok: bool) -> None:
        with self._lock:
            self._healthy[name] = ok

    def healthy(self) -> dict[str, bool]:
        """Health map snapshot (shard name -> alive)."""
        with self._lock:
            return dict(self._healthy)

    def start_health_checks(self) -> None:
        """Launch the background liveness prober (idempotent)."""
        if self._health_thread is not None:
            return
        self._health_thread = threading.Thread(
            target=self._health_loop, name="repro-router-health", daemon=True)
        self._health_thread.start()

    def _health_loop(self) -> None:
        probes = {
            name: ServiceClient(
                info.host, info.port,
                connect_timeout_s=self.config.health_timeout_s,
                read_timeout_s=self.config.health_timeout_s,
                retry=RetryPolicy(max_attempts=1))
            for name, info in self._shards.items()
        }
        while not self._stop.wait(self.config.health_interval_s):
            for name, probe in probes.items():
                try:
                    probe.health()
                except ServiceError as exc:
                    # An HTTP answer (even an error) proves liveness;
                    # only transport failures mean the shard is gone.
                    self._set_health(name, exc.status is not None)
                else:
                    self._set_health(name, True)
        for probe in probes.values():
            probe.close()

    def probe_now(self) -> dict[str, bool]:
        """One synchronous probe round (tests and CLI startup waits)."""
        for name, info in self._shards.items():
            probe = ServiceClient(
                info.host, info.port,
                connect_timeout_s=self.config.health_timeout_s,
                read_timeout_s=self.config.health_timeout_s,
                retry=RetryPolicy(max_attempts=1))
            try:
                probe.health()
            except ServiceError as exc:
                self._set_health(name, exc.status is not None)
            else:
                self._set_health(name, True)
            finally:
                probe.close()
        return self.healthy()

    def close(self) -> None:
        """Stop the health prober."""
        self._stop.set()
        if self._health_thread is not None:
            self._health_thread.join(timeout=5)
            self._health_thread = None

    # -- routing ------------------------------------------------------------------

    def _candidates(self, key: str, hot: bool) -> list[str]:
        """Forwarding order: owner (or rotated replica set), then successors."""
        prefs = self._ring.preference(key, alive=self._alive())
        if not prefs:
            return []
        if hot and self.config.replicas > 1:
            k = min(self.config.replicas, len(prefs))
            slot = self._tracker.next_slot(key) % k
            return prefs[slot:k] + prefs[:slot] + prefs[k:]
        return prefs

    # gl: idempotent — _sheds/_failovers deliberately count per-attempt
    # events; the forwarded /run itself is content-addressed on the shard.
    def route(self, experiment_id: str, seed: int = DEFAULT_SEED) -> dict:
        """Forward one /run to the right shard; the enriched reply dict.

        Raises :class:`~repro.errors.ServiceError` — with ``status=503``
        and a ``Retry-After`` hint when the target shed, with
        ``status=None`` when every candidate was unreachable.
        """
        key = cache_key(experiment_id, seed)
        with self._lock:
            self._requests += 1
        hot = self._tracker.is_hot(key)
        candidates = self._candidates(key, hot)
        if not candidates:
            with self._lock:
                self._no_shard_errors += 1
            raise ServiceError("no healthy shards")
        policy = self.config.forward_retry
        n_replicas = min(self.config.replicas, len(candidates)) if hot else 1
        attempts = min(len(candidates), max(policy.max_attempts, n_replicas))
        last_exc: ServiceError | None = None
        for attempt, name in enumerate(candidates[:attempts], start=1):
            try:
                reply = self._client(name).run(experiment_id, seed)
            except ServiceError as exc:
                last_exc = exc
                if exc.status == 503:
                    # The shard shed under load.  Another *replica* of a
                    # hot key may absorb the request; spilling a cold
                    # key onto non-owners would amplify the overload,
                    # so back-pressure propagates to the client instead.
                    with self._lock:
                        self._sheds += 1
                    if attempt < n_replicas:
                        continue
                    raise
                if exc.status is not None:
                    # The shard answered with a request-level error
                    # (unknown experiment, bad seed): not a shard fault.
                    raise
                self._set_health(name, False)
                with self._lock:
                    self._failovers += 1
                if attempt < attempts:
                    # Deterministic pause before the next candidate.
                    time.sleep(policy.backoff_s(attempt, jitter_u=0.5))
                continue
            return self._account(reply, key, experiment_id, seed, name,
                                 hot, attempt)
        raise ServiceError(
            f"no shard could serve {experiment_id!r} "
            f"(tried {attempts} candidate(s)): {last_exc}") from last_exc

    # gl: idempotent — runs once, on the success path that exits the
    # failover loop; its counters never see a retried attempt.
    def _account(self, reply: dict, key: str, experiment_id: str, seed: int,
                 shard: str, hot: bool, attempts: int) -> dict:
        """Book-keep a successful reply; enrich it with routing fields."""
        with self._lock:
            self._routed[shard] += 1
        cached = reply.get("source") in ("memory", "disk")
        promoted, demoted = self._tracker.record(key, experiment_id, seed,
                                                 cached)
        if promoted:
            with self._lock:
                self._promotions += 1
            self._replicate(key, experiment_id, seed)
        if demoted:
            with self._lock:
                self._demotions += len(demoted)
            self._demote(demoted)
        reply = dict(reply)
        reply["shard"] = shard
        reply["hot"] = hot or promoted
        reply["attempts"] = attempts
        return reply

    # -- replication & invalidation -----------------------------------------------

    def _replica_names(self, key: str) -> list[str]:
        """The hot key's replica set beyond its owner (live shards)."""
        prefs = self._ring.preference(key, alive=self._alive())
        return prefs[1:min(self.config.replicas, len(prefs))]

    def _replicate(self, key: str, experiment_id: str, seed: int) -> None:
        """Warm a freshly promoted key onto its replicas (background).

        Each replica pulls the result through its own service — a disk
        hit when the shards share a cache directory, a byte-identical
        recompute otherwise — and promotes it into its memory tier.
        """
        replicas = self._replica_names(key)
        if not replicas:
            return

        def warm() -> None:
            for name in replicas:
                try:
                    self._client(name).run(experiment_id, seed)
                except ServiceError:
                    # Best-effort: an unwarmed replica just computes (or
                    # disk-hits) lazily on its first routed request.
                    pass

        threading.Thread(target=warm, name="repro-router-replicate",
                         daemon=True).start()

    def _demote(self, demoted: list[tuple[str, int]]) -> None:
        """Drop replica copies of keys that fell out of the hot set."""
        def drop() -> None:
            for experiment_id, seed in demoted:
                key = cache_key(experiment_id, seed)
                for name in self._replica_names(key):
                    try:
                        self._client(name).invalidate(experiment_id, seed)
                    except ServiceError:
                        pass

        threading.Thread(target=drop, name="repro-router-demote",
                         daemon=True).start()

    def invalidate(self, experiment_id: str,
                   seed: int = DEFAULT_SEED) -> dict:
        """Coherently drop one key cluster-wide.

        Fans ``/invalidate`` out to every live shard (covering owner,
        replicas, and the shared disk entry) and resets the key's heat
        so it re-earns promotion.
        """
        key = cache_key(experiment_id, seed)
        outcomes: dict[str, bool] = {}
        for name in self._alive():
            try:
                reply = self._client(name).invalidate(experiment_id, seed)
            except ServiceError:
                outcomes[name] = False
            else:
                outcomes[name] = bool(reply.get("invalidated"))
        self._tracker.reset(key)
        with self._lock:
            self._invalidations += 1
        return {
            "experiment": experiment_id,
            "seed": seed,
            "invalidated": any(outcomes.values()),
            "shards": outcomes,
        }

    # -- observability ------------------------------------------------------------

    def shard_stats(self) -> dict[str, dict]:
        """Per-shard /stats payloads (an error entry for dead shards)."""
        per_shard: dict[str, dict] = {}
        for name in self._shards:
            try:
                per_shard[name] = self._client(name).stats()
            except ServiceError as exc:
                per_shard[name] = {"error": str(exc)}
        return per_shard

    def stats(self) -> dict:
        """Cross-shard aggregation plus the router's own counters."""
        per_shard = self.shard_stats()
        with self._lock:
            router = {
                "requests": self._requests,
                "routed": dict(self._routed),
                "failovers": self._failovers,
                "sheds": self._sheds,
                "promotions": self._promotions,
                "demotions": self._demotions,
                "invalidations": self._invalidations,
                "no_shard_errors": self._no_shard_errors,
                "healthy": dict(self._healthy),
                "hot_keys": self._tracker.hot_count(),
                "replicas": self.config.replicas,
                "hot_threshold": self.config.hot_threshold,
                "uptime_s": time.monotonic() - self._started_monotonic,
            }
        return {
            "router": router,
            "shards": per_shard,
            "totals": shard_stats_totals(per_shard),
        }

    @property
    def shards(self) -> list[ShardInfo]:
        return list(self._shards.values())

    # -- requests -----------------------------------------------------------------

    def handle(self, request: Request) -> Reply:
        """Answer /run, POST /invalidate and GET /health, /stats, /status.

        ``/run`` and ``/invalidate`` check their parameters first, before
        any ring lookup, hop or fan-out.
        """
        route, method = request.route, request.method
        if route == "/run":
            return self._run_reply(request)
        if route == "/invalidate" and method == "POST":
            try:
                outcome = self.invalidate(*run_params(request))
            except ConfigError as exc:
                return 400, {"error": str(exc)}, None
            except ReproError as exc:
                return 500, {"error": str(exc)}, None
            return 200, outcome, None
        if method == "GET":
            if route == "/health":
                healthy = self.healthy()
                return 200, {
                    "status": "ok" if any(healthy.values()) else "degraded",
                    "version": __version__,
                    "role": "router",
                    "healthy": healthy,
                }, None
            if route == "/stats":
                return 200, self.stats(), None
            if route == "/status":
                return 200, {
                    "version": __version__,
                    "role": "router",
                    "experiments": list(EXPERIMENTS),
                    "shards": [{"name": s.name, "host": s.host, "port": s.port}
                               for s in self.shards],
                    "replicas": self.config.replicas,
                    "hot_threshold": self.config.hot_threshold,
                    "healthy": self.healthy(),
                }, None
        return 404, {"error": f"unknown route {route!r}"}, None

    def _run_reply(self, request: Request) -> Reply:
        """The ``/run`` reply; a shard's 503 passes through with its hint."""
        try:
            reply = self.route(*run_params(request))
        except ConfigError as exc:
            return 400, {"error": str(exc)}, None
        except ServiceError as exc:
            if exc.status == 503:
                hint = exc.retry_after_s
                headers = ({"Retry-After": f"{hint:g}"}
                           if hint is not None else None)
                return 503, {"error": str(exc), "retry_after_s": hint}, headers
            return exc.status or 502, {"error": str(exc)}, None
        except ReproError as exc:
            return 500, {"error": str(exc)}, None
        return 200, reply, None


def make_router_server(host: str, port: int, router: Router,
                       verbose: bool = False) -> ClosingHTTPServer:
    """Bind (but do not start) the router endpoint."""
    return ClosingHTTPServer((host, port), router, verbose=verbose)
