"""The front router: one address in front of N shard workers.

The router speaks the same ``/run`` protocol as a single ``repro
serve`` endpoint — clients cannot tell a cluster from one node.
:class:`Router` is itself the role behind the one HTTP adapter of
:mod:`repro.service.http`: each request arrives as one
:meth:`Router.handle` call.  It adds the cluster behaviours on top:

* **placement** — the engine's sha256
  :func:`~repro.experiments.engine.cache_key` is consistent-hashed onto
  the shard ring (:class:`~repro.cluster.ring.HashRing`), so each key
  has one warm home and cache hit rates survive membership changes.
  Only a forwarded read hashes: the hot-key tracker is keyed on
  ``(experiment_id, seed)``, which within one process names the same
  key;
* **health** — a background prober marks shards dead/alive; forwarding
  failures mark a shard dead immediately and the ring walks route
  around it (keys fail over to their ring successor);
* **retries** — forwarding re-uses
  :class:`~repro.faults.retry.RetryPolicy`'s bounded
  deterministic-backoff schedule across the fail-over candidates;
* **one-hop hot reads** — keys whose *cached* hit count crosses
  ``hot_threshold`` are promoted: the router holds the key's ``/run``
  reply on its hot-key tracker, as the body bytes the adapter writes,
  encoded once, and answers later reads itself with those bytes: no
  shard hop, no JSON encoding, no hashing.  Eviction from the tracker's
  LRU bound (a demotion) and ``/invalidate`` drop the held reply;
  ``/invalidate`` first fans out to every shard, also to those the
  health map marks dead, so once it returns no tier answers the key
  from memory;
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
from collections.abc import Hashable
from dataclasses import dataclass, field

from repro.cluster.ring import HashRing
from repro.cluster.shard import shard_stats_totals
from repro.errors import ConfigError, ReproError, ServiceError
from repro.experiments.engine import cache_key
from repro.experiments.registry import EXPERIMENTS
from repro.faults.retry import RetryPolicy
from repro.rng import DEFAULT_SEED
from repro.service.client import ServiceClient
from repro.service.http import (
    ClosingHTTPServer,
    Reply,
    Request,
    json_body,
    run_params,
)
from repro.units import KiB
from repro.version import __version__

#: Forwarding schedule: up to three candidates, 20 ms / 40 ms pauses.
DEFAULT_FORWARD_RETRY = RetryPolicy(max_attempts=3, backoff_base_s=0.02,
                                    backoff_factor=2.0, jitter_fraction=0.0)
#: Promotion threshold: cached hits before the router holds a key's reply.
DEFAULT_HOT_THRESHOLD = 8
#: Bound on tracked keys, and so on held replies; eviction demotes.
DEFAULT_HOT_KEYS_MAX = KiB


@dataclass(frozen=True)
class ShardInfo:
    """Address book entry for one shard worker."""

    name: str
    host: str
    port: int


@dataclass(frozen=True)
class RouterConfig:
    """Routing, promotion, and health knobs of the front router."""

    hot_threshold: int = DEFAULT_HOT_THRESHOLD
    hot_keys_max: int = DEFAULT_HOT_KEYS_MAX
    health_interval_s: float = 0.5
    health_timeout_s: float = 2.0
    connect_timeout_s: float = 2.0
    read_timeout_s: float = 300.0
    forward_retry: RetryPolicy = field(default=DEFAULT_FORWARD_RETRY)

    def __post_init__(self) -> None:
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

    __slots__ = ("cached_hits", "reply")

    def __init__(self) -> None:
        self.cached_hits = 0
        #: The held ``/run`` body, encoded once by :func:`json_body`.
        self.reply: bytes | None = None


class HotKeyTracker:
    """LRU-bounded per-key hit accounting and the replies of hot keys.

    Only *cached* replies (memory/disk tier) heat a key — a compute or
    a coalesced wait never does.  That rule keeps a cold-key storm from
    promoting mid-flight: until the first result exists somewhere, every
    request routes to the key's single owner, whose single-flight layer
    guarantees exactly one compute cluster-wide.

    A hot key's held reply lives on its :class:`_KeyHeat`, so the held
    set is the hot set: bounded by ``max_keys``, dropped when the LRU
    evicts the key and when :meth:`reset` forgets it.  Both replace the
    key's ``_KeyHeat`` object, which is the token :meth:`record` checks:
    a reply forwarded before either can never be held after it.  A held
    reply is an encoded body (``bytes``), so every read can share it.
    """

    def __init__(self, threshold: int = DEFAULT_HOT_THRESHOLD,
                 max_keys: int = DEFAULT_HOT_KEYS_MAX) -> None:
        self.threshold = threshold
        self.max_keys = max_keys
        self._lock = threading.Lock()
        self._heat: OrderedDict[Hashable, _KeyHeat] = OrderedDict()  # gl: guarded-by=_lock

    def lookup(self, key: Hashable) -> tuple[bytes | None, _KeyHeat | None]:
        """``(held reply, token)`` for one read of ``key``.

        A held reply counts as a cached hit and refreshes the key's LRU
        recency.  Otherwise the reply is None and the token is the key's
        current state (None for an untracked key), to hand back to
        :meth:`record` with the forwarded reply.
        """
        with self._lock:
            heat = self._heat.get(key)
            if heat is None or heat.reply is None:
                return None, heat
            heat.cached_hits += 1
            self._heat.move_to_end(key)
            return heat.reply, heat

    def record(self, key: Hashable, token: _KeyHeat | None,
               held: bytes | None) -> tuple[bool, bool, int]:
        """Account one forwarded reply; ``(hot, promoted, demoted)``.

        ``held`` is the encoded body to hold of a cached reply, and None
        for a compute or a coalesced wait.  It is held when the key is hot
        after this hit and still has the state ``token`` saw before the
        forward.  ``demoted`` counts the hot keys the LRU bound evicted.
        """
        with self._lock:
            heat = self._heat.get(key)
            if heat is None:
                heat = self._heat[key] = _KeyHeat()
            else:
                self._heat.move_to_end(key)
            promoted = False
            if held is not None:
                heat.cached_hits += 1
                promoted = heat.cached_hits == self.threshold
            hot = heat.cached_hits >= self.threshold
            if hot and held is not None and heat is token:
                heat.reply = held
            demoted = 0
            while len(self._heat) > self.max_keys:
                _, evicted = self._heat.popitem(last=False)
                demoted += evicted.cached_hits >= self.threshold
            return hot, promoted, demoted

    def reset(self, key: Hashable) -> bool:
        """Forget a key (after an explicit invalidation).

        True when that dropped a held reply.
        """
        with self._lock:
            heat = self._heat.pop(key, None)
            return heat is not None and heat.reply is not None

    def hot_count(self) -> int:
        with self._lock:
            return sum(1 for heat in self._heat.values()
                       if heat.cached_hits >= self.threshold)


class Router:
    """Route, hold hot replies, and shed across a fixed set of shards."""

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

    # gl: idempotent — _sheds/_failovers deliberately count per-attempt
    # events; the forwarded /run itself is content-addressed on the shard.
    def route(self, experiment_id: str,
              seed: int = DEFAULT_SEED) -> dict | bytes:
        """Answer one /run: a hot key's held body, else forward it.

        Returns what ``/run`` writes: a held key's encoded body, shared
        by every read and answered here even when its owner is dead, or
        a forwarded key's enriched reply dict.  A forwarded key goes to
        its owner shard, failing over to ring successors.  Raises
        :class:`~repro.errors.ServiceError` — with ``status=503`` and a
        ``Retry-After`` hint when the target shed, with ``status=None``
        when every candidate was unreachable.
        """
        with self._lock:
            self._requests += 1
        held, token = self._tracker.lookup((experiment_id, seed))
        if held is not None:
            return held
        key = cache_key(experiment_id, seed)
        candidates = self._ring.preference(key, alive=self._alive())
        if not candidates:
            with self._lock:
                self._no_shard_errors += 1
            raise ServiceError("no healthy shards")
        policy = self.config.forward_retry
        attempts = min(len(candidates), policy.max_attempts)
        last_exc: ServiceError | None = None
        for attempt, name in enumerate(candidates[:attempts], start=1):
            try:
                reply = self._client(name).run(experiment_id, seed)
            except ServiceError as exc:
                last_exc = exc
                if exc.status == 503:
                    # The shard shed under load.  Spilling the key onto
                    # non-owners would amplify the overload, so
                    # back-pressure propagates to the client instead.
                    with self._lock:
                        self._sheds += 1
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
            return self._account(reply, (experiment_id, seed), token,
                                 name, attempt)
        raise ServiceError(
            f"no shard could serve {experiment_id!r} "
            f"(tried {attempts} candidate(s)): {last_exc}") from last_exc

    # gl: idempotent — runs once, on the success path that exits the
    # failover loop; its counters never see a retried attempt.
    def _account(self, reply: dict, key: tuple[str, int],
                 token: _KeyHeat | None, shard: str, attempts: int) -> dict:
        """Book-keep a forwarded reply; enrich it with routing fields.

        A cached reply that makes or keeps its key hot is held as the
        router's own answer to later reads: ``source`` memory, one
        attempt, and the shard that served it, encoded here, once.
        """
        with self._lock:
            self._routed[shard] += 1
        reply = dict(reply, shard=shard)
        held = None
        if reply.get("source") in ("memory", "disk"):
            held = json_body(dict(reply, source="memory", hot=True,
                                  attempts=1))
        hot, promoted, demoted = self._tracker.record(key, token, held)
        if promoted or demoted:
            with self._lock:
                self._promotions += promoted
                self._demotions += demoted
        reply["hot"] = hot
        reply["attempts"] = attempts
        return reply

    # -- invalidation -------------------------------------------------------------

    def invalidate(self, experiment_id: str,
                   seed: int = DEFAULT_SEED) -> dict:
        """Coherently drop one key cluster-wide.

        Fans ``/invalidate`` out to every shard (covering every memory
        tier and the shared disk entry), also to those the health map
        marks dead, since one failed forward marks a live shard dead
        until the next probe; a shard that cannot be reached reports
        False.  Then it resets the key's heat, dropping its held reply,
        so it re-earns promotion.  In that order, a read that races the
        fan-out cannot leave a reply held once this returns.
        """
        outcomes: dict[str, bool] = {}
        for name in self._shards:
            try:
                reply = self._client(name).invalidate(experiment_id, seed)
            except ServiceError:
                outcomes[name] = False
            else:
                outcomes[name] = bool(reply.get("invalidated"))
        dropped = self._tracker.reset((experiment_id, seed))
        with self._lock:
            self._invalidations += 1
        return {
            "experiment": experiment_id,
            "seed": seed,
            "invalidated": dropped or any(outcomes.values()),
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
