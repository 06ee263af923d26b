"""A shard worker: one :class:`ExperimentService` behind admission control.

A shard is the cluster's unit of capacity — the existing warm-Lab +
two-tier-cache + single-flight serving stack
(:class:`~repro.service.core.ExperimentService`).  Its role,
:class:`Shard`, sits behind the one HTTP adapter of
:mod:`repro.service.http` and answers ``repro serve``'s routes through
the :class:`~repro.service.http.ServiceApp` it holds, plus two
cluster-facing additions:

* **admission control** — every ``/run`` passes an
  :class:`~repro.cluster.admission.AdmissionGate`; past the queue
  watermark the shard sheds with ``503`` and a ``Retry-After`` hint
  instead of queueing unboundedly;
* **coherent invalidation** — ``POST /invalidate`` drops one key from
  both cache tiers, which the router fans out cluster-wide before it
  drops its own held reply, so no tier serves a dropped entry.

Shards sharing one ``cache_dir`` share the engine's content-addressed
disk store (atomic tmp+rename writes make this multi-process safe) and
its warm-Lab snapshots, so a key is computed **once** cluster-wide:
the owner computes and stores, and a shard the key fails over to
promotes the disk entry into its memory tier.

:func:`run_shard` is the subprocess entry ``repro cluster`` forks one
process per shard through — separate processes, not threads, so cold
computes scale with cores instead of serializing on the GIL.
"""

from __future__ import annotations

import multiprocessing.connection
import signal
import threading
from typing import Any

from repro.cluster.admission import AdmissionGate, AdmissionPolicy
from repro.errors import ConfigError, ReproError
from repro.service.core import ExperimentService, ServiceConfig
from repro.service.http import ClosingHTTPServer, Reply, Request, ServiceApp, run_params
from repro.version import __version__


class Shard:
    """A shard's role: ``repro serve``'s routes plus admission and /invalidate.

    It answers ``/run`` through its :class:`AdmissionGate`, ``POST
    /invalidate``, and ``GET /stats`` and ``GET /health`` with its name
    and queue depth; every other request goes to the
    :class:`~repro.service.http.ServiceApp` it holds.
    """

    def __init__(self, service: ExperimentService, gate: AdmissionGate,
                 name: str) -> None:
        self.service = service
        self.gate = gate
        self.name = name
        self.app = ServiceApp(service)

    def handle(self, request: Request) -> Reply:
        route, method = request.route, request.method
        if route == "/run":
            return self._run(request)
        if route == "/invalidate" and method == "POST":
            return self._invalidate(request)
        if route == "/stats" and method == "GET":
            stats = self.service.stats()
            stats["shard"] = self.name
            stats["admission"] = self.gate.stats()
            return 200, stats, None
        if route == "/health" and method == "GET":
            return 200, {
                "status": "ok",
                "version": __version__,
                "shard": self.name,
                "depth": self.gate.depth,
            }, None
        return self.app.handle(request)

    def _run(self, request: Request) -> Reply:
        """``/run`` if admitted; past the watermark, 503 + ``Retry-After``."""
        if not self.gate.admit():
            hint = self.gate.policy.retry_after_s
            return 503, {
                "error": f"shard {self.name} overloaded "
                         f"(queue depth >= {self.gate.policy.max_queue_depth})",
                "shard": self.name,
                "retry_after_s": hint,
            }, {"Retry-After": f"{hint:g}"}
        # The slot frees as soon as the service returns, before the
        # reply is written: a client that reads /stats right after its
        # reply must not find its own request still queued.
        try:
            return self.app.run(request)
        finally:
            self.gate.release()

    def _invalidate(self, request: Request) -> Reply:
        """``POST /invalidate``: drop one key from both cache tiers."""
        try:
            experiment_id, seed = run_params(request)
            dropped = self.service.invalidate(experiment_id, seed)
        except ConfigError as exc:
            return 400, {"error": str(exc)}, None
        except ReproError as exc:
            return 500, {"error": str(exc)}, None
        return 200, {
            "invalidated": dropped,
            "experiment": experiment_id,
            "seed": seed,
            "shard": self.name,
        }, None


def make_shard_server(host: str, port: int, name: str,
                      service: ExperimentService | None = None,
                      config: ServiceConfig | None = None,
                      admission: AdmissionPolicy | None = None,
                      verbose: bool = False) -> ClosingHTTPServer:
    """Bind (but do not start) one shard endpoint."""
    if service is None:
        service = ExperimentService(config)
    return ClosingHTTPServer(
        (host, port), Shard(service, AdmissionGate(admission), name),
        verbose=verbose)


def run_shard(conn: multiprocessing.connection.Connection, host: str,
              name: str, service_config: ServiceConfig,
              admission: AdmissionPolicy,
              verbose: bool = False, *,
              lifeline: tuple[multiprocessing.connection.Connection,
                              multiprocessing.connection.Connection]
              ) -> None:
    """Subprocess entry: bind an ephemeral port, report it, serve forever.

    The parent learns the bound port over ``conn`` and stops the shard
    by terminating the process; the OS reclaims the socket.  Any bind
    failure is reported over the pipe instead of a port number.

    ``lifeline`` is the (read, write) pair of a pipe the parent holds
    open and never writes.  The shard closes its inherited write end,
    so EOF on the read end means the parent is gone, and then stops
    serving.
    """
    # SIGTERM stops a shard at once, whatever handler the parent had
    # installed before forking.
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    lifeline[1].close()
    try:
        service = ExperimentService(service_config)
    except ReproError as exc:
        conn.send({"error": str(exc)})
        conn.close()
        return
    try:
        server = make_shard_server(host, 0, name, service=service,
                                   admission=admission, verbose=verbose)
    except (ReproError, OSError) as exc:
        service.close(wait=False)
        conn.send({"error": str(exc)})
        conn.close()
        return
    threading.Thread(target=_stop_on_eof, args=(lifeline[0], server),
                     name=f"repro-{name}-lifeline", daemon=True).start()
    conn.send({"port": server.port})
    conn.close()
    try:
        server.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - interactive shutdown
        pass
    finally:
        server.server_close()
        service.close(wait=False)


def _stop_on_eof(lifeline: multiprocessing.connection.Connection,
                 server: ClosingHTTPServer) -> None:
    """Block until the parent's end of ``lifeline`` closes; stop ``server``."""
    multiprocessing.connection.wait([lifeline])
    server.shutdown()


def shard_names(n: int) -> list[str]:
    """Canonical shard naming used by the ring, CLI, and stats."""
    if n < 1:
        raise ConfigError(f"a cluster needs at least one shard, got {n}")
    return [f"shard-{i}" for i in range(n)]


def shard_stats_totals(per_shard: dict[str, dict[str, Any]]) -> dict[str, Any]:
    """Cluster-wide tier totals from per-shard /stats payloads.

    Shards that failed to answer (their entry carries ``"error"``) are
    skipped; the router reports them in its health map instead.
    """
    totals = {
        "requests": 0, "computed": 0, "disk_hits": 0, "memory_hits": 0,
        "coalesced": 0, "errors": 0, "invalidations": 0,
        "queue_depth": 0, "shed": 0,
    }
    for stats in per_shard.values():
        if "error" in stats:
            continue
        totals["requests"] += stats.get("requests", 0)
        totals["computed"] += stats.get("computed", 0)
        totals["disk_hits"] += stats.get("disk_hits", 0)
        totals["coalesced"] += stats.get("coalesced", 0)
        totals["errors"] += stats.get("errors", 0)
        totals["invalidations"] += stats.get("invalidations", 0)
        totals["memory_hits"] += stats.get("memory", {}).get("hits", 0)
        admission = stats.get("admission", {})
        totals["queue_depth"] += admission.get("depth", 0)
        totals["shed"] += admission.get("shed", 0)
    return totals
