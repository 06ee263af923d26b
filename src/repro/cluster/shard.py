"""A shard worker: one :class:`ExperimentService` behind admission control.

A shard is the cluster's unit of capacity — the existing warm-Lab +
two-tier-cache + single-flight serving stack
(:class:`~repro.service.core.ExperimentService`), exposed over the same
JSON/HTTP protocol as ``repro serve`` plus two cluster-facing additions:

* **admission control** — every ``/run`` passes an
  :class:`~repro.cluster.admission.AdmissionGate`; past the queue
  watermark the shard sheds with ``503`` and a ``Retry-After`` hint
  instead of queueing unboundedly;
* **coherent invalidation** — ``POST /invalidate`` drops one key from
  both cache tiers, which the router fans out cluster-wide so
  replicated hot keys never serve a dropped entry.

Shards sharing one ``cache_dir`` share the engine's content-addressed
disk store (atomic tmp+rename writes make this multi-process safe) and
its warm-Lab snapshots, so a hot key replicated to R shards is computed
**once** cluster-wide: the owner computes and stores, replicas promote
the disk entry into their memory tiers.

:func:`run_shard` is the subprocess entry ``repro cluster`` forks one
process per shard through — separate processes, not threads, so cold
computes scale with cores instead of serializing on the GIL.
"""

from __future__ import annotations

import multiprocessing.connection
import signal
import threading
from typing import Any
from urllib.parse import urlsplit

from repro.cluster.admission import AdmissionGate, AdmissionPolicy
from repro.errors import ConfigError, ReproError
from repro.service.core import ExperimentService, ServiceConfig
from repro.service.http import (
    MAX_BODY_BYTES,
    ExperimentHTTPServer,
    Reply,
    ServiceRequestHandler,
)
from repro.version import __version__


class ShardRequestHandler(ServiceRequestHandler):
    """The serve protocol plus admission control and /invalidate."""

    server_version = f"repro-shard/{__version__}"

    @property
    def _gate(self) -> AdmissionGate:
        return self.server.gate

    @property
    def _shard_name(self) -> str:
        return self.server.shard_name

    def _drain_body(self) -> None:
        """Consume an unparsed request body so keep-alive stays in sync.

        Shedding replies before ``_run_params`` ever touches ``rfile``;
        leaving the POST body unread would make the *next* request on
        this keep-alive connection parse those bytes as a request line.
        """
        length = self.content_length or 0
        if length > MAX_BODY_BYTES:
            self.close_connection = True
        elif length:
            self.rfile.read(length)

    def _run_reply(self) -> Reply:
        gate = self._gate
        if not gate.admit():
            self._drain_body()
            hint = gate.policy.retry_after_s
            return 503, {
                "error": f"shard {self._shard_name} overloaded "
                         f"(queue depth >= {gate.policy.max_queue_depth})",
                "shard": self._shard_name,
                "retry_after_s": hint,
            }, {"Retry-After": f"{hint:g}"}
        # The slot frees as soon as the service returns, before the
        # reply is written: a client that reads /stats right after its
        # reply must not find its own request still queued.
        try:
            return super()._run_reply()
        finally:
            gate.release()

    def _handle_invalidate(self) -> None:
        try:
            experiment_id, seed = self._run_params()
            dropped = self._service.invalidate(experiment_id, seed)
        except ConfigError as exc:
            self._error(400, str(exc))
        except ReproError as exc:
            self._error(500, str(exc))
        else:
            self._reply(200, {
                "invalidated": dropped,
                "experiment": experiment_id,
                "seed": seed,
                "shard": self._shard_name,
            })

    def do_GET(self) -> None:  # noqa: N802 - http.server contract
        route = self._route()
        if route == "/stats":
            stats = self._service.stats()
            stats["shard"] = self._shard_name
            stats["admission"] = self._gate.stats()
            self._reply(200, stats)
        elif route == "/health":
            self._reply(200, {
                "status": "ok",
                "version": __version__,
                "shard": self._shard_name,
                "depth": self._gate.depth,
            })
        else:
            super().do_GET()

    def do_POST(self) -> None:  # noqa: N802 - http.server contract
        if self._route() == "/invalidate":
            self._handle_invalidate()
        else:
            super().do_POST()

    def _route(self) -> str:
        return urlsplit(self.path).path.rstrip("/") or "/"


class ShardHTTPServer(ExperimentHTTPServer):
    """An ExperimentHTTPServer that also owns a name and a gate."""

    def __init__(self, address: tuple[str, int], service: ExperimentService,
                 name: str, gate: AdmissionGate,
                 verbose: bool = False) -> None:
        super().__init__(address, service, verbose=verbose,
                         handler=ShardRequestHandler)
        self.shard_name = name
        self.gate = gate


def make_shard_server(host: str, port: int, name: str,
                      service: ExperimentService | None = None,
                      config: ServiceConfig | None = None,
                      admission: AdmissionPolicy | None = None,
                      verbose: bool = False) -> ShardHTTPServer:
    """Bind (but do not start) one shard endpoint."""
    if service is None:
        service = ExperimentService(config)
    return ShardHTTPServer((host, port), service, name,
                           AdmissionGate(admission), verbose=verbose)


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
                 server: ShardHTTPServer) -> None:
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
