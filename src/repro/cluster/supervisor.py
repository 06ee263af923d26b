"""Cluster lifecycles: wire shards and a router into one serving tier.

Two deployment shapes share all the routing machinery:

* :class:`LocalCluster` hosts every shard server on a thread inside the
  current process.  Requests still cross real loopback HTTP, so tests
  and the ``check.sh`` smoke stage exercise the exact wire protocol,
  but computes share one GIL — it measures correctness, not scaling.
* :class:`SpawnedCluster` forks one OS process per shard
  (:func:`~repro.cluster.shard.run_shard`), so cold computes run on
  separate cores.  ``repro cluster`` and the scaling benchmark use it.

Both bind ephemeral ports, wait until every shard answers ``/health``,
and put a :class:`~repro.cluster.router.Router` (with its background
health prober) in front.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.connection
import threading
import time
from dataclasses import dataclass
from typing import cast

from repro.cluster.admission import (
    DEFAULT_QUEUE_DEPTH,
    DEFAULT_RETRY_AFTER_S,
    AdmissionPolicy,
)
from repro.cluster.router import (
    DEFAULT_HOT_THRESHOLD,
    Router,
    RouterConfig,
    ShardInfo,
    make_router_server,
)
from repro.cluster.shard import Shard, make_shard_server, shard_names
from repro.errors import ConfigError, ServiceError
from repro.service.core import ExperimentService, ServiceConfig
from repro.service.http import ClosingHTTPServer
from repro.units import MINUTE


@dataclass(frozen=True)
class ClusterConfig:
    """One knob set for a whole cluster (CLI surface of ``repro cluster``)."""

    shards: int = 2
    jobs: int = 2
    cache_dir: str | None = None
    hot_threshold: int = DEFAULT_HOT_THRESHOLD
    max_queue_depth: int = DEFAULT_QUEUE_DEPTH
    retry_after_s: float = DEFAULT_RETRY_AFTER_S
    host: str = "127.0.0.1"

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise ConfigError(f"shards must be >= 1, got {self.shards}")
        # Every other knob is checked by the config it builds: build
        # each once here, so a bad value fails before a start forks.
        self.service_config()
        self.admission_policy()
        self.router_config()

    def service_config(self) -> ServiceConfig:
        return ServiceConfig(jobs=self.jobs, cache_dir=self.cache_dir)

    def admission_policy(self) -> AdmissionPolicy:
        return AdmissionPolicy(max_queue_depth=self.max_queue_depth,
                               retry_after_s=self.retry_after_s)

    def router_config(self) -> RouterConfig:
        return RouterConfig(hot_threshold=self.hot_threshold)


class LocalCluster:
    """Shards on threads, router in front — all inside this process."""

    def __init__(self, config: ClusterConfig | None = None,
                 router_port: int = 0) -> None:
        self.config = config or ClusterConfig()
        self._router_port = router_port
        self._shard_servers: dict[str, ClosingHTTPServer] = {}
        self._threads: list[threading.Thread] = []
        self.router: Router | None = None
        self.router_server: ClosingHTTPServer | None = None

    def start(self) -> "LocalCluster":
        host = self.config.host
        infos = []
        try:
            for name in shard_names(self.config.shards):
                server = make_shard_server(
                    host, 0, name, config=self.config.service_config(),
                    admission=self.config.admission_policy())
                self._shard_servers[name] = server
                self._serve_on_thread(server, f"repro-{name}")
                infos.append(ShardInfo(name, host, server.port))
            self.router = Router(infos, self.config.router_config())
            self.router.start_health_checks()
            self.router_server = make_router_server(host, self._router_port,
                                                    self.router)
            self._serve_on_thread(self.router_server, "repro-router")
        except Exception:
            # Partial start: close the shards (and their serve threads)
            # that did come up before propagating the failure.
            self.stop()
            raise
        return self

    def _serve_on_thread(self, server: ClosingHTTPServer, name: str) -> None:
        thread = threading.Thread(target=server.serve_forever, name=name,
                                  daemon=True)
        thread.start()
        self._threads.append(thread)

    # -- test hooks ---------------------------------------------------------------

    def service(self, name: str) -> ExperimentService:
        """Direct access to one shard's in-process service (assertions)."""
        return cast(Shard, self._shard_servers[name].app).service

    def shard_port(self, name: str) -> int:
        return self._shard_servers[name].port

    @property
    def router_address(self) -> tuple[str, int]:
        if self.router_server is None:
            raise ServiceError("cluster is not started")
        return self.config.host, self.router_server.port

    def stop_shard(self, name: str) -> None:
        """Kill one shard (keeps its entry in the ring: tests fail-over)."""
        server = self._shard_servers[name]
        server.shutdown()
        server.server_close()
        self.service(name).close(wait=False)

    def stop(self) -> None:
        if self.router is not None:
            self.router.close()
        if self.router_server is not None:
            self.router_server.shutdown()
            self.router_server.server_close()
        for name, server in self._shard_servers.items():
            try:
                server.shutdown()
                server.server_close()
            except OSError:  # pragma: no cover - already stopped
                pass
            self.service(name).close(wait=False)
        for thread in self._threads:
            thread.join(timeout=5)
        self._threads.clear()

    def __enter__(self) -> "LocalCluster":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()


class SpawnedCluster:
    """Shards as forked OS processes, router in this process.

    The shards inherit the imported modules via fork (spawn elsewhere),
    but no Lab: each seed is primed on its first request, once per
    cache directory.  They bind ephemeral ports and report them over
    pipes; the parent builds the router once every shard is reachable.
    ``stop()`` terminates the shard processes — their caches are
    process-local (memory) or shared and durable (the disk tier), so
    nothing needs draining.

    Every shard also holds the read end of a lifeline pipe whose write
    end only this process holds, and never writes.  When this process
    exits, however it exits (even by SIGKILL), the kernel closes that
    end, the shards read EOF and stop serving: no shard outlives its
    cluster.
    """

    #: How long a forked shard may take to bind and report its port.
    STARTUP_TIMEOUT_S = MINUTE

    def __init__(self, config: ClusterConfig | None = None,
                 router_port: int = 0, verbose: bool = False) -> None:
        self.config = config or ClusterConfig()
        self._router_port = router_port
        self._verbose = verbose
        self._processes: dict[str, multiprocessing.process.BaseProcess] = {}
        self._infos: list[ShardInfo] = []
        self.router: Router | None = None
        self.router_server: ClosingHTTPServer | None = None
        self._router_thread: threading.Thread | None = None
        self._lifeline: multiprocessing.connection.Connection | None = None

    def start(self) -> "SpawnedCluster":
        from repro.cluster.shard import run_shard

        methods = multiprocessing.get_all_start_methods()
        ctx = multiprocessing.get_context(
            "fork" if "fork" in methods else "spawn")
        host = self.config.host
        pending = []
        lifeline, self._lifeline = ctx.Pipe(duplex=False)
        try:
            for name in shard_names(self.config.shards):
                parent_conn, child_conn = ctx.Pipe(duplex=False)
                try:
                    process = ctx.Process(
                        target=run_shard,
                        args=(child_conn, host, name,
                              self.config.service_config(),
                              self.config.admission_policy(), self._verbose),
                        kwargs={"lifeline": (lifeline, self._lifeline)},
                        name=f"repro-{name}", daemon=True)
                    process.start()
                finally:
                    # The parent's copy of the child end must close even
                    # when the fork itself fails, or EOF never reaches
                    # conn.poll below.
                    child_conn.close()
                self._processes[name] = process
                pending.append((name, parent_conn))
            for name, conn in pending:
                if not conn.poll(self.STARTUP_TIMEOUT_S):
                    raise ServiceError(f"shard {name} did not start in "
                                       f"{self.STARTUP_TIMEOUT_S:.0f}s")
                report = conn.recv()
                if "error" in report:
                    raise ServiceError(
                        f"shard {name} failed: {report['error']}")
                self._infos.append(ShardInfo(name, host, report["port"]))
            self.router = Router(self._infos, self.config.router_config())
            self._wait_until_healthy()
            self.router.start_health_checks()
            self.router_server = make_router_server(host, self._router_port,
                                                    self.router,
                                                    verbose=self._verbose)
        except Exception:
            # Partial start (a shard that never reported, a router port
            # already taken): terminate the shard processes that did
            # come up before propagating the failure.
            self.stop()
            raise
        finally:
            # Only the shards read the lifeline, and no port report is
            # read after this point.
            lifeline.close()
            for _name, conn in pending:
                conn.close()
        return self

    def _wait_until_healthy(self) -> None:
        deadline = time.monotonic() + self.STARTUP_TIMEOUT_S
        assert self.router is not None
        while True:
            healthy = self.router.probe_now()
            if all(healthy.values()):
                return
            if time.monotonic() > deadline:
                dead = sorted(n for n, ok in healthy.items() if not ok)
                raise ServiceError(f"shards never became healthy: {dead}")
            time.sleep(0.05)

    def serve_in_background(self) -> tuple[str, int]:
        """Run the router endpoint on a thread; its (host, port)."""
        if self.router_server is None:
            raise ServiceError("cluster is not started")
        if self._router_thread is None:
            self._router_thread = threading.Thread(
                target=self.router_server.serve_forever,
                name="repro-router", daemon=True)
            self._router_thread.start()
        return self.config.host, self.router_server.port

    def serve_forever(self) -> None:
        """Run the router endpoint on the calling thread (the CLI)."""
        if self.router_server is None:
            raise ServiceError("cluster is not started")
        self.router_server.serve_forever()

    @property
    def router_address(self) -> tuple[str, int]:
        if self.router_server is None:
            raise ServiceError("cluster is not started")
        return self.config.host, self.router_server.port

    @property
    def shard_infos(self) -> list[ShardInfo]:
        return list(self._infos)

    def terminate_shard(self, name: str) -> None:
        """Kill one shard process (fail-over experiments)."""
        process = self._processes[name]
        process.terminate()
        process.join(timeout=10)

    def stop(self) -> None:
        if self.router is not None:
            self.router.close()
        if self.router_server is not None:
            if self._router_thread is not None:
                # Only a loop on another thread needs stopping: one run
                # by serve_forever() on the caller's thread has returned
                # (or never began, and shutdown() would wait forever).
                self.router_server.shutdown()
            self.router_server.server_close()
            self.router_server = None
        if self._router_thread is not None:
            self._router_thread.join(timeout=5)
            self._router_thread = None
        for process in self._processes.values():
            if process.is_alive():
                process.terminate()
        for process in self._processes.values():
            process.join(timeout=10)
        self._processes.clear()
        if self._lifeline is not None:
            self._lifeline.close()
            self._lifeline = None

    def __enter__(self) -> "SpawnedCluster":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()
