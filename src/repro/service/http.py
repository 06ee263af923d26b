"""JSON-over-HTTP transport for the experiment service (stdlib only).

``repro serve`` binds an :class:`~repro.service.core.ExperimentService`
behind :class:`http.server.ThreadingHTTPServer` — every connection gets
a handler thread, so concurrent identical requests genuinely race into
the service and exercise its single-flight path.

Endpoints (all JSON):

``GET /health``
    Liveness: package version and a constant ``{"status": "ok"}``.
``GET /status``
    Identity: experiment ids, serving config, uptime, in-flight count.
``GET /stats``
    The service's counter snapshot (tiers, coalescing, pool).
``POST /run`` (or ``GET /run?experiment=ID&seed=N``)
    Fulfill a request.  Body: ``{"experiment": "fig10", "seed": 2015}``.
    Reply carries the rendered text, the serving ``source`` (memory /
    disk / computed / coalesced), the wall latency, and the sha256
    digest of the result's canonical pickle — the transport-level
    witness that served payloads are byte-identical to a cold serial
    run.

Errors map to status codes: unknown route 404, malformed request 400,
unknown experiment id 400, internal failure 500.  Nothing here touches
experiment math; the transport is a thin shell over the in-process API.

Every serving hop speaks the HTTP/1.1 subset of
:mod:`repro.service.wire`; the request handler here parses heads with
its :func:`~repro.service.wire.read_head`, the one header parser.
"""

from __future__ import annotations

import hashlib
import json
import re
import socket
import sys
import threading
from http import HTTPStatus
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlsplit

from repro.errors import ConfigError, ProtocolError, ReproError
from repro.experiments.engine import pickle_result
from repro.experiments.registry import EXPERIMENTS
from repro.rng import DEFAULT_SEED
from repro.service.core import ExperimentService, Served
from repro.service.wire import DEFAULT_PORT, read_head
from repro.units import KiB, MS
from repro.version import __version__

#: Cap on accepted request bodies; run requests are a few dozen bytes.
MAX_BODY_BYTES = 64 * KiB

_HTTP_VERSION = re.compile(r"HTTP/[0-9]+\.[0-9]+")

#: A reply not yet sent: status, JSON payload, extra header fields.
Reply = tuple[int, dict, dict[str, str] | None]


def result_digest(result: object) -> str:
    """sha256 hex digest of the result's canonical pickle bytes.

    ``/run`` replies carry :attr:`~repro.service.core.Served.digest`,
    taken from the result's cache frame; this recomputes it, for
    checks against a reference result.
    """
    return hashlib.sha256(pickle_result(result)).hexdigest()


def _served_payload(served: Served) -> dict:
    return {
        "experiment": served.experiment_id,
        "seed": served.seed,
        "title": served.result.title,
        "text": served.result.text,
        "source": served.source,
        "elapsed_ms": round(served.elapsed_s / MS, 3),
        "digest": served.digest,
    }


class ServiceRequestHandler(BaseHTTPRequestHandler):
    """Routes HTTP verbs onto the wrapped ExperimentService."""

    server_version = f"repro-serve/{__version__}"
    protocol_version = "HTTP/1.1"
    # Small JSON replies must not sit behind Nagle waiting for the ACK
    # of the previous keep-alive exchange (a ~40 ms stall per request).
    disable_nagle_algorithm = True

    #: The request's head fields (see :func:`read_head`) and its
    #: validated ``Content-Length``; set by :meth:`parse_request`.
    fields: dict[str, str]
    content_length: int | None

    def log_message(self, format: str, *args: object) -> None:  # noqa: A002
        if getattr(self.server, "verbose", False):  # pragma: no cover
            super().log_message(format, *args)

    # -- plumbing ---------------------------------------------------------------

    def parse_request(self) -> bool:
        """Parse the request line, then the head with :func:`read_head`.

        Keeps the stdlib's semantics: HTTP/1.0 closes unless it asks for
        keep-alive, ``Connection: close`` closes after the reply,
        ``Expect: 100-continue`` is answered and a leading ``//`` in the
        path collapses to ``/``.  On failure the stdlib's ``send_error``
        replies (400, 431, 501 or 505) and the connection closes.
        """
        self.command = ""
        self.close_connection = True
        # Not the stdlib's "HTTP/0.9" default, under which send_error
        # would answer a bad request line with a bare body.
        self.request_version = ""
        line = str(self.raw_requestline, "iso-8859-1").rstrip("\r\n")
        self.requestline = line
        words = line.split()
        if len(words) != 3:
            self.send_error(HTTPStatus.BAD_REQUEST,
                            f"Bad request syntax ({line!r})")
            return False
        command, path, version = words
        if version not in ("HTTP/1.1", "HTTP/1.0"):
            if _HTTP_VERSION.fullmatch(version):
                self.send_error(HTTPStatus.HTTP_VERSION_NOT_SUPPORTED,
                                f"Invalid HTTP version ({version[5:]})")
            else:
                self.send_error(HTTPStatus.BAD_REQUEST,
                                f"Bad request version ({version!r})")
            return False
        self.command, self.request_version = command, version
        self.path = "/" + path.lstrip("/") if path.startswith("//") else path
        try:
            self.fields, self.content_length = read_head(self.rfile)
        except ProtocolError as exc:
            self.send_error(exc.status, str(exc))
            return False
        connection = self.fields.get("connection", "").lower()
        self.close_connection = connection == "close" or (
            version == "HTTP/1.0" and connection != "keep-alive")
        if (version == "HTTP/1.1"
                and self.fields.get("expect", "").lower() == "100-continue"):
            return self.handle_expect_100()
        return True

    def _reply(self, status: int, payload: dict,
               headers: dict[str, str] | None = None) -> None:
        """Send status line, head and JSON body in one write.

        Head and body written apart leave as two TCP segments (Nagle is
        off) and wake the reader twice.  The explicit Content-Length
        keeps the HTTP/1.1 connection open for the next request.
        """
        body = json.dumps(payload, sort_keys=True).encode()
        reason = self.responses.get(status, ("",))[0]
        head = [f"{self.protocol_version} {status} {reason}",
                f"Server: {self.version_string()}",
                f"Date: {self.date_time_string()}",
                "Content-Type: application/json",
                f"Content-Length: {len(body)}"]
        head.extend(f"{name}: {value}"
                    for name, value in (headers or {}).items())
        if self.close_connection:
            head.append("Connection: close")
        self.log_request(status)
        self.wfile.write("\r\n".join(head).encode("latin-1")
                         + b"\r\n\r\n" + body)

    def _error(self, status: int, message: str) -> None:
        self._reply(status, {"error": message})

    @property
    def _service(self) -> ExperimentService:
        return self.server.service

    def _run_params(self) -> tuple[str, int]:
        """(experiment id, seed) from the query string or JSON body."""
        split = urlsplit(self.path)
        params = {k: v[-1] for k, v in parse_qs(split.query).items()}
        if self.command == "POST":
            length = self.content_length or 0
            if length > MAX_BODY_BYTES:
                # The oversized body stays unread; keep-alive would hand
                # it to the next request parse, so end the connection.
                # (close_connection is per-handler-instance state — one
                # handler per connection per thread — not shared.)
                self.close_connection = True  # greenlint: ignore[GL14]
                raise ConfigError(f"request body over {MAX_BODY_BYTES} bytes")
            if length:
                try:
                    body = json.loads(self.rfile.read(length) or b"{}")
                except (json.JSONDecodeError, UnicodeDecodeError) as exc:
                    raise ConfigError(f"request body is not JSON: {exc}") from exc
                if not isinstance(body, dict):
                    raise ConfigError("request body must be a JSON object")
                params.update(body)
        experiment_id = params.get("experiment")
        if not experiment_id or not isinstance(experiment_id, str):
            raise ConfigError("missing 'experiment' parameter")
        try:
            seed = int(params.get("seed", DEFAULT_SEED))
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"seed must be an integer: {exc}") from exc
        return experiment_id, seed

    def _run_reply(self) -> Reply:
        """The /run reply, built but not yet sent."""
        try:
            experiment_id, seed = self._run_params()
            served = self._service.serve(experiment_id, seed)
        except ConfigError as exc:
            return 400, {"error": str(exc)}, None
        except ReproError as exc:
            return 500, {"error": str(exc)}, None
        return 200, _served_payload(served), None

    def _handle_run(self) -> None:
        self._reply(*self._run_reply())

    # -- verbs ------------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - http.server contract
        route = urlsplit(self.path).path.rstrip("/") or "/"
        if route == "/health":
            self._reply(200, {"status": "ok", "version": __version__})
        elif route == "/stats":
            self._reply(200, self._service.stats())
        elif route == "/status":
            stats = self._service.stats()
            self._reply(200, {
                "version": __version__,
                "experiments": list(EXPERIMENTS),
                "jobs": self._service.config.jobs,
                "cache_dir": self._service.config.cache_dir,
                "uptime_s": round(stats["uptime_s"], 3),
                "inflight": stats["inflight"],
            })
        elif route == "/run":
            self._handle_run()
        else:
            self._error(404, f"unknown route {route!r}")

    def do_POST(self) -> None:  # noqa: N802 - http.server contract
        route = urlsplit(self.path).path.rstrip("/")
        if route == "/run":
            self._handle_run()
        else:
            self._error(404, f"unknown route {route!r}")


class ClosingHTTPServer(ThreadingHTTPServer):
    """ThreadingHTTPServer whose ``server_close`` severs keep-alives.

    HTTP/1.1 keep-alive parks handler threads on idle established
    connections; closing only the listening socket would leave a
    "stopped" server still answering those clients.  Tracking accepted
    sockets lets ``server_close`` shut them down too, so a stopped
    shard looks *dead* to the router's keep-alive clients (prompt
    fail-over) instead of serving phantom replies.
    """

    daemon_threads = True
    request_queue_size = 128

    def __init__(self, *args: object, **kwargs: object) -> None:
        self._conn_lock = threading.Lock()
        self._open_conns: set[socket.socket] = set()  # gl: guarded-by=_conn_lock
        super().__init__(*args, **kwargs)

    def process_request(self, request, client_address) -> None:
        with self._conn_lock:
            self._open_conns.add(request)
        super().process_request(request, client_address)

    def shutdown_request(self, request) -> None:
        with self._conn_lock:
            self._open_conns.discard(request)
        super().shutdown_request(request)

    def handle_error(self, request, client_address) -> None:
        exc = sys.exc_info()[1]
        if isinstance(exc, (ConnectionError, TimeoutError)):
            return  # a severed or idle-timed-out keep-alive, not a bug
        super().handle_error(request, client_address)  # pragma: no cover

    def server_close(self) -> None:
        super().server_close()
        with self._conn_lock:
            conns = list(self._open_conns)
            self._open_conns.clear()
        for conn in conns:
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                conn.close()
            except OSError:  # pragma: no cover - close is best-effort
                pass

    @property
    def port(self) -> int:
        """The bound TCP port (resolves an ephemeral-port bind)."""
        return int(self.server_address[1])


class ExperimentHTTPServer(ClosingHTTPServer):
    """ThreadingHTTPServer that owns an ExperimentService."""

    def __init__(self, address: tuple[str, int], service: ExperimentService,
                 verbose: bool = False,
                 handler: type[BaseHTTPRequestHandler] | None = None) -> None:
        super().__init__(address, handler or ServiceRequestHandler)
        self.service = service
        self.verbose = verbose


def make_server(host: str = "127.0.0.1", port: int = DEFAULT_PORT,
                service: ExperimentService | None = None,
                verbose: bool = False) -> ExperimentHTTPServer:
    """Bind (but do not start) the serving endpoint."""
    return ExperimentHTTPServer((host, port), service or ExperimentService(),
                                verbose=verbose)
