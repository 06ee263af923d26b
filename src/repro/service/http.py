"""JSON-over-HTTP transport for the serving tier (stdlib only).

One adapter, :class:`RequestHandler`, owns all socket I/O for every
serving role.  It parses the request line, the head (with
:func:`~repro.service.wire.read_head`, the one header parser) and the
whole body, hands a socket-free :class:`Request` to the role its
:class:`ClosingHTTPServer` carries, and writes the returned
:data:`Reply` in one write.  A role is any :class:`App`, an object with
``handle(request) -> Reply``: :class:`ServiceApp` for ``repro serve``,
and the shard and the router of :mod:`repro.cluster`.  A reply's
payload is a dict, which the adapter encodes with :func:`json_body`, or
a body a role encoded once and keeps (the router's held replies), which
it writes as it is.  The ``Date`` value is formatted at most once per
second and the ``Server`` line once per process.
Every connection gets a handler thread, so concurrent identical
requests genuinely race into the service and exercise its single-flight
path.

``repro serve``'s endpoints (all JSON):

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
unknown experiment id or a seed that is not an integer 400, internal
failure 500.  Nothing here touches experiment math; the transport is a
thin shell over the in-process API.
"""

from __future__ import annotations

import email.utils
import hashlib
import json
import re
import socket
import sys
import threading
import time
from dataclasses import dataclass, field
from http import HTTPStatus
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Protocol
from urllib.parse import parse_qs, urlsplit

from repro.errors import ConfigError, ProtocolError, ReproError
from repro.experiments.engine import pickle_result
from repro.experiments.registry import EXPERIMENTS, get_experiment
from repro.rng import DEFAULT_SEED
from repro.service.core import ExperimentService, Served
from repro.service.wire import DEFAULT_PORT, read_head
from repro.units import KiB, MS
from repro.version import __version__

#: Cap on accepted request bodies; run requests are a few dozen bytes.
MAX_BODY_BYTES = 64 * KiB

_HTTP_VERSION = re.compile(r"HTTP/[0-9]+\.[0-9]+")

#: A reply not yet sent: status, JSON payload, extra header fields.  The
#: payload is a dict, or a body :func:`json_body` already encoded.
Reply = tuple[int, dict | bytes, dict[str, str] | None]

#: (second, ``Date`` text) of the latest reply; replaced whole, never mutated.
_date: tuple[int, str] = (-1, "")


def json_body(payload: dict) -> bytes:
    """The JSON body the adapter writes for ``payload`` (keys sorted)."""
    return json.dumps(payload, sort_keys=True).encode()


def _http_date() -> str:
    """The ``Date`` header value for now, formatted once per second."""
    global _date
    second = int(time.time())
    current = _date
    if current[0] != second:
        current = _date = (second, email.utils.formatdate(second, usegmt=True))
    return current[1]


@dataclass(frozen=True)
class Request:
    """One parsed request, with no socket behind it.

    ``route`` is the path without its query string or trailing ``/``;
    ``query`` holds each query parameter's last value; ``body`` is the
    whole request body, already read.
    """

    method: str
    route: str
    query: dict[str, str] = field(default_factory=dict)
    body: bytes = b""


class App(Protocol):
    """A serving role: one parsed request in, one reply out."""

    def handle(self, request: Request) -> Reply:
        """The reply to ``request``; a bad request is a 4xx reply."""
        ...


def result_digest(result: object) -> str:
    """sha256 hex digest of the result's canonical pickle bytes.

    ``/run`` replies carry :attr:`~repro.service.core.Served.digest`,
    taken from the result's cache frame; this recomputes it, for
    checks against a reference result.
    """
    return hashlib.sha256(pickle_result(result)).hexdigest()


def run_params(request: Request) -> tuple[str, int]:
    """(experiment id, seed) of a ``/run`` or ``/invalidate`` request.

    The query string, overlaid by a POST's JSON object body.  Every role
    checks both here, at the first hop: a body that is not a JSON
    object, a missing or unknown experiment id, or a seed that is not an
    integer (a JSON int that is not a bool, or a string ``int()``
    accepts) raises :class:`~repro.errors.ConfigError`, a 400.
    """
    params: dict[str, object] = dict(request.query)
    if request.method == "POST" and request.body:
        try:
            body = json.loads(request.body)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ConfigError(f"request body is not JSON: {exc}") from exc
        if not isinstance(body, dict):
            raise ConfigError("request body must be a JSON object")
        params.update(body)
    experiment_id = params.get("experiment")
    if not experiment_id or not isinstance(experiment_id, str):
        raise ConfigError("missing 'experiment' parameter")
    get_experiment(experiment_id)
    seed = params.get("seed", DEFAULT_SEED)
    if isinstance(seed, str):
        try:
            seed = int(seed)
        except ValueError as exc:
            raise ConfigError(f"seed must be an integer: {exc}") from exc
    elif isinstance(seed, bool) or not isinstance(seed, int):
        raise ConfigError(f"seed must be an integer, got {seed!r}")
    return experiment_id, seed


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


class ServiceApp:
    """``repro serve``'s routes over one :class:`ExperimentService`."""

    def __init__(self, service: ExperimentService) -> None:
        self.service = service

    def handle(self, request: Request) -> Reply:
        route = request.route
        if route == "/run":
            return self.run(request)
        if request.method == "GET":
            if route == "/health":
                return 200, {"status": "ok", "version": __version__}, None
            if route == "/stats":
                return 200, self.service.stats(), None
            if route == "/status":
                stats = self.service.stats()
                return 200, {
                    "version": __version__,
                    "experiments": list(EXPERIMENTS),
                    "jobs": self.service.config.jobs,
                    "cache_dir": self.service.config.cache_dir,
                    "uptime_s": round(stats["uptime_s"], 3),
                    "inflight": stats["inflight"],
                }, None
        return 404, {"error": f"unknown route {route!r}"}, None

    def run(self, request: Request) -> Reply:
        """The ``/run`` reply."""
        try:
            served = self.service.serve(*run_params(request))
        except ConfigError as exc:
            return 400, {"error": str(exc)}, None
        except ReproError as exc:
            return 500, {"error": str(exc)}, None
        return 200, _served_payload(served), None


class RequestHandler(BaseHTTPRequestHandler):
    """The one HTTP adapter: read a request, ask the server's role, reply."""

    server_version = f"repro/{__version__}"
    protocol_version = "HTTP/1.1"
    #: The head's ``Server`` line, worded as ``version_string()`` words it.
    server_line = (f"Server: {server_version} "
                   f"{BaseHTTPRequestHandler.sys_version}")
    # Small JSON replies must not sit behind Nagle waiting for the ACK
    # of the previous keep-alive exchange (a ~40 ms stall per request).
    disable_nagle_algorithm = True

    server: ClosingHTTPServer
    #: The request, None when its body is over :data:`MAX_BODY_BYTES` and
    #: was left unread; set by :meth:`parse_request`.
    parsed: Request | None

    def log_message(self, format: str, *args: object) -> None:  # noqa: A002
        if self.server.verbose:  # pragma: no cover
            super().log_message(format, *args)

    def parse_request(self) -> bool:
        """Parse the request line, the head and the whole body.

        Keeps the stdlib's semantics: HTTP/1.0 closes unless it asks for
        keep-alive, ``Connection: close`` closes after the reply,
        ``Expect: 100-continue`` is answered and a leading ``//`` in the
        path collapses to ``/``.  On failure the stdlib's ``send_error``
        replies (400, 431, 501 or 505) and the connection closes; a
        target ``urlsplit`` rejects is a 400 too.  The body is read
        here, whatever the route, so no reply leaves it in the stream
        for the next request's parse; one over :data:`MAX_BODY_BYTES`
        stays unread and the connection closes.
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
            target = urlsplit(self.path)
        except ValueError:
            self.send_error(HTTPStatus.BAD_REQUEST,
                            f"Bad request target ({path!r})")
            return False
        try:
            fields, length = read_head(self.rfile)
        except ProtocolError as exc:
            self.send_error(exc.status, str(exc))
            return False
        connection = fields.get("connection", "").lower()
        self.close_connection = connection == "close" or (
            version == "HTTP/1.0" and connection != "keep-alive")
        if (version == "HTTP/1.1"
                and fields.get("expect", "").lower() == "100-continue"
                and not self.handle_expect_100()):
            return False
        if (length or 0) > MAX_BODY_BYTES:
            self.close_connection = True
            self.parsed = None
        else:
            query = ({k: v[-1] for k, v in parse_qs(target.query).items()}
                     if target.query else {})
            self.parsed = Request(command, target.path.rstrip("/") or "/",
                                  query, self.rfile.read(length or 0))
        return True

    def _reply(self, status: int, payload: dict | bytes,
               headers: dict[str, str] | None = None) -> None:
        """Send status line, head and JSON body in one write.

        A ``bytes`` payload is an encoded body and goes out as it is.
        Head and body written apart leave as two TCP segments (Nagle is
        off) and wake the reader twice.  The explicit Content-Length
        keeps the HTTP/1.1 connection open for the next request.
        """
        body = payload if isinstance(payload, bytes) else json_body(payload)
        reason = self.responses.get(status, ("",))[0]
        head = [f"{self.protocol_version} {status} {reason}",
                self.server_line,
                f"Date: {_http_date()}",
                "Content-Type: application/json",
                f"Content-Length: {len(body)}"]
        head.extend(f"{name}: {value}"
                    for name, value in (headers or {}).items())
        if self.close_connection:
            head.append("Connection: close")
        if self.server.verbose:  # pragma: no cover
            self.log_request(status)
        self.wfile.write("\r\n".join(head).encode("latin-1")
                         + b"\r\n\r\n" + body)

    def _dispatch(self) -> None:
        """Hand the parsed request to the server's role; send its reply."""
        if self.parsed is None:
            self._reply(400, {
                "error": f"request body over {MAX_BODY_BYTES} bytes"})
            return
        app: App = self.server.app
        self._reply(*app.handle(self.parsed))

    def do_GET(self) -> None:  # noqa: N802 - http.server contract
        self._dispatch()

    def do_POST(self) -> None:  # noqa: N802 - http.server contract
        self._dispatch()


class ClosingHTTPServer(ThreadingHTTPServer):
    """The one server class: a role (:class:`App`) behind the adapter.

    ``server_close`` severs keep-alives too.  HTTP/1.1 keep-alive parks
    handler threads on idle established connections; closing only the
    listening socket would leave a "stopped" server still answering
    those clients.  Tracking accepted sockets lets ``server_close`` shut
    them down too, so a stopped shard looks *dead* to the router's
    keep-alive clients (prompt fail-over) instead of serving phantom
    replies.
    """

    daemon_threads = True
    request_queue_size = 128

    def __init__(self, address: tuple[str, int], app: App,
                 verbose: bool = False) -> None:
        self.app = app
        self.verbose = verbose
        self._conn_lock = threading.Lock()
        self._open_conns: set[socket.socket] = set()  # gl: guarded-by=_conn_lock
        super().__init__(address, RequestHandler)

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


def make_server(host: str = "127.0.0.1", port: int = DEFAULT_PORT,
                service: ExperimentService | None = None,
                verbose: bool = False) -> ClosingHTTPServer:
    """Bind (but do not start) the serving endpoint."""
    return ClosingHTTPServer(
        (host, port), ServiceApp(service or ExperimentService()),
        verbose=verbose)
