"""Client side of the serving protocol (``repro query``), stdlib only.

:class:`ServiceClient` keeps one HTTP/1.1 keep-alive connection to a
serving endpoint (``repro serve`` or a cluster router) and re-uses it
across requests, so repeated small queries stop paying per-request TCP
setup — the before/after is recorded by ``benchmarks/bench_serve.py``.
Every round trip is bounded: a connect timeout while establishing the
connection, a read timeout once it is up, and a bounded
deterministic-backoff retry loop (re-using
:class:`~repro.faults.retry.RetryPolicy`) around transport failures, so
a dead server surfaces as a prompt :class:`~repro.errors.ServiceError`
instead of hanging the CLI forever.

The client owns its socket and speaks the wire subset described in
:mod:`repro.service.wire`: each request leaves in one write, and the
reply's status line, head (through the shared
:func:`~repro.service.wire.read_head`) and ``Content-Length``-framed
body are read off one buffered reader per connection.  It imports
neither the serving core nor numpy, so a fresh ``repro query`` process
starts in a fraction of the time the server side takes.

Retry semantics: transport-level failures (connection refused or reset,
timeouts, a torn keep-alive connection, a reply that breaks the wire
subset) drop the connection and retry
with ``RetryPolicy.backoff_s``'s jitter-free schedule; an HTTP 503 shed
reply honours the server's ``Retry-After`` hint (capped) before
retrying; any other HTTP error is not retried — the server answered,
the request itself is bad.  Requests are pure lookups/computations, so
re-sending one is always safe.

The module-level helpers (:func:`query`, :func:`stats`, ...) open a
transient client per call — the CLI's one-shot shape — while the router
holds one :class:`ServiceClient` per (thread, shard) for its forwarding
fan-out.
"""

from __future__ import annotations

import json
import socket
import threading
import time
from typing import BinaryIO

from repro.errors import ConfigError, ProtocolError, ServiceError
from repro.faults.retry import RetryPolicy
from repro.rng import DEFAULT_SEED
from repro.service.wire import DEFAULT_PORT, MAX_LINE_BYTES, read_head

#: Establishing the TCP connection: fail fast, the server is local/near.
DEFAULT_CONNECT_TIMEOUT_S = 5.0
#: Waiting for a reply: cold experiment computes take real seconds.
DEFAULT_READ_TIMEOUT_S = 300.0
#: Bounded transport retries with a deterministic 50 ms / 100 ms backoff.
DEFAULT_RETRY = RetryPolicy(max_attempts=3, backoff_base_s=0.05,
                            backoff_factor=2.0, jitter_fraction=0.0)
#: Never sleep longer than this on a server-sent ``Retry-After`` hint.
RETRY_AFTER_CAP_S = 2.0


def base_url(host: str = "127.0.0.1", port: int = DEFAULT_PORT) -> str:
    """Root URL of a serving endpoint."""
    return f"http://{host}:{port}"


def _hangup(sock: socket.SocketType, reader: BinaryIO) -> None:
    """Best-effort close of a (possibly torn) connection and its reader."""
    try:
        reader.close()
        sock.close()
    except OSError:  # pragma: no cover - close is best-effort
        pass


def _round_trip(sock: socket.SocketType, reader: BinaryIO, message: bytes
                ) -> tuple[int, dict[str, str], bytes, bool]:
    """One request/reply on an established connection (no retries).

    Returns the status, head fields and body, and whether the server
    closes the connection after this reply.  Raises
    :class:`~repro.errors.ProtocolError` on EOF, a malformed status line
    or head, a reply not framed by ``Content-Length``, or a body cut
    short.
    """
    sock.sendall(message)
    line = reader.readline(MAX_LINE_BYTES + 1)
    if not line:
        raise ProtocolError("connection closed before the reply")
    version, _, rest = line.partition(b" ")
    code = rest[:3]
    if (len(line) > MAX_LINE_BYTES or version not in (b"HTTP/1.1", b"HTTP/1.0")
            or not code.isdigit() or rest[3:4] not in (b" ", b"\r", b"\n")):
        raise ProtocolError(f"malformed status line {line[:40]!r}")
    fields, length = read_head(reader)
    if length is None:
        raise ProtocolError("reply is not framed by Content-Length")
    body = reader.read(length)
    if len(body) != length:
        raise ProtocolError(
            f"reply body cut short at {len(body)} of {length} bytes")
    connection = fields.get("connection", "").lower()
    closing = connection == "close" or (
        version == b"HTTP/1.0" and connection != "keep-alive")
    return int(code), fields, body, closing


class ServiceClient:
    """A keep-alive JSON client for one serving endpoint.

    One instance owns (at most) one TCP connection; a lock serializes
    requests on it, so sharing an instance across threads is safe but
    defeats pipelining — give each thread its own client (the router
    does, via ``threading.local``).
    """

    def __init__(self, host: str = "127.0.0.1", port: int = DEFAULT_PORT,
                 connect_timeout_s: float = DEFAULT_CONNECT_TIMEOUT_S,
                 read_timeout_s: float = DEFAULT_READ_TIMEOUT_S,
                 retry: RetryPolicy = DEFAULT_RETRY) -> None:
        if connect_timeout_s <= 0:
            raise ConfigError(
                f"connect_timeout_s must be positive, got {connect_timeout_s}")
        if read_timeout_s <= 0:
            raise ConfigError(
                f"read_timeout_s must be positive, got {read_timeout_s}")
        self.host = host
        self.port = port
        self.connect_timeout_s = connect_timeout_s
        self.read_timeout_s = read_timeout_s
        self.retry = retry
        self._lock = threading.Lock()
        #: The kept-alive socket and its buffered reader, or None.
        self._conn: tuple[socket.socket, BinaryIO] | None = None  # gl: guarded-by=_lock
        self._connects = 0  # gl: guarded-by=_lock
        self._retries = 0  # gl: guarded-by=_lock

    # -- connection management ---------------------------------------------------

    def _dial(self) -> tuple[socket.socket, BinaryIO]:
        """A fresh connection and its buffered reader (no state writes)."""
        sock = socket.create_connection((self.host, self.port),
                                        timeout=self.connect_timeout_s)
        reader = sock.makefile("rb")
        try:
            # The connect timeout bounded establishment; from here on
            # the socket waits for replies, which may be slow computes.
            sock.settimeout(self.read_timeout_s)
            # Nagle + delayed ACK would hold a small request until the
            # ACK of the previous reply arrives (~40 ms on keep-alive).
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except BaseException:
            _hangup(sock, reader)
            raise
        return sock, reader

    def close(self) -> None:
        """Close the underlying connection (the client stays usable)."""
        with self._lock:
            if self._conn is not None:
                _hangup(*self._conn)
                self._conn = None

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- transport ---------------------------------------------------------------

    def _encode(self, method: str, path: str, payload: bytes | None) -> bytes:
        """The whole request — line, head and body — as one write."""
        head = (f"{method} {path} HTTP/1.1\r\n"
                f"Host: {self.host}:{self.port}\r\n"
                "Accept: application/json\r\n")
        if payload is None:
            return (head + "\r\n").encode("latin-1")
        return (head + "Content-Type: application/json\r\n"
                f"Content-Length: {len(payload)}\r\n\r\n").encode(
                    "latin-1") + payload

    def _decode(self, status: int, raw: bytes, url: str,
                retry_after: str | None = None) -> dict:
        try:
            payload = json.loads(raw)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ServiceError(f"non-JSON reply from {url}",
                               status=status) from exc
        if not isinstance(payload, dict):
            raise ServiceError(f"malformed reply from {url}", status=status)
        if status >= 400:
            message = payload.get("error", f"HTTP {status}")
            raise ServiceError(f"server rejected request: {message}",
                               status=status,
                               retry_after_s=_retry_after_s(retry_after))
        return payload

    # gl: idempotent — _connects/_retries deliberately count attempts;
    # the exchange itself is a GET or a content-addressed /run POST.
    def request(self, path: str, body: dict | None = None,
                method: str | None = None) -> dict:
        """One JSON exchange with bounded retries; the decoded reply.

        Raises :class:`ServiceError` on exhaustion, a non-retried HTTP
        error, or a malformed reply.
        """
        payload = json.dumps(body).encode() if body is not None else None
        method = method or ("POST" if payload is not None else "GET")
        message = self._encode(method, path, payload)
        url = f"{base_url(self.host, self.port)}{path}"
        with self._lock:
            for attempt in range(1, self.retry.max_attempts + 1):
                last = attempt == self.retry.max_attempts
                # Any failure drops the connection: a reply read half-way
                # leaves it out of step with the next request.
                drop = True
                try:
                    if self._conn is None:
                        self._conn = self._dial()
                        self._connects += 1
                    status, fields, raw, drop = _round_trip(
                        *self._conn, message)
                except (OSError, ProtocolError) as exc:
                    if last:
                        raise ServiceError(
                            f"cannot reach {url} after {attempt} "
                            f"attempt(s): {exc}") from exc
                    self._retries += 1
                    # jitter_u=0.5 keeps the schedule pure/deterministic.
                    # Transport backoff, not experiment math; wall-clock
                    # by design.
                    time.sleep(self.retry.backoff_s(  # greenlint: ignore[GL6]
                        attempt, jitter_u=0.5))
                    continue
                finally:
                    if drop and self._conn is not None:
                        _hangup(*self._conn)
                        self._conn = None
                retry_after = fields.get("retry-after")
                if status == 503 and not last:
                    # The server shed the request; honour its hint.
                    self._retries += 1
                    time.sleep(min(  # greenlint: ignore[GL6]
                        _retry_after_s(retry_after)
                        or self.retry.backoff_s(attempt, 0.5),
                        RETRY_AFTER_CAP_S))
                    continue
                return self._decode(status, raw, url, retry_after)
        raise ServiceError(f"cannot reach {url}")  # pragma: no cover

    # -- endpoints ---------------------------------------------------------------

    def run(self, experiment_id: str, seed: int = DEFAULT_SEED) -> dict:
        """Run one experiment on the remote service; the /run reply."""
        return self.request("/run",
                            body={"experiment": experiment_id, "seed": seed})

    def stats(self) -> dict:
        """The remote service's counter snapshot."""
        return self.request("/stats")

    def health(self) -> dict:
        """Liveness probe."""
        return self.request("/health")

    def status(self) -> dict:
        """Identity / config snapshot."""
        return self.request("/status")

    def invalidate(self, experiment_id: str,
                   seed: int = DEFAULT_SEED) -> dict:
        """Drop one key from the remote cache tiers."""
        return self.request("/invalidate",
                            body={"experiment": experiment_id, "seed": seed})

    def transport_stats(self) -> dict[str, int]:
        """Connection reuse counters (connects, transport retries)."""
        with self._lock:
            return {"connects": self._connects, "retries": self._retries}


def _retry_after_s(header: str | None) -> float | None:
    """Parse a ``Retry-After`` seconds value; None when absent/bad."""
    if header is None:
        return None
    try:
        value = float(header)
    except ValueError:
        return None
    return value if value >= 0 else None


def _one_shot(host: str, port: int, timeout_s: float,
              retry: RetryPolicy | None) -> ServiceClient:
    return ServiceClient(host, port, read_timeout_s=timeout_s,
                         retry=retry or DEFAULT_RETRY)


def query(experiment_id: str, seed: int = DEFAULT_SEED,
          host: str = "127.0.0.1", port: int = DEFAULT_PORT,
          timeout_s: float = DEFAULT_READ_TIMEOUT_S,
          retry: RetryPolicy | None = None) -> dict:
    """Run one experiment on a remote service; the /run reply dict."""
    with _one_shot(host, port, timeout_s, retry) as client:
        return client.run(experiment_id, seed)


def stats(host: str = "127.0.0.1", port: int = DEFAULT_PORT,
          timeout_s: float = DEFAULT_READ_TIMEOUT_S,
          retry: RetryPolicy | None = None) -> dict:
    """The service's counter snapshot."""
    with _one_shot(host, port, timeout_s, retry) as client:
        return client.stats()


def health(host: str = "127.0.0.1", port: int = DEFAULT_PORT,
           timeout_s: float = DEFAULT_READ_TIMEOUT_S,
           retry: RetryPolicy | None = None) -> dict:
    """Liveness probe."""
    with _one_shot(host, port, timeout_s, retry) as client:
        return client.health()
