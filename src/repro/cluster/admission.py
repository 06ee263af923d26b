"""Admission control: bounded per-shard queues with load shedding.

A shard's capacity is its worker pool plus a bounded queue of waiting
requests.  :class:`AdmissionGate` tracks the number of admitted,
not-yet-completed ``/run`` requests; once the depth reaches the
configured watermark the shard *sheds* — it replies ``503`` with a
``Retry-After`` hint instead of queueing unboundedly, which is what
keeps an overloaded in-transit tier's latency bounded instead of
collapsing (the Catalyst-ADIOS2 lesson: explicit admission limits, not
merely parallelism).

The gate is deliberately tiny and lock-guarded; the shard role
(:class:`~repro.cluster.shard.Shard`) brackets each ``/run`` with
``admit()`` / ``release()`` and its stats route snapshots the counters.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

from repro.errors import ConfigError

#: Default queue watermark: a few times the default worker count.
DEFAULT_QUEUE_DEPTH = 64
#: Default shed hint: long enough for a queued compute to drain.
DEFAULT_RETRY_AFTER_S = 0.05


@dataclass(frozen=True)
class AdmissionPolicy:
    """Per-shard admission knobs.

    ``max_queue_depth`` is the watermark: the number of concurrently
    admitted ``/run`` requests (executing plus queued) beyond which new
    arrivals are shed.  ``retry_after_s`` is the hint sent with the 503.
    """

    max_queue_depth: int = DEFAULT_QUEUE_DEPTH
    retry_after_s: float = DEFAULT_RETRY_AFTER_S

    def __post_init__(self) -> None:
        if self.max_queue_depth < 1:
            raise ConfigError(
                f"max_queue_depth must be >= 1, got {self.max_queue_depth}")
        if self.retry_after_s <= 0:
            raise ConfigError(
                f"retry_after_s must be positive, got {self.retry_after_s}")


class AdmissionGate:
    """Thread-safe depth counter enforcing an :class:`AdmissionPolicy`."""

    def __init__(self, policy: AdmissionPolicy | None = None) -> None:
        self.policy = policy or AdmissionPolicy()
        self._lock = threading.Lock()
        self._depth = 0  # gl: guarded-by=_lock
        self._peak_depth = 0  # gl: guarded-by=_lock
        self._admitted = 0  # gl: guarded-by=_lock
        self._shed = 0  # gl: guarded-by=_lock

    def admit(self) -> bool:
        """Try to enter the queue; False means the request is shed."""
        with self._lock:
            if self._depth >= self.policy.max_queue_depth:
                self._shed += 1
                return False
            self._depth += 1
            self._admitted += 1
            if self._depth > self._peak_depth:
                self._peak_depth = self._depth
            return True

    def release(self) -> None:
        """Leave the queue (pair with every successful :meth:`admit`)."""
        with self._lock:
            if self._depth <= 0:
                raise ConfigError("release() without a matching admit()")
            self._depth -= 1

    @property
    def depth(self) -> int:
        """Currently admitted, not-yet-completed requests."""
        with self._lock:
            return self._depth

    def stats(self) -> dict[str, int | float]:
        """Counter snapshot for the shard's /stats endpoint."""
        with self._lock:
            return {
                "depth": self._depth,
                "peak_depth": self._peak_depth,
                "admitted": self._admitted,
                "shed": self._shed,
                "max_queue_depth": self.policy.max_queue_depth,
                "retry_after_s": self.policy.retry_after_s,
            }
