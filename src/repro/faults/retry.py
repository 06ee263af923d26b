"""Bounded-retry policy with exponential backoff and deterministic jitter.

The policy itself is a frozen value object so it can live inside the
(frozen, hashable) :class:`~repro.pipelines.base.PipelineConfig`.  The
stateful part -- the jitter stream -- lives in :class:`RetrySession`,
created per storage stack by ``make_storage`` from a named rng stream, so
two runs with the same seed draw the same jitter sequence.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.errors import ConfigError

if TYPE_CHECKING:  # the serving client uses RetryPolicy without numpy
    import numpy as np

__all__ = ["RetryPolicy", "RetrySession"]


@dataclass(frozen=True)
class RetryPolicy:
    """How the block layer re-attempts faulted operations.

    ``max_attempts`` counts all tries including the first; the n-th failed
    attempt waits ``backoff_base_s * backoff_factor**(n-1)`` (give or take
    ``jitter_fraction``) before retrying.  Each failed attempt's device
    time is charged, capped at ``timeout_s`` (a command timeout: the host
    gives up waiting for the device, not for the whole retry loop).
    """

    max_attempts: int = 4
    backoff_base_s: float = 0.05
    backoff_factor: float = 2.0
    jitter_fraction: float = 0.1
    timeout_s: float = 5.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ConfigError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.backoff_base_s < 0:
            raise ConfigError("backoff_base_s must be non-negative")
        if self.backoff_factor < 1.0:
            raise ConfigError("backoff_factor must be >= 1")
        if not 0.0 <= self.jitter_fraction < 1.0:
            raise ConfigError("jitter_fraction must be in [0, 1)")
        if self.timeout_s <= 0:
            raise ConfigError("timeout_s must be positive")

    def backoff_s(self, attempt: int, jitter_u: float = 0.5) -> float:
        """Wait before retry number ``attempt`` (1-based), in seconds.

        ``jitter_u`` is a uniform draw in [0, 1); 0.5 means no jitter, so
        the function is pure and unit-testable without an rng.
        """
        if attempt < 1:
            raise ConfigError(f"attempt must be >= 1, got {attempt}")
        nominal = self.backoff_base_s * self.backoff_factor ** (attempt - 1)
        return nominal * (1.0 + self.jitter_fraction * (2.0 * jitter_u - 1.0))

    def charge_s(self, elapsed_s: float) -> float:
        """Device time billed for one failed attempt (command timeout cap)."""
        return min(elapsed_s, self.timeout_s)


class RetrySession:
    """A :class:`RetryPolicy` bound to a deterministic jitter stream."""

    def __init__(self, policy: RetryPolicy, gen: np.random.Generator) -> None:
        self.policy = policy
        self._gen = gen

    def backoff_s(self, attempt: int) -> float:
        """Jittered backoff for retry number ``attempt`` (consumes one draw)."""
        return self.policy.backoff_s(attempt, jitter_u=float(self._gen.random()))
