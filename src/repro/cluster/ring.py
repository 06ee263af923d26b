"""Consistent hashing: place cache keys on shards, stably.

The router hashes the engine's sha256 :func:`~repro.experiments.engine.cache_key`
onto a ring of virtual nodes (``vnodes`` points per shard, each placed
by sha256 of ``"{shard}#{replica}"``).  A key's **preference list** is
the sequence of distinct shards met walking clockwise from the key's
point — the first entry owns the key, the rest are its fail-over
targets in a fixed, deterministic order.

Consistent hashing is what makes the cluster elastic *and* cache-warm:
removing a shard (crash, drain) remaps only the keys that shard owned —
every other shard keeps serving its working set from its hot tier —
and virtual nodes keep the per-shard key share close to uniform.
"""

from __future__ import annotations

import bisect
import hashlib
from typing import Iterable, Sequence

from repro.errors import ConfigError

#: Virtual nodes per shard: enough to hold the worst shard's share
#: within a few percent of uniform for small clusters.
DEFAULT_VNODES = 128


def _point(material: str) -> int:
    """Ring coordinate of one label (64 bits of its sha256)."""
    return int.from_bytes(
        hashlib.sha256(material.encode()).digest()[:8], "big")


class HashRing:
    """An immutable consistent-hash ring over named shards."""

    def __init__(self, shard_names: Sequence[str],
                 vnodes: int = DEFAULT_VNODES) -> None:
        if not shard_names:
            raise ConfigError("a hash ring needs at least one shard")
        if len(set(shard_names)) != len(shard_names):
            raise ConfigError(f"duplicate shard names: {list(shard_names)}")
        if vnodes < 1:
            raise ConfigError(f"vnodes must be >= 1, got {vnodes}")
        self.shard_names = tuple(shard_names)
        self.vnodes = vnodes
        points: list[tuple[int, str]] = []
        for name in shard_names:
            points.extend((_point(f"{name}#{i}"), name)
                          for i in range(vnodes))
        points.sort()
        self._points = [p for p, _ in points]
        self._owners = [name for _, name in points]

    def preference(self, key: str, n: int | None = None,
                   alive: Iterable[str] | None = None) -> list[str]:
        """The first ``n`` distinct shards clockwise from ``key``.

        ``alive`` restricts the walk to healthy shards — dead ones are
        skipped, so their keys land on the next live successor (the
        "route around dead shards" behaviour).  Returns fewer than ``n``
        entries when fewer distinct live shards exist.
        """
        eligible = set(self.shard_names if alive is None else alive)
        eligible &= set(self.shard_names)
        want = len(eligible) if n is None else min(n, len(eligible))
        start = bisect.bisect_left(self._points, _point(key))
        chosen: list[str] = []
        total = len(self._points)
        for offset in range(total):
            owner = self._owners[(start + offset) % total]
            if owner in eligible and owner not in chosen:
                chosen.append(owner)
                if len(chosen) >= want:
                    break
        return chosen

    def primary(self, key: str,
                alive: Iterable[str] | None = None) -> str | None:
        """The live shard owning ``key`` (None when none are alive)."""
        owners = self.preference(key, n=1, alive=alive)
        return owners[0] if owners else None

    def share(self, keys: Iterable[str]) -> dict[str, int]:
        """How many of ``keys`` each shard owns (balance diagnostics)."""
        counts = {name: 0 for name in self.shard_names}
        for key in keys:
            owner = self.primary(key)
            if owner is not None:
                counts[owner] += 1
        return counts
