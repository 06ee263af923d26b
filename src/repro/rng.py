"""Deterministic random-number streams.

Every stochastic element of the reproduction (meter noise, seek distances,
random I/O offsets, initial conditions) draws from a named stream derived
from a single experiment seed, so that:

* the same experiment configuration always produces the same numbers, and
* adding a new consumer of randomness does not perturb existing streams
  (streams are keyed by name, not by draw order).
"""

from __future__ import annotations

import hashlib
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

DEFAULT_SEED = 20150525  # IPDPSW 2015 workshop date


def stream(name: str, seed: int = DEFAULT_SEED) -> np.random.Generator:
    """Return an independent :class:`numpy.random.Generator` for ``name``.

    The stream is derived by hashing ``(seed, name)`` so that distinct names
    give statistically independent streams and the mapping is stable across
    processes and Python versions (unlike ``hash()``).
    """
    # Imported here so DEFAULT_SEED stays importable without numpy (the
    # serving client's default); a draw needs numpy loaded anyway.
    import numpy as np

    digest = hashlib.sha256(f"{seed}:{name}".encode()).digest()
    # 4 words of 64 bits each seed the SeedSequence entropy pool.
    entropy = [int.from_bytes(digest[i : i + 8], "little") for i in range(0, 32, 8)]
    return np.random.default_rng(np.random.SeedSequence(entropy))


class RngRegistry:
    """A per-experiment registry of named random streams.

    Instances are cheap; pipelines create one per run so that two runs with
    the same seed are bit-identical even when executed in one process.
    """

    def __init__(self, seed: int = DEFAULT_SEED) -> None:
        self.seed = int(seed)
        self._streams: dict[str, np.random.Generator] = {}

    def get(self, name: str) -> np.random.Generator:
        """Return (creating on first use) the stream called ``name``."""
        if name not in self._streams:
            self._streams[name] = stream(name, self.seed)
        return self._streams[name]

    def fork(self, suffix: str) -> "RngRegistry":
        """Return a registry whose streams are all distinct from this one's.

        Useful to give each pipeline run its own namespace:
        ``rig = parent.fork("run-3")``.
        """
        child_seed = int.from_bytes(
            hashlib.sha256(f"{self.seed}/{suffix}".encode()).digest()[:8], "little"
        )
        return RngRegistry(child_seed)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RngRegistry(seed={self.seed}, streams={sorted(self._streams)})"
