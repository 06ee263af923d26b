"""Content fingerprints and bounded memos for repeat-heavy hot paths.

Several layers of the reproduction recompute pure functions of bulk
content: the renderer rasterizes the same field both pipelines of a
comparison observed, the reader re-validates a container it decoded
moments ago.  This module centralizes the ingredients those caches
share:

* **fingerprints** — a field's content key is its shape and dtype, the
  crc32 of each row block at the timestep container's chunk geometry
  (whole rows, at most ``CHUNK_BYTES``), and an adler32 over the first
  64 KiB.  A collision must beat every block CRC *and* the adler32 *and*
  the metadata at once.  Because the blocks are the container's chunks,
  fingerprinting a field and checksumming its dump are one computation:
  the writer indexes an uncompressed dump with the fingerprint's CRCs,
  and the reader pins the read-back field's fingerprint from the CRCs it
  validated (:mod:`repro.storage.format`);
* **identity pins** — :func:`pinned` memoizes a value on the identity
  of an immutable object (read-only arrays such as science-cache
  snapshots and zero-copy read-back grids; ``bytes`` blobs and sealed
  container buffers, which the reader pins its decoded grid on), so
  repeat fingerprints and repeat decodes are O(1) instead of a full
  scan;
* **:class:`ContentMemo`** — a FIFO-bounded, thread-tolerant store
  bounded by entry count and approximate bytes; it backs the frame
  cache (:func:`~repro.pipelines.base.render_pipeline_frame`).  Memos
  only ever accelerate: a miss recomputes the pure function, so
  eviction policy cannot change a produced number.
"""

from __future__ import annotations

import threading
import zlib
from collections.abc import Sequence, Sized
from typing import Any

import numpy as np

from repro.calibration import CHUNK_BYTES
from repro.units import KiB, MiB

#: How much of the content the secondary (adler32) hash covers.
_PREFIX_BYTES = 64 * KiB

#: id -> (object ref, value) for *immutable* objects; the stored
#: reference keeps the id from being recycled.  A fresh run of all 18
#: experiments pins a few hundred objects (snapshots, read-back grids,
#: blobs).
_PINS: dict[int, tuple[Any, Any]] = {}
_PINS_MAX_ENTRIES = 1000


def pinned(obj: Any, value: Any = None) -> Any:
    """The value pinned to immutable ``obj``, or None.

    With ``value`` given, pins it first (replacing any earlier pin).
    Only sound for objects whose content cannot change: ``bytes`` and
    read-only arrays.
    """
    if value is None:
        hit = _PINS.get(id(obj))  # greenlint: ignore[GL18]  (identity memo: hits are identity-checked, value-deterministic)
        return hit[1] if hit is not None and hit[0] is obj else None
    if len(_PINS) >= _PINS_MAX_ENTRIES:
        try:
            _PINS.pop(next(iter(_PINS)))
        except (KeyError, RuntimeError, StopIteration):
            pass  # concurrent evictor got there first
    _PINS[id(obj)] = (obj, value)
    return value


def prefix_hash(buf: bytes | memoryview) -> int:
    """The secondary hash: adler32 over the first 64 KiB of ``buf``."""
    return zlib.adler32(memoryview(buf)[:_PREFIX_BYTES])


def block_bytes(row_bytes: int, chunk_bytes: int = CHUNK_BYTES) -> int:
    """Bytes per row block: as many whole rows as fit, at least one."""
    return max(1, chunk_bytes // row_bytes) * row_bytes


def field_fingerprint(data: np.ndarray) -> tuple | None:
    """Content key of a 2-D field, or None when hashing isn't cheap."""
    if not isinstance(data, np.ndarray) or not data.flags.c_contiguous:
        return None
    immutable = not data.flags.writeable
    if immutable:
        hit = pinned(data)
        if hit is not None:
            return hit
    buf = data.data.cast("B")
    rows = data.shape[0] if data.ndim else 1
    step = block_bytes(row_bytes=data.nbytes // rows) if data.nbytes else 1
    crcs = tuple(zlib.crc32(buf[i : i + step])
                 for i in range(0, len(buf), step))
    fingerprint = (data.shape, data.dtype.str, crcs, prefix_hash(buf))
    if immutable:
        pinned(data, fingerprint)
    return fingerprint


def pin_fingerprint(data: np.ndarray, chunks: Sequence[Sized],
                    crcs: tuple[int, ...]) -> None:
    """Pin read-only ``data``'s fingerprint from CRCs already taken.

    ``chunks`` are the byte runs ``data`` was assembled from, in order,
    uncompressed, and ``crcs`` their checksums.  They become the
    fingerprint only when they are exactly its row blocks; otherwise
    nothing is pinned and :func:`field_fingerprint` scans on demand.
    """
    if data.flags.writeable:
        return
    step = block_bytes(row_bytes=data.nbytes // data.shape[0])
    extents = [min(step, data.nbytes - i) for i in range(0, data.nbytes, step)]
    if [len(c) for c in chunks] == extents:
        pinned(data, (data.shape, data.dtype.str, crcs,
                      prefix_hash(data.data.cast("B"))))


class ContentMemo:
    """FIFO-bounded memo for content-keyed pure-function results.

    Bounded by entry count and approximate bytes; inserting past either
    bound drops oldest entries first.  All operations take a lock, so
    serving-layer threads can share one memo; the worst concurrent
    outcome is a duplicated recompute, never a wrong value.
    """

    def __init__(self, max_entries: int = 256,
                 max_bytes: int = 256 * MiB) -> None:
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self._lock = threading.Lock()
        self._entries: dict[Any, tuple[Any, int]] = {}  # gl: guarded-by=_lock
        self._bytes = 0  # gl: guarded-by=_lock

    def get(self, key: Any) -> Any | None:
        """The memoized value, or None."""
        with self._lock:
            hit = self._entries.get(key)
            return None if hit is None else hit[0]

    def put(self, key: Any, value: Any, nbytes: int) -> None:
        """Store ``value`` charged at ``nbytes`` (oversized values skip)."""
        if nbytes > self.max_bytes:
            return
        with self._lock:
            old = self._entries.pop(key, None)
            if old is not None:
                self._bytes -= old[1]
            self._entries[key] = (value, nbytes)
            self._bytes += nbytes
            while (len(self._entries) > self.max_entries
                   or self._bytes > self.max_bytes):
                oldest = next(iter(self._entries))
                self._bytes -= self._entries.pop(oldest)[1]

    def clear(self) -> None:
        """Drop every entry (mainly for tests)."""
        with self._lock:
            self._entries.clear()
            self._bytes = 0

    def __len__(self) -> int:
        return len(self._entries)
