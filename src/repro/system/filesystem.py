"""Extent-based filesystem over the simulated storage stack.

Responsibilities:

* **Namespace + content**: files really hold their bytes (reads return what
  writes stored — the pipelines verify simulation data round-trips).  A
  read-only buffer (``bytes``, a sealed timestep container) is kept as
  is, not copied, and a whole-file read of a one-write file returns that
  same object; anything writable is copied on write.
* **Allocation / layout**: a pluggable allocator maps file bytes onto
  device extents.  ``contiguous`` gives streaming I/O; ``fragmented``
  scatters extents across the device (an aged filesystem), which is the
  condition the paper's Section V.D data-reorganization discussion targets.
* **Journaling**: ``sync`` commits a small journal record before the data
  barrier, like ext4's ordered mode.

All operations return an :class:`FsResult` carrying CPU time and device
:class:`~repro.system.blockdev.IoStats` so callers can build trace spans.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import FileNotFound, MachineError, StorageError
from repro.machine.disk import DiskRequest, OpKind
from repro.rng import RngRegistry
from repro.system.blockdev import BlockQueue, IoStats
from repro.system.pagecache import CacheOp, PageCache
from repro.units import KiB, MiB


@dataclass(frozen=True)
class Extent:
    """One contiguous run of device bytes backing part of a file."""

    device_offset: int
    nbytes: int

    @property
    def end(self) -> int:
        """Exclusive end offset of this extent/request."""
        return self.device_offset + self.nbytes


@dataclass
class FileHandle:
    """Filesystem metadata for one file."""

    name: str
    extents: list[Extent] = field(default_factory=list)

    @property
    def size(self) -> int:
        """Size of the named file in bytes."""
        return sum(e.nbytes for e in self.extents)

    def map_range(self, offset: int, nbytes: int) -> list[Extent]:
        """Device extents covering file bytes [offset, offset+nbytes)."""
        if offset < 0 or nbytes < 0 or offset + nbytes > self.size:
            raise StorageError(
                f"range [{offset}, {offset + nbytes}) outside file "
                f"{self.name!r} of {self.size} bytes"
            )
        out: list[Extent] = []
        pos = 0
        remaining_start, remaining = offset, nbytes
        for extent in self.extents:
            if remaining <= 0:
                break
            ext_end = pos + extent.nbytes
            if remaining_start < ext_end:
                within = remaining_start - pos
                take = min(extent.nbytes - within, remaining)
                out.append(Extent(extent.device_offset + within, take))
                remaining_start += take
                remaining -= take
            pos = ext_end
        return out


@dataclass
class FsResult:
    """Outcome of a filesystem operation (timing + device stats)."""

    cpu_time: float = 0.0
    io: IoStats = field(default_factory=IoStats)

    @property
    def elapsed(self) -> float:
        """Total elapsed seconds (CPU + device time)."""
        return self.cpu_time + self.io.busy_time

    def absorb(self, op: CacheOp) -> None:
        """Fold a cache-operation outcome into this result."""
        self.cpu_time += op.cpu_time
        self.io = self.io.merge(op.io)


class FileSystem:
    """A small journaling filesystem on one block device.

    Parameters
    ----------
    queue:
        Block queue over the backing device.
    layout:
        ``"contiguous"`` allocates files one after another (fresh
        filesystem); ``"fragmented"`` splits every allocation into
        ``fragment_bytes`` extents scattered pseudo-randomly over the
        device (aged filesystem).
    cache:
        Optional page cache; when None, all I/O is direct.
    journal:
        Commit an 8 KiB journal record on every sync (ext-style ordered
        journaling).
    """

    JOURNAL_RECORD_BYTES = 8 * KiB

    def __init__(
        self,
        queue: BlockQueue,
        cache: PageCache | None = None,
        layout: str = "contiguous",
        fragment_bytes: int = 1 * MiB,
        journal: bool = True,
        rng: RngRegistry | None = None,
    ) -> None:
        if layout not in ("contiguous", "fragmented"):
            raise StorageError(f"unknown layout policy {layout!r}")
        if fragment_bytes <= 0:
            raise StorageError("fragment_bytes must be positive")
        self.queue = queue
        self.cache = cache
        self.layout = layout
        self.fragment_bytes = fragment_bytes
        self.journal = journal
        self._rng = (rng or RngRegistry()).get("fs-allocator")
        self._files: dict[str, FileHandle] = {}
        #: name -> list of read-only segments (``bytes`` or buffers kept
        #: as written), one per append; consolidated lazily on read so
        #: write paths never re-copy file bodies.
        self._contents: dict[str, list[bytes]] = {}
        #: Journal lives in a reserved region at the front of the device.
        self._journal_offset = 0
        self._journal_region = 128 * MiB
        self._alloc_cursor = self._journal_region

    # -- namespace -----------------------------------------------------------------

    @property
    def files(self) -> tuple[str, ...]:
        """Names of all files, in creation order."""
        return tuple(self._files)

    def exists(self, name: str) -> bool:
        """True if a file of that name exists."""
        return name in self._files

    def handle(self, name: str) -> FileHandle:
        """Metadata handle for the named file."""
        try:
            return self._files[name]
        except KeyError:
            raise FileNotFound(name) from None

    def size(self, name: str) -> int:
        """Size of the named file in bytes."""
        return self.handle(name).size

    def delete(self, name: str) -> None:
        """Remove a file and its content."""
        self.handle(name)  # raises if absent
        del self._files[name]
        del self._contents[name]

    # -- allocation -------------------------------------------------------------------

    def _device_capacity(self) -> int:
        dev = self.queue.device
        cap = getattr(dev, "capacity_bytes", None)
        if cap is None:
            cap = dev.spec.capacity_bytes
        return cap

    def _allocate(self, nbytes: int) -> list[Extent]:
        capacity = self._device_capacity()
        if self._alloc_cursor + nbytes > capacity:
            raise StorageError("filesystem full")
        if self.layout == "contiguous":
            extent = Extent(self._alloc_cursor, nbytes)
            self._alloc_cursor += nbytes
            return [extent]
        # Fragmented: carve fragment-sized extents and scatter them.
        extents: list[Extent] = []
        remaining = nbytes
        usable = capacity - self._journal_region
        while remaining > 0:
            take = min(self.fragment_bytes, remaining)
            slot = int(self._rng.integers(0, max(1, (usable - take) // take)))
            extents.append(Extent(self._journal_region + slot * take, take))
            remaining -= take
        self._alloc_cursor += nbytes  # account usage even though scattered
        return extents

    # -- data path -------------------------------------------------------------------

    def write(self, name: str, data: bytes, sync: bool = False) -> FsResult:
        """Append ``data`` to ``name`` (creating it); optionally fsync.

        A read-only ``data`` is stored as is — its owner promises its
        bytes never change — and anything writable is copied.
        """
        result = FsResult()
        handle = self._files.get(name)
        if handle is None:
            handle = FileHandle(name)
            self._files[name] = handle
            self._contents[name] = []
        n_before = len(handle.extents)
        created = n_before == 0 and not self._contents[name]
        new_extents = self._allocate(len(data))
        handle.extents.extend(new_extents)
        self._contents[name].append(
            data if memoryview(data).readonly else bytes(data))
        try:
            if self.cache is not None:
                for extent in new_extents:
                    result.absorb(self.cache.write(extent.device_offset, extent.nbytes))
            else:
                result.io = result.io.merge(self.queue.submit_arrays(
                    OpKind.WRITE,
                    [e.device_offset for e in new_extents],
                    [e.nbytes for e in new_extents],
                ))
            if sync:
                sync_result = self.fsync(name)
                result.cpu_time += sync_result.cpu_time
                result.io = result.io.merge(sync_result.io)
        except MachineError:
            # An injected fault escaped the retry layer: roll back the
            # un-durable append so a restarted pipeline sees only
            # committed content.  (The allocation cursor is not rewound;
            # leaked space is what a crashed append leaves behind.)
            del handle.extents[n_before:]
            self._contents[name].pop()
            if created:
                del self._files[name]
                del self._contents[name]
            raise
        return result

    def read(self, name: str, offset: int = 0, nbytes: int | None = None) -> tuple[bytes, FsResult]:
        """Read file content; returns (data, timing)."""
        handle = self.handle(name)
        if nbytes is None:
            nbytes = handle.size - offset
        result = FsResult()
        extents = handle.map_range(offset, nbytes)
        if self.cache is not None:
            for extent in extents:
                result.absorb(self.cache.read(extent.device_offset, extent.nbytes))
        elif extents:
            result.io = result.io.merge(self.queue.submit_arrays(
                OpKind.READ,
                [e.device_offset for e in extents],
                [e.nbytes for e in extents],
            ))
        data = self._content_range(name, offset, nbytes)
        return data, result

    def _content_range(self, name: str, offset: int, nbytes: int) -> bytes:
        """File bytes [offset, offset+nbytes), copying only when needed:
        a whole-file read returns the stored object itself."""
        segments = self._contents[name]
        if len(segments) > 1:
            segments[:] = [b"".join(segments)]
        body = segments[0] if segments else b""
        if offset == 0 and nbytes == len(body):
            return body
        return bytes(memoryview(body)[offset : offset + nbytes])

    def fsync(self, name: str | None = None) -> FsResult:
        """Flush dirty data (and the journal commit record) to the platter."""
        result = FsResult()
        if self.journal:
            record = DiskRequest(
                OpKind.WRITE,
                self._journal_offset,
                self.JOURNAL_RECORD_BYTES,
            )
            self._journal_offset = (
                self._journal_offset + self.JOURNAL_RECORD_BYTES
            ) % self._journal_region
            result.io = result.io.merge(self.queue.submit([record], through_cache=False))
        if self.cache is not None:
            result.absorb(self.cache.sync())
        else:
            result.io = result.io.merge(self.queue.flush())
        return result

    def drop_caches(self) -> FsResult:
        """Evict clean page-cache pages (no-op without a cache)."""
        result = FsResult()
        if self.cache is not None:
            result.absorb(self.cache.drop_caches())
        return result

    def fragmentation(self, name: str) -> int:
        """Number of discontiguous extents backing ``name``."""
        handle = self.handle(name)
        if not handle.extents:
            return 0
        count = 1
        for prev, nxt in zip(handle.extents, handle.extents[1:]):
            if nxt.device_offset != prev.end:
                count += 1
        return count
