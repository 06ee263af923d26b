"""Timestep dump writer.

Implements the post-processing pipeline's output discipline:

* one container file per dumped timestep (``ts0007.dat``),
* chunked at the configured chunk size (the paper's 128 KiB); an
  uncompressed float64 field at that size is indexed with its
  fingerprint's block CRCs, so the dump takes no second checksum pass,
* a science-cache snapshot dumped that way is stored as the container
  buffer it already lives in: the first such dump seals the buffer
  (:func:`~repro.storage.format.seal_container`), and every dump whose
  header matches the sealed one hands the filesystem that same buffer,
  so the dump copies nothing.  Any other field is joined into a fresh
  container (one copy),
* optional ``sync`` + ``drop_caches`` after each dump — the paper's
  methodology for making writes actually reach the disk.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

from repro.errors import StorageError
from repro.fingerprint import block_bytes, field_fingerprint
from repro.sim.grid import Grid2D
from repro.storage.compression import CODEC_IDS, Codec, IdentityCodec, codec_id
from repro.storage.format import (
    ContainerBuffer,
    encode_container,
    has_header,
    payload_container,
    seal_container,
)
from repro.system.blockdev import IoStats
from repro.system.filesystem import FileSystem, FsResult
from repro.units import KiB

#: Serializes sealing: serving threads share the process-wide science
#: cache, so two of them may dump one unsealed snapshot at once.
_SEAL_LOCK = threading.Lock()


@dataclass
class WriteReport:
    """Accounting for one timestep dump."""

    name: str
    nbytes: int
    cpu_time: float
    io: IoStats

    @property
    def elapsed(self) -> float:
        """Total elapsed seconds (CPU + device time)."""
        return self.cpu_time + self.io.busy_time


class DataWriter:
    """Writes simulation timesteps to the simulated filesystem."""

    def __init__(
        self,
        fs: FileSystem,
        prefix: str = "ts",
        chunk_bytes: int = 128 * KiB,
        sync_each: bool = True,
        drop_caches_each: bool = True,
        codec: Codec | None = None,
    ) -> None:
        if chunk_bytes <= 0:
            raise StorageError("chunk_bytes must be positive")
        self.fs = fs
        self.prefix = prefix
        self.chunk_bytes = chunk_bytes
        self.sync_each = sync_each
        self.drop_caches_each = drop_caches_each
        self.codec = codec or IdentityCodec()
        self.timesteps_written: list[str] = []

    def filename(self, timestep: int) -> str:
        """Container file name for a timestep index."""
        return f"{self.prefix}{timestep:04d}.dat"

    def write_timestep(self, grid: Grid2D, timestep: int,
                       physical_time: float = 0.0) -> WriteReport:
        """Dump one timestep; returns timing/IO accounting."""
        if timestep < 0:
            raise StorageError("timestep must be non-negative")
        name = self.filename(timestep)
        if self.fs.exists(name):
            raise StorageError(f"timestep file {name!r} already exists")
        flags = codec_id(self.codec)
        row_bytes = grid.ny * 8
        # Uncompressed, with the fingerprint's row blocks as the chunks.
        fingerprint_chunks = (
            flags == CODEC_IDS["identity"] and row_bytes <= self.chunk_bytes
            and block_bytes(row_bytes=row_bytes, chunk_bytes=self.chunk_bytes)
            == block_bytes(row_bytes=row_bytes))
        blob = None
        if fingerprint_chunks:
            blob = _sealed_snapshot(grid, timestep, physical_time, flags)
        if blob is None:
            fingerprint = (field_fingerprint(grid.data)
                           if fingerprint_chunks else None)
            if fingerprint is not None and fingerprint[1] == "<f8":
                # The chunks are the fingerprint's row blocks: store
                # them straight from the field, indexed by its CRCs.
                step = block_bytes(row_bytes=row_bytes)
                buf = grid.data.data.cast("B")
                chunks = [buf[i : i + step] for i in range(0, len(buf), step)]
                crcs = fingerprint[2]
            else:
                chunks = [self.codec.encode(c)
                          for c in grid.chunks(self.chunk_bytes)]
                crcs = None
            blob = encode_container(
                chunks, grid.nx, grid.ny,
                timestep=timestep, physical_time=physical_time,
                flags=flags, crcs=crcs,
            )
        result: FsResult = self.fs.write(name, blob)
        if self.sync_each:
            r = self.fs.fsync(name)
            result.cpu_time += r.cpu_time
            result.io = result.io.merge(r.io)
        if self.drop_caches_each:
            r = self.fs.drop_caches()
            result.cpu_time += r.cpu_time
            result.io = result.io.merge(r.io)
        self.timesteps_written.append(name)
        return WriteReport(name=name, nbytes=len(blob),
                           cpu_time=result.cpu_time, io=result.io)

    @property
    def total_bytes(self) -> int:
        """Total bytes of all timestep files written."""
        return sum(self.fs.size(name) for name in self.timesteps_written)


def _sealed_snapshot(grid: Grid2D, timestep: int, physical_time: float,
                     flags: int) -> ContainerBuffer | None:
    """The container buffer ``grid`` is the payload of, sealed with this
    dump's header, or None (not such a payload, or sealed with another
    header)."""
    buf = payload_container(grid.data)
    if buf is None:
        return None
    with _SEAL_LOCK:
        if buf.flags.writeable:
            # The fingerprint is pinned on the read-only snapshot: the
            # one write-side CRC pass, shared with every later consumer.
            seal_container(buf, grid.nx, grid.ny, timestep, physical_time,
                           flags, field_fingerprint(grid.data)[2])
    if not has_header(buf, grid.nx, grid.ny, timestep, physical_time, flags):
        return None
    return buf
