"""Timestep dump reader — the post-processing pipeline's input side.

Reads the container files a :class:`~repro.storage.writer.DataWriter`
produced, CRC-validating every chunk, and reconstructs the
:class:`~repro.sim.grid.Grid2D`.  Supports whole-timestep reads (the
paper's visualization pass) and selective single-chunk reads (exploratory
analysis over a subset of the domain).

An immutable blob (``bytes``, or a sealed container buffer the
filesystem keeps as is) is decoded the first time this process reads
it; the read-back grid is then pinned on the blob's identity, so every
later read of the same object serves the same read-only array.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import StorageError
from repro.fingerprint import pin_fingerprint, pinned
from repro.sim.grid import Grid2D
from repro.storage.compression import codec_from_id
from repro.storage.format import (
    ChunkedContainer,
    ContainerBuffer,
    chunk_extent,
    decode_container,
    header_size,
)
from repro.system.blockdev import IoStats
from repro.system.filesystem import FileSystem


def _immutable(blob: object) -> bool:
    """True for blobs whose bytes can never change."""
    return type(blob) is bytes or (type(blob) is ContainerBuffer
                                   and not blob.flags.writeable)


@dataclass
class ReadReport:
    """Accounting for one timestep load."""

    name: str
    nbytes: int
    cpu_time: float
    io: IoStats

    @property
    def elapsed(self) -> float:
        """Total elapsed seconds (CPU + device time)."""
        return self.cpu_time + self.io.busy_time


class DataReader:
    """Reads simulation timesteps back from the simulated filesystem."""

    def __init__(self, fs: FileSystem, prefix: str = "ts",
                 drop_caches_first: bool = True) -> None:
        self.fs = fs
        self.prefix = prefix
        self.drop_caches_first = drop_caches_first

    def filename(self, timestep: int) -> str:
        """Container file name for a timestep index."""
        return f"{self.prefix}{timestep:04d}.dat"

    def available_timesteps(self) -> list[int]:
        """Timestep indices present on the filesystem, sorted."""
        out = []
        for name in self.fs.files:
            if name.startswith(self.prefix) and name.endswith(".dat"):
                digits = name[len(self.prefix) : -len(".dat")]
                if digits.isdigit():
                    out.append(int(digits))
        return sorted(out)

    def _load_blob(self, name: str) -> tuple[bytes, float, IoStats]:
        """Pull a whole container file through the storage stack."""
        cpu = 0.0
        io = IoStats()
        if self.drop_caches_first:
            r = self.fs.drop_caches()
            cpu += r.cpu_time
            io = io.merge(r.io)
        blob, result = self.fs.read(name)
        cpu += result.cpu_time
        io = io.merge(result.io)
        return blob, cpu, io

    def read_timestep(self, timestep: int) -> tuple[ChunkedContainer, ReadReport]:
        """Load and validate a whole timestep container."""
        name = self.filename(timestep)
        blob, cpu, io = self._load_blob(name)
        container = decode_container(blob)
        if container.timestep != timestep:
            raise StorageError(
                f"file {name!r} claims timestep {container.timestep}"
            )
        return container, ReadReport(name=name, nbytes=len(blob),
                                     cpu_time=cpu, io=io)

    def read_grid(self, timestep: int) -> tuple[Grid2D, ReadReport]:
        """Load a timestep, decode its codec, reassemble the grid.

        An immutable blob this process already decoded serves the
        ``(timestep, array)`` pinned on it; any other blob is decoded,
        which CRC-validates every chunk in one pass.  Only uncompressed
        grids are pinned: a compressed container decodes on every read.
        """
        name = self.filename(timestep)
        blob, cpu, io = self._load_blob(name)
        report = ReadReport(name=name, nbytes=len(blob), cpu_time=cpu, io=io)
        hit = pinned(blob) if _immutable(blob) else None
        if hit is not None:
            stored_timestep, data = hit
            grid = Grid2D.from_array(data)
        else:
            container = decode_container(blob)
            stored_timestep = container.timestep
            grid = self._assemble(container, blob)
        if stored_timestep != timestep:
            raise StorageError(
                f"file {name!r} claims timestep {stored_timestep}"
            )
        return grid, report

    @staticmethod
    def _assemble(container: ChunkedContainer, blob: object) -> Grid2D:
        """The grid of a validated container (pinned on an immutable,
        uncompressed blob)."""
        codec = codec_from_id(container.flags)
        if container.payload_view is None or codec.name != "identity":
            payload = b"".join(codec.decode(c) for c in container.chunks)
            return Grid2D.from_bytes(payload, container.nx, container.ny,
                                     copy=False)
        # Uncompressed chunks lie contiguously in the blob: hand the
        # spanning view straight to the grid (no copy, no join).  The
        # grid wraps it read-only: read grids are rendered and
        # checksummed, never stepped.
        grid = Grid2D.from_bytes(container.payload_view, container.nx,
                                 container.ny, copy=False)
        # The validated CRCs were computed from the grid's own bytes.
        pin_fingerprint(grid.data, container.chunks, container.crcs)
        if _immutable(blob):
            pinned(blob, (container.timestep, grid.data))
        return grid

    def read_chunk(self, timestep: int,
                   chunk_index: int) -> tuple[bytes, ReadReport]:
        """Selective read: header + index through the chunk's entry, then
        exactly that chunk."""
        name = self.filename(timestep)
        cpu = 0.0
        io = IoStats()
        if self.drop_caches_first:
            r = self.fs.drop_caches()
            cpu += r.cpu_time
            io = io.merge(r.io)
        head_bytes = min(header_size(chunk_index + 1), self.fs.size(name))
        head, r1 = self.fs.read(name, 0, head_bytes)
        offset, nbytes = chunk_extent(head, chunk_index)
        chunk, r2 = self.fs.read(name, offset, nbytes)
        cpu += r1.cpu_time + r2.cpu_time
        io = io.merge(r1.io).merge(r2.io)
        return chunk, ReadReport(name=name, nbytes=nbytes, cpu_time=cpu, io=io)
