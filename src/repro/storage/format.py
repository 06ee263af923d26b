"""Chunked timestep container format.

Layout (little-endian):

========  =====  =============================================
offset    size   field
========  =====  =============================================
0         4      magic ``b"RPRO"``
4         2      format version (currently 1)
6         2      flags (codec id; see repro.storage.compression)
8         4      nx (grid rows)
12        4      ny (grid cols)
16        4      n_chunks
20        4      timestep index
24        8      physical time (f64)
32        16*n   chunk index: (offset u64, nbytes u32, crc32 u32)
...              chunk payloads
========  =====  =============================================

Chunk offsets are relative to the start of the container.  Every chunk is
CRC-checked on decode — a reproduction of a storage study should notice
when its storage stack corrupts data.

The CRC index and the field fingerprint (:mod:`repro.fingerprint`) are
one checksum scheme: an uncompressed float64 field chunked at
``CHUNK_BYTES`` has the fingerprint's row blocks as its chunks, so its
index is the fingerprint's CRCs and :func:`decode_container` returns the
CRCs it validated for the reader to pin the read-back field's
fingerprint with.

That layout also lets one buffer be a field and its dump at once.
:func:`container_payload` allocates a :class:`ContainerBuffer` sized
for the container and copies a field into its payload region; the
science cache records that payload as the field's snapshot.  The first
dump of the snapshot seals the buffer (:func:`seal_container`): it packs
the header and the fingerprint's CRCs in front of the payload and makes
the buffer read-only.  From then on the sealed buffer is the snapshot,
the file body and the source of the read-back grid.
"""

from __future__ import annotations

import struct
import zlib
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.calibration import CHUNK_BYTES
from repro.errors import FileFormatError
from repro.fingerprint import block_bytes

MAGIC = b"RPRO"
VERSION = 1
_HEADER = struct.Struct("<4sHHIIIId")
_INDEX_ENTRY = struct.Struct("<QII")


@dataclass(frozen=True)
class ChunkedContainer:
    """Decoded container: metadata plus raw chunk payloads.

    ``flags`` carries the codec id the chunks were encoded with; the
    reader resolves it through :mod:`repro.storage.compression`.
    ``chunks`` holds CRC-validated views into the decoded blob (zero
    copy) and ``crcs`` the checksums they were validated against;
    ``payload_view`` spans all of them when they are laid out
    contiguously, letting whole-grid readers skip the concatenation.
    """

    nx: int
    ny: int
    timestep: int
    physical_time: float
    chunks: tuple[bytes | memoryview, ...]
    flags: int = 0
    payload_view: memoryview | None = None
    crcs: tuple[int, ...] = ()

    @property
    def payload(self) -> bytes:
        """All chunk payloads concatenated."""
        if self.payload_view is not None:
            return bytes(self.payload_view)
        return b"".join(self.chunks)

    @property
    def nbytes(self) -> int:
        """Size of the stored data in bytes."""
        return sum(len(c) for c in self.chunks)


def _pack_head(head, nx: int, ny: int, timestep: int, physical_time: float,
               flags: int, sizes: Sequence[int], crcs: Sequence[int]) -> None:
    """Pack the header and the index of chunks of ``sizes`` into ``head``."""
    if nx <= 0 or ny <= 0:
        raise FileFormatError("grid dimensions must be positive")
    if timestep < 0:
        raise FileFormatError("timestep must be non-negative")
    # u16 header-field width, unrelated to the RAPL energy quantum.
    if not 0 <= flags < (1 << 16):  # greenlint: ignore[GL2]
        raise FileFormatError(f"flags out of u16 range: {flags}")
    _HEADER.pack_into(head, 0, MAGIC, VERSION, flags, nx, ny, len(sizes),
                      timestep, physical_time)
    offset = header_size(len(sizes))
    for i, (size, crc) in enumerate(zip(sizes, crcs)):
        _INDEX_ENTRY.pack_into(head, _HEADER.size + i * _INDEX_ENTRY.size,
                               offset, size, crc)
        offset += size


def encode_container(
    chunks: Sequence[bytes | memoryview],
    nx: int,
    ny: int,
    timestep: int = 0,
    physical_time: float = 0.0,
    flags: int = 0,
    crcs: Sequence[int] | None = None,
) -> bytes:
    """Serialize chunks into the container format.

    ``chunks`` are bytes or byte-format memoryviews; joining them into
    the container is the one copy.  ``crcs``, when the caller already
    has them, are the chunks' crc32s and become the index unchecked;
    otherwise each chunk is hashed here.
    """
    if not chunks:
        raise FileFormatError("container needs at least one chunk")
    if crcs is not None and len(crcs) != len(chunks):
        raise FileFormatError(f"{len(crcs)} CRCs for {len(chunks)} chunks")
    if not all(chunks):
        raise FileFormatError("empty chunk")
    if crcs is None:
        crcs = [zlib.crc32(chunk) for chunk in chunks]
    head = bytearray(header_size(len(chunks)))
    _pack_head(head, nx, ny, timestep, physical_time, flags,
               [len(chunk) for chunk in chunks], crcs)
    return b"".join((head, *chunks))


class ContainerBuffer(np.ndarray):
    """The bytes of one uncompressed container, allocated around a field.

    Made by :func:`container_payload`; writable (header and index still
    zero) until :func:`seal_container` fills them in, read-only after.
    """


def _payload_sizes(nx: int, ny: int) -> list[int]:
    """Chunk sizes of an uncompressed ``<f8`` field: the fingerprint's
    row blocks."""
    nbytes = nx * ny * 8
    step = block_bytes(row_bytes=ny * 8)
    return [min(step, nbytes - i) for i in range(0, nbytes, step)]


def container_payload(data: np.ndarray) -> np.ndarray | None:
    """A read-only copy of ``data`` laid out as a container's payload.

    The copy is the payload region of a fresh, unsealed
    :class:`ContainerBuffer` (its ``base``).  None when ``data`` is not
    a C-contiguous 2-D ``<f8`` field with rows of at most
    ``CHUNK_BYTES``.
    """
    if (data.ndim != 2 or data.dtype.str != "<f8"
            or not data.flags.c_contiguous or data.shape[1] * 8 > CHUNK_BYTES):
        return None
    offset = header_size(len(_payload_sizes(*data.shape)))
    buf = ContainerBuffer((offset + data.nbytes,), np.uint8)
    buf[:offset] = 0
    payload = np.ndarray(data.shape, "<f8", buffer=buf, offset=offset)
    payload[...] = data
    payload.flags.writeable = False
    return payload


def payload_container(data: np.ndarray) -> ContainerBuffer | None:
    """The buffer whose whole payload region ``data`` is, or None."""
    buf = data.base
    if type(buf) is not ContainerBuffer or data.ndim != 2:
        return None
    offset = header_size(len(_payload_sizes(*data.shape)))
    if (data.dtype.str != "<f8" or not data.flags.c_contiguous
            or len(buf) != offset + data.nbytes
            or data.ctypes.data != buf.ctypes.data + offset):
        return None
    return buf


def seal_container(buf: ContainerBuffer, nx: int, ny: int, timestep: int,
                   physical_time: float, flags: int,
                   crcs: Sequence[int]) -> None:
    """Pack the header and index in front of ``buf``'s nx×ny payload and
    make ``buf`` read-only.

    ``crcs`` are the payload's row-block CRCs (its fingerprint's); they
    become the index unchecked.  Sealing a sealed buffer is an error.
    """
    if not buf.flags.writeable:
        raise FileFormatError("container buffer is already sealed")
    sizes = _payload_sizes(nx, ny)
    if len(crcs) != len(sizes):
        raise FileFormatError(f"{len(crcs)} CRCs for {len(sizes)} chunks")
    _pack_head(buf, nx, ny, timestep, physical_time, flags, sizes, crcs)
    buf.flags.writeable = False


def has_header(buf: ContainerBuffer, nx: int, ny: int, timestep: int,
               physical_time: float, flags: int) -> bool:
    """True when sealed ``buf`` carries exactly the header of this nx×ny
    dump (bit for bit)."""
    expected = _HEADER.pack(MAGIC, VERSION, flags, nx, ny,
                            len(_payload_sizes(nx, ny)), timestep,
                            physical_time)
    return expected == buf[:_HEADER.size].tobytes()


def decode_container(blob: bytes) -> ChunkedContainer:
    """Parse and CRC-validate a container (one pass over the payload)."""
    if len(blob) < _HEADER.size:
        raise FileFormatError("container truncated before header")
    magic, version, flags, nx, ny, n_chunks, timestep, phys_t = _HEADER.unpack_from(blob)
    if magic != MAGIC:
        raise FileFormatError(f"bad magic {magic!r}")
    if version != VERSION:
        raise FileFormatError(f"unsupported version {version}")
    index_end = _HEADER.size + _INDEX_ENTRY.size * n_chunks
    if len(blob) < index_end:
        raise FileFormatError("container truncated inside chunk index")
    view = memoryview(blob)
    chunks = []
    crcs = []
    contiguous = True
    first_offset = prev_end = None
    for i in range(n_chunks):
        offset, nbytes, crc = _INDEX_ENTRY.unpack_from(
            blob, _HEADER.size + i * _INDEX_ENTRY.size
        )
        chunk = view[offset : offset + nbytes]
        if len(chunk) != nbytes:
            raise FileFormatError(f"chunk {i} truncated")
        if zlib.crc32(chunk) != crc:
            raise FileFormatError(f"chunk {i} failed CRC validation")
        chunks.append(chunk)
        crcs.append(crc)
        if first_offset is None:
            first_offset = offset
        elif offset != prev_end:
            contiguous = False
        prev_end = offset + nbytes
    payload_view = (view[first_offset:prev_end]
                    if contiguous and first_offset is not None else None)
    return ChunkedContainer(nx=nx, ny=ny, timestep=timestep,
                            physical_time=phys_t, chunks=tuple(chunks),
                            flags=flags, payload_view=payload_view,
                            crcs=tuple(crcs))


def chunk_extent(blob_header: bytes, chunk_index: int) -> tuple[int, int]:
    """(offset, nbytes) of one chunk, reading only header + index bytes.

    Lets a reader fetch a single chunk without pulling the whole container
    through the storage stack (the selective-read path of the
    post-processing pipeline's exploratory analysis).
    """
    if len(blob_header) < _HEADER.size:
        raise FileFormatError("container truncated before header")
    magic, version, _f, _nx, _ny, n_chunks, _ts, _pt = _HEADER.unpack_from(blob_header)
    if magic != MAGIC or version != VERSION:
        raise FileFormatError("bad container header")
    if not 0 <= chunk_index < n_chunks:
        raise FileFormatError(f"chunk index {chunk_index} out of range")
    entry_pos = _HEADER.size + chunk_index * _INDEX_ENTRY.size
    if len(blob_header) < entry_pos + _INDEX_ENTRY.size:
        raise FileFormatError("container truncated inside chunk index")
    offset, nbytes, _crc = _INDEX_ENTRY.unpack_from(blob_header, entry_pos)
    return offset, nbytes


def header_size(n_chunks: int) -> int:
    """Bytes of header + index for a container of ``n_chunks``."""
    return _HEADER.size + _INDEX_ENTRY.size * n_chunks
