"""sha256-checked frames and atomic file writes (stdlib only).

Every file the reproduction writes for a later process to trust — a
result-cache entry, a warm-Lab snapshot, a greenlint cache entry — is
one frame::

    magic (4 bytes) | u16 version | sha256(payload) (32 bytes) | payload

written through :func:`write_file` (tmp file + rename), so a killed
writer never leaves a torn file.  :func:`unframe` checks the magic, the
version and the digest before any byte of the payload is trusted, and
raises :class:`~repro.errors.CodecError` on a mismatch, which every
reader turns into a miss.

The digest detects corruption; it does not authenticate.  Payloads are
pickles, so a cache directory must be trusted like the code that reads
it.  This module imports nothing beyond the standard library and
:mod:`repro.errors`, so the linter can use it without loading the
experiment stack.
"""

from __future__ import annotations

import hashlib
import os
import struct
import tempfile

from repro.errors import CodecError

_HEADER = struct.Struct("<4sH32s")  # magic | version | sha256(payload)


def frame(magic: bytes, version: int, payload: bytes) -> bytes:
    """Prefix ``payload`` with its magic, version and sha256."""
    return _HEADER.pack(magic, version,
                        hashlib.sha256(payload).digest()) + payload


def unframe(blob: bytes | memoryview, magic: bytes,
            version: int) -> memoryview:
    """The checked payload of a frame; raises :class:`CodecError`."""
    view = memoryview(blob)
    if len(view) < _HEADER.size:
        raise CodecError(f"frame of {len(view)} bytes is shorter than header")
    got_magic, got_version, digest = _HEADER.unpack_from(view)
    if got_magic != magic:
        raise CodecError(f"bad magic {got_magic!r}, expected {magic!r}")
    if got_version != version:
        raise CodecError(f"format version {got_version} not supported "
                         f"(this build reads {version})")
    payload = view[_HEADER.size:]
    if hashlib.sha256(payload).digest() != digest:
        raise CodecError("payload does not match its sha256")
    return payload


def frame_stamp(blob: bytes | memoryview) -> tuple[int, str]:
    """(payload length, sha256 hex digest) a frame's header records.

    Not re-checked: call it on a frame :func:`frame` built or
    :func:`unframe` accepted.
    """
    return len(blob) - _HEADER.size, _HEADER.unpack_from(blob)[2].hex()


def write_file(path: str, blob: bytes) -> bool:
    """Atomically write ``blob`` to ``path`` (tmp file + rename).

    Best-effort: returns False, and leaves no tmp file behind, when the
    directory cannot be created or written.
    """
    directory = os.path.dirname(path) or "."
    try:
        os.makedirs(directory, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    except OSError:
        return False
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(blob)
        os.replace(tmp, path)
    except OSError:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        return False
    return True
