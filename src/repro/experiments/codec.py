"""The sha256-checked frame of every file in a result-cache directory.

A cached result entry and a warm-Lab snapshot are each one frame::

    magic (4 bytes) | u16 version | sha256(payload) (32 bytes) | payload

A result entry's payload is the result's canonical protocol-4 pickle
(:func:`pickle_result`), so the stored digest is the same sha256 that
the serving layer's ``/run`` replies carry.  A snapshot's payload is
laid out by :mod:`~repro.experiments.engine`.  :func:`write_file` is
the one writer both go through (tmp file + rename).

Reading never trusts its input: a short frame, a foreign magic or
version, a digest mismatch, a payload that fails to unpickle, or one
that is not an :class:`~repro.experiments.figures.ExperimentResult`
raises :class:`~repro.errors.CodecError`, which the cache reader turns
into a miss.  Files from older formats (v1 flat frames, raw pickles)
fail the version or magic check and are overwritten by the next store.

The digest detects corruption; it does not authenticate.  Payloads are
pickles, so a cache directory must be trusted like the code that reads
it: whoever can write a file there can run code in the reader.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import struct
import tempfile

from repro.errors import CodecError
from repro.experiments.figures import ExperimentResult

#: Fixed pickle protocol, so entries and the digests taken over them do
#: not depend on the interpreter's default.
PICKLE_PROTOCOL = 4

#: Result-entry magic and format version; foreign versions are rejected.
MAGIC = b"RPRC"
CODEC_VERSION = 2

_HEADER = struct.Struct("<4sH32s")  # magic | version | sha256(payload)


def pickle_result(result: ExperimentResult) -> bytes:
    """Canonical byte representation of a result.

    The fixed protocol makes this stable across interpreters, so it is
    the representation byte-identity checks (tests, the serving layer's
    digests) compare, and the payload a cache entry stores.
    """
    return pickle.dumps(result, protocol=PICKLE_PROTOCOL)


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


def encode_result(result: ExperimentResult) -> bytes:
    """The cache-entry frame of one result."""
    return frame(MAGIC, CODEC_VERSION, pickle_result(result))


def decode_result(buf: bytes | memoryview) -> ExperimentResult:
    """Decode a result frame; raises :class:`CodecError` on any defect."""
    payload = unframe(buf, MAGIC, CODEC_VERSION)
    try:
        value = pickle.loads(payload)
    except Exception as exc:
        raise CodecError(f"result payload failed to unpickle: {exc}") from exc
    if not isinstance(value, ExperimentResult):
        raise CodecError(f"frame holds {type(value).__name__}, "
                         "not ExperimentResult")
    return value


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
