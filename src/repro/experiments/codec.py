"""The result-cache entry: a result's canonical pickle in a checked frame.

A cached result entry and a warm-Lab snapshot are each one
:mod:`repro.integrity` frame::

    magic (4 bytes) | u16 version | sha256(payload) (32 bytes) | payload

A result entry's payload is the result's canonical protocol-4 pickle
(:func:`pickle_result`), so the stored digest is the same sha256 that
the serving layer's ``/run`` replies carry.  A snapshot's payload is
laid out by :mod:`~repro.experiments.engine`.  Both are written through
:func:`~repro.integrity.write_file` (tmp file + rename).

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

import pickle

from repro.errors import CodecError
from repro.experiments.figures import ExperimentResult
from repro.integrity import frame, unframe

#: Fixed pickle protocol, so entries and the digests taken over them do
#: not depend on the interpreter's default.
PICKLE_PROTOCOL = 4

#: Result-entry magic and format version; foreign versions are rejected.
MAGIC = b"RPRC"
CODEC_VERSION = 2


def pickle_result(result: ExperimentResult) -> bytes:
    """Canonical byte representation of a result.

    The fixed protocol makes this stable across interpreters, so it is
    the representation byte-identity checks (tests, the serving layer's
    digests) compare, and the payload a cache entry stores.
    """
    return pickle.dumps(result, protocol=PICKLE_PROTOCOL)


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
