"""The serving wire subset: limits, the default port and the head parser.

Every serving hop (client -> router -> shard) speaks HTTP/1.1 with
keep-alive and ``Content-Length`` framing: no chunked bodies, at most
:data:`MAX_LINE_BYTES` per line and :data:`MAX_HEADERS` header fields,
and each message leaves in one write.  :func:`read_head` is the one
header parser, shared by the request handler in
:mod:`repro.service.http` and the reply reader in
:mod:`repro.service.client`.  Stock clients (``curl``, ``http.client``,
``urllib``) speak this subset unchanged.

The module imports nothing beyond :mod:`re`, :mod:`repro.errors` and
:mod:`repro.units`, so a fresh ``repro query`` process reads replies
without loading the serving core.
"""

from __future__ import annotations

import re
from typing import BinaryIO

from repro.errors import ProtocolError
from repro.units import KiB

#: Default TCP port: "RP" on a phone keypad, above the ephemeral floor.
DEFAULT_PORT = 8077
#: Wire limits, the stdlib's own: bytes per request, status or header
#: line, and header fields per message head.
MAX_LINE_BYTES = 64 * KiB
MAX_HEADERS = 100

#: RFC 9110 field-name token; anything else (a folded continuation, a
#: space before the colon) is a malformed line.
_FIELD_NAME = re.compile(r"[!#$%&'*+\-.^_`|~0-9A-Za-z]+")
#: Decimal digits only: no sign, no blanks, no list of lengths, and few
#: enough digits that ``int()`` stays in range.
_LENGTH = re.compile(r"[0-9]{1,18}")


def read_head(rfile: BinaryIO) -> tuple[dict[str, str], int | None]:
    """Read one header block, through its blank line, from ``rfile``.

    Returns the fields keyed by lower-cased name (a repeated field's
    values joined by ``", "``, so a repeated ``Content-Length`` fails
    validation) and the validated ``Content-Length``, None when absent.
    Raises :class:`~repro.errors.ProtocolError`: 431 for a line over
    :data:`MAX_LINE_BYTES` or more than :data:`MAX_HEADERS` fields; 400
    for EOF inside the head, a folded or colon-less line, or a length
    that is not decimal digits; 501 for any ``Transfer-Encoding``.
    """
    fields: dict[str, str] = {}
    count = 0
    while True:
        line = rfile.readline(MAX_LINE_BYTES + 1)
        if len(line) > MAX_LINE_BYTES:
            raise ProtocolError("header line too long", status=431)
        if line in (b"\r\n", b"\n"):
            break
        if not line:
            raise ProtocolError("connection closed inside the message head")
        count += 1
        if count > MAX_HEADERS:
            raise ProtocolError(f"more than {MAX_HEADERS} header fields",
                                status=431)
        name, colon, value = line.decode("latin-1").partition(":")
        if not colon or not _FIELD_NAME.fullmatch(name):
            raise ProtocolError(f"malformed header line {line[:40]!r}")
        name = name.lower()
        value = value.strip(" \t\r\n")
        fields[name] = f"{fields[name]}, {value}" if name in fields else value
    if "transfer-encoding" in fields:
        raise ProtocolError("transfer codings are not supported", status=501)
    length = fields.get("content-length")
    if length is None:
        return fields, None
    if not _LENGTH.fullmatch(length):
        raise ProtocolError(f"malformed Content-Length {length[:40]!r}")
    return fields, int(length)
