"""Line-delimited JSON wire protocol (stdlib only).

One request per line, one response per line, UTF-8 JSON objects.  A
request is ``{"op": ..., "id": ...}`` plus op-specific fields; the
response echoes ``id`` and carries either ``"ok": true`` plus the body
or ``"ok": false`` plus a structured ``error`` object (see
:mod:`repro.service.errors`).  Ops: ``join``, ``lookup``, ``health``,
``metrics``, ``stats``, ``stats_local``, ``tracedump``, ``refresh``,
``ping``, ``shutdown``.  Unknown request fields are ignored.  Against
a worker pool ``stats`` aggregates across every worker while
``stats_local`` answers for the receiving process only.

**Trace propagation.**  Any request may carry a trace context,
``"trace": {"trace_id": "<opaque token>"}`` — the client-minted
correlation id.  The server threads the id through its span tree, its
query log and the ``service.*`` failure details, and every response
(success or error) echoes it as a top-level ``"trace_id"`` so the
client can stitch its own spans to the server-side tree fetched via
``tracedump``.  Requests without a context are assigned a server-side
id when server telemetry is on; the field is ignored entirely when
telemetry is off.

The same framing runs over a TCP connection (``python -m repro serve``)
and over stdin/stdout (``--stdio``), so tests and operators can drive a
service with ``nc`` or a pipe.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterator, Optional

from .errors import BadRequestError

__all__ = [
    "MAX_LINE_BYTES",
    "encode_message",
    "decode_line",
    "read_messages",
    "trace_context",
]

#: Upper bound on one protocol line; a client streaming garbage cannot
#: balloon server memory.
MAX_LINE_BYTES = 4 * 1024 * 1024


def encode_message(message: Dict[str, Any]) -> bytes:
    """One wire frame: compact JSON + newline."""
    return (
        json.dumps(message, separators=(",", ":"), sort_keys=True) + "\n"
    ).encode("utf-8")


def decode_line(line: bytes) -> Optional[Dict[str, Any]]:
    """Parse one frame; ``None`` for blank lines, raises
    :class:`BadRequestError` on garbage."""
    if len(line) > MAX_LINE_BYTES:
        raise BadRequestError(
            f"request line of {len(line)} bytes exceeds the "
            f"{MAX_LINE_BYTES}-byte limit"
        )
    stripped = line.strip()
    if not stripped:
        return None
    try:
        message = json.loads(stripped.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise BadRequestError(f"request is not valid JSON: {error}") from error
    if not isinstance(message, dict):
        raise BadRequestError(
            f"request must be a JSON object, got {type(message).__name__}"
        )
    return message


def trace_context(message: Dict[str, Any]) -> Optional[str]:
    """The wire-propagated trace id of *message*, if it carries one.

    Tolerant by design — a missing or malformed ``trace`` field means
    "no context" rather than a protocol error, so telemetry can never
    fail a request that would otherwise succeed.
    """
    trace = message.get("trace")
    if not isinstance(trace, dict):
        return None
    trace_id = trace.get("trace_id")
    if isinstance(trace_id, str) and trace_id:
        return trace_id
    return None


def read_messages(stream: Any) -> Iterator[Dict[str, Any]]:
    """Yield decoded frames from a binary line-iterable stream; garbage
    frames surface as :class:`BadRequestError` to the caller."""
    for line in stream:
        message = decode_line(line)
        if message is not None:
            yield message
