"""Blocking stdlib client for the line-delimited JSON protocol.

:class:`ServiceClient` wraps one TCP connection; each request gets a
monotonically increasing ``id`` and the reply is matched against it.
Remote failures re-raise as :class:`RemoteServiceError` carrying the
structured ``code``/``retriable``/``detail`` fields from the wire, so a
caller can implement the same backoff policy against a remote service
as against an in-process one.

**Client-side tracing.**  Construct the client with a
:class:`~repro.obs.Tracer` and every request opens a
``client.request`` span stamped with a fresh ``trace_id`` that is also
sent on the wire (the protocol's ``trace`` field).  The server threads
the same id through its own span tree, so the client span and the
server tree fetched via :meth:`tracedump` stitch into one end-to-end
trace with :func:`~repro.obs.stitch_traces`.  Without a tracer no
trace field is sent and the request bytes are identical to the
pre-telemetry protocol.
"""

from __future__ import annotations

import socket
import time
from typing import Any, Dict, Optional, Sequence

from ..obs.trace import NULL_TRACER, new_trace_id
from .errors import ServiceError
from .protocol import MAX_LINE_BYTES, encode_message

__all__ = ["ServiceClient", "RemoteServiceError"]


class RemoteServiceError(ServiceError):
    """A structured error response from the remote service."""

    @classmethod
    def from_wire(cls, error: Dict[str, Any]) -> "RemoteServiceError":
        return cls(
            str(error.get("message", "remote service error")),
            code=str(error.get("code", "internal")),
            retriable=bool(error.get("retriable", False)),
            detail=dict(error.get("detail") or {}),
        )


class ServiceClient:
    """``with ServiceClient(host, port) as client: client.join()``"""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        timeout_s: Optional[float] = 30.0,
        tracer: Any = NULL_TRACER,
        retries: int = 0,
        retry_backoff_s: float = 0.05,
    ) -> None:
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        self.host = host
        self.port = port
        self.timeout_s = timeout_s
        #: Reconnect-and-resend attempts after a dropped connection.
        #: Against a worker pool a broken connection usually means one
        #: worker died mid-request; the kernel routes the reconnect to a
        #: surviving worker, so the retried request is re-served from
        #: the same pinned generation.  Off by default — single-process
        #: callers keep fail-fast semantics.
        self.retries = int(retries)
        self.retry_backoff_s = retry_backoff_s
        #: Dropped-connection retries actually performed (test hook).
        self.reconnects = 0
        self._sock = socket.create_connection((host, port), timeout=timeout_s)
        self._rfile = self._sock.makefile("rb")
        self._next_id = 0
        self.tracer = tracer if tracer is not None else NULL_TRACER
        #: Trace id of the most recent request (None while untraced).
        self.last_trace_id: Optional[str] = None

    # -- plumbing ------------------------------------------------------------

    def _reconnect(self) -> None:
        try:
            self.close()
        except OSError:
            pass
        self._sock = socket.create_connection(
            (self.host, self.port), timeout=self.timeout_s
        )
        self._rfile = self._sock.makefile("rb")

    def _exchange_with_retry(
        self, op: str, request_id: int, message: Dict[str, Any]
    ) -> Dict[str, Any]:
        attempt = 0
        while True:
            try:
                return self._exchange(op, request_id, message)
            except (ServiceError, OSError) as error:
                # A timeout is NOT a dropped connection: the server is
                # still working the (slow) request, and reconnecting
                # would duplicate expensive in-flight work on a healthy
                # worker.  socket.timeout is an OSError subclass
                # (aliased to TimeoutError since 3.10), so exclude it
                # explicitly — only genuinely broken connections
                # (reset, EOF, refused) are worth re-sending.
                dropped = (
                    isinstance(error, OSError)
                    and not isinstance(
                        error, (TimeoutError, socket.timeout)
                    )
                ) or (
                    isinstance(error, ServiceError)
                    and error.code == "disconnected"
                )
                if not dropped or attempt >= self.retries:
                    raise
                attempt += 1
                if self.retry_backoff_s:
                    time.sleep(self.retry_backoff_s * attempt)
                self._reconnect()
                self.reconnects += 1

    def request(self, op: str, **fields: Any) -> Dict[str, Any]:
        """Send one request and block for its response body."""
        self._next_id += 1
        request_id = self._next_id
        message = {"op": op, "id": request_id}
        message.update(
            {key: value for key, value in fields.items() if value is not None}
        )
        if not self.tracer.enabled:
            return self._exchange_with_retry(op, request_id, message)
        trace_id = new_trace_id()
        self.last_trace_id = trace_id
        message["trace"] = {"trace_id": trace_id}
        with self.tracer.span(
            "client.request", op=op, trace_id=trace_id
        ) as span:
            response = self._exchange_with_retry(op, request_id, message)
            if "service_ms" in response:
                span.set("server_ms", response["service_ms"])
            return response

    def _exchange(
        self, op: str, request_id: int, message: Dict[str, Any]
    ) -> Dict[str, Any]:
        self._sock.sendall(encode_message(message))
        line = self._rfile.readline(MAX_LINE_BYTES + 1)
        if not line:
            raise ServiceError(
                f"connection to {self.host}:{self.port} closed before a "
                f"response to {op!r} arrived",
                code="disconnected",
                retriable=True,
            )
        import json

        response = json.loads(line.decode("utf-8"))
        if response.get("id") not in (request_id, None):
            raise ServiceError(
                f"response id {response.get('id')!r} does not match "
                f"request id {request_id}",
                code="protocol",
            )
        if not response.get("ok"):
            raise RemoteServiceError.from_wire(response.get("error") or {})
        return response

    def close(self) -> None:
        try:
            self._rfile.close()
        finally:
            self._sock.close()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # -- ops -----------------------------------------------------------------

    def ping(self) -> Dict[str, Any]:
        return self.request("ping")

    def join(
        self,
        *,
        deadline_ms: Optional[float] = None,
        kernel: Optional[str] = None,
        include_pairs: bool = False,
        max_pairs: int = 1000,
    ) -> Dict[str, Any]:
        return self.request(
            "join",
            deadline_ms=deadline_ms,
            kernel=kernel,
            include_pairs=include_pairs or None,
            max_pairs=max_pairs,
        )

    def lookup(
        self,
        window: Sequence[int],
        *,
        deadline_ms: Optional[float] = None,
        kernel: Optional[str] = None,
        include_pairs: bool = False,
        max_pairs: int = 1000,
    ) -> Dict[str, Any]:
        return self.request(
            "lookup",
            window=list(window),
            deadline_ms=deadline_ms,
            kernel=kernel,
            include_pairs=include_pairs or None,
            max_pairs=max_pairs,
        )

    def health(self) -> Dict[str, Any]:
        return self.request("health")

    def metrics(self) -> Dict[str, Any]:
        return self.request("metrics")["metrics"]

    def stats(self) -> Dict[str, Any]:
        """The server's ``service_stats`` document (latency quantiles);
        against a worker pool this is the fleet-wide aggregation."""
        return self.request("stats")["stats"]

    def stats_local(self) -> Dict[str, Any]:
        """The answering process's own stats, never aggregated."""
        return self.request("stats_local")["stats"]

    def tracedump(
        self,
        *,
        trace_id: Optional[str] = None,
        limit: Optional[int] = None,
    ) -> Dict[str, Any]:
        """Recently finished server-side trace trees (optionally one id)."""
        return self.request(
            "tracedump", filter_trace_id=trace_id, limit=limit
        )

    def refresh(self, *, force: bool = False) -> Dict[str, Any]:
        return self.request("refresh", force=force or None)

    def shutdown(self) -> Dict[str, Any]:
        """Ask the server to drain and stop (acknowledged immediately)."""
        return self.request("shutdown")
