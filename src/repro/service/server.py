"""Network front-ends for :class:`~repro.service.service.JoinService`.

:class:`ServiceServer` is a threaded TCP server speaking the
line-delimited JSON protocol; :func:`serve_stdio` runs the same protocol
over a pipe.  Both are thin: every request funnels into
``JoinService.handle_request`` — admission, pinning, and error
shaping all live in the service, so an in-process test and a socket
client observe identical behaviour.

Shutdown paths:

* ``{"op": "shutdown"}`` from any client → acknowledge, then drain.
* SIGTERM / SIGINT on ``python -m repro serve`` → drain.

Drain semantics are the service's: stop admitting, finish in-flight
queries up to ``--drain-timeout-s``, hard-stop stragglers after
``--hard-stop-timeout-s`` with structured ``cancelled`` errors.
"""

from __future__ import annotations

import socket
import socketserver
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Callable, Dict, Optional

from .errors import ServiceError
from .protocol import decode_line, encode_message
from .service import JoinService

__all__ = ["ServiceServer", "MetricsExporter", "serve_stdio"]


class _Handler(socketserver.StreamRequestHandler):
    """One connection: read frames, dispatch, write responses."""

    def handle(self) -> None:  # pragma: no cover - exercised via sockets
        server: "ServiceServer" = self.server.context  # type: ignore[attr-defined]
        while True:
            try:
                line = self.rfile.readline()
            except (OSError, ValueError):
                return
            if not line:
                return
            try:
                message = decode_line(line)
            except ServiceError as error:
                self._reply({"id": None, "ok": False, "error": error.to_wire()})
                continue
            if message is None:
                continue
            if message.get("op") == "shutdown":
                self._reply(
                    {
                        "id": message.get("id"),
                        "ok": True,
                        "stopping": True,
                    }
                )
                if server.on_shutdown_request is not None:
                    server.on_shutdown_request()
                else:
                    server.initiate_shutdown()
                return
            self._reply(server.service.handle_request(message))

    def _reply(self, response: Dict[str, Any]) -> None:
        try:
            self.wfile.write(encode_message(response))
            self.wfile.flush()
        except (OSError, ValueError):
            pass


class _TCPServer(socketserver.ThreadingTCPServer):
    daemon_threads = True
    allow_reuse_address = True
    #: Backpointer to the owning :class:`ServiceServer`.
    context: Optional["ServiceServer"] = None

    def __init__(
        self,
        server_address: Any,
        handler_class: Any,
        *,
        listener: Optional[socket.socket] = None,
    ) -> None:
        if listener is None:
            super().__init__(server_address, handler_class)
            return
        # Adopt an already-bound, already-listening socket — the
        # pre-fork worker model: the parent binds once, every forked
        # worker accepts on the inherited fd and the kernel balances
        # connections across them.  Siblings race for each connection:
        # the loser's accept must fail at once rather than block the
        # serve loop (and so its shutdown) until the next connection.
        super().__init__(
            listener.getsockname(), handler_class, bind_and_activate=False
        )
        self.socket.close()
        listener.setblocking(False)
        self.socket = listener
        self.server_address = listener.getsockname()


class _MetricsHandler(BaseHTTPRequestHandler):
    """GET /metrics → live Prometheus exposition of the service registry."""

    def do_GET(self) -> None:  # pragma: no cover - exercised via sockets
        service: JoinService = self.server.service  # type: ignore[attr-defined]
        if self.path.split("?", 1)[0] not in ("/metrics", "/"):
            self.send_response(404)
            self.end_headers()
            return
        try:
            service.publish_metrics()
            body = service.metrics.to_prometheus_text().encode("utf-8")
        except Exception as error:  # noqa: BLE001 - exposition boundary
            self.send_response(500)
            self.end_headers()
            self.wfile.write(f"# scrape failed: {error}\n".encode("utf-8"))
            return
        self.send_response(200)
        self.send_header(
            "Content-Type", "text/plain; version=0.0.4; charset=utf-8"
        )
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, format: str, *args: Any) -> None:
        """Scrapes are high-frequency; keep stderr quiet."""


class MetricsExporter:
    """A tiny stdlib HTTP sidecar serving ``GET /metrics``.

    Prometheus scrapes pull text exposition over HTTP, not line-JSON —
    so the exporter listens on its own port next to the wire protocol.
    Each scrape refreshes the gauges (``publish_metrics``) and renders
    the full registry, quantile-ready latency histograms included.
    """

    def __init__(
        self,
        service: JoinService,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self._http = ThreadingHTTPServer((host, port), _MetricsHandler)
        self._http.daemon_threads = True
        self._http.service = service  # type: ignore[attr-defined]
        self._thread: Optional[threading.Thread] = None

    @property
    def host(self) -> str:
        return self._http.server_address[0]

    @property
    def port(self) -> int:
        return self._http.server_address[1]

    def start(self) -> "MetricsExporter":
        self._thread = threading.Thread(
            target=self._http.serve_forever,
            name="oip-metrics-exporter",
            daemon=True,
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        self._http.shutdown()
        self._http.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)


class ServiceServer:
    """Threaded TCP front-end over one :class:`JoinService`.

    ``port=0`` binds an ephemeral port (read it back from ``.port`` —
    the test and CI idiom).  ``start()`` serves from a daemon thread;
    ``shutdown()`` drains the service then stops the listener.
    """

    def __init__(
        self,
        service: JoinService,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        drain_timeout_s: float = 30.0,
        hard_stop_timeout_s: float = 5.0,
        metrics_port: Optional[int] = None,
        listener: Optional[socket.socket] = None,
        on_shutdown_request: Optional[Callable[[], None]] = None,
    ) -> None:
        self.service = service
        self.drain_timeout_s = drain_timeout_s
        self.hard_stop_timeout_s = hard_stop_timeout_s
        #: Worker-mode hook: a client ``shutdown`` op should stop the
        #: whole pool, not just the worker that took the connection, so
        #: the worker forwards the request to its parent supervisor
        #: instead of draining locally.
        self.on_shutdown_request = on_shutdown_request
        self._tcp = _TCPServer((host, port), _Handler, listener=listener)
        self._tcp.context = self
        self._thread: Optional[threading.Thread] = None
        self._stopping = threading.Event()
        self.stopped = threading.Event()
        #: Optional Prometheus sidecar (``metrics_port=0`` → ephemeral).
        self.metrics_exporter: Optional[MetricsExporter] = (
            None
            if metrics_port is None
            else MetricsExporter(service, host=host, port=metrics_port)
        )

    @property
    def host(self) -> str:
        return self._tcp.server_address[0]

    @property
    def port(self) -> int:
        return self._tcp.server_address[1]

    def start(self) -> "ServiceServer":
        self._thread = threading.Thread(
            target=self._tcp.serve_forever,
            name="oip-service-listener",
            daemon=True,
        )
        self._thread.start()
        if self.metrics_exporter is not None:
            self.metrics_exporter.start()
        return self

    def initiate_shutdown(self) -> None:
        """Idempotent, non-blocking shutdown trigger (the ``shutdown``
        op calls this from a handler thread; blocking there would
        deadlock the listener)."""
        if self._stopping.is_set():
            return
        self._stopping.set()
        threading.Thread(
            target=self.shutdown, name="oip-service-drain", daemon=True
        ).start()

    def shutdown(self) -> Dict[str, Any]:
        """Drain the service, then stop the listener.  Safe to call from
        any thread except a handler's own request (use
        :meth:`initiate_shutdown` there)."""
        self._stopping.set()
        report = self.service.drain(
            timeout_s=self.drain_timeout_s,
            hard_stop_timeout_s=self.hard_stop_timeout_s,
        )
        self._tcp.shutdown()
        self._tcp.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
        if self.metrics_exporter is not None:
            self.metrics_exporter.stop()
        self.stopped.set()
        return report

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until the server has fully stopped."""
        return self.stopped.wait(timeout)


def serve_stdio(service: JoinService, stdin: Any, stdout: Any) -> int:
    """Run the protocol over a binary stream pair until EOF or a
    ``shutdown`` op; returns the number of frames handled."""
    handled = 0
    for line in stdin:
        try:
            message = decode_line(line)
        except ServiceError as error:
            stdout.write(
                encode_message(
                    {"id": None, "ok": False, "error": error.to_wire()}
                )
            )
            stdout.flush()
            continue
        if message is None:
            continue
        handled += 1
        if message.get("op") == "shutdown":
            stdout.write(
                encode_message(
                    {"id": message.get("id"), "ok": True, "stopping": True}
                )
            )
            stdout.flush()
            service.drain()
            break
        stdout.write(encode_message(service.handle_request(message)))
        stdout.flush()
    return handled
