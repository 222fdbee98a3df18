"""TCP server + client round trips (in-process, real sockets)."""

import threading

import pytest

from repro.core.interval import Interval
from repro.service import (
    JoinService,
    RemoteServiceError,
    ServiceClient,
    ServiceServer,
    offline_query,
)
from repro.storage import save_index
from repro.workloads import long_lived_mixture


@pytest.fixture(scope="module")
def snapshot(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("tcp") / "tcp.oip")
    outer = long_lived_mixture(
        150, 0.3, Interval(1, 9_000), seed=91, name="outer"
    )
    inner = long_lived_mixture(
        150, 0.3, Interval(1, 9_000), seed=92, name="inner"
    )
    save_index(path, outer, inner)
    return path


@pytest.fixture
def server(snapshot):
    service = JoinService(snapshot, max_active=4, max_queued=8)
    service.start()
    srv = ServiceServer(
        service, drain_timeout_s=10.0, hard_stop_timeout_s=2.0
    ).start()
    yield srv
    if not srv.stopped.is_set():
        srv.shutdown()


class TestServerClient:
    def test_query_ops_round_trip(self, server, snapshot):
        oracle = offline_query(snapshot)
        with ServiceClient("127.0.0.1", server.port) as client:
            assert client.ping()["pong"] is True
            joined = client.join()
            assert joined["pairs"] == oracle["pairs"]
            assert joined["fingerprint"] == oracle["fingerprint"]
            assert joined["counters"] == oracle["counters"]
            look = client.lookup([1, 400], include_pairs=True, max_pairs=3)
            assert look["pairs"] <= joined["pairs"]
            assert len(look.get("results", [])) <= 3
            health = client.health()
            assert health["status"] == "serving"
            assert health["ready"] is True
            metrics = client.metrics()
            assert metrics["counters"]["service.queries.completed"] >= 2
            refresh = client.refresh()
            assert refresh["swapped"] is False

    def test_retired_request_field_is_ignored(self, server, snapshot):
        """Older clients may still send the retired per-request field
        below; like any unknown field it is ignored, and the answer is
        the plain join's."""
        oracle = offline_query(snapshot)
        with ServiceClient("127.0.0.1", server.port) as client:
            joined = client.request("join", shards=4)
        assert joined["fingerprint"] == oracle["fingerprint"]
        assert joined["pairs"] == oracle["pairs"]
        assert joined["counters"] == oracle["counters"]

    def test_remote_errors_carry_structure(self, server):
        with ServiceClient("127.0.0.1", server.port) as client:
            with pytest.raises(RemoteServiceError) as excinfo:
                client.lookup([9, 2])
            assert excinfo.value.code == "bad_request"
            assert excinfo.value.retriable is False
            with pytest.raises(RemoteServiceError) as excinfo:
                client.request("frobnicate")
            assert excinfo.value.code == "bad_request"

    def test_concurrent_clients_agree(self, server, snapshot):
        oracle = offline_query(snapshot)["fingerprint"]
        fingerprints = []
        lock = threading.Lock()

        def worker():
            with ServiceClient("127.0.0.1", server.port) as client:
                for _ in range(2):
                    fingerprint = client.join()["fingerprint"]
                    with lock:
                        fingerprints.append(fingerprint)

        threads = [threading.Thread(target=worker) for _ in range(5)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(fingerprints) == 10
        assert set(fingerprints) == {oracle}

    def test_shutdown_op_drains_server(self, server):
        with ServiceClient("127.0.0.1", server.port) as client:
            assert client.shutdown()["stopping"] is True
        assert server.wait(10.0)
        assert server.service.status == "stopped"


class TestTimeoutNotRetried:
    def test_slow_response_fails_fast_without_reconnect(self):
        """A request that times out on a healthy connection must not be
        re-sent: the server is still working the slow query, and a
        reconnect-resend would duplicate the in-flight work.  Only
        genuinely dropped connections are retriable."""
        import socket

        listener = socket.create_server(("127.0.0.1", 0))
        listener.settimeout(5.0)
        accepted = []

        def acceptor():
            try:
                while True:
                    conn, _ = listener.accept()
                    accepted.append(conn)  # accept, then stay silent
            except OSError:
                pass

        thread = threading.Thread(target=acceptor, daemon=True)
        thread.start()
        client = ServiceClient(
            "127.0.0.1",
            listener.getsockname()[1],
            timeout_s=0.2,
            retries=3,
        )
        try:
            with pytest.raises(TimeoutError):
                client.ping()
            assert client.reconnects == 0
        finally:
            client.close()
            listener.close()
            for conn in accepted:
                conn.close()
            thread.join(timeout=5.0)
