"""Multi-process worker pool: kernel-balanced accepts, fleet-wide
stats aggregation, and crash supervision (SIGKILL chaos + client
reconnect-retry)."""

import os
import signal
import socket
import threading
import time

import pytest

from repro.core.interval import Interval
from repro.service import (
    ServiceClient,
    ServiceError,
    WorkerSupervisor,
    offline_query,
)
from repro.service.aggregate import read_roster
from repro.service.errors import ScaleOutConfigError
from repro.service import workers as workers_module
from repro.service.workers import WorkerStartupError
from repro.storage import save_index
from repro.workloads import long_lived_mixture


def _relations(seed):
    outer = long_lived_mixture(
        150, 0.3, Interval(1, 10_000), seed=seed, name="outer"
    )
    inner = long_lived_mixture(
        150, 0.3, Interval(1, 10_000), seed=seed + 1, name="inner"
    )
    return outer, inner


@pytest.fixture(scope="module")
def snapshot(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("pool") / "pool.oip")
    outer, inner = _relations(811)
    save_index(path, outer, inner)
    return path


@pytest.fixture
def pool(snapshot):
    supervisor = WorkerSupervisor(
        snapshot,
        workers=2,
        service_kwargs={"result_cache_size": 8},
        drain_timeout_s=10.0,
        hard_stop_timeout_s=2.0,
    )
    supervisor.start()
    runner = threading.Thread(target=supervisor.run, daemon=True)
    runner.start()
    yield supervisor
    supervisor.initiate_shutdown()
    supervisor.shutdown()
    runner.join(timeout=10.0)


def _wait_until(predicate, timeout_s=20.0, interval_s=0.2):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval_s)
    return False


class TestConfigValidation:
    def test_zero_workers_rejected(self, snapshot):
        with pytest.raises(ScaleOutConfigError):
            WorkerSupervisor(snapshot, workers=0)

    def test_missing_snapshot_propagates_exit_code(self, tmp_path):
        supervisor = WorkerSupervisor(
            str(tmp_path / "nope.oip"), workers=1, ready_timeout_s=30.0
        )
        with pytest.raises(WorkerStartupError) as excinfo:
            supervisor.start()
        assert excinfo.value.exit_code == 66
        supervisor.shutdown()


class TestPoolServing:
    def test_connections_balance_and_answers_match_oracle(
        self, pool, snapshot
    ):
        oracle = offline_query(snapshot)
        pids = set()
        for _ in range(20):
            with ServiceClient("127.0.0.1", pool.port) as client:
                pids.add(client.health()["pid"])
                body = client.join()
                assert body["fingerprint"] == oracle["fingerprint"]
                assert body["pairs"] == oracle["pairs"]
            if len(pids) == 2:
                break
        assert len(pids) == 2, "kernel never balanced across workers"
        assert os.getpid() not in pids  # parent never serves

    def test_cached_pool_answers_match_oracle(self, pool, snapshot):
        oracle = offline_query(snapshot)
        with ServiceClient("127.0.0.1", pool.port) as client:
            first = client.join()
            again = client.join()
            assert again["fingerprint"] == oracle["fingerprint"]
            # Same connection -> same worker -> second identical
            # request must be a cache hit.
            assert first["cached"] is False
            assert again["cached"] is True

    def test_stats_aggregates_across_workers(self, pool):
        total = 6
        pids = set()
        for _ in range(total):
            with ServiceClient("127.0.0.1", pool.port) as client:
                pids.add(client.health()["pid"])
                client.join()
        with ServiceClient("127.0.0.1", pool.port) as client:
            fleet = client.stats()
            local = client.stats_local()
        assert fleet["aggregated"] is True
        assert fleet["workers"]["configured"] == 2
        assert fleet["workers"]["responding"] == 2
        assert fleet["counters"]["service.queries.completed"] == total
        assert "service.worker.restarts" in fleet["counters"]
        assert "aggregated" not in local
        if len(pids) == 2:
            # Traffic reached both workers, so any single process must
            # hold strictly less than the fleet total.
            assert (
                local["counters"]["service.queries.completed"] < total
            )
        # Quantile count equals the merged completions: the histogram
        # merge, not one worker's view.
        assert fleet["endpoints"]["join"]["count"] == total

    def test_roster_describes_the_pool(self, pool):
        roster = read_roster(pool.roster_path)
        assert roster is not None
        assert len(roster["workers"]) == 2
        assert roster["parent_pid"] == os.getpid()
        assert {w["worker"] for w in roster["workers"]} == {0, 1}


class TestCrashSupervision:
    def test_sigkill_worker_client_retries_and_pool_heals(
        self, pool, snapshot
    ):
        oracle = offline_query(snapshot)
        client = ServiceClient("127.0.0.1", pool.port, retries=4)
        try:
            victim = client.health()["pid"]
            os.kill(victim, signal.SIGKILL)
            # The connection is pinned to the dead worker; the next
            # request must fail over via reconnect to a survivor and
            # still produce the oracle answer.
            body = client.join()
            assert body["fingerprint"] == oracle["fingerprint"]
            assert client.reconnects >= 1
        finally:
            client.close()
        assert _wait_until(lambda: pool.restarts >= 1)
        assert _wait_until(
            lambda: (read_roster(pool.roster_path) or {}).get(
                "restarts", 0
            )
            >= 1
        )

        def pool_fully_responding():
            try:
                with ServiceClient("127.0.0.1", pool.port) as probe:
                    stats = probe.stats()
            except (ServiceError, OSError):
                return False
            return (
                stats["workers"]["responding"] == 2
                and stats["counters"]["service.worker.restarts"] >= 1
            )

        assert _wait_until(pool_fully_responding)

    def test_without_retries_dropped_connection_is_fatal(self, pool):
        client = ServiceClient("127.0.0.1", pool.port)
        try:
            victim = client.health()["pid"]
            os.kill(victim, signal.SIGKILL)
            with pytest.raises((ServiceError, OSError)):
                client.join()
        finally:
            client.close()
        assert _wait_until(lambda: pool.restarts >= 1)


class _StubProc:
    """A dead-or-alive stand-in for a worker process: just enough
    surface (name, liveness, a waitable sentinel fd) for the
    supervision loop."""

    def __init__(self, index, alive):
        self.name = f"oip-worker-{index}"
        self._alive = alive
        self.sentinel, self._sentinel_write = os.pipe()

    def is_alive(self):
        return self._alive

    def close_fds(self):
        os.close(self.sentinel)
        os.close(self._sentinel_write)


class TestRespawnRetry:
    def test_failed_replacement_retried_without_pool_teardown(
        self, snapshot, monkeypatch
    ):
        """A replacement that fails to start must not SIGTERM survivors
        or close the listener; its index stays pending and is retried
        every supervision pass until a spawn sticks."""
        supervisor = WorkerSupervisor(snapshot, workers=1)
        closed = []

        class _Listener:
            def close(self):
                closed.append(True)

            def getsockname(self):
                return ("127.0.0.1", 0)

        supervisor._listener = _Listener()
        dead = _StubProc(0, alive=False)
        survivor = _StubProc(1, alive=True)
        replacement = _StubProc(0, alive=True)
        supervisor._procs = [dead, survivor]
        supervisor._roster_entries = [
            {
                "worker": index,
                "pid": 1000 + index,
                "generation": 1,
                "control_host": "127.0.0.1",
                "control_port": 1 + index,
            }
            for index in (0, 1)
        ]
        rosters = []
        monkeypatch.setattr(
            supervisor,
            "_write_roster",
            lambda: rosters.append(
                sorted(e["worker"] for e in supervisor._roster_entries)
            ),
        )
        spawn_calls = []

        def fake_spawn(index, teardown_on_failure=True):
            spawn_calls.append((index, teardown_on_failure))
            if len(spawn_calls) < 3:
                raise WorkerStartupError(
                    f"worker {index} failed to start: snapshot corrupt"
                )
            supervisor._procs.append(replacement)
            entry = {
                "worker": index,
                "pid": 4321,
                "generation": 2,
                "control_host": "127.0.0.1",
                "control_port": 9,
            }
            supervisor._roster_entries.append(entry)
            return entry

        monkeypatch.setattr(supervisor, "_spawn", fake_spawn)
        runner = threading.Thread(
            target=supervisor.run,
            kwargs={"poll_interval_s": 0.01},
            daemon=True,
        )
        runner.start()
        try:
            assert _wait_until(lambda: len(spawn_calls) >= 3)
            assert _wait_until(lambda: replacement in supervisor._procs)
        finally:
            supervisor.initiate_shutdown()
            runner.join(timeout=10.0)
        assert not runner.is_alive()
        # Every attempt targeted the dead index on the no-teardown path.
        assert spawn_calls[:3] == [(0, False)] * 3
        assert not closed, "listener was closed during a respawn retry"
        assert survivor in supervisor._procs, "survivor was torn down"
        assert supervisor.restarts == 1
        # The dead worker's entry was dropped while pending, restored
        # once the replacement stuck.
        assert rosters[0] == [1]
        assert rosters[-1] == [0, 1]
        for proc in (dead, survivor, replacement):
            proc.close_fds()


class TestShutdownRaces:
    """Two ways a pool used to outlive ``shutdown()`` until the SIGKILL
    deadline (drain + hard stop + 5 s)."""

    def test_lost_accept_race_does_not_block_the_serve_loop(self):
        """Siblings share one listener, so a worker woken for a
        connection another worker already accepted finds none; its
        accept must fail at once, or the serve loop (and the worker's
        shutdown, which waits for it) blocks until the next connect."""
        from repro.service.server import _Handler, _TCPServer

        listener = socket.create_server(("127.0.0.1", 0))
        server = _TCPServer(None, _Handler, listener=listener)
        # What serve_forever does once select() reported the listener
        # readable: handle one pending connection (here: none left).
        loser = threading.Thread(
            target=server._handle_request_noblock, daemon=True
        )
        loser.start()
        loser.join(timeout=2.0)
        blocked = loser.is_alive()
        if blocked:  # release the stuck accept before failing
            socket.create_connection(listener.getsockname()).close()
            loser.join(timeout=2.0)
        server.server_close()
        assert not blocked, "accept blocked with no connection pending"

    def test_replacement_starting_during_shutdown_is_stopped(
        self, snapshot, tmp_path, monkeypatch
    ):
        """A worker that dies is replaced by the supervision loop; a
        shutdown that begins while the replacement is still starting
        must stop it too, not leave it serving unsignalled."""
        started = tmp_path / "replacement.pid"
        release = tmp_path / "release"
        real_main = workers_module._worker_main

        def slow_main(*args):
            # Runs in the forked replacement: report, then hold its
            # startup until the test has called shutdown().
            signal.signal(signal.SIGTERM, signal.SIG_DFL)
            started.write_text(str(os.getpid()))
            deadline = time.monotonic() + 30.0
            while not release.exists() and time.monotonic() < deadline:
                time.sleep(0.01)
            real_main(*args)

        supervisor = WorkerSupervisor(
            snapshot, workers=1, drain_timeout_s=10.0, hard_stop_timeout_s=2.0
        )
        supervisor.start()
        monkeypatch.setattr(workers_module, "_worker_main", slow_main)
        runner = threading.Thread(
            target=supervisor.run,
            kwargs={"poll_interval_s": 0.05},
            daemon=True,
        )
        runner.start()
        try:
            os.kill(supervisor._roster_entries[0]["pid"], signal.SIGKILL)
            assert _wait_until(started.exists, interval_s=0.02)
            began = time.monotonic()
            supervisor.shutdown()
            release.write_text("go")
            runner.join(timeout=10.0)
            assert not runner.is_alive()
            assert time.monotonic() - began < 5.0
            survivors = [p for p in supervisor._procs if p.is_alive()]
            assert not survivors, "a replacement outlived shutdown()"
        finally:
            release.write_text("go")
            for proc in list(supervisor._procs):
                proc.kill()
                proc.join(timeout=5.0)
