"""JoinService behaviour: admission, deadlines, retries, drain,
metrics, and the dict-in/dict-out protocol dispatch."""

import threading
import time
import types

import pytest

import repro.service.service as service_module
from repro.core.interval import Interval
from repro.service import JoinService, offline_query
from repro.service.errors import (
    BadRequestError,
    ServiceError,
    ServiceOverloadError,
    ServiceUnavailableError,
)
from repro.storage import StorageFaultError, save_index
from repro.workloads import long_lived_mixture


@pytest.fixture(scope="module")
def snapshot(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("svc") / "svc.oip")
    outer = long_lived_mixture(
        200, 0.3, Interval(1, 12_000), seed=71, name="outer"
    )
    inner = long_lived_mixture(
        200, 0.3, Interval(1, 12_000), seed=72, name="inner"
    )
    save_index(path, outer, inner)
    return path


@pytest.fixture
def service(snapshot):
    svc = JoinService(snapshot, max_active=2, max_queued=4)
    svc.start()
    yield svc
    if svc.status != "stopped":
        svc.drain(timeout_s=5.0)


class TestQueries:
    def test_join_matches_offline_oracle(self, service, snapshot):
        response = service.query("join")
        oracle = offline_query(snapshot)
        assert response["pairs"] == oracle["pairs"]
        assert response["fingerprint"] == oracle["fingerprint"]
        assert response["counters"] == oracle["counters"]
        assert response["generation"] == oracle["generation"] == 0
        assert response["index"]["loaded"] is True
        assert response["attempts"] == 1

    def test_lookup_matches_offline_oracle(self, service, snapshot):
        response = service.query("lookup", window=[1, 600])
        oracle = offline_query(snapshot, op="lookup", window=[1, 600])
        assert response["pairs"] == oracle["pairs"]
        assert response["fingerprint"] == oracle["fingerprint"]
        assert response["pairs"] < service.query("join")["pairs"]

    def test_include_pairs_truncation(self, service):
        response = service.query("join", include_pairs=True, max_pairs=5)
        assert len(response["results"]) == 5
        assert response["results_truncated"] is True

    def test_bad_requests(self, service):
        with pytest.raises(BadRequestError):
            service.query("frobnicate")
        with pytest.raises(BadRequestError):
            service.query("lookup")  # lookup needs a window
        with pytest.raises(BadRequestError):
            service.query("lookup", window=[10, 5])
        with pytest.raises(BadRequestError):
            service.query("join", deadline_ms=-1)

    def test_not_serving_before_start(self, snapshot):
        svc = JoinService(snapshot)
        with pytest.raises(ServiceUnavailableError) as excinfo:
            svc.query("join")
        assert excinfo.value.detail["status"] == "starting"

    def test_exhausted_deadline_is_structured(self, service):
        with pytest.raises(ServiceError) as excinfo:
            service.query("join", deadline_ms=1e-6)
        assert excinfo.value.code == "deadline"
        assert excinfo.value.retriable is True


class TestOverload:
    def test_full_house_sheds_with_structure(self, snapshot):
        svc = JoinService(
            snapshot, max_active=1, max_queued=0, admit_timeout_s=0.0
        )
        svc.start()
        try:
            with svc.admission.admit():  # occupy the only slot
                with pytest.raises(ServiceOverloadError) as excinfo:
                    svc.query("join")
            error = excinfo.value
            assert error.code == "overload"
            assert error.retriable is True
            assert error.detail["max_active"] == 1
            assert error.detail["retry_after_ms"] > 0
            metrics = svc.publish_metrics()
            assert metrics["counters"]["service.queries.shed"] == 1
            assert (
                metrics["counters"]["service.queries.failed.overload"] == 1
            )
        finally:
            svc.drain(timeout_s=2.0)


class TestRetries:
    def test_transient_storage_fault_is_retried(
        self, snapshot, monkeypatch
    ):
        svc = JoinService(snapshot, max_retries=2, retry_backoff_s=0.0)
        svc.start()
        real = service_module.OIPJoin
        calls = {"n": 0}

        class Flaky(real):
            def join(self, outer, inner):
                calls["n"] += 1
                if calls["n"] == 1:
                    raise StorageFaultError("injected transient fault", block_id=0)
                return super().join(outer, inner)

        monkeypatch.setattr(service_module, "OIPJoin", Flaky)
        response = svc.query("join")
        assert response["attempts"] == 2
        oracle = offline_query(snapshot)
        assert response["fingerprint"] == oracle["fingerprint"]
        metrics = svc.publish_metrics()
        assert metrics["counters"]["service.queries.retried"] == 1
        svc.drain(timeout_s=2.0)

    def test_persistent_fault_exhausts_retries(self, snapshot, monkeypatch):
        svc = JoinService(snapshot, max_retries=1, retry_backoff_s=0.0)
        svc.start()
        real = service_module.OIPJoin

        class Dead(real):
            def join(self, outer, inner):
                raise StorageFaultError("device gone", block_id=0)

        monkeypatch.setattr(service_module, "OIPJoin", Dead)
        with pytest.raises(ServiceError) as excinfo:
            svc.query("join")
        assert excinfo.value.code == "storage_fault"
        assert excinfo.value.detail["attempts"] == 2
        svc.drain(timeout_s=2.0)


class TestDrain:
    def test_graceful_drain_is_zero_loss(self, snapshot):
        svc = JoinService(snapshot, max_active=4, max_queued=8)
        svc.start()
        results, errors = [], []

        def client():
            try:
                results.append(svc.query("join")["fingerprint"])
            except ServiceError as error:
                errors.append(error)

        threads = [threading.Thread(target=client) for _ in range(6)]
        for thread in threads:
            thread.start()
        report = svc.drain(timeout_s=30.0)
        for thread in threads:
            thread.join()
        # Every query that was admitted before the drain completed; any
        # that arrived after the state flip got a structured rejection.
        assert report["drained"] is True
        assert report["cancelled"] == 0
        oracle = offline_query(snapshot)["fingerprint"]
        assert all(fingerprint == oracle for fingerprint in results)
        assert all(
            error.code == "unavailable" for error in errors
        )
        assert len(results) + len(errors) == 6
        with pytest.raises(ServiceUnavailableError):
            svc.query("join")
        assert svc.drain()["cancelled"] == 0  # idempotent

    def test_hard_stop_cancels_stragglers(self, snapshot, monkeypatch):
        svc = JoinService(snapshot)
        svc.start()
        real = service_module.OIPJoin
        started = threading.Event()

        class Stuck(real):
            def join(self, outer, inner):
                started.set()
                while not self.cancellation.cancelled:
                    time.sleep(0.002)
                return types.SimpleNamespace(
                    completed=False, elapsed_ms=1.0, cardinality=0
                )

        monkeypatch.setattr(service_module, "OIPJoin", Stuck)
        outcome = {}

        def client():
            try:
                svc.query("join")
            except ServiceError as error:
                outcome["error"] = error

        thread = threading.Thread(target=client)
        thread.start()
        assert started.wait(5.0)
        report = svc.drain(timeout_s=0.05, hard_stop_timeout_s=5.0)
        thread.join(5.0)
        assert report["drained"] is True
        assert report["cancelled"] == 1
        assert outcome["error"].code == "cancelled"
        metrics = svc.publish_metrics()
        assert metrics["counters"]["service.queries.cancelled"] == 1
        assert metrics["counters"]["service.drain.cancelled"] == 1


class TestDispatchAndHealth:
    def test_handle_request_round_trips(self, service):
        pong = service.handle_request({"op": "ping", "id": 7})
        assert pong == {"id": 7, "ok": True, "pong": True}
        health = service.handle_request({"op": "health", "id": 8})
        assert health["ok"] and health["ready"] is True
        assert health["status"] == "serving"
        joined = service.handle_request({"op": "join", "id": 9})
        assert joined["ok"] and joined["pairs"] > 0
        unknown = service.handle_request({"op": "nope", "id": 10})
        assert unknown["ok"] is False
        assert unknown["error"]["code"] == "bad_request"
        not_dict = service.handle_request("garbage")
        assert not_dict["error"]["code"] == "bad_request"
        refreshed = service.handle_request({"op": "refresh", "id": 11})
        assert refreshed["ok"] and refreshed["swapped"] is False

    @pytest.mark.parametrize(
        "request_fields, field",
        [
            ({"op": "join", "max_pairs": "abc"}, "max_pairs"),
            ({"op": "join", "max_pairs": None}, "max_pairs"),
            ({"op": "lookup", "window": [1, 9], "max_pairs": []}, "max_pairs"),
            ({"op": "join", "deadline_ms": "soon"}, "deadline_ms"),
            ({"op": "join", "deadline_ms": float("nan")}, "deadline_ms"),
            ({"op": "tracedump", "limit": "x"}, "limit"),
            ({"op": "lookup", "window": [1, float("inf")]}, "window"),
        ],
    )
    def test_malformed_numeric_fields_are_bad_requests(
        self, service, request_fields, field
    ):
        """A malformed wire field is the client's error: a non-retriable
        ``bad_request`` naming the field, never ``internal``."""
        response = service.handle_request({"id": 1, **request_fields})
        assert response["ok"] is False
        error = response["error"]
        assert error["code"] == "bad_request"
        assert error["retriable"] is False
        assert field in error["message"]

    def test_metrics_families_present(self, service):
        service.query("join")
        snapshot_dict = service.handle_request({"op": "metrics"})["metrics"]
        counters = snapshot_dict["counters"]
        gauges = snapshot_dict["gauges"]
        assert counters["service.queries.submitted"] >= 1
        assert counters["service.queries.completed"] >= 1
        assert gauges["service.state"] == 1  # serving
        assert gauges["service.inflight"] == 0
        assert gauges["service.generation"] == 0
        assert gauges["service.generation.age_s"] >= 0
        assert "admission.active" in gauges
        assert "service.query.latency_ms" in snapshot_dict["histograms"]

    def test_health_uptime_and_admission(self, service):
        service.query("join")
        health = service.health()
        assert health["uptime_s"] >= 0
        assert health["queries_served"] >= 1
        assert health["admission"]["admitted"] >= 1


class TestRepeatedTupleObjects:
    def test_relation_holding_one_tuple_twice_serves(self, tmp_path):
        # The same tuple object at two positions must be saved under both,
        # or the snapshot's positions are not a permutation and no
        # service can load it.
        from repro.core.join import OIPJoin
        from repro.core.relation import TemporalRelation

        outer = long_lived_mixture(
            120, 0.3, Interval(1, 12_000), seed=81, name="outer"
        )
        inner = long_lived_mixture(
            120, 0.3, Interval(1, 12_000), seed=82, name="inner"
        )
        shared = outer.tuples[0]
        outer = TemporalRelation(
            [shared, *outer.tuples[1:], shared], name="outer"
        )
        path = str(tmp_path / "repeated.oip")
        save_index(path, outer, inner)
        svc = JoinService(path)
        svc.start()
        try:
            response = svc.query("join", include_pairs=True)
        finally:
            svc.drain(timeout_s=5.0)
        oracle = offline_query(path, include_pairs=True)
        expected = OIPJoin().join(outer, inner)
        assert response["pairs"] == oracle["pairs"] == len(expected.pairs)
        assert response["fingerprint"] == oracle["fingerprint"]
        assert response["counters"] == oracle["counters"]
        assert response["results"] == oracle["results"]
