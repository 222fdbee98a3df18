"""End-to-end service telemetry: wire-propagated traces that stitch
into one tree, the stats/tracedump ops, the structured query log, the
Prometheus exporter, and the no-telemetry bit-identity guarantee."""

import io
import json
import urllib.request

import pytest

from repro.core.interval import Interval
from repro.obs.log import QueryLog, read_log_lines
from repro.obs.trace import Tracer, stitch_traces
from repro.service import (
    JoinService,
    MetricsExporter,
    ServiceClient,
    ServiceServer,
    offline_query,
)
from repro.service.errors import ServiceError, ServiceOverloadError
from repro.service.protocol import trace_context
from repro.storage import save_index
from repro.workloads import long_lived_mixture


@pytest.fixture(scope="module")
def snapshot(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("tel") / "tel.oip")
    outer = long_lived_mixture(
        150, 0.3, Interval(1, 9_000), seed=81, name="outer"
    )
    inner = long_lived_mixture(
        150, 0.3, Interval(1, 9_000), seed=82, name="inner"
    )
    save_index(path, outer, inner)
    return path


def _span_names(tree):
    return [child["name"] for child in tree.get("children", ())]


class TestStitchedTraceRoundTrip:
    def test_client_and_server_spans_join_into_one_tree(self, snapshot):
        """The tentpole acceptance test: one query over TCP produces a
        client span and a server span tree sharing one trace id, and
        stitching yields client.request -> service.query -> phases."""
        service = JoinService(snapshot, tracing=True)
        service.start()
        server = ServiceServer(service).start()
        client_tracer = Tracer()
        try:
            with ServiceClient(
                server.host, server.port, tracer=client_tracer
            ) as client:
                body = client.join()
                trace_id = client.last_trace_id
                assert trace_id is not None
                assert body["trace_id"] == trace_id
            # Fetch the server tree over a second, untraced connection
            # so the dump is not polluted by the fetch itself.
            with ServiceClient(server.host, server.port) as plain:
                dump = plain.tracedump(trace_id=trace_id)
            assert dump["tracing"] is True
            assert len(dump["traces"]) == 1
            (server_tree,) = dump["traces"]
            assert server_tree["name"] == "service.query"
            assert server_tree["attributes"]["trace_id"] == trace_id
            phases = _span_names(server_tree)
            assert phases[:2] == ["admission.wait", "snapshot.pin"]
            assert "join" in phases
            client_tree = next(
                root.as_dict()
                for root in client_tracer.roots
                if root.attributes.get("trace_id") == trace_id
            )
            merged = stitch_traces(client_tree, server_tree)
            assert merged["name"] == "client.request"
            assert merged["attributes"]["op"] == "join"
            grafted = merged["children"][-1]
            assert grafted["name"] == "service.query"
            assert grafted["attributes"]["trace_id"] == trace_id
        finally:
            server.shutdown()

    def test_untraced_client_sends_no_trace_field(self, snapshot):
        service = JoinService(snapshot)
        service.start()
        try:
            request = {"op": "join", "id": 1}
            assert trace_context(request) is None
            response = service.handle_request(request)
            assert response["ok"] is True
            assert "trace_id" not in response
        finally:
            service.drain(timeout_s=5.0)

    def test_server_echoes_wire_trace_id(self, snapshot):
        service = JoinService(snapshot, tracing=True)
        service.start()
        try:
            response = service.handle_request(
                {"op": "join", "id": 7, "trace": {"trace_id": "feedbeef"}}
            )
            assert response["trace_id"] == "feedbeef"
            dump = service.tracedump(trace_id="feedbeef")
            assert len(dump["traces"]) == 1
        finally:
            service.drain(timeout_s=5.0)


class TestStatsEndpoint:
    def test_stats_document_over_the_wire(self, snapshot):
        service = JoinService(snapshot, tracing=True)
        service.start()
        server = ServiceServer(service).start()
        try:
            with ServiceClient(server.host, server.port) as client:
                for _ in range(3):
                    client.join()
                stats = client.stats()
            assert stats["kind"] == "service_stats"
            assert stats["version"] == 1
            assert stats["status"] == "serving"
            join_row = stats["endpoints"]["join"]
            assert join_row["count"] == 3
            assert join_row["mean_ms"] > 0
            for quantile in ("p50_ms", "p95_ms", "p99_ms"):
                assert join_row[quantile] >= 0
            assert join_row["p50_ms"] <= join_row["p99_ms"]
            for phase in ("admission.wait", "snapshot.pin", "join"):
                assert stats["phases"][phase]["count"] == 3
            assert stats["counters"]["service.queries.completed"] == 3
            assert stats["tracing"] is True
            assert stats["traces"]["buffered"] == 3
        finally:
            server.shutdown()

    def test_collector_pauses_are_a_phase(self, snapshot, monkeypatch, capsys):
        import gc

        import repro.core.join as join_module
        from repro.cli import main

        probe = join_module.probe_inline

        def collecting(*args, **kwargs):
            gc.collect()  # a pause inside the traced join span
            return probe(*args, **kwargs)

        monkeypatch.setattr(join_module, "probe_inline", collecting)
        service = JoinService(snapshot, tracing=True)
        service.start()
        server = ServiceServer(service).start()
        try:
            with ServiceClient(server.host, server.port) as client:
                client.join()
                stats = client.stats()
            assert main(["stats", "--port", str(server.port)]) == 0
        finally:
            server.shutdown()
        row = stats["phases"]["gc"]
        assert row["count"] == 1
        assert row["mean_ms"] > 0
        printed = [line.split() for line in capsys.readouterr().out.splitlines()]
        assert ["gc", "1"] in [line[:2] for line in printed]

    def test_stats_captures_are_compare_ready(self, snapshot, tmp_path):
        from repro.obs.compare import compare_stats, main as compare_main

        service = JoinService(snapshot)
        service.start()
        try:
            service.query("join")
            base = service.stats()
            service.query("join")
            other = service.stats()
        finally:
            service.drain(timeout_s=5.0)
        diff = compare_stats(base, other)
        assert diff["kind"] == "service_stats_comparison"
        assert "join" in [row["name"] for row in diff["endpoints"]]
        base_path = str(tmp_path / "base.json")
        other_path = str(tmp_path / "other.json")
        for path, document in ((base_path, base), (other_path, other)):
            with open(path, "w") as handle:
                json.dump(document, handle)
        assert compare_main([base_path, other_path, "--json"]) == 0

    def test_tracedump_limit_and_off_mode(self, snapshot):
        service = JoinService(snapshot)
        service.start()
        try:
            service.query("join")
            assert service.tracedump() == {
                "tracing": False, "traces": [], "dropped": 0,
            }
        finally:
            service.drain(timeout_s=5.0)


class TestFailureTelemetry:
    def test_shed_query_reports_elapsed_ms(self, snapshot):
        """Satellite bugfix: overload rejections carry elapsed_ms and
        the trace ends in a terminal admission.wait span."""
        service = JoinService(
            snapshot,
            max_active=1,
            max_queued=0,
            admit_timeout_s=0.0,
            tracing=True,
        )
        service.start()
        try:
            with service.admission.admit():  # occupy the only slot
                with pytest.raises(ServiceOverloadError) as excinfo:
                    service.query("join")
            error = excinfo.value
            assert error.detail["elapsed_ms"] >= 0.0
            assert error.detail["trace_id"]
            (tree,) = service.tracedump(
                trace_id=error.detail["trace_id"]
            )["traces"]
            # The request died waiting for admission: the span tree is
            # service.query -> admission.wait with an error attribute
            # and no snapshot.pin / join phases.
            assert _span_names(tree) == ["admission.wait"]
            wait_span = tree["children"][0]
            assert "error" in wait_span["attributes"]
            assert "admitted" not in wait_span["attributes"]
        finally:
            service.drain(timeout_s=5.0)

    def test_deadline_rejection_reports_elapsed_ms(self, snapshot):
        service = JoinService(snapshot, tracing=True)
        service.start()
        try:
            with pytest.raises(ServiceError) as excinfo:
                service.query("join", deadline_ms=1e-6)
            assert excinfo.value.code == "deadline"
            assert excinfo.value.detail["elapsed_ms"] > 0.0
            assert excinfo.value.detail["trace_id"]
        finally:
            service.drain(timeout_s=5.0)

    def test_error_response_carries_trace_id(self, snapshot):
        service = JoinService(
            snapshot, max_active=1, max_queued=0, admit_timeout_s=0.0
        )
        service.start()
        try:
            with service.admission.admit():
                response = service.handle_request(
                    {"op": "join", "id": 3, "trace": {"trace_id": "abcd"}}
                )
            assert response["ok"] is False
            assert response["trace_id"] == "abcd"
            assert response["error"]["detail"]["elapsed_ms"] >= 0.0
        finally:
            service.drain(timeout_s=5.0)


class TestQueryLogIntegration:
    def test_lifecycle_and_query_events_in_order(self, snapshot):
        stream = io.StringIO()
        service = JoinService(
            snapshot, query_log=QueryLog(stream, slow_query_ms=0.0)
        )
        service.start()
        service.query("join")
        service.drain(timeout_s=5.0)
        records = read_log_lines(io.StringIO(stream.getvalue()))
        events = [record["event"] for record in records]
        assert events == [
            "service.started",
            "query.completed",
            "drain.started",
            "drain.finished",
        ]
        completed = records[1]
        # slow_query_ms=0.0 promotes every query into the slow lane.
        assert completed["slow"] is True
        assert completed["level"] == "warning"
        assert completed["elapsed_ms"] > 0.0
        assert completed["trace_id"]

    def test_completed_lines_record_the_policy_decision(self, snapshot):
        """``query.completed`` carries the ``k`` and ``kernel`` of the
        join that made the answer — also when the result cache answers,
        with the values of the join that filled it."""
        stream = io.StringIO()
        service = JoinService(
            snapshot, query_log=QueryLog(stream), result_cache_size=4
        )
        service.start()
        try:
            first = service.query("lookup", window=[1, 3_000])
            again = service.query("lookup", window=[1, 3_000])
            naive = service.query("join", kernel="naive")
        finally:
            service.drain(timeout_s=5.0)
        assert again["cached"] is True
        completed = [
            record
            for record in read_log_lines(io.StringIO(stream.getvalue()))
            if record["event"] == "query.completed"
        ]
        assert len(completed) == 3
        expected = offline_query(snapshot, op="lookup", window=[1, 3_000])
        for record, body in zip(completed, (first, again, naive)):
            assert (record["k"], record["kernel"]) == (body["k"], body["kernel"])
        assert (first["k"], first["kernel"]) == (expected["k"], expected["kernel"])
        assert (again["k"], again["kernel"]) == (first["k"], first["kernel"])
        assert naive["kernel"] == "naive"

    def test_log_alone_mints_trace_ids(self, snapshot):
        """A service with a query log but no tracing still correlates
        records by minted trace ids."""
        stream = io.StringIO()
        service = JoinService(snapshot, query_log=QueryLog(stream))
        service.start()
        try:
            body = service.query("join")
            assert body["trace_id"]
        finally:
            service.drain(timeout_s=5.0)

    def test_refresh_events_logged(self, snapshot):
        stream = io.StringIO()
        service = JoinService(snapshot, query_log=QueryLog(stream))
        service.start()
        try:
            service.refresh()
        finally:
            service.drain(timeout_s=5.0)
        events = [
            record["event"]
            for record in read_log_lines(io.StringIO(stream.getvalue()))
        ]
        assert "snapshot.refresh.started" in events


class TestBitIdentity:
    def test_telemetry_changes_no_query_bytes(self, snapshot):
        """Tracing and logging on or off, the join results are
        bit-identical to the offline oracle."""
        oracle = offline_query(snapshot)
        quiet = JoinService(snapshot)
        noisy = JoinService(
            snapshot,
            tracing=True,
            query_log=QueryLog(io.StringIO(), slow_query_ms=0.0),
        )
        for service in (quiet, noisy):
            service.start()
            try:
                body = service.query("join")
                assert body["fingerprint"] == oracle["fingerprint"]
                assert body["pairs"] == oracle["pairs"]
                assert body["counters"] == oracle["counters"]
            finally:
                service.drain(timeout_s=5.0)


class TestMetricsExporter:
    def test_scrape_serves_prometheus_text(self, snapshot):
        service = JoinService(snapshot)
        service.start()
        exporter = MetricsExporter(service, port=0).start()
        try:
            service.query("join")
            url = f"http://{exporter.host}:{exporter.port}/metrics"
            with urllib.request.urlopen(url) as response:
                assert response.status == 200
                assert response.headers["Content-Type"].startswith(
                    "text/plain; version=0.0.4"
                )
                text = response.read().decode("utf-8")
            assert "service_op_join_latency_ms_bucket" in text
            assert "service_queries_completed 1" in text
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(
                    f"http://{exporter.host}:{exporter.port}/nope"
                )
            assert excinfo.value.code == 404
        finally:
            exporter.stop()
            service.drain(timeout_s=5.0)

    def test_server_owns_exporter_lifecycle(self, snapshot):
        service = JoinService(snapshot)
        service.start()
        server = ServiceServer(service, metrics_port=0).start()
        try:
            port = server.metrics_exporter.port
            with urllib.request.urlopen(
                f"http://{server.host}:{port}/metrics"
            ) as response:
                assert response.status == 200
        finally:
            server.shutdown()
