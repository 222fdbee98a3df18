"""Tests for run-report building, schema validation and persistence."""

import json
import os

import pytest

from repro import MetricsRegistry, OIPJoin, TemporalRelation, Tracer
from repro.obs.report import (
    REPORT_VERSION,
    ReportValidationError,
    build_report,
    dumps_report,
    load_report,
    load_schema,
    phase_table,
    validate_report,
    write_report,
)
from repro.obs.trace import Tracer as RawTracer


def small_inputs():
    outer = TemporalRelation.from_records(
        [(1, 10, "a"), (4, 8, "b"), (2, 3, "c"), (7, 20, "d")], name="outer"
    )
    inner = TemporalRelation.from_records(
        [(5, 12, "x"), (1, 2, "y"), (15, 18, "z")], name="inner"
    )
    return outer, inner


def traced_run(**kwargs):
    outer, inner = small_inputs()
    algorithm = OIPJoin(collect_report=True, **kwargs)
    return algorithm.join(outer, inner)


class TestBuildReport:
    def test_report_shape_and_schema(self):
        result = traced_run()
        report = result.report
        assert report is not None
        assert report["version"] == REPORT_VERSION
        assert report["algorithm"] == "oip"
        assert report["completed"] is True
        assert report["elapsed_ms"] == result.elapsed_ms > 0
        assert report["result"]["pairs"] == len(result.pairs)
        assert report["counters"] == result.counters.snapshot()
        assert report["resilience"] == result.resilience.snapshot()
        assert report["config"]["device"] == "main-memory"
        assert set(report["config"]["weights"]) == {"cpu", "io"}
        validate_report(report)

    def test_phases_follow_execution_order(self):
        report = traced_run().report
        names = [phase["name"] for phase in report["phases"]]
        assert names == ["derive_k", "oipcreate", "probe"]
        oipcreate = report["phases"][1]
        assert oipcreate["spans"] == 2  # outer + inner side aggregated
        assert all(phase["duration_ms"] >= 0 for phase in report["phases"])

    def test_trace_section_counts_spans(self):
        result = traced_run()
        trace = result.report["trace"]
        assert trace["spans"] >= 4  # join, derive_k, 2x oipcreate, probe...
        assert trace["root"]["name"] == "join"
        assert trace["root"]["attributes"]["algorithm"] == "oip"

    def test_external_tracer_is_used(self):
        outer, inner = small_inputs()
        tracer = Tracer()
        result = OIPJoin(tracer=tracer, collect_report=True).join(outer, inner)
        assert result.report["trace"]["spans"] == tracer.span_count
        assert tracer.last_root.name == "join"

    def test_metrics_section_present_when_registry_attached(self):
        result = traced_run(metrics=MetricsRegistry())
        metrics = result.report["metrics"]
        assert metrics is not None
        assert metrics["counters"]["join.counters.result_tuples"] == len(
            result.pairs
        )
        validate_report(result.report)

    def test_metrics_section_null_without_registry(self):
        assert traced_run().report["metrics"] is None

    def test_json_serializable(self):
        json.dumps(traced_run().report)


class TestPhaseTable:
    def test_empty_for_none(self):
        assert phase_table(None) == []

    def test_aggregates_repeated_names(self):
        tracer = RawTracer()
        with tracer.span("join"):
            with tracer.span("oipcreate"):
                pass
            with tracer.span("oipcreate"):
                pass
            with tracer.span("probe"):
                pass
        rows = phase_table(tracer.last_root)
        assert [row["name"] for row in rows] == ["oipcreate", "probe"]
        assert rows[0]["spans"] == 2
        assert rows[1]["spans"] == 1


class TestPersistence:
    def test_write_load_round_trip(self, tmp_path):
        report = traced_run().report
        path = str(tmp_path / "run.json")
        assert write_report(report, path) == path
        assert load_report(path) == report
        assert not os.path.exists(path + ".tmp")  # atomic: tmp renamed away

    def test_file_bytes_match_dumps(self, tmp_path):
        """--json stdout and --report file share one serialization."""
        report = traced_run().report
        path = str(tmp_path / "run.json")
        write_report(report, path)
        with open(path, "r", encoding="utf-8") as handle:
            assert handle.read() == dumps_report(report)

    def test_load_rejects_invalid(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"version": 1}))
        with pytest.raises(ReportValidationError):
            load_report(str(path))


class TestValidation:
    def test_schema_loads_and_caches(self):
        schema = load_schema()
        assert schema is load_schema()
        assert "version" in schema["required"]

    def test_missing_required_key(self):
        report = traced_run().report
        broken = dict(report)
        del broken["counters"]
        with pytest.raises(ReportValidationError, match="counters"):
            validate_report(broken)

    def test_wrong_version_rejected(self):
        report = dict(traced_run().report)
        report["version"] = 99
        with pytest.raises(ReportValidationError, match="version"):
            validate_report(report)

    def test_non_integer_counter_rejected(self):
        report = traced_run().report
        broken = dict(report)
        broken["counters"] = dict(report["counters"])
        broken["counters"]["block_reads"] = "many"
        with pytest.raises(ReportValidationError, match="block_reads"):
            validate_report(broken)

    def test_negative_phase_duration_rejected(self):
        report = traced_run().report
        broken = dict(report)
        broken["phases"] = [
            {"name": "probe", "duration_ms": -1.0, "spans": 1}
        ]
        with pytest.raises(ReportValidationError, match="minimum"):
            validate_report(broken)

    def test_unexpected_top_level_key_rejected(self):
        report = dict(traced_run().report)
        report["surprise"] = True
        with pytest.raises(ReportValidationError, match="surprise"):
            validate_report(report)



    def test_legacy_execution_key_still_validates(self):
        # Reports never write "execution", but the schema still accepts
        # it so that older reports carrying one keep loading.
        report = dict(traced_run().report)
        assert "execution" not in report
        report["execution"] = {"backend": "thread", "workers": 2}
        validate_report(report)
