"""Batched multi-query execution: correctness, amortisation, lifecycle.

The acceptance properties:

* every windowed query returns exactly the oracle pairs for its window
  (three-way overlap ``max(r.TS, s.TS, W.TS) <= min(r.TE, s.TE, W.TE)``),
  and the union over a tiling of the time range equals the single-query
  join's full result;
* the batch shares **one** OIPCREATE — the trace of a batch run carries
  exactly two ``oipcreate`` spans however many windows follow — and
  decodes each partition at most once across the queries;
* per-query run reports validate against the checked-in schema, also
  when one input side is empty;
* governor, admission and cancellation flow through per query.
"""

import json
import random
from collections import Counter

import pytest

from repro.core.interval import Interval
from repro.core.join import OIPJoin
from repro.core.kernels import numpy_available
from repro.core.oip import OIPConfiguration
from repro.core.relation import TemporalRelation
from repro.engine.batch import BatchJoin, BatchResult, equal_windows
from repro.engine.governor import (
    BudgetExceededError,
    CancellationToken,
    QueryBudget,
)
from repro.obs.registry import MetricsRegistry
from repro.obs.report import validate_report
from repro.obs.trace import Tracer

from ..conftest import probe_decodes, random_relation


def windowed_oracle(outer, inner, window):
    """Sorted canonical keys of every pair overlapping inside *window*."""
    keys = []
    for r in outer:
        for s in inner:
            if max(r.start, s.start, window.start) <= min(
                r.end, s.end, window.end
            ):
                keys.append(
                    (r.start, r.end, r.payload, s.start, s.end, s.payload)
                )
    return sorted(keys)


def count_spans(span, name):
    total = 1 if span.name == name else 0
    return total + sum(count_spans(child, name) for child in span.children)


@pytest.fixture(scope="module")
def relations():
    rng = random.Random(20140608)
    outer = random_relation(rng, 200, range_size=2_000, name="r")
    inner = random_relation(rng, 180, range_size=2_000, name="s")
    return outer, inner


class TestEqualWindows:
    def test_tiles_the_range_exactly(self):
        windows = equal_windows(Interval(1, 100), 7)
        assert len(windows) == 7
        assert windows[0].start == 1
        assert windows[-1].end == 100
        for before, after in zip(windows, windows[1:]):
            assert after.start == before.end + 1
        # duration 100 = 7*14 + 2: the first two windows are longer.
        assert [w.duration for w in windows] == [15, 15, 14, 14, 14, 14, 14]

    def test_single_window_is_the_range(self):
        assert equal_windows(Interval(5, 9), 1) == [Interval(5, 9)]

    def test_exact_division(self):
        windows = equal_windows(Interval(0, 99), 4)
        assert [w.duration for w in windows] == [25, 25, 25, 25]

    def test_rejects_zero_count(self):
        with pytest.raises(ValueError, match=">= 1"):
            equal_windows(Interval(1, 10), 0)

    def test_rejects_more_windows_than_points(self):
        with pytest.raises(ValueError, match="non-empty"):
            equal_windows(Interval(1, 3), 5)


class TestClampedQueryIndices:
    CONFIG = OIPConfiguration(k=4, d=10, o=0)  # granules [0,9]..[30,39]

    def test_interior_query(self):
        assert self.CONFIG.clamped_query_indices(Interval(12, 27)) == (1, 2)

    def test_clamps_to_grid(self):
        assert self.CONFIG.clamped_query_indices(Interval(-50, 500)) == (0, 3)

    def test_disjoint_left_and_right(self):
        assert self.CONFIG.clamped_query_indices(Interval(-20, -1)) is None
        assert self.CONFIG.clamped_query_indices(Interval(40, 99)) is None

    def test_boundary_points(self):
        assert self.CONFIG.clamped_query_indices(Interval(0, 0)) == (0, 0)
        assert self.CONFIG.clamped_query_indices(Interval(39, 39)) == (3, 3)
        assert self.CONFIG.clamped_query_indices(Interval(-5, 0)) == (0, 0)


class TestBatchCorrectness:
    def test_each_query_matches_windowed_oracle(self, relations):
        outer, inner = relations
        windows = equal_windows(outer.time_range, 5)
        result = BatchJoin().run(outer, inner, windows)
        assert isinstance(result, BatchResult)
        assert result.completed
        assert len(result.queries) == 5
        for window, query in zip(windows, result.queries):
            assert query.pair_keys() == windowed_oracle(outer, inner, window)
            assert query.details["shared_partitioning"] is True

    def test_union_over_tiling_equals_full_join(self, relations):
        outer, inner = relations
        full = OIPJoin().join(outer, inner)
        result = BatchJoin().run(
            outer, inner, equal_windows(outer.time_range, 7)
        )
        union = sorted(
            key
            for query in result.queries
            for key in set(query.pair_keys())
        )
        # Windows tile the range, so dedup of the per-window results is
        # exactly the unwindowed join.
        assert sorted(set(union)) == full.pair_keys()

    def test_disjoint_window_returns_nothing(self, relations):
        outer, inner = relations
        far = Interval(outer.time_range.end + 1_000,
                       outer.time_range.end + 2_000)
        result = BatchJoin().run(outer, inner, [far])
        assert result.total_pairs == 0
        assert result.queries[0].completed

    def test_empty_input_side(self, relations):
        outer, _ = relations
        empty = TemporalRelation.from_records([], name="empty")
        windows = [Interval(1, 10), Interval(11, 20)]
        result = BatchJoin().run(outer, empty, windows)
        assert result.completed
        assert len(result.queries) == 2
        assert result.total_pairs == 0

    def test_rejects_empty_window_list(self, relations):
        outer, inner = relations
        with pytest.raises(ValueError, match="at least one window"):
            BatchJoin().run(outer, inner, [])


class TestSharedPartitioning:
    """The amortisation acceptance criterion: one OIPCREATE, one cache."""

    def test_exactly_two_oipcreate_spans(self, relations):
        outer, inner = relations
        tracer = Tracer()
        windows = equal_windows(outer.time_range, 6)
        BatchJoin(tracer=tracer).run(outer, inner, windows)
        root = tracer.roots[-1]
        assert root.name == "batch"
        assert count_spans(root, "oipcreate") == 2
        assert count_spans(root, "query") == 6

    def test_one_oipcreate_regardless_of_window_count(self, relations):
        outer, inner = relations
        counts = {}
        for n in (1, 4):
            tracer = Tracer()
            BatchJoin(tracer=tracer).run(
                outer, inner, equal_windows(outer.time_range, n)
            )
            counts[n] = count_spans(tracer.roots[-1], "oipcreate")
        assert counts == {1: 2, 4: 2}

    def test_decode_cache_shared_across_queries(self, relations, decode_log):
        outer, inner = relations
        windows = equal_windows(outer.time_range, 4)
        result = BatchJoin().run(outer, inner, windows)
        # Later queries re-probe partitions decoded by earlier ones and
        # reuse those decodes: no partition is decoded twice.
        details = result.details
        assert Counter(decode_log) == probe_decodes(
            outer, inner, details["k_outer"], details["k_inner"], windows
        )

    def test_build_cost_charged_once(self, relations):
        outer, inner = relations
        one = BatchJoin().run(outer, inner, [outer.time_range])
        many = BatchJoin().run(
            outer, inner, equal_windows(outer.time_range, 5)
        )
        assert (
            many.build_counters.snapshot() == one.build_counters.snapshot()
        )


class TestBatchReports:
    def test_per_query_reports_validate(self, relations):
        outer, inner = relations
        windows = equal_windows(outer.time_range, 3)
        result = BatchJoin(collect_report=True).run(outer, inner, windows)
        assert len(result.queries) == 3
        for query in result.queries:
            assert query.report is not None
            validate_report(query.report)  # raises on violation
            assert query.report["algorithm"] == "oip.batch"
            assert query.report["result"]["pairs"] == len(query.pairs)
            # The phase table is rooted at the query span.
            phases = {row["name"] for row in query.report["phases"]}
            assert "probe" in phases

    def test_empty_side_still_reports_and_publishes(self, relations):
        outer, _ = relations
        empty = TemporalRelation.from_records([], name="empty")
        metrics = MetricsRegistry()
        windows = [Interval(1, 10), Interval(11, 20)]
        result = BatchJoin(collect_report=True, metrics=metrics).run(
            outer, empty, windows
        )
        assert len(result.queries) == 2
        for query in result.queries:
            validate_report(query.report)  # raises on violation
            assert query.report["result"]["pairs"] == 0
        counters = metrics.snapshot()["counters"]
        assert counters["join.counters.result_tuples"] == 0

    def test_reports_off_by_default(self, relations):
        outer, inner = relations
        result = BatchJoin().run(outer, inner, [outer.time_range])
        assert all(query.report is None for query in result.queries)

    def test_metrics_flow_per_query(self, relations):
        outer, inner = relations
        metrics = MetricsRegistry()
        result = BatchJoin(metrics=metrics).run(
            outer, inner, equal_windows(outer.time_range, 3)
        )
        snapshot = metrics.snapshot()
        assert (
            snapshot["counters"]["join.counters.result_tuples"]
            == result.total_pairs
        )
        assert snapshot["counters"]["batch.build.block_writes"] > 0


class TestBatchLifecycle:
    def test_cancellation_stops_the_batch(self, relations):
        outer, inner = relations
        token = CancellationToken(cancel_after_checks=6)
        windows = equal_windows(outer.time_range, 5)
        result = BatchJoin(cancellation=token, collect_report=True).run(
            outer, inner, windows
        )
        assert not result.completed
        assert result.details["cancelled"] is True
        assert len(result.queries) < len(windows)
        partial = result.queries[-1]
        assert not partial.completed
        assert partial.details["cancelled"] is True
        # The partial query still gets a schema-valid report carrying
        # the governor section.
        validate_report(partial.report)
        assert partial.report["governor"]["cancelled"] is True

    def test_budget_is_per_query(self, relations):
        outer, inner = relations
        with pytest.raises(BudgetExceededError):
            BatchJoin(budget=QueryBudget(max_comparisons=50)).run(
                outer, inner, equal_windows(outer.time_range, 3)
            )
        # A budget generous enough for any single window passes even if
        # the *sum* over windows exceeds it — it restarts per query.
        full = BatchJoin().run(
            outer, inner, equal_windows(outer.time_range, 4)
        )
        per_query = max(
            query.counters.cpu_comparisons for query in full.queries
        )
        total = sum(
            query.counters.cpu_comparisons for query in full.queries
        )
        assert total > per_query
        result = BatchJoin(
            budget=QueryBudget(max_comparisons=per_query)
        ).run(outer, inner, equal_windows(outer.time_range, 4))
        assert result.completed

    def test_constructor_validation(self):
        with pytest.raises(ValueError, match="kernel"):
            BatchJoin(kernel="bogus")
        with pytest.raises(ValueError, match="k must be"):
            BatchJoin(k=0)


class TestBatchCli:
    JOIN = ["join", "--workload", "mixture", "--cardinality", "200"]

    def test_batch_report_path(self):
        from repro.cli import _batch_report_path

        assert _batch_report_path("run.json", 2) == "run.q2.json"
        assert _batch_report_path("out/run.report.json", 0) == (
            "out/run.report.q0.json"
        )
        assert _batch_report_path("noext", 1) == "noext.q1"

    def test_batch_runs_and_summarises(self, capsys):
        from repro.cli import main

        assert main(self.JOIN + ["--batch", "3"]) == 0
        out = capsys.readouterr().out
        assert out.count("query ") == 3
        assert "one shared partitioning" in out
        assert "3/3 queries" in out

    def test_batch_matches_full_join_totals(self, capsys):
        from repro.cli import main

        assert main(self.JOIN + ["--seed", "11"]) == 0
        full = capsys.readouterr().out
        full_pairs = int(
            full.splitlines()[0].split(":")[1].split("result pairs")[0]
            .strip().replace(",", "")
        )
        assert main(self.JOIN + ["--seed", "11", "--batch", "1"]) == 0
        batch = capsys.readouterr().out
        assert f"oip.batch: {full_pairs:,} result pairs" in batch

    def test_batch_with_numpy_kernel(self, capsys):
        from repro.cli import main

        if not numpy_available():
            pytest.skip("numpy is not installed")
        assert main(self.JOIN + ["--batch", "2", "--kernel", "numpy"]) == 0
        assert "kernel: numpy" in capsys.readouterr().out

    def test_batch_per_query_reports(self, tmp_path, capsys):
        from repro.cli import main
        from repro.obs.report import load_report

        path = str(tmp_path / "batch.json")
        assert main(self.JOIN + ["--batch", "2", "--report", path]) == 0
        for index in range(2):
            report = load_report(str(tmp_path / f"batch.q{index}.json"))
            assert report["algorithm"] == "oip.batch"

    def test_batch_json_mode_is_report_array(self, capsys):
        from repro.cli import main

        assert main(self.JOIN + ["--batch", "2", "--json"]) == 0
        reports = json.loads(capsys.readouterr().out)
        assert isinstance(reports, list) and len(reports) == 2
        for report in reports:
            assert report["algorithm"] == "oip.batch"

    def test_batch_rejected_for_other_algorithms(self):
        from repro.cli import main

        with pytest.raises(SystemExit, match="oip"):
            main(self.JOIN + ["--algorithm", "smj", "--batch", "2"])

    def test_batch_zero_rejected(self):
        from repro.cli import main

        with pytest.raises(SystemExit, match=">= 1"):
            main(self.JOIN + ["--batch", "0"])

    def test_batch_incompatible_flags_rejected(self):
        from repro.cli import main

        with pytest.raises(SystemExit, match="--index"):
            main(self.JOIN + ["--batch", "2", "--index", "x.oip"])
        with pytest.raises(SystemExit, match="--checkpoint"):
            main(self.JOIN + ["--batch", "2", "--checkpoint", "x.json"])

    def test_batch_budget_exit_75(self, capsys):
        from repro.cli import main

        code = main(
            self.JOIN + ["--batch", "3", "--max-comparisons", "100"]
        )
        assert code == 75
        assert "per-query budget exceeded" in capsys.readouterr().out
