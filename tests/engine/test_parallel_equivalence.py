"""Differential tests: the parallel OIPJOIN must be *bit-identical* to
the sequential OIPJOIN — same result pairs in the same order, and the
same cost counters field by field — on every workload, backend and
worker count.  This is the contract that lets the planner switch to the
partition-pair scheduler without changing any paper semantics (AFR/APA
accounting included)."""

from __future__ import annotations

import pytest

from repro import TemporalRelation
from repro.core.interval import Interval
from repro.core.join import OIPJoin
from repro.engine.parallel import build_probe_schedule, execute_schedule
from repro.storage.buffer import BufferPool
from repro.workloads import long_lived_mixture, point_relation, uniform_relation

TIME_RANGE = Interval(1, 2**16)


def _workload(kind: str):
    """Synthetic outer/inner pairs covering the paper's regimes."""
    if kind == "short":
        return (
            uniform_relation(250, TIME_RANGE, 0.001, seed=11, name="r"),
            uniform_relation(250, TIME_RANGE, 0.001, seed=12, name="s"),
        )
    if kind == "long":
        return (
            long_lived_mixture(250, 0.8, TIME_RANGE, seed=13, name="r"),
            long_lived_mixture(250, 0.8, TIME_RANGE, seed=14, name="s"),
        )
    if kind == "mixed":
        return (
            long_lived_mixture(250, 0.3, TIME_RANGE, seed=15, name="r"),
            long_lived_mixture(250, 0.3, TIME_RANGE, seed=16, name="s"),
        )
    if kind == "points":
        return (
            point_relation(250, TIME_RANGE, seed=17, name="r"),
            point_relation(250, TIME_RANGE, seed=18, name="s"),
        )
    raise AssertionError(kind)


def assert_identical(sequential, parallel):
    """The full bit-identical contract, not just set equality."""
    assert parallel.pairs == sequential.pairs  # same pairs, same order
    assert (
        parallel.counters.snapshot() == sequential.counters.snapshot()
    ), "merged worker counters must reproduce the sequential totals"


WORKLOADS = ("short", "long", "mixed", "points")


class TestDifferentialEquivalence:
    @pytest.mark.parametrize("kind", WORKLOADS)
    @pytest.mark.parametrize("workers", (1, 2, 3))
    def test_thread_backend(self, kind, workers):
        outer, inner = _workload(kind)
        sequential = OIPJoin().join(outer, inner)
        parallel = OIPJoin(
            parallelism=workers, parallel_backend="thread"
        ).join(outer, inner)
        assert_identical(sequential, parallel)

    @pytest.mark.parametrize("kind", ("long", "mixed"))
    def test_process_backend(self, kind):
        outer, inner = _workload(kind)
        sequential = OIPJoin().join(outer, inner)
        parallel = OIPJoin(
            parallelism=2, parallel_backend="process"
        ).join(outer, inner)
        assert_identical(sequential, parallel)

    @pytest.mark.parametrize("workers", (1, 4))
    def test_pinned_k_equals_one(self, workers):
        """k = 1: a single partition per side, one probe task."""
        outer, inner = _workload("mixed")
        sequential = OIPJoin(k=1).join(outer, inner)
        parallel = OIPJoin(k=1, parallelism=workers).join(outer, inner)
        assert_identical(sequential, parallel)
        assert parallel.details["probe_tasks"] == 1
        assert parallel.details["partition_pairs"] == 1

    def test_tiny_chunk_size(self):
        """One task per chunk still merges deterministically."""
        outer, inner = _workload("mixed")
        sequential = OIPJoin().join(outer, inner)
        parallel = OIPJoin(parallelism=3, parallel_chunk_size=1).join(
            outer, inner
        )
        assert_identical(sequential, parallel)

    def test_empty_relations(self):
        outer, inner = _workload("short")
        empty = TemporalRelation([], name="empty")
        join = OIPJoin(parallelism=2)
        assert join.join(empty, inner).pairs == []
        assert join.join(outer, empty).pairs == []
        assert join.join(empty, empty).pairs == []

    def test_single_tuple_relations(self):
        outer = TemporalRelation.from_records([(5, 9, "a")], name="r")
        inner = TemporalRelation.from_records([(8, 12, "b")], name="s")
        sequential = OIPJoin().join(outer, inner)
        parallel = OIPJoin(parallelism=4, parallel_backend="process").join(
            outer, inner
        )
        assert_identical(sequential, parallel)
        assert len(parallel.pairs) == 1

    def test_disjoint_time_ranges(self):
        """Outer probes that fail the Algorithm-2 range guard still charge
        their reads and guard comparisons identically."""
        outer = TemporalRelation.from_pairs(
            [(i, i + 3) for i in range(1, 50, 5)], name="r"
        )
        inner = TemporalRelation.from_pairs(
            [(i, i + 3) for i in range(1000, 1050, 5)], name="s"
        )
        sequential = OIPJoin().join(outer, inner)
        parallel = OIPJoin(parallelism=2).join(outer, inner)
        assert_identical(sequential, parallel)
        assert parallel.pairs == []


class TestParallelConfiguration:
    def test_invalid_parallelism_rejected(self):
        with pytest.raises(ValueError):
            OIPJoin(parallelism=0)
        with pytest.raises(ValueError):
            OIPJoin(parallelism=-2)

    def test_invalid_backend_rejected(self):
        with pytest.raises(ValueError):
            OIPJoin(parallelism=2, parallel_backend="greenlet")

    def test_invalid_chunk_size_rejected(self):
        with pytest.raises(ValueError):
            OIPJoin(parallelism=2, parallel_chunk_size=0)

    def test_details_report_schedule(self):
        outer, inner = _workload("mixed")
        result = OIPJoin(parallelism=2).join(outer, inner)
        assert result.details["parallelism"] == 2
        assert result.details["parallel_backend"] == "thread"
        assert result.details["probe_tasks"] == result.details[
            "outer_partitions"
        ]
        assert (
            result.details["partition_pairs"]
            == result.counters.partition_accesses
        )

    def test_buffer_pool_falls_back_to_sequential(self):
        """Pool-hit accounting depends on global read order, so the
        parallel path is skipped — correctly and visibly."""
        outer, inner = _workload("mixed")
        sequential = OIPJoin(buffer_pool=BufferPool(capacity_blocks=64)).join(
            outer, inner
        )
        parallel = OIPJoin(
            buffer_pool=BufferPool(capacity_blocks=64), parallelism=4
        ).join(outer, inner)
        assert_identical(sequential, parallel)
        assert parallel.details["parallel_fallback"] == "buffer_pool"


class TestScheduleEnumeration:
    def test_schedule_matches_lemma1_navigation(self):
        """The up-front pair enumeration must touch exactly the partitions
        iter_relevant (Lemma 1) yields for each outer partition query."""
        from repro.core.lazy_list import oip_create
        from repro.core.oip import OIPConfiguration
        from repro.storage.manager import StorageManager
        from repro.storage.metrics import CostCounters

        outer, inner = _workload("mixed")
        k = 8
        config_r = OIPConfiguration.for_relation(outer, k)
        config_s = OIPConfiguration.for_relation(inner, k)
        storage = StorageManager()
        outer_list = oip_create(outer, config_r, storage)
        inner_list = oip_create(inner, config_s, storage)

        schedule = build_probe_schedule(
            outer_list, inner_list, k, CostCounters()
        )
        assert schedule.task_count == outer_list.partition_count
        assert schedule.pair_count == sum(
            len(task.inner) for task in schedule.tasks
        )

        inner_range_stop = config_s.o + k * config_s.d
        for task, outer_node in zip(
            schedule.tasks, outer_list.iter_nodes()
        ):
            assert task.outer is outer_node
            query = config_r.partition_interval(outer_node.i, outer_node.j)
            if query.end < config_s.o or query.start >= inner_range_stop:
                expected = []
                # Only Algorithm 2's range-overlap guard is charged.
                assert task.nav_cpu == 2
            else:
                s, e = config_s.query_indices(query)
                expected = [
                    (node.i, node.j)
                    for node in inner_list.iter_relevant(s, e)
                ]
            scheduled = [(node.i, node.j) for node in task.inner]
            assert scheduled == expected

    def test_execute_schedule_validates_arguments(self):
        from repro.core.lazy_list import oip_create
        from repro.core.oip import OIPConfiguration
        from repro.storage.manager import StorageManager
        from repro.storage.metrics import CostCounters

        outer, inner = _workload("short")
        config = OIPConfiguration.for_relation(outer, 4)
        storage = StorageManager()
        outer_list = oip_create(outer, config, storage)
        inner_list = oip_create(
            inner, OIPConfiguration.for_relation(inner, 4), storage
        )
        schedule = build_probe_schedule(
            outer_list, inner_list, 4, CostCounters()
        )
        with pytest.raises(ValueError):
            execute_schedule(schedule, CostCounters(), [], workers=0)
        with pytest.raises(ValueError):
            execute_schedule(
                schedule, CostCounters(), [], workers=2, backend="fiber"
            )
