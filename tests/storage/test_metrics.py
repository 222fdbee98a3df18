"""Tests for cost counters and cost weights."""

import pytest

from repro.storage.metrics import CostCounters, CostWeights, ResilienceCounters


class TestCostWeights:
    def test_paper_main_memory_values(self):
        weights = CostWeights.main_memory()
        assert weights.cpu == 0.5
        assert weights.io == 10.0

    def test_disk_ratio(self):
        weights = CostWeights.disk()
        assert weights.io / weights.cpu == pytest.approx(200.0)

    def test_from_ratio(self):
        weights = CostWeights.from_ratio(0.01)
        assert weights.ratio == pytest.approx(0.01)

    def test_ratio_with_zero_io(self):
        assert CostWeights(cpu=1.0, io=0.0).ratio == float("inf")

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            CostWeights(cpu=-0.1, io=1.0)
        with pytest.raises(ValueError):
            CostWeights.from_ratio(-1.0)

    def test_zero_costs_allowed(self):
        """Section 6.2 explicitly allows c_io >= 0 and c_cpu >= 0."""
        CostWeights(cpu=0.0, io=0.0)

    def test_access_weight(self):
        """The paper's weights price no partition access and serialise
        as they always have; a priced access is non-negative and
        serialised."""
        assert CostWeights.main_memory().access == 0.0
        assert CostWeights.main_memory().as_dict() == {"cpu": 0.5, "io": 10.0}
        with pytest.raises(ValueError):
            CostWeights(cpu=0.5, io=10.0, access=-1.0)
        engine = CostWeights.engine()
        assert min(engine.cpu, engine.io) >= 0.0 and engine.access > 0.0
        assert CostWeights(**engine.as_dict()) == engine


class TestCostCounters:
    def test_initial_state_zero(self):
        counters = CostCounters()
        assert counters.cpu_comparisons == 0
        assert counters.total_ios == 0
        assert counters.false_hit_ratio() == 0.0

    def test_charging(self):
        counters = CostCounters()
        counters.charge_cpu(3)
        counters.charge_read(2)
        counters.charge_write()
        counters.charge_false_hit()
        counters.charge_partition_access(4)
        counters.charge_result(5)
        assert counters.cpu_comparisons == 3
        assert counters.block_reads == 2
        assert counters.block_writes == 1
        assert counters.total_ios == 3
        assert counters.false_hits == 1
        assert counters.partition_accesses == 4
        assert counters.result_tuples == 5

    def test_sequential_random_split(self):
        counters = CostCounters()
        counters.charge_read(sequential=True)
        counters.charge_read(sequential=False)
        counters.charge_read(sequential=False)
        assert counters.sequential_reads == 1
        assert counters.random_reads == 2
        assert counters.block_reads == 3

    def test_false_hit_ratio(self):
        counters = CostCounters()
        counters.charge_result(3)
        counters.charge_false_hit(1)
        assert counters.false_hit_ratio() == pytest.approx(0.25)
        assert counters.fetched_tuples == 4

    def test_modelled_cost(self):
        counters = CostCounters()
        counters.charge_cpu(10)
        counters.charge_read(2)
        weights = CostWeights(cpu=1.0, io=5.0)
        assert counters.modelled_cost(weights) == pytest.approx(20.0)
        counters.charge_partition_access(3)
        priced = CostWeights(cpu=1.0, io=5.0, access=2.0)
        assert counters.modelled_cost(priced) == pytest.approx(26.0)

    def test_extras(self):
        counters = CostCounters()
        counters.charge_extra("migrations", 2)
        counters.charge_extra("migrations")
        assert counters.extras["migrations"] == 3
        assert counters.snapshot()["extra.migrations"] == 3

    def test_extras_namespaced_cannot_shadow_builtins(self):
        """An extra named like a built-in counter must not overwrite the
        built-in's value in the snapshot (regression: extras used to be
        merged un-namespaced)."""
        counters = CostCounters()
        counters.charge_read(2)
        counters.charge_extra("block_reads", 99)
        snap = counters.snapshot()
        assert snap["block_reads"] == 2
        assert snap["extra.block_reads"] == 99

    def test_merged_with(self):
        a = CostCounters()
        a.charge_cpu(1)
        a.charge_extra("duplicates", 2)
        b = CostCounters()
        b.charge_cpu(4)
        b.charge_read()
        b.charge_extra("duplicates", 1)
        b.charge_extra("migrations", 7)
        merged = a.merged_with(b)
        assert merged.cpu_comparisons == 5
        assert merged.block_reads == 1
        assert merged.extras == {"duplicates": 3, "migrations": 7}
        # Sources unchanged.
        assert a.cpu_comparisons == 1

    def test_reset(self):
        counters = CostCounters()
        counters.charge_cpu(5)
        counters.charge_extra("x", 1)
        counters.reset()
        assert counters.cpu_comparisons == 0
        assert counters.extras == {}

    def test_merge_then_reset_sources_independent(self):
        """Merging with non-empty extras on both sides must deep-copy the
        extras: resetting either source afterwards leaves the merged set
        (and the other source) untouched."""
        a = CostCounters()
        a.charge_extra("duplicates", 2)
        a.charge_extra("migrations", 1)
        b = CostCounters()
        b.charge_extra("duplicates", 5)
        b.charge_extra("probes", 4)
        merged = a.merged_with(b)
        assert merged.extras == {
            "duplicates": 7,
            "migrations": 1,
            "probes": 4,
        }
        a.reset()
        b.reset()
        assert merged.extras == {
            "duplicates": 7,
            "migrations": 1,
            "probes": 4,
        }
        assert a.extras == {} and b.extras == {}
        snap = merged.snapshot()
        assert snap["extra.duplicates"] == 7
        assert snap["extra.probes"] == 4

    def test_buffer_hits_not_ios(self):
        counters = CostCounters()
        counters.charge_buffer_hit(3)
        assert counters.total_ios == 0
        assert counters.buffer_hits == 3

    def test_snapshot_keys(self):
        snap = CostCounters().snapshot()
        for key in (
            "cpu_comparisons",
            "block_reads",
            "false_hits",
            "partition_accesses",
            "result_tuples",
        ):
            assert key in snap


class TestCounterSchema:
    """``merge``/``snapshot``/``reset``/``restore`` all follow one field
    tuple per class, in the recorded snapshot key order."""

    def test_snapshot_key_order_is_the_recorded_contract(self):
        assert list(CostCounters().snapshot()) == [
            "cpu_comparisons", "block_reads", "block_writes",
            "sequential_reads", "random_reads", "buffer_hits",
            "false_hits", "partition_accesses", "result_tuples",
        ]
        assert list(ResilienceCounters().snapshot()) == [
            "transient_faults", "corruptions_detected", "retries",
            "backoff_units", "latency_spikes", "checksum_verifications",
            "pool_invalidations", "chunk_retries", "chunk_timeouts",
            "worker_crashes", "sequential_downgrades",
        ]

    @pytest.mark.parametrize("cls", [CostCounters, ResilienceCounters])
    def test_round_trip_merge_and_reset(self, cls):
        counters = cls(**{name: n + 1 for n, name in enumerate(cls.FIELDS)})
        copy = cls.from_snapshot(counters.snapshot())
        assert copy == counters
        copy.merge(counters)
        assert copy.snapshot() == {
            key: 2 * value for key, value in counters.snapshot().items()
        }
        copy.reset()
        assert copy == cls()

    def test_cost_counters_keep_unknown_keys_as_extras(self):
        counters = CostCounters()
        counters.charge_extra("probes", 4)
        counters.charge_extra("block_reads", 9)
        snap = dict(counters.snapshot(), legacy=2)
        restored = CostCounters.from_snapshot(snap)
        assert restored.extras == {"probes": 4, "block_reads": 9, "legacy": 2}
        assert restored.block_reads == 0

    def test_resilience_ignores_keys_that_name_no_field(self):
        # ``recovered`` and ``faults_observed`` are properties and
        # ``STORAGE_FIELDS`` a class constant: none is a counter.
        snap = dict(
            ResilienceCounters(retries=3).snapshot(),
            recovered=1,
            faults_observed=7,
            STORAGE_FIELDS=0,
            unknown=5,
        )
        restored = ResilienceCounters.from_snapshot(snap)
        assert restored == ResilienceCounters(retries=3)
        assert restored.STORAGE_FIELDS == ResilienceCounters.STORAGE_FIELDS

    def test_restore_overwrites_in_place(self):
        target = CostCounters(block_reads=5)
        target.charge_extra("stale")
        target.restore({"cpu_comparisons": 2, "extra.fresh": 1})
        assert target.snapshot() == dict(
            CostCounters(cpu_comparisons=2).snapshot(), **{"extra.fresh": 1}
        )
