"""Tests for the OIPJOIN algorithm (Section 6.1, Algorithm 2,
Example 7 / Figure 1)."""

import random

import pytest

from repro.core.join import OIPJoin
from repro.storage.buffer import BufferPool
from repro.storage.device import DeviceProfile
from tests.conftest import oracle_pairs, random_relation


class TestPaperExample:
    """Figure 1: five inner partitions accessed, three false hits,
    eight result tuples."""

    def test_result_pairs(self, paper_r, paper_s):
        result = OIPJoin(k=4).join(paper_r, paper_s)
        pairs = sorted((a.payload, b.payload) for a, b in result.pairs)
        assert pairs == [
            ("r1", "s3"),
            ("r1", "s4"),
            ("r1", "s5"),
            ("r2", "s4"),
            ("r2", "s6"),
            ("r3", "s4"),
            ("r3", "s6"),
            ("r3", "s7"),
        ]

    def test_false_hits(self, paper_r, paper_s):
        result = OIPJoin(k=4).join(paper_r, paper_s)
        assert result.counters.false_hits == 3

    def test_partition_accesses(self, paper_r, paper_s):
        result = OIPJoin(k=4).join(paper_r, paper_s)
        assert result.counters.partition_accesses == 5

    def test_configurations(self, paper_r, paper_s):
        result = OIPJoin(k=4).join(paper_r, paper_s)
        assert result.details["granule_duration_outer"] == 2
        assert result.details["granule_duration_inner"] == 3
        assert result.details["outer_partitions"] == 2
        assert result.details["inner_partitions"] == 5

    def test_result_counter_matches(self, paper_r, paper_s):
        result = OIPJoin(k=4).join(paper_r, paper_s)
        assert result.counters.result_tuples == 8
        assert result.cardinality == 8


class TestCorrectness:
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_oracle_random(self, seed):
        rng = random.Random(seed)
        outer = random_relation(rng, rng.randint(1, 120), 600, 80, "r")
        inner = random_relation(rng, rng.randint(1, 120), 600, 80, "s")
        result = OIPJoin().join(outer, inner)
        assert result.pair_keys() == oracle_pairs(outer, inner)

    @pytest.mark.parametrize("k", [1, 2, 3, 7, 16, 100])
    def test_any_pinned_k_is_correct(self, k, paper_r, paper_s):
        result = OIPJoin(k=k).join(paper_r, paper_s)
        assert result.pair_keys() == oracle_pairs(paper_r, paper_s)

    def test_disjoint_time_ranges_give_empty_result(self):
        from repro import TemporalRelation

        early = TemporalRelation.from_pairs([(0, 5), (3, 9)])
        late = TemporalRelation.from_pairs([(100, 110), (105, 106)])
        result = OIPJoin().join(early, late)
        assert result.pairs == []

    def test_empty_inputs(self, paper_s):
        from repro import TemporalRelation

        empty = TemporalRelation([])
        assert OIPJoin().join(empty, paper_s).pairs == []
        assert OIPJoin().join(paper_s, empty).pairs == []
        assert OIPJoin().join(empty, empty).pairs == []

    def test_self_join(self, paper_s):
        result = OIPJoin().join(paper_s, paper_s)
        assert result.pair_keys() == oracle_pairs(paper_s, paper_s)

    def test_identical_intervals(self):
        from repro import TemporalRelation

        left = TemporalRelation.from_pairs([(5, 5)] * 4)
        right = TemporalRelation.from_pairs([(5, 5)] * 3)
        result = OIPJoin().join(left, right)
        assert len(result.pairs) == 12

    def test_single_point_relations(self):
        from repro import TemporalRelation

        left = TemporalRelation.from_pairs([(7, 7)])
        right = TemporalRelation.from_pairs([(7, 7)])
        assert len(OIPJoin().join(left, right).pairs) == 1

    def test_outer_range_larger_than_inner(self):
        from repro import TemporalRelation

        outer = TemporalRelation.from_pairs([(0, 1000), (500, 501)])
        inner = TemporalRelation.from_pairs([(400, 450)])
        result = OIPJoin().join(outer, inner)
        assert result.pair_keys() == oracle_pairs(outer, inner)


class TestSelfAdjustment:
    def test_k_derived_when_not_pinned(self, paper_r, paper_s):
        result = OIPJoin().join(paper_r, paper_s)
        assert result.details["self_adjusting"] is True
        assert result.details["k"] >= 1
        assert "k_derivation_steps" in result.details

    def test_pinned_k_reported(self, paper_r, paper_s):
        result = OIPJoin(k=4).join(paper_r, paper_s)
        assert result.details["self_adjusting"] is False
        assert result.details["k"] == 4

    def test_k_capped_by_time_range(self):
        from repro import TemporalRelation

        outer = TemporalRelation.from_pairs([(0, 3), (1, 2)])
        inner = TemporalRelation.from_pairs([(0, 3), (2, 3)])
        result = OIPJoin(k=1000).join(outer, inner)
        assert result.details["k"] <= 4

    def test_invalid_pinned_k_rejected(self):
        with pytest.raises(ValueError):
            OIPJoin(k=0)


class TestCostAccounting:
    def test_more_granules_fewer_false_hits(self):
        rng = random.Random(11)
        outer = random_relation(rng, 150, 2000, 200, "r")
        inner = random_relation(rng, 150, 2000, 200, "s")
        coarse = OIPJoin(k=2).join(outer, inner)
        fine = OIPJoin(k=64).join(outer, inner)
        assert fine.counters.false_hits < coarse.counters.false_hits

    def test_more_granules_more_partition_accesses(self):
        rng = random.Random(11)
        outer = random_relation(rng, 150, 2000, 200, "r")
        inner = random_relation(rng, 150, 2000, 200, "s")
        coarse = OIPJoin(k=2).join(outer, inner)
        fine = OIPJoin(k=64).join(outer, inner)
        assert (
            fine.counters.partition_accesses
            > coarse.counters.partition_accesses
        )

    def test_block_reads_charged(self, paper_r, paper_s):
        result = OIPJoin(k=4).join(paper_r, paper_s)
        assert result.counters.block_reads > 0

    def test_buffer_pool_absorbs_repeated_partition_reads(self):
        rng = random.Random(5)
        outer = random_relation(rng, 100, 500, 50, "r")
        inner = random_relation(rng, 100, 500, 50, "s")
        uncached = OIPJoin(k=8).join(outer, inner)
        cached = OIPJoin(
            k=8, buffer_pool=BufferPool(capacity_blocks=10_000)
        ).join(outer, inner)
        assert cached.counters.block_reads < uncached.counters.block_reads
        assert cached.counters.buffer_hits > 0

    def test_false_hit_ratio_property(self, paper_r, paper_s):
        result = OIPJoin(k=4).join(paper_r, paper_s)
        assert result.false_hit_ratio == pytest.approx(3 / 11)

    def test_modelled_cost_positive(self, paper_r, paper_s):
        from repro.storage.metrics import CostWeights

        result = OIPJoin(k=4).join(paper_r, paper_s)
        assert result.modelled_cost(CostWeights.main_memory()) > 0

    def test_disk_device_profile_works(self, paper_r, paper_s):
        result = OIPJoin(device=DeviceProfile.disk()).join(paper_r, paper_s)
        assert result.pair_keys() == oracle_pairs(paper_r, paper_s)


class TestPerSideGranuleCounts:
    """Section 6.2's k_r = k_s argument: asymmetric counts are supported
    (for the ablation) and always correct."""

    @pytest.mark.parametrize("k_outer,k_inner", [(1, 16), (16, 1), (3, 7)])
    def test_asymmetric_counts_correct(self, k_outer, k_inner, paper_r, paper_s):
        join = OIPJoin(k_outer=k_outer, k_inner=k_inner)
        result = join.join(paper_r, paper_s)
        assert result.pair_keys() == oracle_pairs(paper_r, paper_s)

    def test_asymmetric_counts_reported(self, paper_r, paper_s):
        result = OIPJoin(k_outer=2, k_inner=3).join(paper_r, paper_s)
        assert result.details["k_outer"] == 2
        assert result.details["k_inner"] == 3
        # ``k`` keeps one shape: the inner (navigated) side's count.
        assert result.details["k"] == 3
        assert result.details["self_adjusting"] is False

    def test_equal_counts_report_single_k(self, paper_r, paper_s):
        result = OIPJoin(k_outer=4, k_inner=4).join(paper_r, paper_s)
        assert result.details["k"] == 4
        assert result.details["k_outer"] == result.details["k_inner"] == 4

    def test_must_pass_both_sides(self):
        with pytest.raises(ValueError):
            OIPJoin(k_outer=4)
        with pytest.raises(ValueError):
            OIPJoin(k_inner=4)

    def test_exclusive_with_shared_k(self):
        with pytest.raises(ValueError):
            OIPJoin(k=4, k_outer=4, k_inner=4)

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            OIPJoin(k_outer=0, k_inner=4)

    def test_balanced_beats_skewed_on_overhead(self):
        """The paper's argument at reduced scale: with k_r*k_s fixed,
        the balanced split produces the fewest false hits."""
        rng = random.Random(17)
        outer = random_relation(rng, 200, 5000, 250, "r")
        inner = random_relation(rng, 200, 5000, 250, "s")
        balanced = OIPJoin(k_outer=16, k_inner=16).join(outer, inner)
        skewed = OIPJoin(k_outer=2, k_inner=128).join(outer, inner)
        assert balanced.pair_keys() == skewed.pair_keys()
        assert (
            balanced.counters.false_hits < skewed.counters.false_hits
        )
