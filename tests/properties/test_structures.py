"""Property-based tests for the substrates: B+-tree, segment tree, RIT
backbone, buffer pool and the AFR/APA analysis identities."""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.analysis.afr import (
    partition_views_from_lazy_list,
    sum_false_hit_ratio,
)
from repro.analysis.apa import access_count, access_count_enumerated
from repro.btree import BPlusTree
from repro.core.lazy_list import oip_create
from repro.core.oip import OIPConfiguration
from repro.core.relation import TemporalRelation
from repro.storage.buffer import BufferPool
from repro.storage.manager import StorageManager
from repro.storage.metrics import CostCounters


class TestBPlusTreeProperties:
    @given(
        keys=st.lists(st.integers(0, 1000), max_size=200),
        order=st.integers(3, 16),
    )
    @settings(max_examples=60, deadline=None)
    def test_iteration_sorted_and_invariants_hold(self, keys, order):
        tree = BPlusTree(order=order)
        for key in keys:
            tree.insert(key, key)
        tree.check_invariants()
        assert [k for k, _ in tree.items()] == sorted(keys)

    @given(
        keys=st.lists(st.integers(0, 300), min_size=1, max_size=150),
        bounds=st.tuples(st.integers(0, 300), st.integers(0, 300)),
    )
    @settings(max_examples=60, deadline=None)
    def test_range_scan_equals_filter(self, keys, bounds):
        low, high = min(bounds), max(bounds)
        tree = BPlusTree(order=5)
        for key in keys:
            tree.insert(key, key)
        scanned = [k for k, _ in tree.range_scan(low, high)]
        assert scanned == sorted(k for k in keys if low <= k <= high)


class TestSegmentTreeProperties:
    @given(
        pairs=st.lists(
            st.tuples(st.integers(0, 200), st.integers(1, 80)).map(
                lambda p: (p[0], p[0] + p[1] - 1)
            ),
            min_size=1,
            max_size=40,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_canonical_cover_is_exact(self, pairs):
        """Every stored copy's segment is covered by the tuple, and the
        union of a tuple's segments is exactly its interval."""
        from repro.baselines.segment_tree import SegmentTree
        from repro.storage.manager import StorageManager

        relation = TemporalRelation.from_pairs(pairs)
        tree = SegmentTree(relation, StorageManager())
        covered = {tup.payload: set() for tup in relation}

        def visit(node):
            if node is None:
                return
            for tup in node.run.iter_tuples():
                assert tup.interval.contains(node.segment)
                covered[tup.payload].update(
                    range(node.segment.start, node.segment.end + 1)
                )
            visit(node.left)
            visit(node.right)

        visit(tree.root)
        for tup in relation:
            assert covered[tup.payload] == set(
                range(tup.start, tup.end + 1)
            )


class TestRITProperties:
    @given(
        pairs=st.lists(
            st.tuples(st.integers(-100, 400), st.integers(1, 150)).map(
                lambda p: (p[0], p[0] + p[1] - 1)
            ),
            min_size=1,
            max_size=50,
        ),
        query=st.tuples(st.integers(-120, 450), st.integers(1, 120)),
    )
    @settings(max_examples=60, deadline=None)
    def test_overlap_query_equals_filter(self, pairs, query):
        from repro.baselines.rit import RelationalIntervalTree
        from repro.storage.manager import StorageManager

        relation = TemporalRelation.from_pairs(pairs)
        tree = RelationalIntervalTree(relation, StorageManager())
        qs, qe = query[0], query[0] + query[1] - 1
        found = sorted(t.payload for _, t in tree.overlap_query(qs, qe))
        expected = sorted(
            t.payload for t in relation if t.start <= qe and qs <= t.end
        )
        assert found == expected


class TestBufferPoolProperties:
    @given(
        requests=st.lists(st.integers(0, 30), max_size=300),
        capacity=st.integers(1, 10),
    )
    @settings(max_examples=60, deadline=None)
    def test_accounting_identity_and_capacity(self, requests, capacity):
        pool = BufferPool(capacity)
        counters = CostCounters()
        manager = StorageManager(counters=counters, buffer_pool=pool)
        for block_id in requests:
            manager.read_block(block_id)
            assert pool.resident_count <= capacity
        assert counters.block_reads + counters.buffer_hits == len(requests)
        assert (
            counters.sequential_reads + counters.random_reads
            == counters.block_reads
        )


class TestAnalysisIdentities:
    @given(
        k=st.integers(1, 8),
        d=st.integers(1, 5),
        pairs=st.lists(
            st.tuples(st.integers(0, 30), st.integers(1, 10)),
            min_size=1,
            max_size=25,
        ),
        q=st.integers(1, 6),
    )
    @settings(max_examples=40, deadline=None)
    def test_lemma_4_sfr_independent_of_q(self, k, d, pairs, q):
        config = OIPConfiguration(k=k, d=d, o=0)
        span = config.time_range
        clipped = [
            (min(s, span.end), min(min(s, span.end) + dur - 1, span.end))
            for s, dur in pairs
        ]
        relation = TemporalRelation.from_pairs(clipped)
        views = partition_views_from_lazy_list(oip_create(relation, config))
        base = sum_false_hit_ratio(views, relation, 1)
        other = sum_false_hit_ratio(views, relation, q)
        assert abs(base - other) < 1e-9

    @given(k=st.integers(1, 12), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_access_count_closed_form(self, k, data):
        s = data.draw(st.integers(0, k - 1))
        e = data.draw(st.integers(s, k - 1))
        assert access_count(k, s, e) == access_count_enumerated(k, s, e)


class TestHistogramStatisticsProperties:
    @given(
        pairs=st.lists(
            st.tuples(st.integers(0, 2000), st.integers(1, 500)).map(
                lambda p: (p[0], p[0] + p[1] - 1)
            ),
            min_size=5,
            max_size=60,
        ),
        k=st.integers(2, 64),
    )
    @settings(max_examples=50, deadline=None)
    def test_estimate_never_below_a_third_of_reality(self, pairs, k):
        """The expected-used-partitions estimate tracks the materialised
        count within a moderate factor on arbitrary inputs, and never
        exceeds the cardinality."""
        from repro.core.oip import OIPConfiguration
        from repro.core.statistics import DurationHistogram

        relation = TemporalRelation.from_pairs(pairs)
        histogram = DurationHistogram.from_relation(relation)
        config = OIPConfiguration.for_relation(relation, k)
        actual = oip_create(relation, config).partition_count
        estimate = histogram.expected_used_partitions(k, config.d)
        assert estimate <= relation.cardinality
        # The per-span model is conservative about spans (charges the
        # longer alignment), so it cannot undershoot reality by much.
        assert estimate >= actual / 4

    @given(
        pairs=st.lists(
            st.tuples(st.integers(-500, 500), st.integers(1, 300)).map(
                lambda p: (p[0], p[0] + p[1] - 1)
            ),
            min_size=1,
            max_size=50,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_histogram_preserves_cardinality_and_bounds(self, pairs):
        from repro.core.statistics import DurationHistogram

        relation = TemporalRelation.from_pairs(pairs)
        histogram = DurationHistogram.from_relation(relation)
        assert histogram.cardinality == len(relation)
        assert histogram.bounds[-1] >= relation.max_duration
