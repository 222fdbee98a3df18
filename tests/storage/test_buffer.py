"""Tests for the buffer pool and replacement policies.

The pool only keeps residency; every read here goes through
``StorageManager.read_block``, the path that charges every algorithm's
reads."""

import pytest

from repro.storage.buffer import (
    BufferPool,
    ClockPolicy,
    FIFOPolicy,
    LRUPolicy,
    UnboundedBufferPool,
)
from repro.storage.manager import StorageManager
from repro.storage.metrics import CostCounters


def pooled(pool):
    """A block reader over *pool* and the counters it charges."""
    counters = CostCounters()
    manager = StorageManager(counters=counters, buffer_pool=pool)
    return manager.read_block, counters


class TestBufferPoolBasics:
    def test_first_read_is_a_miss(self):
        pool = BufferPool(4)
        read, counters = pooled(pool)
        read(1)
        assert counters.block_reads == 1
        assert counters.buffer_hits == 0

    def test_repeated_read_is_a_hit(self):
        pool = BufferPool(4)
        read, counters = pooled(pool)
        read(1)
        read(1)
        assert counters.block_reads == 1
        assert counters.buffer_hits == 1

    def test_hits_plus_misses_equal_requests(self):
        pool = BufferPool(3)
        read, counters = pooled(pool)
        requests = [1, 2, 3, 1, 4, 2, 2, 5, 1]
        for block_id in requests:
            read(block_id)
        assert counters.block_reads + counters.buffer_hits == len(requests)

    def test_capacity_never_exceeded(self):
        pool = BufferPool(3)
        read, counters = pooled(pool)
        for block_id in range(50):
            read(block_id)
            assert pool.resident_count <= 3

    def test_sequential_detection(self):
        pool = BufferPool(10)
        read, counters = pooled(pool)
        for block_id in (5, 6, 7):
            read(block_id)
        read(20)
        assert counters.sequential_reads == 2  # 6 and 7 follow 5 and 6
        assert counters.random_reads == 2  # 5 (first) and 20 (jump)

    def test_read_run(self):
        pool = BufferPool(10)
        read, counters = pooled(pool)
        for block_id in (1, 2, 3):
            read(block_id)
        assert counters.block_reads == 3

    def test_clear_empties_pool(self):
        pool = BufferPool(4)
        read, counters = pooled(pool)
        read(1)
        pool.clear()
        assert 1 not in pool
        read(1)
        assert counters.block_reads == 2

    def test_zero_capacity_rejected(self):
        with pytest.raises(ValueError):
            BufferPool(0)


class TestLRUEviction:
    def test_least_recent_evicted(self):
        pool = BufferPool(2, policy=LRUPolicy())
        read, counters = pooled(pool)
        read(1)
        read(2)
        read(1)  # refresh 1
        read(3)  # evicts 2
        assert 1 in pool
        assert 2 not in pool
        assert 3 in pool

    def test_access_refreshes_residency(self):
        pool = BufferPool(2, policy=LRUPolicy())
        read, counters = pooled(pool)
        read(1)
        read(2)
        read(3)  # evicts 1 (least recent)
        assert 1 not in pool
        assert 2 in pool


class TestFIFOEviction:
    def test_first_in_evicted_despite_access(self):
        pool = BufferPool(2, policy=FIFOPolicy())
        read, counters = pooled(pool)
        read(1)
        read(2)
        read(1)  # access does NOT refresh under FIFO
        read(3)  # evicts 1
        assert 1 not in pool
        assert 2 in pool


class TestClockEviction:
    def test_second_chance(self):
        pool = BufferPool(2, policy=ClockPolicy())
        read, counters = pooled(pool)
        read(1)
        read(2)
        read(1)  # sets reference bit of 1
        read(3)  # clock skips 1 (bit set), evicts 2
        assert 1 in pool
        assert 2 not in pool

    def test_all_referenced_falls_back_to_round_robin(self):
        pool = BufferPool(2, policy=ClockPolicy())
        read, counters = pooled(pool)
        read(1)
        read(2)
        read(1)
        read(2)
        read(3)  # both referenced: clears bits, evicts 1
        assert pool.resident_count == 2
        assert 3 in pool


class TestUnboundedPool:
    def test_never_evicts(self):
        pool = UnboundedBufferPool()
        read, counters = pooled(pool)
        for block_id in range(1000):
            read(block_id)
        assert pool.resident_count == 1000
        read(0)
        assert counters.buffer_hits == 1

    def test_models_warm_cache(self):
        """Second full scan is free (the 64-GB server of Figure 11(c))."""
        pool = UnboundedBufferPool()
        read, counters = pooled(pool)
        for block_id in range(100):
            read(block_id)
        first_scan = counters.block_reads
        for block_id in range(100):
            read(block_id)
        assert counters.block_reads == first_scan
