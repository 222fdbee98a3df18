"""Tests for checksum verification, retry recovery and buffer-pool
corruption handling in the storage manager."""

import pytest

from repro.core.relation import TemporalTuple
from repro.storage.block import Block, tuple_checksum
from repro.storage.buffer import BufferPool, UnboundedBufferPool
from repro.storage.faults import (
    CorruptBlockError,
    FaultPolicy,
    ReadRetriesExceededError,
)
from repro.storage.manager import StorageManager
from repro.storage.metrics import CostCounters, ResilienceCounters


def tuples(count, offset=0):
    return [TemporalTuple(offset + i, offset + i, i) for i in range(count)]


def make_manager(**kwargs):
    counters = CostCounters()
    resilience = ResilienceCounters()
    manager = StorageManager(
        counters=counters, resilience=resilience, **kwargs
    )
    return manager, counters, resilience


class TestBlockChecksums:
    def test_checksum_follows_appends(self):
        block = Block(0, 4)
        assert block.checksum == 0
        block.append(TemporalTuple(1, 5, "a"))
        first = block.checksum
        block.append(TemporalTuple(2, 9, "b"))
        assert block.checksum != first
        assert block.verify()

    def test_checksum_is_content_defined(self):
        one, two = Block(0, 4), Block(7, 4)
        for tup in tuples(3):
            one.append(tup)
            two.append(tup)
        assert one.checksum == two.checksum == one.compute_checksum()

    def test_tamper_breaks_verification(self):
        block = Block(0, 4)
        for tup in tuples(3):
            block.append(tup)
        block.tamper(1, TemporalTuple(100, 200, "evil"))
        assert not block.verify()

    def test_delivery_corruption_cleared_by_refresh(self):
        block = Block(0, 4)
        block.append(TemporalTuple(1, 2))
        block.mark_corrupted()
        assert not block.verify()
        assert block.reread()

    def test_media_corruption_survives_refresh(self):
        block = Block(0, 4)
        block.append(TemporalTuple(1, 2))
        block.mark_corrupted(permanent=True)
        assert not block.reread()

    def test_tuple_checksum_depends_on_payload(self):
        assert tuple_checksum(TemporalTuple(1, 2, "x")) != tuple_checksum(
            TemporalTuple(1, 2, "y")
        )


class TestManagerVerification:
    def test_clean_reads_verify_and_pass(self):
        manager, counters, resilience = make_manager()
        run = manager.store_tuples(tuples(30))
        assert list(manager.read_run(run)) == list(run.iter_tuples())
        assert resilience.checksum_verifications == len(run)
        assert resilience.corruptions_detected == 0

    def test_delivery_corruption_recovered_by_reread(self):
        manager, counters, resilience = make_manager()
        run = manager.store_tuples(tuples(14))
        run.blocks[0].mark_corrupted()
        manager.read_block(0, block=run.blocks[0])
        assert run.blocks[0].verify()
        assert resilience.corruptions_detected == 0  # refresh precedes verify
        assert counters.block_reads == 1

    def test_media_corruption_raises_structured_error(self):
        manager, counters, resilience = make_manager(max_retries=2)
        run = manager.store_tuples(tuples(14))
        run.blocks[0].mark_corrupted(permanent=True)
        with pytest.raises(CorruptBlockError) as excinfo:
            manager.read_block(0, block=run.blocks[0], context="partition (0, 1)")
        assert excinfo.value.block_id == 0
        assert excinfo.value.attempts == 3
        assert "partition (0, 1)" in str(excinfo.value)
        assert resilience.corruptions_detected == 3
        assert resilience.retries == 2

    def test_verification_can_be_disabled(self):
        manager, counters, resilience = make_manager(verify_checksums=False)
        run = manager.store_tuples(tuples(14))
        run.blocks[0].mark_corrupted(permanent=True)
        manager.read_block(0, block=run.blocks[0])  # no error: not verified
        assert resilience.checksum_verifications == 0

    def test_negative_max_retries_rejected(self):
        with pytest.raises(ValueError, match="max_retries"):
            StorageManager(max_retries=-1)


class TestLastReadClassification:
    """Satellite: failed reads must not poison the sequential/random
    classification of the next successful read."""

    def test_failed_read_leaves_chain_at_last_success(self):
        policy = FaultPolicy(permanent_blocks={1})
        manager, counters, resilience = make_manager(
            fault_policy=policy, max_retries=1
        )
        manager.store_tuples(tuples(42))  # blocks 0..2
        manager.read_block(0)
        with pytest.raises(ReadRetriesExceededError):
            manager.read_block(1)
        assert manager._last_read_id == 0  # unchanged by the failure

    def test_next_read_classified_against_last_successful(self):
        policy = FaultPolicy(permanent_blocks={5})
        manager, counters, resilience = make_manager(
            fault_policy=policy, max_retries=0
        )
        manager.store_tuples(tuples(140))  # blocks 0..9
        manager.read_block(0)
        with pytest.raises(ReadRetriesExceededError):
            manager.read_block(5)
        # Block 1 follows the last *successful* read (0): sequential.
        counters_before = counters.sequential_reads
        manager.read_block(1)
        assert counters.sequential_reads == counters_before + 1

    def test_retried_read_still_advances_chain_on_success(self):
        policy = FaultPolicy(transient_schedule={1: 1})
        manager, counters, resilience = make_manager(fault_policy=policy)
        manager.store_tuples(tuples(42))
        manager.read_block(0)
        manager.read_block(1)  # one transient fault, then success
        sequential_before = counters.sequential_reads
        manager.read_block(2)  # follows 1: sequential
        assert counters.sequential_reads == sequential_before + 1
        assert resilience.retries == 1


class TestBufferPoolCorruption:
    """Satellite: a corrupted cached block is evicted and re-fetched,
    never served stale."""

    def test_corrupted_pool_hit_is_invalidated_and_refetched(self):
        pool = BufferPool(8)
        manager, counters, resilience = make_manager(buffer_pool=pool)
        run = manager.store_tuples(tuples(14))
        block = run.blocks[0]
        manager.read_block(0, block=block)  # device read, admitted
        assert 0 in pool
        block.mark_corrupted()  # cached copy goes bad
        reads_before = counters.block_reads
        manager.read_block(0, block=block)
        assert counters.block_reads == reads_before + 1  # not a hit
        assert resilience.pool_invalidations == 1
        assert resilience.corruptions_detected == 1
        assert block.verify()  # re-fetch delivered a clean copy
        assert 0 in pool  # re-admitted after the device read

    def test_clean_pool_hit_verified_but_not_charged(self):
        pool = BufferPool(8)
        manager, counters, resilience = make_manager(buffer_pool=pool)
        run = manager.store_tuples(tuples(14))
        manager.read_block(0, block=run.blocks[0])
        reads_before = counters.block_reads
        manager.read_block(0, block=run.blocks[0])
        assert counters.block_reads == reads_before  # buffer hit
        assert counters.buffer_hits == 1
        assert resilience.checksum_verifications == 2

    def test_permanently_corrupt_block_fails_even_through_pool(self):
        pool = BufferPool(8)
        manager, counters, resilience = make_manager(
            buffer_pool=pool, max_retries=1
        )
        run = manager.store_tuples(tuples(14))
        block = run.blocks[0]
        manager.read_block(0, block=block)
        block.mark_corrupted(permanent=True)
        with pytest.raises(CorruptBlockError):
            manager.read_block(0, block=block)
        assert 0 not in pool  # never re-admitted

    def test_unbounded_pool_supports_invalidation(self):
        pool = UnboundedBufferPool()
        manager, counters, resilience = make_manager(buffer_pool=pool)
        run = manager.store_tuples(tuples(14))
        block = run.blocks[0]
        manager.read_block(0, block=block)
        block.mark_corrupted()
        manager.read_block(0, block=block)
        assert resilience.pool_invalidations == 1
        assert block.verify()


class TestFaultInjectionThroughManager:
    def test_transient_faults_recovered_transparently(self):
        policy = FaultPolicy(seed=2, transient_probability=0.3)
        manager, counters, resilience = make_manager(fault_policy=policy)
        run = manager.store_tuples(tuples(420))
        assert list(manager.read_run(run)) == list(run.iter_tuples())
        assert resilience.transient_faults > 0
        assert resilience.retries == resilience.transient_faults
        assert (
            counters.block_reads
            == len(run) + resilience.retries
        )

    def test_same_seed_same_resilience_counters(self):
        def chaos_run():
            policy = FaultPolicy(
                seed=5, transient_probability=0.1, corrupt_probability=0.05
            )
            manager, counters, resilience = make_manager(
                fault_policy=policy
            )
            run = manager.store_tuples(tuples(140))
            list(manager.read_run(run))
            return resilience.snapshot(), counters.snapshot()

        assert chaos_run() == chaos_run()
