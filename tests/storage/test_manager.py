"""Tests for the storage manager."""

from repro.core.relation import TemporalTuple
from repro.storage.buffer import BufferPool
from repro.storage.device import DeviceProfile
from repro.storage.manager import StorageManager
from repro.storage.metrics import CostCounters


def tuples(count):
    return [TemporalTuple(i, i, i) for i in range(count)]


class TestAllocation:
    def test_blocks_allocated_on_demand(self):
        manager = StorageManager()
        run = manager.new_run()
        assert manager.allocated_blocks == 0
        manager.append(run, TemporalTuple(0, 0))
        assert manager.allocated_blocks == 1

    def test_block_filled_before_new_allocation(self):
        manager = StorageManager()  # b = 14
        run = manager.store_tuples(tuples(14))
        assert len(run) == 1
        manager.append(run, TemporalTuple(99, 99))
        assert len(run) == 2

    def test_sequential_ids_within_one_pass(self):
        manager = StorageManager()
        run = manager.store_tuples(tuples(30))
        assert run.block_ids == [0, 1, 2]

    def test_interleaved_runs_get_interleaved_ids(self):
        manager = StorageManager()
        run_a = manager.new_run()
        run_b = manager.new_run()
        manager.append(run_a, TemporalTuple(0, 0))
        manager.append(run_b, TemporalTuple(1, 1))
        assert run_a.block_ids == [0]
        assert run_b.block_ids == [1]

    def test_writes_charged(self):
        counters = CostCounters()
        manager = StorageManager(counters=counters)
        manager.store_tuples(tuples(30))
        assert counters.block_writes == 3

    def test_device_capacity_respected(self):
        manager = StorageManager(device=DeviceProfile.disk())
        run = manager.store_tuples(tuples(117))
        assert len(run) == 1


class TestReading:
    def test_read_run_yields_all_tuples(self):
        manager = StorageManager()
        run = manager.store_tuples(tuples(20))
        assert len(list(manager.read_run(run))) == 20

    def test_read_charges_per_block(self):
        counters = CostCounters()
        manager = StorageManager(counters=counters)
        run = manager.store_tuples(tuples(30))
        list(manager.read_run(run))
        assert counters.block_reads == 3

    def test_sequential_read_detection(self):
        counters = CostCounters()
        manager = StorageManager(counters=counters)
        run = manager.store_tuples(tuples(30))
        list(manager.read_run(run))
        # First block is a jump, the remaining two are sequential.
        assert counters.sequential_reads == 2
        assert counters.random_reads == 1

    def test_rereading_same_run_is_random_then_repeat(self):
        counters = CostCounters()
        manager = StorageManager(counters=counters)
        run = manager.store_tuples(tuples(30))
        list(manager.read_run(run))
        list(manager.read_run(run))
        assert counters.block_reads == 6

    def test_buffer_pool_routes_reads(self):
        counters = CostCounters()
        pool = BufferPool(100)
        manager = StorageManager(counters=counters, buffer_pool=pool)
        run = manager.store_tuples(tuples(30))
        list(manager.read_run(run))
        list(manager.read_run(run))
        assert counters.block_reads == 3
        assert counters.buffer_hits == 3

