"""Tests for blocks and block runs."""

import pytest

from repro.core.relation import TemporalTuple
from repro.storage.block import Block, BlockRun


class TestBlock:
    def test_append_until_full(self):
        block = Block(0, capacity=2)
        block.append(TemporalTuple(1, 2))
        assert not block.is_full
        block.append(TemporalTuple(3, 4))
        assert block.is_full

    def test_overflow_rejected(self):
        block = Block(0, capacity=1)
        block.append(TemporalTuple(1, 2))
        with pytest.raises(OverflowError):
            block.append(TemporalTuple(3, 4))

    def test_zero_capacity_rejected(self):
        with pytest.raises(ValueError):
            Block(0, capacity=0)

    def test_iteration_in_insertion_order(self):
        block = Block(0, capacity=3)
        for index in range(3):
            block.append(TemporalTuple(index, index, index))
        assert [t.payload for t in block] == [0, 1, 2]


class TestBlockRun:
    def test_empty_run(self):
        run = BlockRun()
        assert len(run) == 0
        assert run.tuple_count == 0
        assert not run.has_open_block
        with pytest.raises(IndexError):
            _ = run.last_block

    def test_tuple_count_across_blocks(self):
        run = BlockRun()
        for block_id in range(3):
            block = Block(block_id, capacity=2)
            block.append(TemporalTuple(0, 0))
            run.add_block(block)
        assert run.tuple_count == 3
        assert run.block_ids == [0, 1, 2]

    def test_has_open_block(self):
        run = BlockRun()
        block = Block(0, capacity=2)
        block.append(TemporalTuple(0, 0))
        run.add_block(block)
        assert run.has_open_block
        block.append(TemporalTuple(1, 1))
        assert not run.has_open_block

    def test_iter_tuples_flattens(self):
        run = BlockRun()
        block_a = Block(0, capacity=1)
        block_a.append(TemporalTuple(0, 0, "a"))
        block_b = Block(1, capacity=1)
        block_b.append(TemporalTuple(1, 1, "b"))
        run.add_block(block_a)
        run.add_block(block_b)
        assert [t.payload for t in run.iter_tuples()] == ["a", "b"]
