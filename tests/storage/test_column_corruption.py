"""A column changed after OIPCREATE is caught at the run's first read.

A built list stores one CRC per block over the block's ``starts``, then
``ends``, then ``positions`` rows.  Changing one value of one block in
any of the three columns after the build must make the run's first
``StorageManager.read_run`` raise :class:`CorruptBlockError` for that
block, with the partition context, the same resilience and cost
counters and the same per-block verdicts every time — the values below
were recorded when each block was still checked by its own method call,
before the run's check became one loop.

A pinned serving generation shares one built list's columns, and their
verdicts, across its queries: a block whose checksum fails must fail
every query's read of it the same way.
"""

import os

import pytest

from repro.core.interval import Interval
from repro.core.join import OIPJoin
from repro.core.lazy_list import oip_create
from repro.core.oip import OIPConfiguration
from repro.service.snapshots import ServingGeneration
from repro.storage.faults import CorruptBlockError
from repro.storage.manager import StorageManager
from repro.storage.metrics import CostWeights
from repro.storage.snapshot import save_index
from repro.workloads import long_lived_mixture

RELATION = long_lived_mixture(120, 0.3, Interval(1, 2000), seed=4, name="r")

#: Per k: the largest partition, the block id that reads corrupt and
#: the list's verdicts after the failed read (1 good, 2 bad, 0 not
#: checked: the check stops at the first mismatch).
EXPECTED = {
    1: ((0, 0), 2, [1, 1, 2, 0, 0, 0, 0, 0, 0], 9),
    4: ((1, 1), 5, [0, 0, 0, 1, 1, 2, 0, 0, 0, 0, 0, 0], 12),
}

#: Four deliveries of the bad block, each detected; three retries.
EXPECTED_RESILIENCE = {
    "transient_faults": 0,
    "corruptions_detected": 4,
    "retries": 3,
    "backoff_units": 7,
    "latency_spikes": 0,
    "checksum_verifications": 6,
    "pool_invalidations": 0,
    "chunk_retries": 0,
    "chunk_timeouts": 0,
    "worker_crashes": 0,
    "sequential_downgrades": 0,
}


@pytest.mark.parametrize("k", sorted(EXPECTED))
@pytest.mark.parametrize("column", ["starts", "ends", "positions"])
def test_changed_column_value_fails_the_first_read(k, column):
    partition, bad_block, verdicts, writes = EXPECTED[k]
    storage = StorageManager()
    built = oip_create(RELATION, OIPConfiguration.for_relation(RELATION, k), storage)
    node = max(built.iter_nodes(), key=lambda n: n.run.count)
    assert (node.i, node.j) == partition
    run = node.run
    # One value in the run's third block.
    getattr(built.columns, column)[run.offset + 2 * run.capacity + 3] += 1
    context = ("outer partition", partition)
    with pytest.raises(CorruptBlockError) as caught:
        storage.read_run(run, context=context)
    error = caught.value
    assert (error.block_id, error.attempts, error.context) == (bad_block, 4, context)
    assert storage.resilience.snapshot() == EXPECTED_RESILIENCE
    assert storage.counters.snapshot() == {
        "cpu_comparisons": 0,
        "block_reads": 6,
        "block_writes": writes,
        "sequential_reads": 2,
        "random_reads": 4,
        "buffer_hits": 0,
        "false_hits": 0,
        "partition_accesses": 0,
        "result_tuples": 0,
    }
    assert list(built.columns.verdicts) == verdicts
    assert not run.verified


def test_unchanged_columns_read_clean_and_check_once():
    storage = StorageManager()
    built = oip_create(RELATION, OIPConfiguration.for_relation(RELATION, 4), storage)
    blocks = len(built.columns.checksums)
    for node in built.iter_nodes():
        storage.read_run(node.run)
        storage.read_run(node.run)
    assert list(built.columns.verdicts) == [1] * blocks
    # One verification charged per block read, none failed.
    assert storage.resilience.checksum_verifications == 2 * blocks
    assert storage.resilience.corruptions_detected == 0


# ----------------------------------------------------------------------
# A pinned serving generation
# ----------------------------------------------------------------------

#: The layout below is the one the paper's weights derive.
PAPER = CostWeights.main_memory()

#: The outer block whose checksum is changed on the generation's shared
#: columns (creation order = block id for the outer side, built first).
BAD_BLOCK = 20

#: What reading it does, recorded when a restored run adopted the
#: snapshot's stored tuple checksums.
PINNED_CONTEXT = ("outer partition", (9, 9))
PINNED_RESILIENCE = dict(EXPECTED_RESILIENCE, checksum_verifications=47)


def test_every_query_on_a_pinned_generation_fails_a_bad_block(tmp_path):
    """A generation's queries share one set of columns and verdicts, so
    a remembered verdict must not let a later query read past a block
    that failed its check."""
    domain = Interval(1, 20_000)
    outer, inner = (
        long_lived_mixture(200, 0.3, time_range=domain, seed=seed, name=name)
        for seed, name in ((1, "outer"), (2, "inner"))
    )
    path = str(tmp_path / "pinned.oip")
    save_index(path, outer, inner, weights=PAPER)
    generation = ServingGeneration.load(path)
    os.unlink(path)  # the pinned generation alone serves the queries
    kwargs = generation.join_kwargs()
    shared = generation(
        generation.outer,
        generation.inner,
        storage=StorageManager(device=kwargs["device"]),
    ).outer_list.columns
    shared.checksums[BAD_BLOCK] ^= 1
    for _ in range(2):
        join = OIPJoin(index_provider=generation, **kwargs)
        with pytest.raises(CorruptBlockError) as caught:
            join.join(generation.outer, generation.inner)
        error = caught.value
        assert (error.block_id, error.attempts, error.context) == (
            BAD_BLOCK,
            4,
            PINNED_CONTEXT,
        )
        assert join._resilience.snapshot() == PINNED_RESILIENCE
