"""A snapshot whose stored block checksums disagree with its content.

The ``blocks_<side>`` section records one CRC per block at save time; a
restored run checks its content against it on read.  The snapshot here
has one outer checksum changed and its section CRC re-sealed, so the
container parses cleanly and only the block check can notice.  The read
of that block must fail the same way on a file load and on every query
of one pinned serving generation: a remembered verdict must not let a
later query read past the corruption.
"""

import os
from array import array

import pytest

from repro.core.interval import Interval
from repro.core.join import OIPJoin
from repro.service.snapshots import ServingGeneration
from repro.storage.faults import CorruptBlockError
from repro.storage.metrics import CostWeights
from repro.storage.snapshot import _pack_sections, _parse_sections, save_index
from repro.workloads import long_lived_mixture

#: The layout below is the one the paper's weights derive.
PAPER = CostWeights.main_memory()

#: The block whose stored checksum is changed (creation order = block id
#: for the outer side, which is built first).
BAD_BLOCK = 20

#: What reading it does, recorded before runs became column slices.
EXPECTED_CONTEXT = ("outer partition", (9, 9))
EXPECTED_RESILIENCE = {
    "transient_faults": 0,
    "corruptions_detected": 4,
    "retries": 3,
    "backoff_units": 7,
    "latency_spikes": 0,
    "checksum_verifications": 47,
    "pool_invalidations": 0,
    "chunk_retries": 0,
    "chunk_timeouts": 0,
    "worker_crashes": 0,
    "sequential_downgrades": 0,
}


def _relations():
    domain = Interval(1, 20_000)
    return (
        long_lived_mixture(200, 0.3, time_range=domain, seed=1, name="outer"),
        long_lived_mixture(200, 0.3, time_range=domain, seed=2, name="inner"),
    )


@pytest.fixture
def tampered(tmp_path):
    outer, inner = _relations()
    path = str(tmp_path / "tampered.oip")
    save_index(path, outer, inner, weights=PAPER)
    with open(path, "rb") as handle:
        sections = _parse_sections(handle.read())
    checksums = array("q", sections["blocks_outer"])
    checksums[BAD_BLOCK] ^= 1
    sections["blocks_outer"] = checksums.tobytes()
    with open(path, "wb") as handle:
        handle.write(_pack_sections(sections))
    return path, outer, inner


def _failed_read(join, outer, inner):
    with pytest.raises(CorruptBlockError) as caught:
        join.join(outer, inner)
    error = caught.value
    return error.block_id, error.attempts, error.context, join._resilience.snapshot()


def test_file_load_fails_the_tampered_block(tampered):
    path, outer, inner = tampered
    block_id, attempts, context, resilience = _failed_read(
        OIPJoin(weights=PAPER, index_path=path), outer, inner
    )
    assert (block_id, attempts, context) == (BAD_BLOCK, 4, EXPECTED_CONTEXT)
    assert resilience == EXPECTED_RESILIENCE


def test_every_query_on_a_pinned_generation_fails_it(tampered):
    path, _, _ = tampered
    generation = ServingGeneration.load(path)
    os.unlink(path)  # the pinned bytes alone serve the queries
    for _ in range(2):
        join = OIPJoin(index_provider=generation, **generation.join_kwargs())
        block_id, attempts, context, resilience = _failed_read(
            join, generation.outer, generation.inner
        )
        assert (block_id, attempts, context) == (BAD_BLOCK, 4, EXPECTED_CONTEXT)
        assert resilience == EXPECTED_RESILIENCE
