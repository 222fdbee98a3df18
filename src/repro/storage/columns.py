"""Partition runs as slices of one partition list's columns.

Algorithm 1 sorts a relation by partition index ``(j ASC, i DESC)``, so
every OIP partition is one contiguous stretch of the sorted relation and
one contiguous run of blocks.  :class:`RunColumns` holds a whole
partition list in that creation order as parallel columns — the tuple
objects, their start and end points and their positions in the source
relation — and a :class:`ColumnRun` is one partition's slice
``[offset, offset + count)`` of them plus the ids of the blocks the run
occupies.  Blocks are an accounting here, not a container: the block
ids come from the storage manager's monotonic allocator (one write each,
exactly as appending tuple by tuple would charge), and reads are charged
per block id by :meth:`~repro.storage.manager.StorageManager.read_run`.

Checksums stay real.  Every block has a stored CRC32, sealed when its
list is built: the block's column bytes (start, end, position) folded
with ``zlib.crc32`` over memoryview slices.  A block's content is checked
against it on the block's first delivery; the verdict is kept, so later
reads compare nothing.  A parsed snapshot builds each side's list once
and shares its columns, verdicts included, with every restore of its
generation, so pinned columns are checked once, not once per query — and
a mismatching block fails every query's read of it.

A run's first read checks all of its blocks in one loop
(:meth:`RunColumns.check`); the storage manager's per-block path (faults,
a buffer pool, cancellation) checks one block at a time through the same
method.

The columns also keep the probe's decode of each run
(:attr:`RunColumns.decoded`, filled by :class:`~repro.core.join
.RunReader`).  A parsed snapshot shares one :class:`RunColumns` per side
across every query of its generation, so a run is decoded, and its
sort views are computed, once per generation rather than once per
query.
"""

from __future__ import annotations

import zlib
from array import array
from typing import Any, Dict, Iterator, List, Sequence, Tuple

__all__ = ["ColumnRun", "RunColumns", "block_bounds"]

#: Per-block verdicts: not yet checked, content matches, content differs.
UNCHECKED, GOOD, BAD = 0, 1, 2


def block_bounds(offset: int, count: int, capacity: int) -> List[Tuple[int, int]]:
    """The rows ``[lo, hi)`` of each block of a run of *count* tuples at
    *offset*, *capacity* tuples per block."""
    stop = offset + count
    return [(lo, min(lo + capacity, stop)) for lo in range(offset, stop, capacity)]


class RunColumns:
    """One partition list's tuples as creation-order columns.

    ``starts``/``ends``/``positions`` are ``array('q')`` columns parallel
    to ``tuples``.  ``checksums`` holds one column CRC per block in
    creation order (see :meth:`seal`); ``verdicts`` remembers each
    block's check.
    ``decoded`` maps a run's first row to the probe's decode of it (a
    :class:`~repro.core.kernels.DecodedRun`).
    """

    __slots__ = (
        "tuples",
        "starts",
        "ends",
        "positions",
        "checksums",
        "verdicts",
        "decoded",
    )

    def __init__(
        self,
        tuples: List[Any],
        starts: array,
        ends: array,
        positions: array,
    ) -> None:
        self.tuples = tuples
        self.starts = starts
        self.ends = ends
        self.positions = positions
        self.checksums = array("q")
        self.verdicts = bytearray()
        self.decoded: Dict[int, Any] = {}

    def seal(self, bounds: Sequence[Tuple[int, int]]) -> None:
        """Record a column checksum for each block of *bounds* (every
        block of the list, in creation order) — the build's write-time
        checksums."""
        self.checksums = array("q", self.block_checksums(bounds))
        self.verdicts = bytearray(len(bounds))

    def block_checksums(self, bounds: Sequence[Tuple[int, int]]) -> Iterator[int]:
        """The column checksum of each block of *bounds* as its rows are
        now: the block's starts, then ends, then positions folded with
        ``zlib.crc32``, over memoryviews made once for all the blocks."""
        crc32 = zlib.crc32
        starts, ends, positions = map(
            memoryview, (self.starts, self.ends, self.positions)
        )
        for lo, hi in bounds:
            yield crc32(positions[lo:hi], crc32(ends[lo:hi], crc32(starts[lo:hi])))

    def check(self, first: int, bounds: Sequence[Tuple[int, int]]) -> bool:
        """Whether the blocks ``first, first + 1, ...`` (rows *bounds*)
        all match their stored checksums.  Blocks are checked in order up
        to the first mismatch, each once: its verdict is remembered, so a
        checked block's checksum is not computed again."""
        verdicts, checksums = self.verdicts, self.checksums
        crc32 = zlib.crc32
        starts, ends, positions = map(
            memoryview, (self.starts, self.ends, self.positions)
        )
        for block, (lo, hi) in enumerate(bounds, first):
            verdict = verdicts[block]
            if verdict == BAD:
                return False
            if verdict == GOOD:
                continue
            crc = crc32(positions[lo:hi], crc32(ends[lo:hi], crc32(starts[lo:hi])))
            if crc != checksums[block]:
                verdicts[block] = BAD
                return False
            verdicts[block] = GOOD
        return True


class ColumnRun:
    """One partition's run: rows ``[offset, offset + count)`` of its
    list's :class:`RunColumns`, stored in the blocks ``ids`` (a
    ``range`` unless relocated).

    ``first_block`` indexes the run's first block among its list's
    checksums.  ``chained`` counts the block ids that follow their
    predecessor in the run (``len(ids) - 1`` for the contiguous
    runs OIPCREATE allocates), which is what the read charge needs.
    """

    __slots__ = (
        "columns",
        "offset",
        "count",
        "capacity",
        "first_block",
        "ids",
        "chained",
        "verified",
    )

    def __init__(
        self,
        columns: RunColumns,
        offset: int,
        count: int,
        capacity: int,
        first_block: int,
        ids: Sequence[int],
    ) -> None:
        self.columns = columns
        self.offset = offset
        self.count = count
        self.capacity = capacity
        self.first_block = first_block
        self.ids = ids
        self.chained = len(ids) - 1
        #: Every block of the run has passed its check.
        self.verified = False

    def __len__(self) -> int:
        return len(self.ids)

    def __repr__(self) -> str:
        return f"ColumnRun(blocks={len(self.ids)}, tuples={self.count})"

    @property
    def block_ids(self) -> List[int]:
        return list(self.ids)

    @property
    def tuple_count(self) -> int:
        return self.count

    def tuples(self) -> List[Any]:
        """The run's tuples in storage order."""
        return self.columns.tuples[self.offset : self.offset + self.count]

    def iter_tuples(self):
        return iter(self.tuples())

    def slices(self) -> Tuple[array, array, array]:
        """The run's ``(starts, ends, positions)`` columns."""
        lo, hi = self.offset, self.offset + self.count
        columns = self.columns
        return columns.starts[lo:hi], columns.ends[lo:hi], columns.positions[lo:hi]

    def block_ok(self, index: int) -> bool:
        """Whether the run's *index*-th block matches its checksum."""
        lo = self.offset + index * self.capacity
        hi = min(lo + self.capacity, self.offset + self.count)
        return self.columns.check(self.first_block + index, ((lo, hi),))

    def verify(self) -> bool:
        """Whether every block of the run matches its checksum."""
        if not self.verified:
            blocks = len(self.ids)
            first = self.first_block
            known = self.columns.verdicts.count(GOOD, first, first + blocks)
            if known != blocks and not self.columns.check(
                first, block_bounds(self.offset, self.count, self.capacity)
            ):
                return False
            self.verified = True
        return True

    def relocate(self, block_ids: Sequence[int]) -> None:
        """Move the run to other block ids (layout ablations)."""
        if len(block_ids) != len(self.ids):
            raise ValueError("a relocated run keeps its block count")
        self.ids = list(block_ids)
        self.chained = sum(
            1
            for before, after in zip(block_ids, block_ids[1:])
            if after == before + 1
        )
