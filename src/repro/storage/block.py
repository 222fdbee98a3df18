"""Fixed-capacity storage blocks with content checksums.

Tuples are stored in blocks of a fixed byte size; a block holds at most
``b = block_size // tuple_size`` tuples.  The baselines' partitions and
index nodes own *runs* of blocks; the block ids double as the device
addresses the buffer pool caches, and consecutive ids model physically
contiguous storage (the property Algorithm 1's sorting buys the
OIPJOIN, whose partitions are column slices instead — see
:mod:`repro.storage.columns`).

Every block also carries a cheap CRC32 content checksum, folded
incrementally as tuples are appended.  Storage-manager reads verify it
(memoised — a block that has not been mutated since its last successful
verification is not re-hashed), which is how the resilience layer detects
corrupted payloads.  Two explicit corruption hooks exist for fault
injection and tests:

* :meth:`Block.mark_corrupted` flags the *delivered/cached* copy as bad —
  a device re-read (:meth:`Block.reread`) restores it unless
  the corruption was marked permanent (bad media), and
* :meth:`Block.tamper` silently replaces stored content without updating
  the recorded checksum, modelling a genuine undetected bit-flip that
  only verification can surface.
"""

from __future__ import annotations

import zlib
from typing import Iterator, List, Sequence

from ..core.relation import TemporalTuple

__all__ = ["Block", "BlockRun", "tuple_checksum"]


def tuple_checksum(tup: TemporalTuple, crc: int = 0) -> int:
    """Fold one tuple's content into a running CRC32 checksum."""
    return zlib.crc32(
        f"{tup.start}:{tup.end}:{tup.payload!r}".encode("utf-8", "replace"),
        crc,
    )


class Block:
    """One storage block holding up to *capacity* tuples."""

    __slots__ = (
        "block_id",
        "capacity",
        "_tuples",
        "_stored_checksum",
        "_computed_checksum",
        "_dirty",
        "_delivery_corrupt",
        "_media_corrupt",
    )

    def __init__(self, block_id: int, capacity: int) -> None:
        if capacity < 1:
            raise ValueError(f"block capacity must be >= 1, got {capacity}")
        self.block_id = block_id
        self.capacity = capacity
        self._tuples: List[TemporalTuple] = []
        self._stored_checksum = 0
        self._computed_checksum = 0
        self._dirty = False
        self._delivery_corrupt = False
        self._media_corrupt = False

    def __len__(self) -> int:
        return len(self._tuples)

    def __iter__(self) -> Iterator[TemporalTuple]:
        return iter(self._tuples)

    def __repr__(self) -> str:
        return (
            f"Block(id={self.block_id}, {len(self._tuples)}/{self.capacity})"
        )

    @property
    def tuples(self) -> Sequence[TemporalTuple]:
        return self._tuples

    @property
    def is_full(self) -> bool:
        return len(self._tuples) >= self.capacity

    def append(self, tup: TemporalTuple) -> None:
        """Add *tup*; raises :class:`OverflowError` when the block is full."""
        if self.is_full:
            raise OverflowError(f"block {self.block_id} is full")
        self._tuples.append(tup)
        self._stored_checksum = tuple_checksum(tup, self._stored_checksum)
        self._dirty = True

    # -- integrity ----------------------------------------------------------

    @property
    def checksum(self) -> int:
        """The checksum recorded at write time."""
        return self._stored_checksum

    def compute_checksum(self) -> int:
        """Recompute the content checksum from the stored tuples."""
        crc = 0
        for tup in self._tuples:
            crc = tuple_checksum(tup, crc)
        return crc

    def verify(self) -> bool:
        """True iff the block's content matches its recorded checksum and
        no corruption flag is set.  The recompute is memoised: a block
        untouched since its last verification compares two cached ints."""
        if self._delivery_corrupt or self._media_corrupt:
            return False
        if self._dirty:
            self._computed_checksum = self.compute_checksum()
            self._dirty = False
        return self._computed_checksum == self._stored_checksum

    def mark_corrupted(self, permanent: bool = False) -> None:
        """Fault hook: flag this copy of the block as corrupted.

        Non-permanent corruption models a bad cached/delivered copy — a
        re-read from the device (:meth:`reread`) clears it.
        Permanent corruption models bad media: no re-read helps, and the
        storage manager's retry loop ends in a
        :class:`~repro.storage.faults.CorruptBlockError`.
        """
        if permanent:
            self._media_corrupt = True
        else:
            self._delivery_corrupt = True

    def tamper(self, index: int, tup: TemporalTuple) -> None:
        """Fault hook: overwrite the tuple at *index* without updating the
        recorded checksum — an undetected bit-flip in stored content."""
        self._tuples[index] = tup
        self._dirty = True

    def reread(self) -> bool:
        """Model one device read: it delivers a fresh copy (transient
        delivery corruption clears; permanent media corruption does
        not), which must then pass :meth:`verify`."""
        self._delivery_corrupt = False
        return self.verify()


class BlockRun:
    """A sequence of blocks owned by one partition or index node.

    Blocks are appended in allocation order; when the run was allocated
    from consecutive block ids, reading it is sequential IO.
    """

    __slots__ = ("_blocks",)

    def __init__(self) -> None:
        self._blocks: List[Block] = []

    def __len__(self) -> int:
        return len(self._blocks)

    def __iter__(self) -> Iterator[Block]:
        return iter(self._blocks)

    def __repr__(self) -> str:
        return f"BlockRun(blocks={len(self._blocks)}, tuples={self.tuple_count})"

    @property
    def blocks(self) -> Sequence[Block]:
        return self._blocks

    @property
    def block_ids(self) -> List[int]:
        return [block.block_id for block in self._blocks]

    @property
    def tuple_count(self) -> int:
        return sum(len(block) for block in self._blocks)

    @property
    def last_block(self) -> Block:
        if not self._blocks:
            raise IndexError("block run is empty")
        return self._blocks[-1]

    @property
    def has_open_block(self) -> bool:
        """True when the last block still has free slots."""
        return bool(self._blocks) and not self._blocks[-1].is_full

    def add_block(self, block: Block) -> None:
        self._blocks.append(block)

    def iter_tuples(self) -> Iterator[TemporalTuple]:
        for block in self._blocks:
            yield from block
