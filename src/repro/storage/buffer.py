"""Buffer pool with pluggable replacement policies.

Figure 11 of the paper contrasts a 64-GB server, where "a large number of
disk blocks is cached by the operating system", with a 4-GB server where
they are not.  We model that OS page cache with a bounded buffer pool in
front of the device: a read request for a cached block id is a buffer hit
(no IO charged); a miss charges one block read — sequential when the id
directly follows the previously *device-read* id, random otherwise.  The
pool keeps residency and that chain; the charges are made by the read
path every algorithm's reads take,
:meth:`repro.storage.manager.StorageManager.read_block`.

LRU is the default policy; FIFO and CLOCK are provided for the
buffer-replacement ablation the paper's future-work section mentions.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, Optional

__all__ = [
    "ReplacementPolicy",
    "LRUPolicy",
    "FIFOPolicy",
    "ClockPolicy",
    "BufferPool",
    "UnboundedBufferPool",
]


class ReplacementPolicy:
    """Interface of a buffer replacement policy over block ids."""

    def record_access(self, block_id: int) -> None:
        """Note that *block_id* was requested (hit or newly admitted)."""
        raise NotImplementedError

    def admit(self, block_id: int) -> None:
        """Note that *block_id* entered the pool."""
        raise NotImplementedError

    def evict(self) -> int:
        """Choose and forget the block id to evict."""
        raise NotImplementedError

    def discard(self, block_id: int) -> None:
        """Forget *block_id* without counting it as an eviction decision."""
        raise NotImplementedError


class LRUPolicy(ReplacementPolicy):
    """Least-recently-used eviction."""

    def __init__(self) -> None:
        self._order: "OrderedDict[int, None]" = OrderedDict()

    def record_access(self, block_id: int) -> None:
        if block_id in self._order:
            self._order.move_to_end(block_id)

    def admit(self, block_id: int) -> None:
        self._order[block_id] = None

    def evict(self) -> int:
        block_id, _ = self._order.popitem(last=False)
        return block_id

    def discard(self, block_id: int) -> None:
        self._order.pop(block_id, None)


class FIFOPolicy(ReplacementPolicy):
    """First-in-first-out eviction; accesses do not refresh residency."""

    def __init__(self) -> None:
        self._order: "OrderedDict[int, None]" = OrderedDict()

    def record_access(self, block_id: int) -> None:
        pass

    def admit(self, block_id: int) -> None:
        self._order[block_id] = None

    def evict(self) -> int:
        block_id, _ = self._order.popitem(last=False)
        return block_id

    def discard(self, block_id: int) -> None:
        self._order.pop(block_id, None)


class ClockPolicy(ReplacementPolicy):
    """Second-chance (CLOCK) eviction."""

    def __init__(self) -> None:
        self._ring: List[int] = []
        self._referenced: Dict[int, bool] = {}
        self._hand = 0

    def record_access(self, block_id: int) -> None:
        if block_id in self._referenced:
            self._referenced[block_id] = True

    def admit(self, block_id: int) -> None:
        self._ring.append(block_id)
        self._referenced[block_id] = False

    def evict(self) -> int:
        while True:
            if self._hand >= len(self._ring):
                self._hand = 0
            block_id = self._ring[self._hand]
            if self._referenced.get(block_id, False):
                self._referenced[block_id] = False
                self._hand += 1
            else:
                self._ring.pop(self._hand)
                del self._referenced[block_id]
                return block_id

    def discard(self, block_id: int) -> None:
        if block_id in self._referenced:
            self._ring.remove(block_id)
            del self._referenced[block_id]
            self._hand = 0


class BufferPool:
    """Bounded cache of block ids in front of the storage device.

    The pool does not hold block *contents* — the simulation keeps tuples in
    Python objects regardless — its residency decides which read requests
    the storage manager charges as device IOs.
    """

    def __init__(
        self,
        capacity_blocks: int,
        policy: Optional[ReplacementPolicy] = None,
    ) -> None:
        if capacity_blocks < 1:
            raise ValueError(
                f"buffer capacity must be >= 1 block, got {capacity_blocks}"
            )
        self.capacity_blocks = capacity_blocks
        self._policy = policy if policy is not None else LRUPolicy()
        self._resident: set = set()
        self._last_device_read: Optional[int] = None

    def __contains__(self, block_id: int) -> bool:
        return block_id in self._resident

    def __len__(self) -> int:
        return len(self._resident)

    @property
    def resident_count(self) -> int:
        return len(self._resident)

    # The storage manager's read path (``StorageManager._fetch``) is the
    # only caller: it charges hits and device reads itself, and keeps
    # residency, the chain and corrupted-copy eviction here.

    @property
    def last_device_read(self) -> Optional[int]:
        """The block id of the most recent read that reached the device."""
        return self._last_device_read

    def note_hit(self, block_id: int) -> None:
        """Record a request served by the resident *block_id*."""
        self._policy.record_access(block_id)

    def note_device_read(self, block_id: int) -> None:
        """Advance the sequential/random chain past a successful device
        read and admit the block."""
        self._last_device_read = block_id
        self._admit(block_id)

    def invalidate(self, block_id: int) -> bool:
        """Evict *block_id* (a corrupted copy) so the next request is
        forced back to the device.  Returns True when it was resident."""
        if block_id not in self._resident:
            return False
        self._resident.discard(block_id)
        self._policy.discard(block_id)
        return True

    def _admit(self, block_id: int) -> None:
        if len(self._resident) >= self.capacity_blocks:
            victim = self._policy.evict()
            self._resident.discard(victim)
        self._resident.add(block_id)
        self._policy.admit(block_id)

    def clear(self) -> None:
        """Drop all residency state (a cold cache)."""
        for block_id in list(self._resident):
            self._policy.discard(block_id)
        self._resident.clear()
        self._last_device_read = None

    def publish_metrics(self, registry) -> None:
        """Publish the pool's residency state as gauges (hit/miss counts
        are charged into the run's cost counters instead)."""
        registry.gauge("buffer.capacity_blocks").set(self.capacity_blocks)
        registry.gauge("buffer.resident_blocks").set(self.resident_count)


class UnboundedBufferPool(BufferPool):
    """A pool that never evicts — models the 64-GB server where the whole
    working set stays cached after the first read."""

    def __init__(self) -> None:
        super().__init__(capacity_blocks=1)

    def _admit(self, block_id: int) -> None:
        self._resident.add(block_id)

    def clear(self) -> None:
        self._resident.clear()
        self._last_device_read = None
