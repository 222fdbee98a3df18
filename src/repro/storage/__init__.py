"""Block-storage substrate: devices, blocks, buffer pool and cost counters.

This package is the measured "hardware" of the reproduction.  Every join
algorithm stores its partitions/nodes in block runs via a
:class:`~repro.storage.manager.StorageManager` — the baselines in
:class:`~repro.storage.block.Block` runs, the OIPJOIN as slices of each
partition list's columns (:class:`~repro.storage.columns.ColumnRun`) —
and pays for reads through an optional
:class:`~repro.storage.buffer.BufferPool`, so the block IOs, buffer hits
and sequential/random split the paper plots fall out of the same code
path the join executes.
"""

from .block import Block, BlockRun, tuple_checksum
from .buffer import (
    BufferPool,
    ClockPolicy,
    FIFOPolicy,
    LRUPolicy,
    ReplacementPolicy,
    UnboundedBufferPool,
)
from .columns import ColumnRun, RunColumns
from .device import TUPLE_SIZE_BYTES, DeviceProfile
from .faults import (
    FAULT_PROFILES,
    CorruptBlockError,
    FaultKind,
    FaultPolicy,
    ReadRetriesExceededError,
    SimulatedCrashError,
    StorageFaultError,
    TransientReadError,
    WriteFault,
    WriteFaultKind,
    WriteFaultPolicy,
    fault_profile,
    perform_read,
)
from .manager import StorageManager
from .metrics import CostCounters, CostWeights, ResilienceCounters
from .snapshot import (
    JournalReplayError,
    MaintainedIndex,
    MaintenanceJournal,
    ParsedSnapshot,
    SnapshotError,
    SnapshotFormatError,
    SnapshotMismatchError,
    SnapshotVersionError,
    fsck_index,
    load_index,
    read_statistics,
    save_index,
)

__all__ = [
    "Block",
    "BlockRun",
    "ColumnRun",
    "RunColumns",
    "tuple_checksum",
    "BufferPool",
    "ClockPolicy",
    "FIFOPolicy",
    "LRUPolicy",
    "ReplacementPolicy",
    "UnboundedBufferPool",
    "DeviceProfile",
    "TUPLE_SIZE_BYTES",
    "FAULT_PROFILES",
    "CorruptBlockError",
    "FaultKind",
    "FaultPolicy",
    "ReadRetriesExceededError",
    "StorageFaultError",
    "TransientReadError",
    "fault_profile",
    "perform_read",
    "SimulatedCrashError",
    "WriteFault",
    "WriteFaultKind",
    "WriteFaultPolicy",
    "StorageManager",
    "CostCounters",
    "CostWeights",
    "ResilienceCounters",
    "JournalReplayError",
    "MaintainedIndex",
    "MaintenanceJournal",
    "ParsedSnapshot",
    "SnapshotError",
    "SnapshotFormatError",
    "SnapshotMismatchError",
    "SnapshotVersionError",
    "fsck_index",
    "load_index",
    "read_statistics",
    "save_index",
]
