"""Storage manager: block allocation, charged reads, and fault recovery.

One :class:`StorageManager` represents the storage of one algorithm run.
It allocates block ids monotonically, so a structure that writes its
tuples in one pass (as ``OIPCREATE`` does after sorting) receives
physically contiguous runs, and later full-run reads are sequential IO —
exactly the effect the paper attributes to Algorithm 1's sort.  Two
kinds of run exist: a :class:`~repro.storage.block.BlockRun` of
:class:`~repro.storage.block.Block` objects filled by :meth:`append`
(the baselines), and a :class:`~repro.storage.columns.ColumnRun` — a
slice of an OIP partition list's columns in blocks reserved by
:meth:`allocate` (:meth:`column_run`).

Reads are routed through an optional :class:`~repro.storage.buffer.BufferPool`
(the OS page cache of Figure 11); without a pool every read reaches the
device.

Every charged block read goes through :meth:`StorageManager._fetch`
(buffer-pool hits and misses) and
:func:`~repro.storage.faults.perform_read` (device attempts); the pool
only keeps residency and the sequential/random chain.

Resilience (see :mod:`repro.storage.faults`): the manager verifies a
block's content checksum on every read — including buffer hits, so a
corrupted cached copy is evicted and re-fetched rather than served stale
— and an optional :class:`~repro.storage.faults.FaultPolicy` decides
each device read attempt's fate on a deterministic schedule.  Recovery
runs a bounded exponential-backoff retry loop whose re-reads are charged
as *random* IO (the cost model stays honest), with every event recorded
in a :class:`~repro.storage.metrics.ResilienceCounters`.  A read that
cannot be recovered raises a structured error naming the block and the
partition context instead of returning partial data.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable, Iterable, Iterator, List, Optional, Union

from ..core.relation import TemporalTuple
from .block import Block, BlockRun
from .buffer import BufferPool
from .columns import ColumnRun, RunColumns
from .device import DeviceProfile
from .faults import FaultPolicy, perform_read
from .metrics import CostCounters, ResilienceCounters

__all__ = ["StorageManager"]


class StorageManager:
    """Allocates blocks on a device and charges IO for reads and writes."""

    def __init__(
        self,
        device: Optional[DeviceProfile] = None,
        counters: Optional[CostCounters] = None,
        buffer_pool: Optional[BufferPool] = None,
        fault_policy: Optional[FaultPolicy] = None,
        resilience: Optional[ResilienceCounters] = None,
        max_retries: int = 3,
        verify_checksums: bool = True,
        cancellation: Optional[Any] = None,
        tracer: Optional[Any] = None,
    ) -> None:
        if max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {max_retries}")
        self.device = device if device is not None else DeviceProfile.main_memory()
        self.counters = counters if counters is not None else CostCounters()
        self.buffer_pool = buffer_pool
        self.fault_policy = fault_policy
        self.resilience = (
            resilience if resilience is not None else ResilienceCounters()
        )
        self.max_retries = max_retries
        self.verify_checksums = verify_checksums
        #: Cooperative stop signal checked before every block fetch (duck
        #: typed to :class:`repro.engine.governor.CancellationToken` —
        #: the storage layer deliberately does not import the governor).
        self.cancellation = cancellation
        #: Phase tracer (duck typed to :class:`repro.obs.trace.Tracer`).
        #: Reduced once to None when disabled so the read path branches on
        #: a plain identity test instead of an attribute lookup per read.
        self.tracer = tracer
        self._trace = (
            tracer if tracer is not None and tracer.enabled else None
        )
        self._next_block_id = 0
        self._last_read_id: Optional[int] = None

    # -- allocation / writing -------------------------------------------------

    @property
    def allocated_blocks(self) -> int:
        """Number of blocks allocated so far."""
        return self._next_block_id

    def new_run(self) -> BlockRun:
        """An empty run; blocks are allocated lazily on first append."""
        return BlockRun()

    def append(self, run: BlockRun, tup: TemporalTuple) -> None:
        """Append *tup* to *run*, allocating a fresh block when needed."""
        if not run.has_open_block:
            block = Block(self._next_block_id, self.device.tuples_per_block)
            self._next_block_id += 1
            run.add_block(block)
            self.counters.charge_write()
        run.last_block.append(tup)

    def store_tuples(self, tuples: Iterable[TemporalTuple]) -> BlockRun:
        """Store *tuples* contiguously in a new run."""
        run = self.new_run()
        for tup in tuples:
            self.append(run, tup)
        return run

    def allocate(self, blocks: int) -> range:
        """Reserve *blocks* consecutive block ids, charging one write
        per block — what appending their tuples one by one would
        charge."""
        first = self._next_block_id
        self._next_block_id = first + blocks
        if blocks:
            self.counters.charge_write(blocks)
        return range(first, first + blocks)

    def column_run(
        self, columns: RunColumns, offset: int, count: int, first_block: int
    ) -> ColumnRun:
        """A run over rows ``[offset, offset + count)`` of *columns* in
        freshly allocated blocks; *first_block* is the index of its
        first block among the list's checksums."""
        capacity = self.device.tuples_per_block
        return ColumnRun(
            columns,
            offset,
            count,
            capacity,
            first_block,
            self.allocate(-(-count // capacity)),
        )

    # -- reading ----------------------------------------------------------------

    def read_run(
        self, run: Union[BlockRun, ColumnRun], context: Any = None
    ) -> Iterable[TemporalTuple]:
        """Fetch every block of *run*, charging IO, and return its tuples
        (a :class:`BlockRun` yields them block by block).

        *context* (typically the partition identity) is carried into any
        structured fault error raised while fetching.
        """
        if isinstance(run, ColumnRun):
            return self._read_columns(run, context)
        return self._read_blocks(run, context)

    def _read_blocks(self, run: BlockRun, context: Any) -> Iterator[TemporalTuple]:
        for block in run:
            self.read_block(block.block_id, block=block, context=context)
            yield from block

    def _read_columns(self, run: ColumnRun, context: Any) -> List[TemporalTuple]:
        """Read a column run.  Without fault injection, a buffer pool or
        a cancellation token, and once every block of the run has passed
        its check, the charge is computed for the whole run: the first
        block sequential iff it follows the last block read, the run's
        chained blocks sequential, the rest random, and one checksum
        verification per block.  Otherwise each block goes through
        :meth:`read_block`'s path, retries and pool included."""
        verify = self.verify_checksums
        if (
            self.fault_policy is None
            and self.buffer_pool is None
            and self.cancellation is None
            and (not verify or run.verified or run.verify())
        ):
            block_ids = run.ids
            blocks = len(block_ids)
            last = self._last_read_id
            sequential = run.chained
            if last is not None and block_ids[0] == last + 1:
                sequential += 1
            self.counters.charge_read(sequential)
            self.counters.charge_read(blocks - sequential, sequential=False)
            self._last_read_id = block_ids[-1]
            if verify:
                self.resilience.checksum_verifications += blocks
        else:
            for index, block_id in enumerate(run.ids):
                check = partial(run.block_ok, index) if verify else None
                self._fetch(block_id, check, check, context)
        return run.tuples()

    def read_block(
        self,
        block_id: int,
        block: Optional[Block] = None,
        context: Any = None,
    ) -> None:
        """Fetch a single block by id, charging IO and recovering faults.

        When *block* is given its content checksum is verified (including
        on buffer hits); without the block object only injected faults can
        be detected.  Raises :class:`~repro.storage.faults
        .CorruptBlockError` / :class:`~repro.storage.faults
        .ReadRetriesExceededError` when recovery fails.

        Every fetch is also a cooperative cancellation point: with a
        cancellation token attached, a requested cancel raises
        :class:`repro.engine.governor.QueryCancelledError` *before* the
        read is charged, so partial counters never include abandoned IO.
        """
        if block is not None and self.verify_checksums:
            self._fetch(block_id, block.verify, block.reread, context)
        else:
            self._fetch(block_id, None, None, context)

    def _fetch(
        self,
        block_id: int,
        check_cached: Optional[Callable[[], bool]],
        verify: Optional[Callable[[], bool]],
        context: Any,
    ) -> None:
        """One block read: *check_cached* verifies a buffer-pool hit and
        *verify* each device delivery (``None``: not verified)."""
        if self.cancellation is not None:
            self.cancellation.raise_if_cancelled()
        pool = self.buffer_pool
        if pool is not None:
            if block_id in pool:
                if check_cached is not None:
                    self.resilience.checksum_verifications += 1
                if check_cached is None or check_cached():
                    self.counters.charge_buffer_hit()
                    pool.note_hit(block_id)
                    return
                # Corrupted cached copy: never serve it stale — evict and
                # fall through to a device re-read.
                self.resilience.corruptions_detected += 1
                self.resilience.pool_invalidations += 1
                pool.invalidate(block_id)
                if self._trace is not None:
                    self._trace.event(
                        "buffer.invalidated", block_id=block_id
                    )
            perform_read(
                block_id,
                self.counters,
                pool.last_device_read,
                policy=self.fault_policy,
                resilience=self.resilience,
                max_retries=self.max_retries,
                verify=verify,
                context=context,
                tracer=self._trace,
            )
            pool.note_device_read(block_id)
            return
        # A failed read leaves ``_last_read_id`` untouched, so the next
        # successful read is classified against the last *successful* one.
        self._last_read_id = perform_read(
            block_id,
            self.counters,
            self._last_read_id,
            policy=self.fault_policy,
            resilience=self.resilience,
            max_retries=self.max_retries,
            verify=verify,
            context=context,
            tracer=self._trace,
        )

    # -- observability --------------------------------------------------------

    def publish_metrics(self, registry: Any) -> None:
        """Publish the manager's storage state as gauges (the charged
        reads/writes live in the run's cost counters, which the algorithm
        base class publishes)."""
        registry.gauge("storage.allocated_blocks").set(self.allocated_blocks)
        registry.gauge("storage.max_retries").set(self.max_retries)
