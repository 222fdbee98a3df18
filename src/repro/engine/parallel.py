"""Parallel OIPJOIN execution — partition-pair scheduling over a worker
pool.

The OIPJOIN probe phase (Algorithm 2) is embarrassingly parallel: every
outer partition issues an independent overlap query against a *read-only*
inner lazy partition list, and Lemma 1 tells us exactly which inner
partitions each query can touch (``j >= s`` and ``i <= e``).  This module
exploits that structure in three steps:

1. **Enumerate** — :func:`~repro.core.join.build_probe_schedule` (the
   sequential join's own navigation, re-exported here) records, for
   every outer partition in the sequential join's order, the relevant
   inner partitions and the navigation charge for finding them.

2. **Schedule** — :func:`execute_schedule` flattens the tasks into
   columnar chunk tasks, splits them into contiguous chunks and runs
   each chunk through the shared pair loop
   (:func:`~repro.core.join.run_probe_task`) on a
   :mod:`concurrent.futures` pool.  Two backends are supported:

   * ``"thread"`` — a :class:`~concurrent.futures.ThreadPoolExecutor`.
     Workers share the in-memory partition tables directly; no data is
     copied.  Under the CPython GIL the pure-Python match kernel executes
     one thread at a time, so threads mostly help when a future
     accelerator releases the GIL — but the backend is cheap to spin up
     and is therefore the default.
   * ``"process"`` — a :class:`~concurrent.futures.ProcessPoolExecutor`.
     The read-only inner partition table is pickled **once per worker
     process** (via the pool initializer), and tasks are shipped in
     chunks so the per-task pickling is amortised.  Both the table and
     the tasks are *columnar* — flat ``array('q')`` endpoint columns,
     never tuple objects (tuples stay driver-side for the merge) — so
     the pickled payloads are compact, and workers send back only
     match-index lists and a counter snapshot.  This backend achieves
     real CPU parallelism and is the right choice for large joins on
     multi-core machines.

3. **Merge** — chunk results are folded back **in submission order**
   (never completion order).  Pairs are reconstructed from the *driver's*
   tuple objects using the match indices, so the result list is
   element-for-element identical to the sequential join — same pairs,
   same order, same object identities — regardless of backend, worker
   count or scheduling jitter.

Determinism guarantees
----------------------

The parallel join is a pure reordering of the sequential join's work, and
its output is **bit-identical** to the sequential path:

* *Result set* — workers return ``(inner-index, outer-index)`` match
  positions; the driver rebuilds ``(outer, inner)`` pairs in the
  sequential nesting order (outer partition → relevant inner partition →
  inner tuple → outer tuple).
* *CostCounters* — workers run the sequential join's pair loop, which
  charges every task's navigation, block reads, the two endpoint
  comparisons per candidate pair and false hits exactly once.  The
  ``sequential_reads`` / ``random_reads`` split depends on the storage
  manager's last-read-block chain, which is order-dependent global
  state — so the flattened schedule records, for every task, the block
  id the *sequential* join would have read last before it, and each
  worker resumes the chain from there.  Summing the per-worker counters
  therefore reproduces the sequential totals field by field, keeping
  AFR/APA accounting exact.

The one configuration the parallel path does not support is a shared
:class:`~repro.storage.buffer.BufferPool`: pool hits depend on the global
interleaving of reads, which parallel execution intentionally destroys.
:class:`~repro.core.join.OIPJoin` falls back to the sequential probe loop
when a buffer pool is attached (and records the fallback in the result
details).

Resilient execution
-------------------

:func:`execute_schedule` tolerates degraded workers without giving up the
determinism contract:

* **per-chunk timeouts** — a chunk whose result does not arrive within
  ``timeout`` seconds is counted and re-submitted;
* **chunk retries** — a chunk that fails with a worker-side exception is
  re-submitted up to ``max_chunk_retries`` times.  A failed attempt
  returns nothing, so its partial counter charges are discarded and the
  successful attempt charges exactly once — retried runs stay
  bit-identical to undisturbed ones;
* **graceful degradation** — when the pool itself breaks (a crashed
  process worker, :class:`concurrent.futures.BrokenExecutor`) or a chunk
  exhausts its retries, the remaining chunks are re-run on the in-process
  sequential path and the downgrade is recorded in the
  :class:`ExecutionReport` and the resilience counters;
* **fault-schedule parity** — workers route their block-read charging
  through :func:`repro.storage.faults.perform_read` with the same
  deterministic :class:`~repro.storage.faults.FaultPolicy` as the
  sequential join, so transient faults, retries and the random-IO retry
  charges are reproduced identically in parallel runs.  A *permanent*
  fault makes the chunk fail deterministically on every attempt,
  including the final in-process one, and the structured storage error
  (naming block and partition) propagates instead of partial results.

:class:`WorkerFaultPlan` is the chaos hook for the executor itself: it
injects worker-side failures, hard process crashes and slow chunks on
pooled attempts only (the degraded in-process path ignores it, as the
driver is assumed healthy).
"""

from __future__ import annotations

import concurrent.futures
import os
import time
from array import array
from dataclasses import dataclass, field
from typing import (
    Any,
    Dict,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

from ..core.base import JoinPair
from ..core.join import (
    ProbeSchedule,
    ProbeTask,
    build_probe_schedule,
    pair_emitter,
    run_probe_task,
)
from ..core.kernels import (
    DecodedRun,
    DecodedRunCache,
    decode_columns,
    kernel_function,
)
from ..storage.faults import (
    FaultInjector,
    FaultPolicy,
    StorageFaultError,
    perform_read,
)
from ..storage.metrics import CostCounters, ResilienceCounters

__all__ = [
    "BACKENDS",
    "ChunkTask",
    "ProbeTask",
    "ProbeSchedule",
    "RunColumns",
    "ExecutionReport",
    "WorkerFaultPlan",
    "InjectedWorkerError",
    "build_probe_schedule",
    "execute_schedule",
]

#: Supported worker-pool backends.
BACKENDS = ("thread", "process")


class RunColumns(NamedTuple):
    """One partition run flattened for shipping to workers: parallel
    ``array('q')`` endpoint columns, the run's block ids and the
    partition's ``(i, j)`` (named in storage fault errors).  Tuple
    objects stay driver-side — workers only ever see flat integer
    columns, which keeps the process backend's payloads compact."""

    starts: array
    ends: array
    block_ids: Tuple[int, ...]
    partition: Tuple[int, int]


class ChunkTask(NamedTuple):
    """One :class:`~repro.core.join.ProbeTask` as shipped to a worker.

    ``relevant`` indexes the worker's table of inner runs, in the
    task's Lemma-1 order; ``last_read_in`` is the block id the
    sequential join would have read immediately before this task
    (``None`` at the very start), used to resume the sequential/random
    read chain deterministically; ``nav_cpu`` is the task's navigation
    charge.
    """

    index: int
    outer: RunColumns
    relevant: Tuple[int, ...]
    last_read_in: Optional[int]
    nav_cpu: int


@dataclass
class ExecutionReport:
    """What :func:`execute_schedule` had to do to complete a schedule."""

    backend: str = "thread"
    chunks: int = 0
    chunk_retries: int = 0
    chunk_timeouts: int = 0
    worker_crashes: int = 0
    #: Chunks completed on the in-process sequential path after the pool
    #: degraded or a chunk exhausted its retries.
    downgraded_chunks: int = 0
    #: Probe tasks whose results were merged by this execution (excludes
    #: tasks skipped via ``start_at`` on a resume).
    tasks_completed: int = 0
    #: True when a cooperative cancellation stopped the execution early;
    #: the merged pairs/counters form a well-defined partial result.
    cancelled: bool = False
    #: State of the circuit breaker that governed this execution, when
    #: one was consulted (``"closed"`` / ``"open"`` / ``"half-open"``).
    breaker_state: Optional[str] = None

    @property
    def degraded(self) -> bool:
        return self.downgraded_chunks > 0


class InjectedWorkerError(RuntimeError):
    """A worker failure injected by a :class:`WorkerFaultPlan`."""


@dataclass(frozen=True)
class WorkerFaultPlan:
    """Deterministic executor-level chaos, applied to pooled attempts.

    ``fail_chunks[c] = n`` makes the first ``n`` pooled attempts of chunk
    ``c`` raise :class:`InjectedWorkerError`; ``crash_chunks`` hard-kills
    the worker process on the chunk's first attempt (thread workers
    cannot be killed, so the thread backend raises instead — still a
    retryable worker failure); ``slow_chunks[c] = seconds`` sleeps before
    the chunk runs, for exercising per-chunk timeouts.  The plan must be
    picklable: it ships to process workers.
    """

    fail_chunks: Mapping[int, int] = field(default_factory=dict)
    crash_chunks: frozenset = frozenset()
    slow_chunks: Mapping[int, float] = field(default_factory=dict)

    def apply(self, chunk_index: int, attempt: int) -> None:
        """Run the plan's effect for one pooled chunk attempt (worker
        side); may sleep, raise, or kill the worker process."""
        delay = self.slow_chunks.get(chunk_index)
        if delay:
            time.sleep(delay)
        if chunk_index in self.crash_chunks and attempt == 0:
            if _PROCESS_INNER_TABLE is not None:
                # Genuine worker death: breaks the process pool, which the
                # driver must survive by degrading to sequential.
                os._exit(17)
            raise InjectedWorkerError(
                f"injected crash in chunk {chunk_index}"
            )
        if attempt < self.fail_chunks.get(chunk_index, 0):
            raise InjectedWorkerError(
                f"injected failure in chunk {chunk_index} "
                f"(attempt {attempt})"
            )


def _flatten_schedule(
    schedule: ProbeSchedule, start_at: int
) -> Tuple[List[ChunkTask], List[RunColumns], List[tuple], List[tuple]]:
    """The worker-facing form of *schedule* from task *start_at* on.

    Returns ``(tasks, inner_table, outer_tuples, inner_tuples)``: the
    columnar chunk tasks, the table of relevant inner runs they index
    (each run once, in first-use order), and the driver-side tuple
    tables — ``outer_tuples`` indexed like ``tasks``, ``inner_tuples``
    like ``inner_table`` — the merge rebuilds result pairs from.  The
    read chain runs over *every* task, so a resumed schedule continues
    it exactly where the sequential join would.
    """
    tasks: List[ChunkTask] = []
    inner_table: List[RunColumns] = []
    outer_tuples: List[tuple] = []
    inner_tuples: List[tuple] = []
    positions: Dict[int, int] = {}
    last_read: Optional[int] = None
    for task in schedule.tasks:
        if task.index >= start_at:
            relevant: List[int] = []
            for node in task.inner:
                position = positions.get(id(node))
                if position is None:
                    position = positions[id(node)] = len(inner_table)
                    tuples = tuple(node.run.iter_tuples())
                    inner_table.append(_columns(node, tuples))
                    inner_tuples.append(tuples)
                relevant.append(position)
            tuples = tuple(task.outer.run.iter_tuples())
            outer_tuples.append(tuples)
            tasks.append(
                ChunkTask(
                    index=task.index,
                    outer=_columns(task.outer, tuples),
                    relevant=tuple(relevant),
                    last_read_in=last_read,
                    nav_cpu=task.nav_cpu,
                )
            )
        # The sequential join reads the outer run first, then every
        # relevant inner run in order; runs are never empty.
        last_run = (task.inner[-1] if task.inner else task.outer).run
        last_read = last_run.block_ids[-1]
    return tasks, inner_table, outer_tuples, inner_tuples


def _columns(node: Any, tuples: tuple) -> RunColumns:
    starts, ends = decode_columns(tuples)
    return RunColumns(
        starts=starts,
        ends=ends,
        block_ids=tuple(node.run.block_ids),
        partition=(node.i, node.j),
    )


# ----------------------------------------------------------------------
# Worker side.  Module-level (picklable) and dependent only on its
# arguments / the per-process table installed by the pool initializer, so
# both backends run the identical code path.
# ----------------------------------------------------------------------

_PROCESS_INNER_TABLE: Optional[List[RunColumns]] = None
_PROCESS_DECODE_CACHE: Optional[DecodedRunCache] = None


def _init_process_worker(inner_table: List[RunColumns]) -> None:
    """Pool initializer: install the read-only inner run table once
    per worker process (amortises pickling across all chunks), plus a
    fresh per-process decoded-run cache.  The cache is bounded
    (:data:`~repro.core.kernels.DEFAULT_CACHE_CAPACITY` runs), so the
    sweep kernel's start-sort of an inner run is repeated only after
    the run was evicted."""
    global _PROCESS_INNER_TABLE, _PROCESS_DECODE_CACHE
    _PROCESS_INNER_TABLE = inner_table
    _PROCESS_DECODE_CACHE = DecodedRunCache()


class _ChainReader:
    """The workers' run reader for :func:`~repro.core.join.run_probe_task`.

    Charges each run's block reads analytically, continuing the
    sequential/random chain from the task's ``last_read_in`` exactly as
    the storage manager would; with a fault injector every read runs the
    same :func:`perform_read` retry loop as the sequential join,
    reproducing its fault schedule and retry charges.  Runs arrive as
    immutable columns, so a read is never dirty and a worker-side decode
    never goes stale.
    """

    __slots__ = (
        "counters",
        "injector",
        "resilience",
        "max_retries",
        "last_read",
    )

    def __init__(
        self,
        counters: CostCounters,
        injector: Optional[FaultInjector],
        resilience: ResilienceCounters,
        max_retries: int,
        last_read: Optional[int],
    ) -> None:
        self.counters = counters
        self.injector = injector
        self.resilience = resilience
        self.max_retries = max_retries
        self.last_read = last_read

    def read(self, part: RunColumns, side: str) -> Tuple[RunColumns, bool]:
        counters = self.counters
        injector = self.injector
        last_read = self.last_read
        for block_id in part.block_ids:
            if injector is None:
                counters.charge_read(
                    sequential=last_read is not None
                    and block_id == last_read + 1
                )
                last_read = block_id
            else:
                last_read = perform_read(
                    block_id,
                    counters,
                    last_read,
                    injector=injector,
                    resilience=self.resilience,
                    max_retries=self.max_retries,
                    context=(side, part.partition),
                )
        self.last_read = last_read
        return part, False

    @staticmethod
    def decode(part: RunColumns) -> DecodedRun:
        return DecodedRun(part.starts, part.ends)


def _run_probe_chunk(
    tasks: Sequence[ChunkTask],
    inner_table: Optional[List[RunColumns]] = None,
    chunk_index: int = 0,
    attempt: int = 0,
    fault_policy: Optional[FaultPolicy] = None,
    max_read_retries: int = 3,
    worker_faults: Optional[WorkerFaultPlan] = None,
    kernel: str = "naive",
    decode_cache: Optional[DecodedRunCache] = None,
):
    """Probe a contiguous chunk of outer partitions with the shared pair
    loop (:func:`~repro.core.join.run_probe_task`).

    Returns ``(counters, resilience, matches)`` where ``matches[t]`` is
    the encoded hit list of task ``t`` over the concatenation of its
    relevant inner runs.
    Only indices and counters cross the process boundary; the driver
    rebuilds pairs from its own tuple objects.  *decode_cache* memoises
    the per-run :class:`~repro.core.kernels.DecodedRun` wrapper (and with
    it the sweep kernel's lazy start-sort).
    """
    if inner_table is None:
        inner_table = _PROCESS_INNER_TABLE
        assert inner_table is not None, "process worker not initialised"
        decode_cache = _PROCESS_DECODE_CACHE
    if worker_faults is not None:
        worker_faults.apply(chunk_index, attempt)
    counters = CostCounters()
    resilience = ResilienceCounters()
    injector = (
        FaultInjector(fault_policy) if fault_policy is not None else None
    )
    # Tasks within a chunk are contiguous, so the read chain of the first
    # task seeds the whole chunk.
    reader = _ChainReader(
        counters, injector, resilience, max_read_retries,
        tasks[0].last_read_in,
    )
    # Resolved here — in the worker process for the process backend — so
    # a "numpy" kernel name degrades to the sweep kernel wherever numpy
    # cannot be imported, without the driver having to know (the two are
    # bit-identical in matches, so mixed resolution is harmless).
    kernel_fn = kernel_function(kernel)
    matches: List[List[int]] = []
    for task in tasks:
        _, _, hits = run_probe_task(
            task.outer,
            [inner_table[rel] for rel in task.relevant],
            task.nav_cpu,
            reader,
            counters,
            kernel_fn,
            cache=decode_cache,
        )
        matches.append(hits)
    return counters, resilience, matches


def _run_probe_chunk_process(
    tasks: Sequence[ChunkTask],
    chunk_index: int = 0,
    attempt: int = 0,
    fault_policy: Optional[FaultPolicy] = None,
    max_read_retries: int = 3,
    worker_faults: Optional[WorkerFaultPlan] = None,
    kernel: str = "naive",
):
    """Process-backend entry point: reads the initializer-installed table
    (and the per-process decode cache it comes with)."""
    return _run_probe_chunk(
        tasks,
        None,
        chunk_index=chunk_index,
        attempt=attempt,
        fault_policy=fault_policy,
        max_read_retries=max_read_retries,
        worker_faults=worker_faults,
        kernel=kernel,
    )


# ----------------------------------------------------------------------
# Driver-side scheduling and deterministic merge.
# ----------------------------------------------------------------------


def _chunk_tasks(
    tasks: Sequence[ChunkTask], workers: int, chunk_size: Optional[int]
) -> List[Sequence[ChunkTask]]:
    """Split tasks into contiguous chunks (contiguity keeps the read
    chain self-consistent inside each chunk)."""
    if chunk_size is None:
        # A few chunks per worker balances load without shipping one
        # task at a time; process workers amortise pickling per chunk.
        chunk_size = max(1, -(-len(tasks) // (workers * 4)))
    if chunk_size < 1:
        raise ValueError(f"chunk size must be >= 1, got {chunk_size}")
    return [
        tasks[start : start + chunk_size]
        for start in range(0, len(tasks), chunk_size)
    ]


def execute_schedule(
    schedule: ProbeSchedule,
    counters: CostCounters,
    pairs: List[JoinPair],
    workers: int = 1,
    backend: str = "thread",
    chunk_size: Optional[int] = None,
    resilience: Optional[ResilienceCounters] = None,
    fault_policy: Optional[FaultPolicy] = None,
    max_read_retries: int = 3,
    timeout: Optional[float] = None,
    max_chunk_retries: int = 2,
    worker_faults: Optional[WorkerFaultPlan] = None,
    governor: Optional[Any] = None,
    start_at: int = 0,
    tracer: Optional[Any] = None,
    kernel: str = "naive",
    decode_cache: Optional[DecodedRunCache] = None,
    candidate_histogram: Optional[Any] = None,
) -> ExecutionReport:
    """Run *schedule* on a worker pool, merging results deterministically.

    Worker counters are summed into *counters* (and worker resilience
    events into *resilience*) and reconstructed pairs appended to *pairs*
    in chunk-submission order, so the outcome is independent of
    completion order and identical to the sequential join.  Failed or
    timed-out chunks are retried and, past ``max_chunk_retries`` or a
    broken pool, completed on the in-process sequential path (see the
    module docstring); the returned :class:`ExecutionReport` records what
    happened.  Structured storage faults
    (:class:`~repro.storage.faults.StorageFaultError`) are *not* retried
    at chunk level — their schedule is deterministic, so they propagate
    immediately instead of burning the retry budget.

    Lifecycle hooks:

    * ``start_at`` skips the first *start_at* tasks — a checkpoint resume;
      their charges must already be in *counters*.
    * ``governor`` — a :class:`~repro.engine.governor.GovernedRun` (duck
      typed) consulted at every chunk boundary, mirroring the sequential
      loop's outer-partition boundary checks.  Each task's navigation is
      charged with its pair work, so the merged counters the governor
      sees are exactly the sequential join's state at that boundary.  A
      cancelled run stops merging and returns with ``report.cancelled``
      set; a violated budget propagates the governor's
      :class:`~repro.engine.governor.BudgetExceededError`.

    Windowed schedules (``build_probe_schedule(window=...)``) are for
    :func:`~repro.core.join.probe_inline`; their outer-walk charges are
    not run here.
    * ``tracer`` — a driver-side phase tracer (duck typed to
      :class:`~repro.obs.trace.Tracer`); chunk lifecycle events
      (dispatch, retry, timeout, downgrade, crash, completion) are
      recorded by the *driver*, never by workers, so tracing cannot
      perturb the deterministic worker results.

    Kernel hooks:

    * ``kernel`` — the partition-pair join kernel name
      (:data:`repro.core.kernels.KERNELS`); every kernel returns the
      identical hits in the identical order and the model costs are
      charged analytically, so the choice cannot affect pairs or
      counters.
    * ``decode_cache`` — a :class:`~repro.core.kernels.DecodedRunCache`
      shared by the inline path and thread workers (it is thread-safe);
      process workers use a private per-process cache installed by the
      pool initializer instead, since the driver's cache cannot cross
      the process boundary.
    * ``candidate_histogram`` — a duck-typed histogram observed with the
      candidate count of every merged partition pair, driver-side in
      submission order (matching the sequential loop's observation
      sequence exactly).
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if backend not in BACKENDS:
        raise ValueError(
            f"unknown backend {backend!r}; choose from {BACKENDS}"
        )
    if timeout is not None and timeout <= 0:
        raise ValueError(f"chunk timeout must be > 0, got {timeout}")
    if max_chunk_retries < 0:
        raise ValueError(
            f"max_chunk_retries must be >= 0, got {max_chunk_retries}"
        )
    if not 0 <= start_at <= len(schedule.tasks):
        raise ValueError(
            f"start_at must be within [0, {len(schedule.tasks)}], "
            f"got {start_at}"
        )
    trace = tracer if tracer is not None and tracer.enabled else None
    report = ExecutionReport(backend=backend)
    if start_at == len(schedule.tasks):
        return report
    tasks, inner_table, outer_tuples, inner_tuples = _flatten_schedule(
        schedule, start_at
    )

    chunks = _chunk_tasks(tasks, workers, chunk_size)
    report.chunks = len(chunks)

    def run_inline(index: int):
        """The degraded path: the driver probes the chunk itself.  The
        worker fault plan does not apply (the driver is healthy); storage
        faults still do, so permanent faults keep failing structurally."""
        return _run_probe_chunk(
            chunks[index],
            inner_table,
            chunk_index=index,
            fault_policy=fault_policy,
            max_read_retries=max_read_retries,
            kernel=kernel,
            decode_cache=decode_cache,
        )

    if workers == 1 or len(chunks) == 1:
        # Inline fast path: same kernel, no pool, nothing to degrade to.
        # Lazily evaluated so a boundary stop skips unprobed chunks.
        outcome_iter = (run_inline(index) for index in range(len(chunks)))
    else:
        outcome_iter = _pool_outcomes(
            chunks,
            inner_table,
            workers,
            backend,
            report,
            fault_policy,
            max_read_retries,
            timeout,
            max_chunk_retries,
            worker_faults,
            run_inline,
            trace,
            kernel,
            decode_cache,
        )

    emit = pair_emitter(
        pairs,
        candidate_histogram.observe
        if candidate_histogram is not None
        else None,
    )
    boundary_resilience = (
        resilience if resilience is not None else ResilienceCounters()
    )
    done = start_at
    try:
        for index, chunk in enumerate(chunks):
            # Workers charge each task's navigation with its pair work,
            # so the merged counters are the sequential join's state at
            # this boundary.
            if governor is not None and governor.boundary(
                done, counters, boundary_resilience, pairs
            ):
                report.cancelled = True
                break
            chunk_counters, chunk_resilience, chunk_matches = next(
                outcome_iter
            )
            counters.merge(chunk_counters)
            if resilience is not None:
                resilience.merge(chunk_resilience)
            for task, hits in zip(chunk, chunk_matches):
                emit(
                    outer_tuples[task.index - start_at],
                    [inner_tuples[rel] for rel in task.relevant],
                    hits,
                )
            done += len(chunk)
            report.tasks_completed += len(chunk)
            if trace is not None:
                trace.event(
                    "chunk.completed", chunk=index, tasks=len(chunk)
                )
    finally:
        # Abandoning the iterator early (cancel or budget stop) must
        # still shut the worker pool down.
        close = getattr(outcome_iter, "close", None)
        if close is not None:
            close()
    if resilience is not None:
        resilience.chunk_retries += report.chunk_retries
        resilience.chunk_timeouts += report.chunk_timeouts
        resilience.worker_crashes += report.worker_crashes
        resilience.sequential_downgrades += report.downgraded_chunks
    return report


def _pool_outcomes(
    chunks: List[Sequence[ChunkTask]],
    inner_table: List[RunColumns],
    workers: int,
    backend: str,
    report: ExecutionReport,
    fault_policy: Optional[FaultPolicy],
    max_read_retries: int,
    timeout: Optional[float],
    max_chunk_retries: int,
    worker_faults: Optional[WorkerFaultPlan],
    run_inline,
    trace: Optional[Any] = None,
    kernel: str = "naive",
    decode_cache: Optional[DecodedRunCache] = None,
):
    """Pooled execution with retry, timeout and degradation handling.

    Yields one outcome per chunk, in chunk order, so the caller can merge
    incrementally and stop between chunks (closing the generator shuts
    the pool down).  Chunks whose pooled attempts are exhausted — or
    every remaining chunk once the pool itself breaks — complete via
    *run_inline*.
    """
    if backend == "thread":
        pool = concurrent.futures.ThreadPoolExecutor(max_workers=workers)

        def submit(index: int, attempt: int):
            return pool.submit(
                _run_probe_chunk,
                chunks[index],
                inner_table,
                chunk_index=index,
                attempt=attempt,
                fault_policy=fault_policy,
                max_read_retries=max_read_retries,
                worker_faults=worker_faults,
                kernel=kernel,
                decode_cache=decode_cache,
            )

    else:  # process backend
        pool = concurrent.futures.ProcessPoolExecutor(
            max_workers=workers,
            initializer=_init_process_worker,
            initargs=(inner_table,),
        )

        def submit(index: int, attempt: int):
            return pool.submit(
                _run_probe_chunk_process,
                chunks[index],
                chunk_index=index,
                attempt=attempt,
                fault_policy=fault_policy,
                max_read_retries=max_read_retries,
                worker_faults=worker_faults,
                kernel=kernel,
            )

    pool_broken = False
    try:
        futures = [submit(index, 0) for index in range(len(chunks))]
        if trace is not None:
            trace.event(
                "chunk.dispatched", chunks=len(chunks), backend=backend
            )
        for index in range(len(chunks)):
            attempt = 0
            outcome = None
            while outcome is None:
                if pool_broken:
                    outcome = run_inline(index)
                    report.downgraded_chunks += 1
                    if trace is not None:
                        trace.event(
                            "chunk.downgraded", chunk=index,
                            reason="pool_broken",
                        )
                    break
                try:
                    outcome = futures[index].result(timeout=timeout)
                    break
                except StorageFaultError:
                    # Deterministic data fault: retrying cannot help, and
                    # partial results must not be returned.
                    raise
                except concurrent.futures.TimeoutError:
                    report.chunk_timeouts += 1
                    if trace is not None:
                        trace.event(
                            "chunk.timeout", chunk=index, attempt=attempt
                        )
                except concurrent.futures.BrokenExecutor:
                    # The pool is gone (worker crash); every remaining
                    # chunk degrades to the in-process path.
                    report.worker_crashes += 1
                    pool_broken = True
                    if trace is not None:
                        trace.event("worker.crash", chunk=index)
                    continue
                except Exception:
                    pass  # retryable worker failure
                attempt += 1
                if attempt > max_chunk_retries:
                    # Retry budget exhausted: last resort is the driver.
                    outcome = run_inline(index)
                    report.downgraded_chunks += 1
                    if trace is not None:
                        trace.event(
                            "chunk.downgraded", chunk=index,
                            reason="retries_exhausted",
                        )
                    break
                report.chunk_retries += 1
                if trace is not None:
                    trace.event(
                        "chunk.retry", chunk=index, attempt=attempt
                    )
                futures[index] = submit(index, attempt)
            yield outcome
    finally:
        pool.shutdown(wait=False, cancel_futures=True)
