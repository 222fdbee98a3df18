"""Query-lifecycle governor: budgets, cooperative cancellation,
checkpoint/resume and admission control.

The paper's algorithms answer *how* to compute an overlap join cheaply;
this module answers *how long it may run, how to stop it, and when to
refuse it* — the lifecycle concerns a join service needs before it can
face real traffic:

* :class:`QueryBudget` — a wall-clock deadline plus logical budgets
  (CPU comparisons, block reads, or Section-6.2 modelled-cost units).
  Budgets are enforced **cooperatively** at the outer-partition
  boundaries of the OIPJOIN probe loop and once after its last
  partition; a violated budget raises a structured
  :class:`BudgetExceededError` carrying the partial
  :class:`~repro.storage.metrics.CostCounters` and
  :class:`~repro.storage.metrics.ResilienceCounters` of the run.
* :class:`CancellationToken` — a thread-safe stop signal an external
  caller (a CLI signal handler, a test) flips mid-flight.  The OIPJOIN
  notices it at the same boundaries and hands back a **well-formed
  partial** :class:`~repro.core.base.JoinResult` with
  ``completed=False``; every other algorithm polls the token on each
  block read through the storage manager and returns the pairs collected
  so far.
* :class:`QueryCheckpoint` / :class:`CheckpointWriter` — because the
  OIPJOIN outer loop is deterministic given ``(k, relation order)``,
  progress serialises as ``(outer partitions completed, counters,
  resilience, matched pair indices)`` — a small JSON file.
  ``OIPJoin(resume_from=...)`` skips completed partitions and produces
  final pairs and counters **bit-identical** to an uninterrupted run
  (the differential guarantee of ``tests/chaos/test_lifecycle.py``).
* :class:`AdmissionController` — a bounded concurrent-query slot pool
  with a queue-depth limit that rejects excess queries with
  :class:`AdmissionRejectedError` instead of degrading everyone.

Nothing here imports :mod:`repro.core.join`; the join layers import
*this* module lazily, so
the governor stays cycle-free and usable from the storage layer via
duck typing (the storage manager only calls
:meth:`CancellationToken.raise_if_cancelled`).
"""

from __future__ import annotations

import json
import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..storage.metrics import CostCounters, CostWeights, ResilienceCounters
from ..storage.snapshot import relation_endpoint_digest

__all__ = [
    "QueryBudget",
    "BudgetExceededError",
    "QueryCancelledError",
    "AdmissionRejectedError",
    "CheckpointMismatchError",
    "CancellationToken",
    "QueryCheckpoint",
    "CheckpointWriter",
    "GovernedRun",
    "AdmissionController",
    "AdmissionStats",
    "make_fingerprint",
    "CHECKPOINT_VERSION",
]

#: On-disk checkpoint format version.
CHECKPOINT_VERSION = 1


# ----------------------------------------------------------------------
# Structured lifecycle errors.
# ----------------------------------------------------------------------


class BudgetExceededError(RuntimeError):
    """A cooperative budget check failed at a partition boundary.

    Carries the partial progress of the run so callers can report (or
    persist) exactly what was computed before the budget ran out:
    ``counters`` / ``resilience`` are *copies* of the boundary state,
    ``partitions_completed`` the number of outer partitions fully
    processed, and ``checkpoint_path`` the checkpoint written at the
    stop boundary when checkpointing was configured (else ``None``).
    """

    def __init__(
        self,
        reason: str,
        partitions_completed: int = 0,
        counters: Optional[CostCounters] = None,
        resilience: Optional[ResilienceCounters] = None,
        elapsed_ms: float = 0.0,
        checkpoint_path: Optional[str] = None,
    ) -> None:
        super().__init__(
            f"query budget exceeded ({reason}) after "
            f"{partitions_completed} outer partition(s), "
            f"{elapsed_ms:.1f} ms elapsed"
        )
        self.reason = reason
        self.partitions_completed = partitions_completed
        self.counters = counters if counters is not None else CostCounters()
        self.resilience = (
            resilience if resilience is not None else ResilienceCounters()
        )
        self.elapsed_ms = elapsed_ms
        self.checkpoint_path = checkpoint_path


class QueryCancelledError(RuntimeError):
    """Raised from a cooperative cancellation point inside an algorithm
    that cannot unwind gracefully on its own (storage-level polling).
    :meth:`repro.core.base.OverlapJoinAlgorithm.join` catches this and
    converts it into a partial result with ``completed=False`` — user
    code normally never sees the exception."""

    def __init__(self, checks: int = 0) -> None:
        super().__init__(
            f"query cancelled cooperatively after {checks} check(s)"
        )
        self.checks = checks


class AdmissionRejectedError(RuntimeError):
    """The admission controller refused a query: every slot is busy and
    the wait queue is full (or the queue wait timed out)."""

    def __init__(
        self,
        active: int,
        queued: int,
        max_active: int,
        max_queued: int,
        timed_out: bool = False,
    ) -> None:
        detail = "queue wait timed out" if timed_out else "queue full"
        super().__init__(
            f"admission rejected: {active}/{max_active} slots busy, "
            f"{queued}/{max_queued} queued ({detail})"
        )
        self.active = active
        self.queued = queued
        self.max_active = max_active
        self.max_queued = max_queued
        self.timed_out = timed_out


class CheckpointMismatchError(ValueError):
    """A checkpoint does not belong to this query (different relations,
    granule count or algorithm) — resuming would corrupt the result."""


# ----------------------------------------------------------------------
# Budgets.
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class QueryBudget:
    """How much a single join is allowed to cost.

    All limits are optional and combine with AND-semantics (the first
    violated limit stops the query):

    * ``deadline_ms`` — wall-clock milliseconds from query start,
    * ``max_comparisons`` — CPU comparisons
      (:attr:`CostCounters.cpu_comparisons`),
    * ``max_block_reads`` — device block reads,
    * ``max_cost`` — Section 6.2 modelled-cost units
      (``#cpu * c_cpu + #io * c_io``), priced with ``weights`` (falling
      back to the executing device's weights).

    A limit of ``0`` is legal and means *already exhausted*: the join
    fails fast at preflight with no partition work performed.
    """

    deadline_ms: Optional[float] = None
    max_comparisons: Optional[int] = None
    max_block_reads: Optional[int] = None
    max_cost: Optional[float] = None
    weights: Optional[CostWeights] = None

    def __post_init__(self) -> None:
        for name in ("deadline_ms", "max_comparisons", "max_block_reads", "max_cost"):
            value = getattr(self, name)
            if value is not None and value < 0:
                raise ValueError(f"{name} must be >= 0, got {value}")

    @property
    def bounded(self) -> bool:
        """True when at least one limit is set."""
        return any(
            getattr(self, name) is not None
            for name in (
                "deadline_ms",
                "max_comparisons",
                "max_block_reads",
                "max_cost",
            )
        )

    # -- construction helpers -------------------------------------------

    @classmethod
    def from_cost_units(
        cls,
        units: float,
        weights: Optional[CostWeights] = None,
        deadline_ms: Optional[float] = None,
    ) -> "QueryBudget":
        """A budget expressed directly in modelled-cost units."""
        return cls(max_cost=units, weights=weights, deadline_ms=deadline_ms)

    @classmethod
    def from_cost_model(
        cls,
        model: Any,
        k: int,
        headroom: float = 4.0,
        deadline_ms: Optional[float] = None,
    ) -> "QueryBudget":
        """A budget of ``headroom`` times the Section 6.2 predicted
        overhead cost at granule count *k*.

        *model* is a :class:`~repro.core.granules.JoinCostModel` (duck
        typed to avoid an import cycle); the model's own weights price
        the budget, so "4x the estimated cost" means the same thing the
        planner's estimate does.
        """
        if headroom <= 0:
            raise ValueError(f"headroom must be positive, got {headroom}")
        return cls.from_cost_units(
            model.overhead_cost(k) * headroom,
            weights=model.weights,
            deadline_ms=deadline_ms,
        )

    # -- enforcement ----------------------------------------------------

    def preflight_violation(self) -> Optional[str]:
        """The reason this budget is exhausted before any work, if so."""
        if self.deadline_ms is not None and self.deadline_ms <= 0:
            return "deadline"
        if self.max_comparisons == 0:
            return "comparisons"
        if self.max_block_reads == 0:
            return "block-reads"
        if self.max_cost == 0:
            return "cost"
        return None

    def violation(
        self,
        counters: CostCounters,
        elapsed_ms: float,
        weights: Optional[CostWeights] = None,
    ) -> Optional[str]:
        """The first violated limit given the run's state, or ``None``."""
        if self.deadline_ms is not None and elapsed_ms >= self.deadline_ms:
            return "deadline"
        if (
            self.max_comparisons is not None
            and counters.cpu_comparisons > self.max_comparisons
        ):
            return "comparisons"
        if (
            self.max_block_reads is not None
            and counters.block_reads > self.max_block_reads
        ):
            return "block-reads"
        if self.max_cost is not None:
            pricing = self.weights or weights or CostWeights.main_memory()
            if counters.modelled_cost(pricing) > self.max_cost:
                return "cost"
        return None


# ----------------------------------------------------------------------
# Cancellation.
# ----------------------------------------------------------------------


class CancellationToken:
    """A thread-safe cooperative stop signal.

    ``cancel()`` may be called from any thread (typically a signal
    handler); the executing join polls the token at its boundaries via
    :meth:`poll` and unwinds gracefully.  ``cancel_after_checks=n``
    makes the token self-cancel on its ``n``-th poll — the deterministic
    hook the cancel/resume differential tests use to cancel at an exact
    partition or block boundary without wall-clock races.
    """

    def __init__(self, cancel_after_checks: Optional[int] = None) -> None:
        if cancel_after_checks is not None and cancel_after_checks < 0:
            raise ValueError(
                f"cancel_after_checks must be >= 0, got {cancel_after_checks}"
            )
        self._event = threading.Event()
        self._lock = threading.Lock()
        self._checks = 0
        self._cancel_after = cancel_after_checks

    def cancel(self) -> None:
        """Request cancellation (idempotent, thread-safe)."""
        self._event.set()

    @property
    def cancelled(self) -> bool:
        """True once cancellation was requested (does not count a check)."""
        return self._event.is_set()

    @property
    def checks(self) -> int:
        """Cooperative checks performed so far."""
        return self._checks

    def poll(self) -> bool:
        """Record one cooperative check; True when the query must stop."""
        with self._lock:
            self._checks += 1
            if (
                self._cancel_after is not None
                and self._checks > self._cancel_after
            ):
                self._event.set()
        return self._event.is_set()

    def raise_if_cancelled(self) -> None:
        """Poll and raise :class:`QueryCancelledError` when cancelled —
        the storage-level cancellation point used by algorithms without
        a partition-boundary loop of their own."""
        if self.poll():
            raise QueryCancelledError(checks=self._checks)

    def __repr__(self) -> str:
        state = "cancelled" if self.cancelled else "armed"
        return f"CancellationToken({state}, checks={self._checks})"


# ----------------------------------------------------------------------
# Checkpoint / resume.
# ----------------------------------------------------------------------


def make_fingerprint(
    algorithm: str,
    k_outer: int,
    k_inner: int,
    outer: Any,
    inner: Any,
) -> Dict[str, Any]:
    """Identity of one deterministic join execution: everything that must
    match for ``(outer partitions completed)`` to mean the same thing.
    The order-sensitive endpoint digests catch a resume against the
    wrong (or reordered) relation; payloads are deliberately excluded."""
    return {
        "algorithm": algorithm,
        "k_outer": int(k_outer),
        "k_inner": int(k_inner),
        "outer_cardinality": len(outer),
        "inner_cardinality": len(inner),
        "outer_digest": relation_endpoint_digest(outer),
        "inner_digest": relation_endpoint_digest(inner),
    }


@dataclass
class QueryCheckpoint:
    """Serialized progress of one OIPJOIN at an outer-partition boundary.

    ``counters`` / ``resilience`` are the exact state of the Algorithm-2
    probe loop after ``partitions_completed`` outer partitions.
    ``pairs`` holds
    ``(outer_index, inner_index)`` positions into the two relations in
    emission order, so a resume rebuilds the exact pair list (one
    :class:`~repro.core.join.PairChunks` chunk over the relations)
    without re-reading a single block.
    """

    fingerprint: Dict[str, Any]
    partitions_completed: int
    partition_count: int
    counters: Dict[str, int]
    resilience: Dict[str, int]
    pairs: List[Tuple[int, int]]
    version: int = CHECKPOINT_VERSION

    # -- persistence ----------------------------------------------------

    def write(self, path: str) -> str:
        """Atomically write the checkpoint as JSON; returns *path*."""
        payload = {
            "version": self.version,
            "fingerprint": self.fingerprint,
            "partitions_completed": self.partitions_completed,
            "partition_count": self.partition_count,
            "counters": self.counters,
            "resilience": self.resilience,
            "pairs": [list(pair) for pair in self.pairs],
        }
        tmp_path = f"{path}.tmp"
        with open(tmp_path, "w", encoding="ascii") as handle:
            json.dump(payload, handle, separators=(",", ":"))
        os.replace(tmp_path, path)
        return path

    @classmethod
    def load(cls, path: str) -> "QueryCheckpoint":
        with open(path, "r", encoding="ascii") as handle:
            payload = json.load(handle)
        version = payload.get("version")
        if version != CHECKPOINT_VERSION:
            raise CheckpointMismatchError(
                f"checkpoint version {version!r} is not supported "
                f"(expected {CHECKPOINT_VERSION})"
            )
        return cls(
            fingerprint=payload["fingerprint"],
            partitions_completed=int(payload["partitions_completed"]),
            partition_count=int(payload["partition_count"]),
            counters={k: int(v) for k, v in payload["counters"].items()},
            resilience={k: int(v) for k, v in payload["resilience"].items()},
            pairs=[(int(o), int(i)) for o, i in payload["pairs"]],
        )

    # -- resume ---------------------------------------------------------

    def validate(
        self, fingerprint: Dict[str, Any], partition_count: int
    ) -> None:
        """Refuse to resume against a different query."""
        if self.fingerprint != fingerprint:
            mismatched = sorted(
                key
                for key in set(self.fingerprint) | set(fingerprint)
                if self.fingerprint.get(key) != fingerprint.get(key)
            )
            raise CheckpointMismatchError(
                "checkpoint does not match this query "
                f"(differs in: {', '.join(mismatched)})"
            )
        if self.partition_count != partition_count:
            raise CheckpointMismatchError(
                f"checkpoint expects {self.partition_count} outer "
                f"partitions, query has {partition_count}"
            )
        if not 0 <= self.partitions_completed <= partition_count:
            raise CheckpointMismatchError(
                f"checkpoint progress {self.partitions_completed} is out "
                f"of range for {partition_count} partitions"
            )

    def restore_into(
        self, counters: CostCounters, resilience: ResilienceCounters
    ) -> None:
        """Overwrite live counters with the checkpointed state.

        The partitioning (OIPCREATE) phase re-runs deterministically on
        resume and re-charges the identical build IO; overwriting with
        the checkpoint snapshot — which already contains those charges —
        keeps the final totals bit-identical to an uninterrupted run.
        """
        counters.restore(self.counters)
        resilience.restore(self.resilience)


class CheckpointWriter:
    """Writes boundary checkpoints for one run, every *every* partitions
    (and unconditionally at a cancellation/budget stop).

    Pairs are stored as ``(outer position, inner position)`` in their
    relations, read off the result's hit chunks
    (:meth:`repro.core.join.PairChunks.positions`), so any payload
    checkpoints and equal tuples keep their own positions.
    """

    def __init__(
        self,
        path: str,
        every: int,
        fingerprint: Dict[str, Any],
        partition_count: int,
    ) -> None:
        if every < 1:
            raise ValueError(f"checkpoint interval must be >= 1, got {every}")
        self.path = str(path)
        self.every = every
        self.fingerprint = fingerprint
        self.partition_count = partition_count
        self._last_written: Optional[int] = None
        #: How many checkpoints this run wrote (observability/tests).
        self.writes = 0

    def maybe_write(
        self,
        partitions_completed: int,
        counters: CostCounters,
        resilience: ResilienceCounters,
        pairs: Any,
        force: bool = False,
    ) -> Optional[str]:
        """Write a checkpoint of *pairs* (the run's
        :class:`~repro.core.join.PairChunks`) when the cadence (or
        *force*) says so; returns the path when one was written."""
        due = (
            partitions_completed > 0
            and partitions_completed % self.every == 0
        )
        if not force and not due:
            return None
        if self._last_written == partitions_completed and not force:
            return None
        checkpoint = QueryCheckpoint(
            fingerprint=self.fingerprint,
            partitions_completed=partitions_completed,
            partition_count=self.partition_count,
            counters=counters.snapshot(),
            resilience=resilience.snapshot(),
            pairs=pairs.positions(),
        )
        checkpoint.write(self.path)
        self._last_written = partitions_completed
        self.writes += 1
        return self.path


# ----------------------------------------------------------------------
# The per-run governor.
# ----------------------------------------------------------------------


class GovernedRun:
    """Lifecycle state of one governed join execution.

    Owns the start time, the budget, the cancellation token and the
    checkpoint writer; the join loops call :meth:`boundary` at every
    cooperative stop point with *sequential-equivalent* counters (see
    :class:`QueryCheckpoint`).  ``boundary`` returns ``True`` when the
    run must stop because of cancellation, raises
    :class:`BudgetExceededError` on a violated budget (writing a final
    checkpoint first when configured), and otherwise handles the
    checkpoint cadence.
    """

    def __init__(
        self,
        budget: Optional[QueryBudget] = None,
        cancellation: Optional[CancellationToken] = None,
        weights: Optional[CostWeights] = None,
        clock: Callable[[], float] = time.monotonic,
        tracer: Optional[Any] = None,
    ) -> None:
        self.budget = budget
        self.cancellation = cancellation
        self.weights = weights
        self._clock = clock
        self._started = clock()
        self.writer: Optional[CheckpointWriter] = None
        #: Path of the most recent checkpoint written by this run.
        self.last_checkpoint: Optional[str] = None
        #: Phase tracer (duck typed); only consulted when a boundary
        #: actually stops the run or writes a checkpoint, so the healthy
        #: path costs nothing extra.
        self._trace = (
            tracer if tracer is not None and tracer.enabled else None
        )

    def attach_writer(self, writer: CheckpointWriter) -> None:
        self.writer = writer

    def elapsed_ms(self) -> float:
        return (self._clock() - self._started) * 1000.0

    # -- enforcement ----------------------------------------------------

    def preflight(self) -> None:
        """Fail fast when the budget is exhausted before any partition
        work (zero deadline or zero logical budget)."""
        if self.budget is None:
            return
        reason = self.budget.preflight_violation()
        if reason is not None:
            raise BudgetExceededError(
                f"{reason} (exhausted at launch)",
                partitions_completed=0,
                elapsed_ms=self.elapsed_ms(),
            )

    def checkpoint(
        self,
        partitions_completed: int,
        counters: CostCounters,
        resilience: ResilienceCounters,
        pairs: Sequence[Tuple[Any, Any]],
        force: bool = False,
    ) -> Optional[str]:
        if self.writer is None:
            return None
        path = self.writer.maybe_write(
            partitions_completed, counters, resilience, pairs, force=force
        )
        if path is not None:
            self.last_checkpoint = path
        return path

    def boundary(
        self,
        partitions_completed: int,
        counters: CostCounters,
        resilience: ResilienceCounters,
        pairs: Sequence[Tuple[Any, Any]],
        final: bool = False,
    ) -> bool:
        """One cooperative stop point.  True means "stop: cancelled".

        The *final* one comes after the last partition's work: it
        reports a cancel or a violated budget that arrived during that
        work, which at ``k=1`` is the whole probe, but writes no
        cadence checkpoint of a finished run."""
        if self.cancellation is not None and self.cancellation.poll():
            self.checkpoint(
                partitions_completed, counters, resilience, pairs, force=True
            )
            if self._trace is not None:
                self._trace.event(
                    "governor.cancelled",
                    partitions_completed=partitions_completed,
                )
            return True
        if self.budget is not None:
            reason = self.budget.violation(
                counters, self.elapsed_ms(), self.weights
            )
            if reason is not None:
                path = self.checkpoint(
                    partitions_completed,
                    counters,
                    resilience,
                    pairs,
                    force=True,
                )
                if self._trace is not None:
                    self._trace.event(
                        "governor.budget_exceeded",
                        reason=reason,
                        partitions_completed=partitions_completed,
                    )
                raise BudgetExceededError(
                    reason,
                    partitions_completed=partitions_completed,
                    counters=CostCounters.from_snapshot(counters.snapshot()),
                    resilience=ResilienceCounters.from_snapshot(
                        resilience.snapshot()
                    ),
                    elapsed_ms=self.elapsed_ms(),
                    checkpoint_path=path,
                )
        if final:
            return False
        written = self.checkpoint(
            partitions_completed, counters, resilience, pairs
        )
        if written is not None and self._trace is not None:
            self._trace.event(
                "governor.checkpoint",
                partitions_completed=partitions_completed,
                path=written,
            )
        return False


# ----------------------------------------------------------------------
# Admission control.
# ----------------------------------------------------------------------


@dataclass
class AdmissionStats:
    """Observable admission counters (all monotone integers)."""

    submitted: int = 0
    admitted: int = 0
    rejected: int = 0
    timeouts: int = 0
    completed: int = 0
    peak_active: int = 0
    peak_queued: int = 0

    def snapshot(self) -> Dict[str, int]:
        return {
            "submitted": self.submitted,
            "admitted": self.admitted,
            "rejected": self.rejected,
            "timeouts": self.timeouts,
            "completed": self.completed,
            "peak_active": self.peak_active,
            "peak_queued": self.peak_queued,
        }


class AdmissionController:
    """A bounded concurrent-query slot pool with a wait queue.

    ``max_active`` queries run concurrently; up to ``max_queued`` more
    wait for a slot (optionally bounded by a *timeout*); anything beyond
    that is rejected immediately with :class:`AdmissionRejectedError` —
    shedding load instead of degrading every admitted query.  All
    admission outcomes are observable through :attr:`stats`.
    """

    def __init__(self, max_active: int = 4, max_queued: int = 0) -> None:
        if max_active < 1:
            raise ValueError(f"max_active must be >= 1, got {max_active}")
        if max_queued < 0:
            raise ValueError(f"max_queued must be >= 0, got {max_queued}")
        self.max_active = max_active
        self.max_queued = max_queued
        self.stats = AdmissionStats()
        self._active = 0
        self._queued = 0
        self._condition = threading.Condition()

    @property
    def active(self) -> int:
        return self._active

    @property
    def queued(self) -> int:
        return self._queued

    def _reject(self, timed_out: bool = False) -> AdmissionRejectedError:
        self.stats.rejected += 1
        if timed_out:
            self.stats.timeouts += 1
        return AdmissionRejectedError(
            active=self._active,
            queued=self._queued,
            max_active=self.max_active,
            max_queued=self.max_queued,
            timed_out=timed_out,
        )

    def _acquire(self, timeout: Optional[float]) -> None:
        with self._condition:
            self.stats.submitted += 1
            if self._active < self.max_active and self._queued == 0:
                self._active += 1
                self.stats.admitted += 1
                self.stats.peak_active = max(
                    self.stats.peak_active, self._active
                )
                return
            if self._queued >= self.max_queued:
                raise self._reject()
            self._queued += 1
            self.stats.peak_queued = max(self.stats.peak_queued, self._queued)
            deadline = (
                None if timeout is None else time.monotonic() + timeout
            )
            try:
                while self._active >= self.max_active:
                    remaining = (
                        None
                        if deadline is None
                        else deadline - time.monotonic()
                    )
                    if remaining is not None and remaining <= 0:
                        raise self._reject(timed_out=True)
                    if not self._condition.wait(timeout=remaining):
                        raise self._reject(timed_out=True)
            finally:
                self._queued -= 1
            self._active += 1
            self.stats.admitted += 1
            self.stats.peak_active = max(self.stats.peak_active, self._active)

    def _release(self) -> None:
        with self._condition:
            self._active -= 1
            self.stats.completed += 1
            self._condition.notify()

    @contextmanager
    def admit(self, timeout: Optional[float] = None):
        """Hold one query slot for the duration of the ``with`` block;
        raises :class:`AdmissionRejectedError` when none can be had."""
        self._acquire(timeout)
        try:
            yield self
        finally:
            self._release()

    def run(
        self,
        algorithm: Any,
        outer: Any,
        inner: Any,
        timeout: Optional[float] = None,
    ) -> Any:
        """Admit, execute ``algorithm.join(outer, inner)``, release."""
        with self.admit(timeout=timeout):
            return algorithm.join(outer, inner)

    def publish_metrics(self, registry: Any) -> None:
        """Publish admission outcomes (monotone counters) and the live
        slot occupancy (gauges) into a metrics registry."""
        registry.publish_dict("admission", self.stats.snapshot())
        registry.gauge("admission.active").set(self._active)
        registry.gauge("admission.queued").set(self._queued)

    def __repr__(self) -> str:
        return (
            f"AdmissionController(active={self._active}/{self.max_active}, "
            f"queued={self._queued}/{self.max_queued})"
        )
