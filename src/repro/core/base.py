"""Common interface for every overlap-join algorithm in the library.

All joins — the OIPJOIN and all baselines — answer the same question
(Section 1): given valid-time relations ``r`` and ``s``, find all pairs
``(r, s)`` with ``r.T`` intersecting ``s.T``.  They share

* the output: a :class:`JoinResult` carrying the matched pairs and the
  :class:`~repro.storage.metrics.CostCounters` accumulated while producing
  them, and
* the environment: a :class:`~repro.storage.device.DeviceProfile` plus an
  optional buffer pool, injected at construction.

The base class also fixes the charging conventions so counters are
comparable across algorithms: one ``partition access`` per fetched
partition/index node, one ``false hit`` per fetched candidate that fails
the overlap test, CPU comparisons for every endpoint/index comparison the
algorithm performs.
"""

from __future__ import annotations

import time
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..obs.gcpause import gc_pauses
from ..obs.trace import NULL_TRACER
from ..storage.buffer import BufferPool
from ..storage.device import DeviceProfile
from ..storage.faults import FaultPolicy
from ..storage.manager import StorageManager
from ..storage.metrics import CostCounters, CostWeights, ResilienceCounters
from .relation import TemporalRelation, TemporalTuple

__all__ = ["JoinResult", "OverlapJoinAlgorithm", "join_pair_key"]

#: A result pair: (outer tuple, inner tuple).
JoinPair = Tuple[TemporalTuple, TemporalTuple]


def join_pair_key(pair: JoinPair) -> Tuple[int, int, Any, int, int, Any]:
    """Canonical sort/set key for a result pair (tests compare join outputs
    of different algorithms through this key)."""
    outer, inner = pair
    return (
        outer.start,
        outer.end,
        outer.payload,
        inner.start,
        inner.end,
        inner.payload,
    )


@dataclass
class JoinResult:
    """Output of one join execution.

    ``pairs`` is the overlap-join result ``{r o s | r.T cap s.T}``, a
    sequence of ``(outer, inner)`` tuple pairs: a list for the baselines,
    a :class:`~repro.core.join.PairChunks` (hit chunks that build pairs
    on demand) for the OIPJOIN and its batch; ``counters`` the cost
    events charged while computing it; ``details`` algorithm-specific
    facts (derived ``k``, partition counts, tree heights, ...) the
    benchmarks report.
    """

    algorithm: str
    pairs: Sequence[JoinPair]
    counters: CostCounters
    details: Dict[str, Any] = field(default_factory=dict)
    #: Fault-handling events of the run (all zero on a healthy device).
    resilience: ResilienceCounters = field(default_factory=ResilienceCounters)
    #: False when the run stopped early at a cooperative cancellation
    #: point — ``pairs``/``counters`` then hold the well-formed partial
    #: state at the last boundary reached, not the full join.
    completed: bool = True
    #: Wall-clock duration of :meth:`OverlapJoinAlgorithm.join`, measured
    #: by the base class so library callers and run reports get timing
    #: without re-measuring around the call.
    elapsed_ms: float = 0.0
    #: The run-report document (see :mod:`repro.obs.report`), built when
    #: the algorithm was constructed with ``collect_report=True``.
    report: Optional[Dict[str, Any]] = None

    def __len__(self) -> int:
        return len(self.pairs)

    @property
    def cardinality(self) -> int:
        """``n_z``, the number of result tuples."""
        return len(self.pairs)

    @property
    def false_hit_ratio(self) -> float:
        """False hits over fetched candidates for this run."""
        return self.counters.false_hit_ratio()

    def pair_keys(self) -> List[Tuple]:
        """Sorted canonical keys of all result pairs."""
        return sorted(join_pair_key(pair) for pair in self.pairs)

    def modelled_cost(self, weights: CostWeights) -> float:
        """Paper-style modelled cost of the run."""
        return self.counters.modelled_cost(weights)


class OverlapJoinAlgorithm(ABC):
    """Base class of all overlap joins.

    Subclasses implement :meth:`_execute`; the public :meth:`join` wraps it
    with fresh counters, empty-input short-circuiting, and result-count
    book-keeping, so every algorithm is measured identically.
    """

    #: Short name used in benchmark tables ("oip", "lqt", "rit", ...).
    name: str = "join"

    #: When True (the default), a cancellation token is enforced by the
    #: storage manager on every block read — the right granularity for
    #: algorithms without an outer-partition loop of their own.  The
    #: OIPJOIN overrides this to False and polls the token at partition/
    #: chunk boundaries through its governor instead.
    cancellation_via_storage: bool = True

    def __init__(
        self,
        device: Optional[DeviceProfile] = None,
        buffer_pool: Optional[BufferPool] = None,
        fault_policy: Optional[FaultPolicy] = None,
        max_read_retries: int = 3,
        verify_checksums: bool = True,
        cancellation: Optional[Any] = None,
        tracer: Optional[Any] = None,
        metrics: Optional[Any] = None,
        collect_report: bool = False,
    ) -> None:
        if max_read_retries < 0:
            raise ValueError(
                f"max_read_retries must be >= 0, got {max_read_retries}"
            )
        self.device = device if device is not None else DeviceProfile.main_memory()
        self.buffer_pool = buffer_pool
        self.fault_policy = fault_policy
        self.max_read_retries = max_read_retries
        self.verify_checksums = verify_checksums
        #: Optional :class:`~repro.engine.governor.CancellationToken`
        #: (duck typed: anything with ``poll``/``raise_if_cancelled``).
        self.cancellation = cancellation
        #: Phase tracer (:class:`~repro.obs.trace.Tracer`); defaults to
        #: the shared zero-allocation :data:`~repro.obs.trace.NULL_TRACER`.
        self.tracer = tracer if tracer is not None else NULL_TRACER
        #: Optional :class:`~repro.obs.registry.MetricsRegistry` the run's
        #: counters and subsystems publish into after every join.
        self.metrics = metrics
        #: When True, :meth:`join` builds the run-report document on
        #: ``JoinResult.report`` (attaching a private in-memory tracer if
        #: none is enabled, so the report always has phase timings).
        self.collect_report = collect_report
        self._resilience = ResilienceCounters()
        self._partial_pairs: List[JoinPair] = []
        self._run_tracer: Any = self.tracer

    def join(
        self,
        outer: TemporalRelation,
        inner: TemporalRelation,
    ) -> JoinResult:
        """Compute the overlap join of *outer* and *inner*.

        With a cancellation token attached, a cancel observed at a
        cooperative point unwinds into a *partial* result: the pairs
        collected so far, the counters at the stop point, and
        ``completed=False``."""
        started = time.perf_counter()
        counters = CostCounters()
        resilience = ResilienceCounters()
        self._resilience = resilience
        self._partial_pairs = []
        tracer = self._tracer_for_run()
        spans_before = tracer.span_count
        events_before = tracer.event_count
        roots_before = len(tracer.roots)
        if outer.is_empty or inner.is_empty:
            result = JoinResult(
                algorithm=self.name,
                pairs=self._begin_pairs(),
                counters=counters,
                resilience=resilience,
            )
        else:
            # Imported lazily: repro.engine.governor must stay importable
            # without repro.core (and vice versa).
            from ..engine.governor import QueryCancelledError

            try:
                with tracer.span("join", algorithm=self.name) as span:
                    if tracer.enabled:
                        with gc_pauses() as pauses:
                            result = self._execute(outer, inner, counters)
                        pauses.record(span)
                    else:
                        result = self._execute(outer, inner, counters)
            except QueryCancelledError:
                result = JoinResult(
                    algorithm=self.name,
                    pairs=list(self._partial_pairs),
                    counters=counters,
                    details={"cancelled": True},
                    completed=False,
                )
        result.counters.result_tuples = self._result_tuples(result)
        result.resilience = resilience
        result.elapsed_ms = (time.perf_counter() - started) * 1000.0
        # Observability runs strictly after the join, so the hot path
        # carries no observability cost.
        if self.metrics is not None:
            self._publish(result)
        if self.collect_report:
            self._report(
                result,
                tracer.roots[-1] if len(tracer.roots) > roots_before else None,
                tracer.span_count - spans_before,
                tracer.event_count - events_before,
            )
        return result

    def _result_tuples(self, result: JoinResult) -> int:
        """``n_z`` of a finished run, which :meth:`join` records in
        ``result_tuples``: the pairs it returns."""
        return len(result.pairs)

    def _tracer_for_run(self) -> Any:
        """The tracer of one run, kept on ``_run_tracer`` for the storage
        manager and governor.  A report needs phase timings even when
        the caller attached no tracer, so ``collect_report`` then
        collects into a private in-memory one."""
        tracer = self.tracer
        if self.collect_report and not tracer.enabled:
            from ..obs.trace import Tracer

            tracer = Tracer()
        self._run_tracer = tracer
        return tracer

    def _publish(self, result: JoinResult) -> None:
        """Publish one result's counters, and the buffer pool's and
        fault policy's state, into the metrics registry."""
        for key, value in result.counters.snapshot().items():
            self.metrics.counter(f"join.counters.{key}").inc(value)
        for key, value in result.resilience.snapshot().items():
            self.metrics.counter(f"join.resilience.{key}").inc(value)
        for subsystem in (self.buffer_pool, self.fault_policy):
            publish = getattr(subsystem, "publish_metrics", None)
            if publish is not None:
                publish(self.metrics)

    def _report(
        self,
        result: JoinResult,
        root: Optional[Any],
        span_count: int,
        event_count: int,
    ) -> None:
        """Build *result*'s run-report document, rooted at the finished
        span *root* (None when the run opened none)."""
        from ..obs.report import build_report

        weights = getattr(self, "weights", None)
        if weights is None:
            weights = self.device.weights
        result.report = build_report(
            result,
            self.device,
            weights,
            root=root,
            span_count=span_count,
            event_count=event_count,
            governor=self._governor_summary(result),
            metrics=(
                self.metrics.snapshot() if self.metrics is not None else None
            ),
        )

    @staticmethod
    def _governor_summary(result: JoinResult) -> Optional[Dict[str, Any]]:
        """The governor-outcome section of the run report, distilled from
        the result details the governed run recorded (None when the run
        was not governed)."""
        keys = (
            "partitions_completed",
            "resumed_from_partition",
            "cancelled",
            "checkpoint",
        )
        summary = {
            key: result.details[key] for key in keys if key in result.details
        }
        return summary or None

    def _begin_pairs(self) -> List[JoinPair]:
        """The pair sink of one execution, also the result of an empty
        input.  Registering the list here lets :meth:`join` hand back a
        well-formed partial result when a cancellation unwinds through
        :class:`QueryCancelledError`."""
        self._partial_pairs = []
        return self._partial_pairs

    def _storage(self, counters: CostCounters) -> StorageManager:
        """The storage manager of one run, wired with this algorithm's
        device, buffer pool and resilience configuration.  All algorithms
        build their storage through this helper so fault injection and
        checksum verification apply uniformly."""
        return StorageManager(
            device=self.device,
            counters=counters,
            buffer_pool=self.buffer_pool,
            fault_policy=self.fault_policy,
            resilience=self._resilience,
            max_retries=self.max_read_retries,
            verify_checksums=self.verify_checksums,
            cancellation=(
                self.cancellation if self.cancellation_via_storage else None
            ),
            tracer=self._run_tracer,
        )

    @abstractmethod
    def _execute(
        self,
        outer: TemporalRelation,
        inner: TemporalRelation,
        counters: CostCounters,
    ) -> JoinResult:
        """Algorithm-specific join over non-empty inputs."""

    # -- shared charging helpers --------------------------------------------

    @staticmethod
    def _match(
        outer: TemporalTuple,
        inner: TemporalTuple,
        counters: CostCounters,
        pairs: List[JoinPair],
    ) -> None:
        """Compare one candidate pair: two endpoint comparisons (``TS`` and
        ``TE``), then either emit the pair or record a false hit."""
        counters.charge_cpu(2)
        if outer.start <= inner.end and inner.start <= outer.end:
            pairs.append((outer, inner))
        else:
            counters.charge_false_hit()

    def __repr__(self) -> str:
        return f"{type(self).__name__}(device={self.device.name!r})"
