"""Batched multi-query execution over one shared OIP partitioning.

The paper's join answers one overlap query — the whole relation pair.
Many analytical workloads instead ask a *family* of windowed queries
against the same pair ("overlaps within each day of the last month"),
and running :class:`~repro.core.join.OIPJoin` once per window would
repeat the two most expensive shared steps every time: the ``OIPCREATE``
sort-and-partition pass of Algorithm 1 and the columnar decode of the
partition runs the probes touch.

:class:`BatchJoin` amortises both.  It partitions the pair **once** (the
trace of a batch run carries exactly two ``oipcreate`` spans, however
many queries follow), and every query probes the same partition nodes,
so a partition decoded for query 0 keeps its decode on its node for
every later query that probes it (:class:`~repro.core.join.RunReader`).
Each query then runs the Lemma 1 navigation with its window as the
pruning interval:

* the *outer* side is walked with :meth:`~repro.core.oip
  .OIPConfiguration.clamped_query_indices` of the window, so outer
  partitions disjoint from the window are never fetched;
* each relevant outer partition issues the overlap query with the
  *intersection* of its partition interval and the window (a tighter
  interval than Algorithm 2's, never missing a windowed result because
  every result pair must overlap inside the window);
* the partition-pair kernel (:mod:`repro.core.kernels` — shared with
  the single-query join, including the numpy tier) yields the
  overlapping pairs, which a final two-comparison test filters against
  the window.

A pair ``(r, s)`` matches window ``W`` iff ``max(r.TS, s.TS, W.TS) <=
min(r.TE, s.TE, W.TE)`` — plain interval overlap of all three.

Costs are charged with the same analytic conventions as the sequential
loop so counters are kernel-independent: per partition pair ``2 *
candidates`` CPU comparisons for the overlap test plus ``2 *
matches`` for the window test, and one false hit per fetched candidate
that did not become a windowed result.  Every query gets its **own**
:class:`~repro.storage.metrics.CostCounters` (the storage manager's
counter sink is swapped per query), so per-query run reports are
directly comparable; the shared build cost is reported once on the
batch.

Lifecycle and observability reuse the existing machinery: an optional
:class:`AdmissionController` admits each query, an optional
:class:`~repro.engine.governor.QueryBudget` /
:class:`~repro.engine.governor.CancellationToken` pair is enforced at
outer-partition boundaries through a per-query
:class:`~repro.engine.governor.GovernedRun` (a cancel stops the batch
with the partial query marked ``completed=False``), metrics flow into
the shared registry, and ``collect_report=True`` builds one
schema-valid run report per query.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..core.base import JoinResult
from ..core.granules import GranulePolicy
from ..core.interval import Interval
from ..core.join import (
    RunReader,
    build_probe_schedule,
    joined_tuples,
    probe_inline,
)
from ..core.kernels import KERNELS, resolve_kernel
from ..core.lazy_list import oip_create
from ..core.oip import OIPConfiguration
from ..core.relation import TemporalRelation
from ..storage.device import DeviceProfile
from ..storage.faults import FaultInjector, FaultPolicy
from ..storage.manager import StorageManager
from ..storage.metrics import CostCounters, CostWeights, ResilienceCounters
from .governor import AdmissionController, GovernedRun

__all__ = ["BatchJoin", "BatchResult", "equal_windows"]


def equal_windows(time_range: Interval, count: int) -> List[Interval]:
    """*count* contiguous, near-equal windows covering *time_range*.

    The first ``duration % count`` windows are one point longer, so the
    windows tile the range exactly — every time point belongs to one
    window (the CLI's ``--batch N`` uses this split).
    """
    if count < 1:
        raise ValueError(f"window count must be >= 1, got {count}")
    width, extra = divmod(time_range.duration, count)
    if width == 0:
        raise ValueError(
            f"cannot split {time_range.duration} time points into "
            f"{count} non-empty windows"
        )
    windows: List[Interval] = []
    start = time_range.start
    for index in range(count):
        stop = start + width + (1 if index < extra else 0)
        windows.append(Interval(start, stop - 1))
        start = stop
    return windows


def _window_emitter(window: Interval, counters: CostCounters, pairs: List):
    """The batch's emission step: keep only the kernel's hits that also
    overlap *window* — two more comparisons per hit, and the hits that
    fail the window count as false hits too."""
    w_start, w_end = window.start, window.end

    def emit(outer, inner_runs, hits) -> None:
        n_outer = outer.length
        outer_tuples = outer.tuples
        inner_tuples = joined_tuples(inner_runs, hits)
        counters.charge_cpu(2 * len(hits))
        emitted = 0
        for encoded in hits:
            outer_tuple = outer_tuples[encoded % n_outer]
            inner_tuple = inner_tuples[encoded // n_outer]
            if (
                max(outer_tuple.start, inner_tuple.start) <= w_end
                and w_start <= min(outer_tuple.end, inner_tuple.end)
            ):
                pairs.append((outer_tuple, inner_tuple))
                emitted += 1
        counters.charge_false_hit(len(hits) - emitted)

    return emit


@dataclass
class BatchResult:
    """Outcome of one :meth:`BatchJoin.run`.

    ``queries`` holds one :class:`~repro.core.base.JoinResult` per
    *executed* window, in window order — after a cancellation the list
    is shorter than ``windows`` and its last entry has
    ``completed=False``.  ``build_counters`` carries the shared
    ``OIPCREATE`` charges made once for the whole batch; per-query
    probe charges live on each query's own counters.
    """

    algorithm: str
    windows: List[Interval]
    queries: List[JoinResult]
    build_counters: CostCounters
    resilience: ResilienceCounters = field(default_factory=ResilienceCounters)
    details: Dict[str, Any] = field(default_factory=dict)
    completed: bool = True
    elapsed_ms: float = 0.0

    def __len__(self) -> int:
        return len(self.queries)

    @property
    def total_pairs(self) -> int:
        """Result pairs summed over all executed queries."""
        return sum(len(query.pairs) for query in self.queries)

    def combined_counters(self) -> CostCounters:
        """Build charges plus every query's probe charges, merged."""
        combined = self.build_counters
        for query in self.queries:
            combined = combined.merged_with(query.counters)
        return combined


class BatchJoin:
    """N windowed overlap queries over one shared OIP partitioning.

    Parameters mirror :class:`~repro.core.join.OIPJoin` where the
    semantics carry over (``device``, ``k``, ``weights``, ``kernel``,
    resilience and observability keywords); the batch-specific ones
    are:

    admission:
        An optional :class:`AdmissionController`; every query of the
        batch acquires one slot for the duration of its probe (the
        batch itself is sequential, so the controller's effect is the
        shared accounting — and back-pressure against *other* sessions
        using the same controller).
    admission_timeout:
        Seconds each query waits for an admission slot.
    budget:
        An optional :class:`~repro.engine.governor.QueryBudget`
        enforced **per query** at outer-partition boundaries (each
        query gets a fresh :class:`GovernedRun`, so a deadline budget
        restarts per window).
    cancellation:
        A shared :class:`~repro.engine.governor.CancellationToken`; a
        cancel observed at a boundary finishes the current query as a
        partial result (``completed=False``) and skips the remaining
        windows.
    """

    name = "oip.batch"

    def __init__(
        self,
        device: Optional[DeviceProfile] = None,
        k: Optional[int] = None,
        weights: Optional[CostWeights] = None,
        kernel: str = "auto",
        admission: Optional[AdmissionController] = None,
        admission_timeout: Optional[float] = None,
        budget: Optional[Any] = None,
        cancellation: Optional[Any] = None,
        fault_policy: Optional[FaultPolicy] = None,
        max_read_retries: int = 3,
        verify_checksums: bool = True,
        tracer: Optional[Any] = None,
        metrics: Optional[Any] = None,
        collect_report: bool = False,
    ) -> None:
        if kernel not in ("auto",) + KERNELS:
            raise ValueError(
                f"unknown join kernel {kernel!r}; choose from "
                f"{('auto',) + KERNELS}"
            )
        if max_read_retries < 0:
            raise ValueError(
                f"max_read_retries must be >= 0, got {max_read_retries}"
            )
        self.device = (
            device if device is not None else DeviceProfile.main_memory()
        )
        #: How the batch chooses ``k``, with the device's weights filled in.
        self.granules = GranulePolicy(k=k, weights=weights).on(self.device)
        self.kernel = kernel
        self.admission = admission
        self.admission_timeout = admission_timeout
        self.budget = budget
        self.cancellation = cancellation
        self.fault_policy = fault_policy
        self.max_read_retries = max_read_retries
        self.verify_checksums = verify_checksums
        self.tracer = tracer
        self.metrics = metrics
        self.collect_report = collect_report

    # ------------------------------------------------------------------

    @property
    def weights(self) -> CostWeights:
        """The caller's cost weights, else the device's."""
        return self.granules.weights

    def _run_tracer(self) -> Any:
        tracer = self.tracer
        if tracer is not None and (tracer.enabled or not self.collect_report):
            return tracer
        if self.collect_report:
            # Reports need phase timings even without a caller tracer.
            from ..obs.trace import Tracer

            return Tracer()
        from ..obs.trace import NULL_TRACER

        return NULL_TRACER

    def run(
        self,
        outer: TemporalRelation,
        inner: TemporalRelation,
        windows: List[Interval],
    ) -> BatchResult:
        """Execute one windowed overlap query per entry of *windows*."""
        if not windows:
            raise ValueError("batch execution needs at least one window")
        started = time.perf_counter()
        build_counters = CostCounters()
        batch_resilience = ResilienceCounters()
        if outer.is_empty or inner.is_empty:
            return self._empty_batch(windows, build_counters, started)

        tracer = self._run_tracer()
        kernel = resolve_kernel(self.kernel, outer, inner)

        queries: List[JoinResult] = []
        query_spans: List[Any] = []
        trace_marks: List[Tuple[int, int]] = []
        cancelled = False
        with tracer.span("batch", algorithm=self.name, windows=len(windows)):
            with tracer.span("derive_k") as k_span:
                derivation = self.granules.derive(outer, inner, self.device)
                self_adjusting = derivation is not None
                k_outer, k_inner = self.granules.counts(
                    outer, inner, derivation
                )
                k_span.set("k_outer", k_outer)
                k_span.set("k_inner", k_inner)
                k_span.set("self_adjusting", self_adjusting)

            config_r = OIPConfiguration.for_relation(outer, k_outer)
            config_s = OIPConfiguration.for_relation(inner, k_inner)
            injector = (
                FaultInjector(self.fault_policy)
                if self.fault_policy is not None
                else None
            )
            storage = StorageManager(
                device=self.device,
                counters=build_counters,
                fault_injector=injector,
                resilience=batch_resilience,
                max_retries=self.max_read_retries,
                verify_checksums=self.verify_checksums,
                tracer=tracer,
            )
            # The batch's one partitioning pass: exactly two oipcreate
            # spans appear in the trace, however many windows follow.
            with tracer.span("oipcreate", side="outer") as create_span:
                outer_list = oip_create(outer, config_r, storage)
                create_span.set("partitions", outer_list.partition_count)
            with tracer.span("oipcreate", side="inner") as create_span:
                inner_list = oip_create(inner, config_s, storage)
                create_span.set("partitions", inner_list.partition_count)

            for index, window in enumerate(windows):
                spans_before = tracer.span_count
                events_before = tracer.event_count
                if self.admission is not None:
                    with self.admission.admit(timeout=self.admission_timeout):
                        result, span = self._run_query(
                            index,
                            window,
                            outer_list,
                            inner_list,
                            storage,
                            batch_resilience,
                            kernel,
                            tracer,
                        )
                else:
                    result, span = self._run_query(
                        index,
                        window,
                        outer_list,
                        inner_list,
                        storage,
                        batch_resilience,
                        kernel,
                        tracer,
                    )
                queries.append(result)
                query_spans.append(span)
                # The query span is closed by now, so these deltas cover
                # exactly this query's spans/events.
                trace_marks.append(
                    (
                        tracer.span_count - spans_before,
                        tracer.event_count - events_before,
                    )
                )
                if self.metrics is not None:
                    for key, value in result.counters.snapshot().items():
                        self.metrics.counter(f"join.counters.{key}").inc(value)
                    for key, value in result.resilience.snapshot().items():
                        self.metrics.counter(
                            f"join.resilience.{key}"
                        ).inc(value)
                if not result.completed:
                    # A cancel stops the whole batch: later windows would
                    # observe the same cancelled token immediately.
                    cancelled = True
                    break

        if self.metrics is not None:
            self.metrics.publish_dict(
                "batch.build", build_counters.snapshot()
            )
            storage.publish_metrics(self.metrics)
            if self.admission is not None:
                self.admission.publish_metrics(self.metrics)
        if self.collect_report:
            self._attach_reports(queries, query_spans, trace_marks)

        details: Dict[str, Any] = {
            # The inner side's count is the one the probe navigates.
            "k": k_inner,
            "k_outer": k_outer,
            "k_inner": k_inner,
            "outer_partitions": outer_list.partition_count,
            "inner_partitions": inner_list.partition_count,
            "self_adjusting": self_adjusting,
            "kernel": kernel,
            "windows": len(windows),
            "queries_executed": len(queries),
        }
        if self.kernel not in ("auto", kernel):
            details["kernel_requested"] = self.kernel
        if self.admission is not None:
            details["admission"] = self.admission.stats.snapshot()
        if cancelled:
            details["cancelled"] = True
        return BatchResult(
            algorithm=self.name,
            windows=list(windows),
            queries=queries,
            build_counters=build_counters,
            resilience=batch_resilience,
            details=details,
            completed=not cancelled,
            elapsed_ms=(time.perf_counter() - started) * 1000.0,
        )

    def _empty_batch(
        self,
        windows: List[Interval],
        build_counters: CostCounters,
        started: float,
    ) -> BatchResult:
        """All-empty results for an empty input side (no partitioning,
        no spans — mirrors the base class's empty-input short circuit)."""
        queries = [
            JoinResult(
                algorithm=self.name,
                pairs=[],
                counters=CostCounters(),
                details={"query_index": index, "window": (w.start, w.end)},
            )
            for index, w in enumerate(windows)
        ]
        return BatchResult(
            algorithm=self.name,
            windows=list(windows),
            queries=queries,
            build_counters=build_counters,
            details={"windows": len(windows), "queries_executed": len(windows)},
            elapsed_ms=(time.perf_counter() - started) * 1000.0,
        )

    # ------------------------------------------------------------------

    def _run_query(
        self,
        index: int,
        window: Interval,
        outer_list,
        inner_list,
        storage: StorageManager,
        batch_resilience: ResilienceCounters,
        kernel: str,
        tracer,
    ) -> Tuple[JoinResult, Any]:
        """One windowed query against the shared partitioning.

        The storage manager's counter and resilience sinks are swapped
        to this query's own for the duration of the probe, so block IO
        and fault recovery are attributed to the query that caused them;
        the per-query resilience events are merged back into the batch
        totals afterwards.
        """
        query_started = time.perf_counter()
        counters = CostCounters()
        resilience = ResilienceCounters()
        storage.counters = counters
        storage.resilience = resilience
        governor = (
            GovernedRun(
                budget=self.budget,
                cancellation=self.cancellation,
                weights=self.weights,
                tracer=tracer,
            )
            if self.budget is not None or self.cancellation is not None
            else None
        )
        pairs: List = []
        cancelled = False
        visited = 0
        span = tracer.span(
            "query", index=index, window=(window.start, window.end)
        )
        try:
            if governor is not None:
                governor.preflight()
            with tracer.span("probe"):
                # Later windows reuse the decodes that earlier ones left
                # on the shared partition nodes.
                cancelled, visited = probe_inline(
                    build_probe_schedule(
                        outer_list, inner_list, window=window
                    ),
                    RunReader(storage),
                    counters,
                    pairs,
                    _window_emitter(window, counters, pairs),
                    kernel,
                    governor=governor,
                    tracer=tracer,
                )
        finally:
            span.__exit__(None, None, None)
            batch_resilience.merge(resilience)
        counters.result_tuples = len(pairs)
        details: Dict[str, Any] = {
            "query_index": index,
            "window": (window.start, window.end),
            "kernel": kernel,
            "outer_partitions_visited": visited,
            "shared_partitioning": True,
        }
        if self.kernel not in ("auto", kernel):
            details["kernel_requested"] = self.kernel
        if cancelled:
            details["cancelled"] = True
            details["partitions_completed"] = visited
        result = JoinResult(
            algorithm=self.name,
            pairs=pairs,
            counters=counters,
            details=details,
            resilience=resilience,
            completed=not cancelled,
            elapsed_ms=(time.perf_counter() - query_started) * 1000.0,
        )
        return result, span

    # ------------------------------------------------------------------

    def _attach_reports(
        self,
        queries: List[JoinResult],
        query_spans: List[Any],
        trace_marks: List[Tuple[int, int]],
    ) -> None:
        """Build one schema-valid run report per executed query, rooted
        at that query's trace span (finished by now — the batch span
        closed first)."""
        from ..obs.report import build_report

        metrics_snapshot = (
            self.metrics.snapshot() if self.metrics is not None else None
        )
        for position, result in enumerate(queries):
            span = query_spans[position]
            span_count, event_count = trace_marks[position]
            governor_summary = None
            if not result.completed:
                governor_summary = {
                    "cancelled": True,
                    "partitions_completed": result.details.get(
                        "partitions_completed", 0
                    ),
                }
            result.report = build_report(
                result,
                self.device,
                self.weights,
                root=span if getattr(span, "end_ms", None) is not None else None,
                span_count=span_count,
                event_count=event_count,
                governor=governor_summary,
                metrics=metrics_snapshot,
            )
