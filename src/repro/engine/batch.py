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
  the window; the kept hits stay hit chunks
  (:class:`~repro.core.join.PairChunks`), like the join's.

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

A batch is an :class:`~repro.core.join.OIPJoin` run that builds once
and probes once per window, so lifecycle and observability are the
join's: an optional :class:`~repro.engine.governor.QueryBudget` /
:class:`~repro.engine.governor.CancellationToken` pair is enforced at
outer-partition boundaries through a per-query
:class:`~repro.engine.governor.GovernedRun` (a cancel stops the batch
with the partial query marked ``completed=False``), each query's
counters flow into the shared metrics registry, and
``collect_report=True`` builds one schema-valid run report per query.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..core.base import JoinResult
from ..core.interval import Interval
from ..core.join import (
    OIPJoin,
    PairChunks,
    RunReader,
    build_probe_schedule,
    hits_in_window,
    joined_tuples,
    probe_inline,
)
from ..core.granules import choose_kernel
from ..core.relation import TemporalRelation
from ..storage.device import DeviceProfile
from ..storage.faults import FaultPolicy
from ..storage.metrics import CostCounters, CostWeights, ResilienceCounters

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


def _window_emitter(window: Interval, counters: CostCounters, pairs: PairChunks):
    """The batch's emission step: keep only the kernel's hits that also
    overlap *window* (:func:`~repro.core.join.hits_in_window`) — two
    more comparisons per hit, and the hits that fail the window count as
    false hits too — as one chunk of *pairs*."""
    w_start, w_end = window.start, window.end

    def emit(outer, inner_runs, hits) -> None:
        n_outer = outer.length
        inner_tuples = joined_tuples(inner_runs, hits)
        counters.charge_cpu(2 * len(hits))
        kept = hits_in_window(
            outer.tuples, inner_tuples, n_outer, hits, w_start, w_end
        )
        counters.charge_false_hit(len(hits) - len(kept))
        pairs.append(outer.tuples, inner_tuples, n_outer, kept)

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


class BatchJoin(OIPJoin):
    """N windowed overlap queries over one shared OIP partitioning.

    A batch is an :class:`~repro.core.join.OIPJoin` run that builds once
    and probes once per window: construction, validation, tracer choice,
    storage wiring, the build (``derive_k`` plus both OIPCREATEs), the
    per-query governor, metrics and run reports are the join's own.
    (:meth:`~repro.core.join.OIPJoin.join` is inherited and runs the
    plain Algorithm 2.)  Parameters mirror the join's where the
    semantics carry over (``device``, ``k``, ``weights``, ``kernel``,
    resilience and observability keywords); the batch-specific ones
    are:

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
        budget: Optional[Any] = None,
        cancellation: Optional[Any] = None,
        fault_policy: Optional[FaultPolicy] = None,
        max_read_retries: int = 3,
        verify_checksums: bool = True,
        tracer: Optional[Any] = None,
        metrics: Optional[Any] = None,
        collect_report: bool = False,
    ) -> None:
        super().__init__(
            device=device,
            k=k,
            weights=weights,
            kernel=kernel,
            fault_policy=fault_policy,
            max_read_retries=max_read_retries,
            verify_checksums=verify_checksums,
            budget=budget,
            cancellation=cancellation,
            tracer=tracer,
            metrics=metrics,
            collect_report=collect_report,
        )

    # ------------------------------------------------------------------

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
        self._resilience = ResilienceCounters()
        if outer.is_empty or inner.is_empty:
            return self._empty_batch(windows, build_counters, started)

        tracer = self._tracer_for_run()
        kernel = choose_kernel(outer, inner, self.kernel)
        storage = self._storage(build_counters)
        queries: List[JoinResult] = []
        # Per query: its span and the spans/events it opened.
        marks: List[Tuple[Any, int, int]] = []
        with tracer.span("batch", algorithm=self.name, windows=len(windows)):
            # The batch's one build: exactly two oipcreate spans appear
            # in the trace, however many windows follow.
            derivation, outer_list, inner_list = self._build(
                outer, inner, storage, tracer, kernel
            )
            for index, window in enumerate(windows):
                spans_before = tracer.span_count
                events_before = tracer.event_count
                result, span = self._run_query(
                    index, window, outer_list, inner_list, storage, kernel
                )
                queries.append(result)
                # The query span is closed by now, so these deltas cover
                # exactly this query's spans/events.
                marks.append(
                    (
                        span,
                        tracer.span_count - spans_before,
                        tracer.event_count - events_before,
                    )
                )
                if self.metrics is not None:
                    self._publish(result)
                if not result.completed:
                    # A cancel stops the whole batch: later windows would
                    # observe the same cancelled token immediately.
                    break

        if self.metrics is not None:
            self.metrics.publish_dict(
                "batch.build", build_counters.snapshot()
            )
            storage.publish_metrics(self.metrics)
        if self.collect_report:
            # Each report is rooted at its query's span, finished by now
            # (the batch span closed first).
            for result, (span, span_count, event_count) in zip(queries, marks):
                root = span if getattr(span, "end_ms", None) is not None else None
                self._report(result, root, span_count, event_count)

        cancelled = not queries[-1].completed
        details: Dict[str, Any] = {
            # The inner side's count is the one the probe navigates.
            "k": inner_list.config.k,
            "k_outer": outer_list.config.k,
            "k_inner": inner_list.config.k,
            "outer_partitions": outer_list.partition_count,
            "inner_partitions": inner_list.partition_count,
            "self_adjusting": derivation is not None,
            "kernel": kernel,
            **self._k_model_details(
                outer, inner, derivation, inner_list.config.k, kernel
            ),
            "windows": len(windows),
            "queries_executed": len(queries),
        }
        if self.kernel not in ("auto", kernel):
            details["kernel_requested"] = self.kernel
        if cancelled:
            details["cancelled"] = True
        return BatchResult(
            algorithm=self.name,
            windows=list(windows),
            queries=queries,
            build_counters=build_counters,
            resilience=self._resilience,
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
        """All-empty results for an empty input side: no partitioning and
        no spans, but metrics and reports as for the join's empty-input
        short circuit."""
        queries = [
            JoinResult(
                algorithm=self.name,
                pairs=PairChunks(),
                counters=CostCounters(),
                details={"query_index": index, "window": (w.start, w.end)},
            )
            for index, w in enumerate(windows)
        ]
        if self.metrics is not None:
            for result in queries:
                self._publish(result)
        if self.collect_report:
            for result in queries:
                self._report(result, None, 0, 0)
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
        storage,
        kernel: str,
    ) -> Tuple[JoinResult, Any]:
        """One windowed query against the shared partitioning.

        The storage manager's counter and resilience sinks are swapped
        to this query's own for the duration of the probe, so block IO
        and fault recovery are attributed to the query that caused them;
        the per-query resilience events are merged back into the batch
        totals afterwards.
        """
        query_started = time.perf_counter()
        tracer = self._run_tracer
        counters = CostCounters()
        resilience = ResilienceCounters()
        storage.counters = counters
        storage.resilience = resilience
        governor = self._governed_run()
        pairs = PairChunks()
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
            self._resilience.merge(resilience)
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
