"""The long-lived, thread-safe overlap-join query service.

:class:`JoinService` is the composition point of six PRs of machinery:
snapshot persistence provides the data (:mod:`repro.storage.snapshot`,
pinned per generation by :class:`~repro.service.snapshots
.SnapshotManager`), the governor provides the request lifecycle
(:class:`~repro.engine.governor.AdmissionController` bounds concurrency
and sheds overload, :class:`~repro.engine.governor.QueryBudget` turns a
per-request deadline into a cooperative abort), and the observability
layer reports it all
(``service.*`` metric families in a
:class:`~repro.obs.MetricsRegistry`).

Correctness contract: a service query restores partition lists from the
pinned generation through the ``index_provider`` hook and is therefore
**bit-identical** — pairs, counters, fingerprints — to an offline
``OIPJoin(index_path=...)`` run against the same generation (see
:func:`offline_query`, which the chaos suite uses as its oracle).

Request lifecycle (every ``query()``)::

    submitted ──▶ state gate (serving?) ──▶ admission (slots/queue)
        │                │ draining/stopped        │ full
        │                ▼                         ▼
        │         ServiceUnavailableError   ServiceOverloadError
        ▼
    pin generation ──▶ budget+cancel join ──▶ release pin
        │                    │ deadline / fault / cancel
        ▼                    ▼
    response            structured ServiceError (stable ``code``)

Graceful shutdown: :meth:`drain` stops admitting, waits for in-flight
queries up to a timeout, then hard-stops stragglers by cancelling their
cooperative tokens — zero queries are lost silently; every admitted
query either completes or receives a structured ``cancelled`` error.
"""

from __future__ import annotations

import os
import threading
import time
import zlib
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..core.join import OIPJoin, PairChunks, hit_list, hits_in_window
from ..engine.governor import (
    AdmissionController,
    AdmissionRejectedError,
    BudgetExceededError,
    CancellationToken,
    QueryBudget,
)
from ..obs.log import NULL_QUERY_LOG, QueryLog
from ..obs.quantiles import summarize_latency
from ..obs.registry import DEFAULT_LATENCY_BUCKETS_MS, MetricsRegistry
from ..obs.trace import NULL_TRACER, TraceBuffer, Tracer, new_trace_id
from ..storage.faults import StorageFaultError
from .cache import ResultCache, request_fingerprint
from .errors import (
    BadRequestError,
    ServiceError,
    ServiceOverloadError,
    ServiceUnavailableError,
    SnapshotSwapRejectedError,
)
from .protocol import trace_context
from .snapshots import ServingGeneration, SnapshotManager

__all__ = [
    "JoinService",
    "offline_query",
    "STARTING",
    "SERVING",
    "DRAINING",
    "STOPPED",
    "STATS_VERSION",
]

#: Version of the ``service_stats`` document (``stats`` op /
#: ``repro stats``); bump on breaking shape changes.
STATS_VERSION = 1

STARTING = "starting"
SERVING = "serving"
DRAINING = "draining"
STOPPED = "stopped"

_STATE_VALUES = {STARTING: 0, SERVING: 1, DRAINING: 2, STOPPED: 3}
_OPS = ("join", "lookup")
_FINGERPRINT_MASK = 0xFFFFFFFFFFFF


def _window_matches(pair: Tuple[Any, Any], ts: int, te: int) -> bool:
    """A pair matches window ``[ts, te]`` iff all three intervals share
    a point (the :class:`~repro.engine.batch.BatchJoin` convention)."""
    outer, inner = pair
    return max(outer.start, inner.start, ts) <= min(
        outer.end, inner.end, te
    )


def _check_window(window: Any) -> Tuple[int, int]:
    try:
        ts, te = int(window[0]), int(window[1])
    except (TypeError, ValueError, OverflowError, IndexError, KeyError):
        raise BadRequestError(
            f"window must be a [start, end] integer pair, got {window!r}"
        ) from None
    if te < ts:
        raise BadRequestError(
            f"window end {te} precedes window start {ts}"
        )
    return ts, te


def _check_number(field: str, value: Any, kind: Callable[[Any], Any]) -> Any:
    """*value* converted by *kind* (``int`` or ``float``); a malformed
    wire field is the client's error, so it becomes ``bad_request``."""
    try:
        return kind(value)
    except (TypeError, ValueError, OverflowError):
        raise BadRequestError(
            f"{field} must be a number, got {value!r}"
        ) from None


def _tuple_key(tup: Any) -> str:
    """One tuple's part of a pair's fingerprint key; the pair's key is
    ``outer key | inner key``, UTF-8 encoded."""
    return f"{tup.start}|{tup.end}|{tup.payload!r}"


def _summarize_pairs(
    pairs: Sequence[Tuple[Any, Any]],
    window: Optional[Tuple[int, int]],
    limit: int,
) -> Tuple[int, int, List[Tuple[Any, Any]]]:
    """``(count, fingerprint, first *limit* pairs)`` of a pair list's
    pairs that meet *window* (all of them without one)."""
    if window is not None:
        ts, te = window
        pairs = [pair for pair in pairs if _window_matches(pair, ts, te)]
    fingerprint = 0
    for outer, inner in pairs:
        fingerprint = (
            fingerprint
            + zlib.crc32(f"{_tuple_key(outer)}|{_tuple_key(inner)}".encode())
        ) & _FINGERPRINT_MASK
    return len(pairs), fingerprint, list(pairs[:limit])


def _summarize_chunks(
    pairs: PairChunks,
    window: Optional[Tuple[int, int]],
    limit: int,
) -> Tuple[int, int, List[Tuple[Any, Any]]]:
    """:func:`_summarize_pairs` straight from the join's hit chunks,
    building no pair beyond the first *limit* kept ones.

    The window cuts a chunk's hits on its runs' endpoint columns
    (:func:`~repro.core.join.hits_in_window`); the numpy kernel's hit
    array stays an array through the cut, so only the kept hits become
    Python ints.  The key of a pair is
    its outer tuple's prefix followed by its inner tuple's key, and
    ``crc32(a + b) == crc32(b, crc32(a))``, so each pair's CRC is the
    inner key's CRC seeded with the outer prefix's CRC: one prefix per
    outer tuple and one key per inner tuple — of the kept hits when they
    are fewer than the chunk's tuples, else of the chunk — the keys
    cached across chunks."""
    crc32 = zlib.crc32
    inner_keys: Dict[int, bytes] = {}

    def prefix_of(tup: Any) -> int:
        return crc32(f"{_tuple_key(tup)}|".encode())

    def key_of(tup: Any) -> bytes:
        key = inner_keys.get(id(tup))
        if key is None:
            key = inner_keys[id(tup)] = _tuple_key(tup).encode()
        return key

    count = fingerprint = 0
    kept_pairs: List[Tuple[Any, Any]] = []
    for index, (outer, inner, n_outer, hits) in enumerate(pairs.chunks):
        if window is not None:
            hits = hits_in_window(
                *pairs.runs(index),
                hits,
                *window,
                ascending=index not in pairs.unordered,
            )
            if not len(hits):
                continue
        hits = hit_list(hits)
        if len(kept_pairs) < limit:
            kept_pairs += [
                (outer[encoded % n_outer], inner[encoded // n_outer])
                for encoded in hits[: limit - len(kept_pairs)]
            ]
        if len(hits) < len(outer) + len(inner):
            # Few kept hits: only their tuples need a prefix or a key.
            outer_at = {encoded % n_outer for encoded in hits}
            inner_at = {encoded // n_outer for encoded in hits}
            prefixes = {p: prefix_of(outer[p]) for p in outer_at}
            keys = {p: key_of(inner[p]) for p in inner_at}
        else:
            prefixes = list(map(prefix_of, outer))
            keys = list(map(key_of, inner))
        fingerprint += sum(
            [crc32(keys[e // n_outer], prefixes[e % n_outer]) for e in hits]
        )
        count += len(hits)
    return count, fingerprint & _FINGERPRINT_MASK, kept_pairs


def summarize_result(
    result: Any,
    *,
    op: str,
    window: Optional[Tuple[int, int]],
    generation: Optional[int],
    include_pairs: bool = False,
    max_pairs: int = 1000,
) -> Dict[str, Any]:
    """The query-response body shared by the service and its offline
    oracle: windowed filtering, canonical fingerprint, counters.

    ``fingerprint`` is an order-independent 48-bit sum of per-pair
    CRC32s over the canonical pair key, so two runs agree exactly when
    they produced the same result multiset — cheap to ship over the
    wire, stable across processes, and computed in one pass without
    sorting the (potentially huge) result.  An OIPJOIN's
    :class:`~repro.core.join.PairChunks` is read chunk by chunk without
    building its pairs; any other pair sequence is filtered and hashed
    pair by pair, to the same body.  A join that kept only the lookup's
    window's pairs (``OIPJoin(window=...)``, recorded in its
    ``details["window"]``) is not cut again."""
    limit = max(0, int(max_pairs)) if include_pairs else 0
    summarize = (
        _summarize_chunks
        if isinstance(result.pairs, PairChunks)
        else _summarize_pairs
    )
    cut = window if op == "lookup" else None
    if cut is not None and result.details.get("window") == tuple(cut):
        cut = None
    count, fingerprint, kept_pairs = summarize(result.pairs, cut, limit)
    body: Dict[str, Any] = {
        "op": op,
        "generation": generation,
        "window": None if window is None else list(window),
        "pairs": count,
        "fingerprint": fingerprint,
        "completed": bool(result.completed),
        "elapsed_ms": result.elapsed_ms,
        "counters": result.counters.snapshot(),
        "index": result.details.get("index"),
        # What the granule policy decided for the join that made this
        # body; a cached body keeps them.
        "k": result.details.get("k"),
        "kernel": result.details.get("kernel"),
    }
    if include_pairs:
        body["results"] = [
            [
                [outer.start, outer.end, outer.payload],
                [inner.start, inner.end, inner.payload],
            ]
            for outer, inner in kept_pairs
        ]
        body["results_truncated"] = count > limit
    return body


def offline_query(
    index_path: str,
    *,
    op: str = "join",
    window: Optional[Sequence[int]] = None,
    kernel: str = "auto",
    include_pairs: bool = False,
    max_pairs: int = 1000,
    join_options: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """One-shot offline execution of a service request: parse the
    snapshot once, reconstruct the relations and restore the index from
    that same parse (a fresh :class:`ServingGeneration` as the join's
    ``index_provider``), and summarise with the same helper the service
    uses.  This is the differential oracle the chaos suite compares the
    long-lived service against, bit for bit: its parse and generation
    are its own, shared with no service under test, and one read cannot
    pair one generation's relations with another's index."""
    if op not in _OPS:
        raise BadRequestError(f"unknown op {op!r}; choose from {_OPS}")
    checked = _check_window(window) if op == "lookup" else None
    generation = ServingGeneration.load(index_path)
    kwargs = generation.join_kwargs()
    if join_options:
        kwargs.update(join_options)
    join = OIPJoin(index_provider=generation, kernel=kernel, **kwargs)
    result = join.join(generation.outer, generation.inner)
    return summarize_result(
        result,
        op=op,
        window=checked,
        generation=generation.generation,
        include_pairs=include_pairs,
        max_pairs=max_pairs,
    )


class JoinService:
    """A bounded-concurrency overlap-join service over one snapshot
    path, surviving refreshes, corruption, overload, and shutdown.

    Thread-safe: any number of threads may call :meth:`query`,
    :meth:`refresh`, :meth:`health`, and :meth:`drain` concurrently.
    """

    def __init__(
        self,
        index_path: str,
        *,
        max_active: int = 4,
        max_queued: int = 16,
        admit_timeout_s: Optional[float] = 5.0,
        default_deadline_ms: Optional[float] = None,
        kernel: str = "auto",
        max_retries: int = 1,
        retry_backoff_s: float = 0.02,
        metrics: Optional[MetricsRegistry] = None,
        join_options: Optional[Dict[str, Any]] = None,
        clock: Callable[[], float] = time.monotonic,
        sleep: Callable[[float], None] = time.sleep,
        tracing: bool = False,
        trace_capacity: int = 256,
        trace_max_depth: Optional[int] = 3,
        query_log: Optional[QueryLog] = None,
        result_cache_size: int = 0,
        worker_id: Optional[int] = None,
        roster_path: Optional[str] = None,
    ) -> None:
        if max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {max_retries}")
        if retry_backoff_s < 0:
            raise ValueError(
                f"retry_backoff_s must be >= 0, got {retry_backoff_s}"
            )
        self.index_path = index_path
        self.kernel = kernel
        self.max_retries = max_retries
        self.retry_backoff_s = retry_backoff_s
        self.admit_timeout_s = admit_timeout_s
        self.default_deadline_ms = default_deadline_ms
        self._clock = clock
        self._sleep = sleep
        self._snapshots = SnapshotManager(index_path, clock=clock)
        self._admission = AdmissionController(
            max_active=max_active, max_queued=max_queued
        )
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        #: Extra ``OIPJoin`` keywords applied to every query (fault
        #: policies, kernels, cache sizes), fixed at construction.
        self._join_options: Dict[str, Any] = dict(join_options or {})
        self._lock = threading.Lock()
        self._idle = threading.Condition(self._lock)
        self._status = STARTING
        self._inflight = 0
        self._tokens: set = set()
        self._obs_lock = threading.Lock()
        self.started_at: Optional[float] = None
        #: When true, each query runs under its own request
        #: :class:`~repro.obs.Tracer` whose finished tree lands in
        #: :attr:`traces` (the ``tracedump`` op).  Off by default — the
        #: telemetry-off path is byte-for-byte the pre-telemetry path.
        self.tracing = bool(tracing)
        self.traces = TraceBuffer(trace_capacity) if self.tracing else None
        #: Span-nesting cap for request traces.  The default (3) keeps
        #: service.query -> phases -> join internals (index load, probe)
        #: and drops the per-partition spans below — thousands per probe
        #: — which would otherwise dominate the telemetry overhead
        #: budget.  ``None`` records the full tree (offline analysis).
        self.trace_max_depth = trace_max_depth
        #: NDJSON event sink; :data:`~repro.obs.log.NULL_QUERY_LOG`
        #: swallows everything when no log is configured.
        self.query_log = query_log if query_log is not None else NULL_QUERY_LOG
        #: Per-generation LRU of finished response bodies; ``None``
        #: disables caching entirely so the cache-off response bodies
        #: are byte-for-byte the pre-cache bodies (no ``cached`` field).
        self.result_cache = (
            ResultCache(result_cache_size) if result_cache_size > 0 else None
        )
        #: Identity within a multi-process worker pool (``None`` when
        #: running single-process) and the roster file the parent
        #: supervisor maintains for cross-worker stats aggregation.
        self.worker_id = worker_id
        self.roster_path = roster_path

    # -- observability plumbing ----------------------------------------------

    def _count(self, name: str, amount: int = 1) -> None:
        with self._obs_lock:
            self.metrics.counter(name).inc(amount)

    def _gauge(self, name: str, value: float) -> None:
        with self._obs_lock:
            self.metrics.gauge(name).set(value)

    def _observe(self, name: str, value: float) -> None:
        with self._obs_lock:
            self.metrics.histogram(
                name, buckets=DEFAULT_LATENCY_BUCKETS_MS
            ).observe(value)

    def publish_metrics(self) -> Dict[str, Any]:
        """Refresh every gauge from live state and return the whole
        registry snapshot (the ``metrics`` protocol op)."""
        described = self._snapshots.describe()
        with self._lock:
            status = self._status
            inflight = self._inflight
        with self._obs_lock:
            registry = self.metrics
            registry.gauge("service.state").set(_STATE_VALUES[status])
            registry.gauge("service.inflight").set(inflight)
            registry.gauge("service.queue_depth").set(
                self._admission.queued
            )
            if described["generation"] is not None:
                registry.gauge("service.generation").set(
                    described["generation"]
                )
                registry.gauge("service.generation.age_s").set(
                    described["generation_age_s"]
                )
            registry.gauge("service.retired_generations").set(
                described["retired_generations"]
            )
            if self.result_cache is not None:
                cache_stats = self.result_cache.stats()
                registry.gauge("service.cache.size").set(
                    cache_stats["size"]
                )
                registry.gauge("service.cache.capacity").set(
                    cache_stats["capacity"]
                )
            self._admission.publish_metrics(registry)
            return registry.snapshot()

    # -- lifecycle -----------------------------------------------------------

    @property
    def status(self) -> str:
        return self._status

    @property
    def admission(self) -> AdmissionController:
        return self._admission

    @property
    def snapshots(self) -> SnapshotManager:
        return self._snapshots

    def start(self) -> int:
        """Load the initial generation and begin serving.  Raises
        :class:`~repro.storage.snapshot.SnapshotError` when the snapshot
        cannot serve (there is no older generation to degrade to)."""
        with self._lock:
            if self._status != STARTING:
                raise ServiceUnavailableError(
                    f"cannot start from state {self._status!r}",
                    status=self._status,
                )
        generation = self._snapshots.load()
        with self._lock:
            self._status = SERVING
            self.started_at = self._clock()
        self._gauge("service.state", _STATE_VALUES[SERVING])
        self._gauge("service.generation", generation.generation)
        self.query_log.emit(
            "service.started",
            generation=generation.generation,
            index_path=self.index_path,
        )
        return generation.generation

    def refresh(self, *, force: bool = False) -> Dict[str, Any]:
        """Hot-swap to the snapshot currently on disk (no downtime; see
        :class:`~repro.service.snapshots.SnapshotManager`)."""
        self.query_log.emit("snapshot.refresh.started", force=force)
        try:
            report = self._snapshots.refresh(force=force)
        except SnapshotSwapRejectedError as error:
            self._count("service.swap.rejected")
            self._count(f"service.swap.rejected.{error.reason}")
            self.query_log.emit(
                "snapshot.swap_rejected",
                level="error",
                reason=error.reason,
                message=str(error),
            )
            raise
        if report["swapped"]:
            self._count("service.swap.count")
            self._observe("service.swap.latency_ms", report["elapsed_ms"])
            self._gauge("service.generation", report["generation"])
            self.query_log.emit(
                "snapshot.swapped",
                generation=report["generation"],
                elapsed_ms=report["elapsed_ms"],
            )
            if self.result_cache is not None:
                # Second staleness defense (the first is the generation
                # id inside every cache key): a swap empties the cache
                # wholesale so retired generations cannot linger.
                dropped = self.result_cache.invalidate()
                self._count("service.cache.invalidations")
                if dropped:
                    self._count("service.cache.invalidated_entries", dropped)
                self.query_log.emit(
                    "cache.invalidated",
                    generation=report["generation"],
                    entries=dropped,
                )
        else:
            self._count("service.swap.unchanged")
            self.query_log.emit("snapshot.unchanged", level="debug")
        return report

    def health(self) -> Dict[str, Any]:
        """Liveness + readiness probe material."""
        with self._lock:
            status = self._status
            inflight = self._inflight
        described = self._snapshots.describe()
        return {
            "status": status,
            "pid": os.getpid(),
            "worker": self.worker_id,
            "ready": status == SERVING
            and described["generation"] is not None,
            "generation": described["generation"],
            "generation_age_s": described["generation_age_s"],
            "queries_served": described["queries_served"],
            "retired_generations": described["retired_generations"],
            "swaps": described["swaps"],
            "swaps_rejected": described["swaps_rejected"],
            "inflight": inflight,
            "queue_depth": self._admission.queued,
            "admission": self._admission.stats.snapshot(),
            "uptime_s": (
                None
                if self.started_at is None
                else max(0.0, self._clock() - self.started_at)
            ),
        }

    def drain(
        self,
        timeout_s: float = 30.0,
        hard_stop_timeout_s: float = 5.0,
    ) -> Dict[str, Any]:
        """Graceful shutdown: stop admitting, wait for in-flight queries
        (including queued ones already submitted), then cancel whatever
        outlived *timeout_s* through the cooperative tokens.

        Zero-loss contract: every query admitted before the drain began
        either completes normally or unwinds into a structured
        ``cancelled`` error — none vanish.
        """
        started = self._clock()
        with self._lock:
            already = self._status in (DRAINING, STOPPED)
            self._status = DRAINING if not already else self._status
        if already:
            return {"drained": True, "cancelled": 0, "waited_ms": 0.0}
        self._gauge("service.state", _STATE_VALUES[DRAINING])
        self.query_log.emit(
            "drain.started", timeout_s=timeout_s, inflight=self._inflight
        )
        deadline = started + max(0.0, timeout_s)
        with self._lock:
            while self._inflight > 0:
                remaining = deadline - self._clock()
                if remaining <= 0:
                    break
                self._idle.wait(remaining)
            drained = self._inflight == 0
        cancelled = 0
        if not drained:
            with self._lock:
                victims = list(self._tokens)
            for token in victims:
                token.cancel()
                cancelled += 1
            self._count("service.drain.cancelled", cancelled)
            hard_deadline = self._clock() + max(0.0, hard_stop_timeout_s)
            with self._lock:
                while self._inflight > 0:
                    remaining = hard_deadline - self._clock()
                    if remaining <= 0:
                        break
                    self._idle.wait(remaining)
                drained = self._inflight == 0
        with self._lock:
            self._status = STOPPED
        self._gauge("service.state", _STATE_VALUES[STOPPED])
        report = {
            "drained": drained,
            "cancelled": cancelled,
            "waited_ms": (self._clock() - started) * 1e3,
        }
        self.query_log.emit(
            "drain.finished",
            level="info" if drained else "warning",
            **report,
        )
        return report

    # -- queries -------------------------------------------------------------

    def query(
        self,
        op: str = "join",
        *,
        window: Optional[Sequence[int]] = None,
        deadline_ms: Optional[float] = None,
        kernel: Optional[str] = None,
        include_pairs: bool = False,
        max_pairs: int = 1000,
        trace_id: Optional[str] = None,
    ) -> Dict[str, Any]:
        """Execute one overlap join (or windowed lookup) against the
        pinned current generation.  Raises a :class:`ServiceError`
        subclass with a stable ``code`` on any failure.

        ``trace_id`` is the wire-propagated correlation id (typically
        stamped by :class:`~repro.service.client.ServiceClient`); when
        omitted and telemetry is on, the service mints one.  Every
        response — success or structured failure — carries the id, and
        with :attr:`tracing` enabled the request's span tree
        (``service.query`` → admission wait / snapshot pin / join
        phases) lands in :attr:`traces` under the same id.
        """
        if op not in _OPS:
            raise BadRequestError(
                f"unknown op {op!r}; choose from {_OPS}"
            )
        checked_window = _check_window(window) if op == "lookup" else None
        max_pairs = _check_number("max_pairs", max_pairs, int)
        if deadline_ms is None:
            deadline_ms = self.default_deadline_ms
        if deadline_ms is not None:
            deadline_ms = _check_number("deadline_ms", deadline_ms, float)
            if not deadline_ms > 0:
                raise BadRequestError(
                    f"deadline_ms must be positive, got {deadline_ms}"
                )
        if trace_id is None and (self.tracing or self.query_log):
            trace_id = new_trace_id()
        tracer = (
            Tracer(
                clock=self._clock,
                trace_id=trace_id,
                max_depth=self.trace_max_depth,
            )
            if self.tracing
            else NULL_TRACER
        )
        submitted = self._clock()
        with self._lock:
            if self._status != SERVING:
                raise ServiceUnavailableError(
                    f"service is {self._status}; not accepting queries",
                    status=self._status,
                )
            self._inflight += 1
        self._count("service.queries.submitted")
        self._gauge("service.inflight", self._inflight)
        try:
            with tracer.span("service.query", op=op):
                body = self._admitted_query(
                    op,
                    checked_window,
                    deadline_ms,
                    kernel,
                    include_pairs,
                    max_pairs,
                    submitted,
                    tracer,
                    trace_id,
                )
            service_ms = (self._clock() - submitted) * 1e3
            if trace_id is not None:
                body["trace_id"] = trace_id
            body["service_ms"] = service_ms
            self._observe(f"service.op.{op}.latency_ms", service_ms)
            log_fields: Dict[str, Any] = {
                "trace_id": trace_id,
                "elapsed_ms": service_ms,
                "op": op,
                "generation": body.get("generation"),
                "pairs": body.get("pairs"),
                "attempts": body.get("attempts"),
                "k": body.get("k"),
                "kernel": body.get("kernel"),
            }
            if "cached" in body:
                log_fields["cached"] = body["cached"]
            self.query_log.query_event("query.completed", **log_fields)
            return body
        except ServiceError as error:
            # Satellite fix: shed/deadline/unavailable responses used to
            # leave ``elapsed_ms`` unset, making overload invisible in
            # the log.  Every structured failure now reports how long
            # the request held the service before being turned away.
            service_ms = (self._clock() - submitted) * 1e3
            error.detail.setdefault("elapsed_ms", service_ms)
            if trace_id is not None:
                error.detail.setdefault("trace_id", trace_id)
            self._count("service.queries.failed")
            self._count(f"service.queries.failed.{error.code}")
            self._observe(f"service.op.{op}.latency_ms", service_ms)
            self.query_log.emit(
                "query.failed",
                level="warning",
                trace_id=trace_id,
                op=op,
                code=error.code,
                retriable=error.retriable,
                elapsed_ms=service_ms,
            )
            raise
        finally:
            with self._lock:
                self._inflight -= 1
                if self._inflight == 0:
                    self._idle.notify_all()
            self._gauge("service.inflight", self._inflight)
            self._capture_trace(tracer)

    def _capture_trace(self, tracer: Any) -> None:
        """Deposit a finished request trace and observe phase latencies,
        plus the collector pauses the traced join recorded as phase
        ``gc``."""
        if not tracer.enabled:
            return
        root = tracer.last_root
        if root is None:
            return
        for child in root.children:
            self._observe(
                f"service.phase.{child.name}.latency_ms", child.duration_ms
            )
            if child.name == "join" and "gc_ms" in child.attributes:
                self._observe(
                    "service.phase.gc.latency_ms", child.attributes["gc_ms"]
                )
        if self.traces is not None:
            self.traces.add(root.as_dict())

    def _admitted_query(
        self,
        op: str,
        window: Optional[Tuple[int, int]],
        deadline_ms: Optional[float],
        kernel: Optional[str],
        include_pairs: bool,
        max_pairs: int,
        submitted: float,
        tracer: Any = NULL_TRACER,
        trace_id: Optional[str] = None,
    ) -> Dict[str, Any]:
        # Cache probe happens *before* admission: a hit costs no slot,
        # no queue wait, and no snapshot pin (so ``queries_served``
        # counts executed joins, not cache hits).  Reading
        # ``_snapshots.current`` without pinning is a benign race — a
        # concurrent swap at worst misses the cache, never serves stale,
        # because the retiring generation's entries are keyed under its
        # own id and invalidated wholesale the moment the swap lands.
        cache = self.result_cache
        fingerprint: Optional[str] = None
        if cache is not None:
            fingerprint = request_fingerprint(
                op=op,
                window=window,
                kernel=kernel if kernel is not None else self.kernel,
                include_pairs=include_pairs,
                max_pairs=max_pairs,
            )
            current = self._snapshots.current
            if current is not None:
                with tracer.span("cache.probe") as probe_span:
                    hit = cache.lookup(current.generation, fingerprint)
                    probe_span.set("hit", hit is not None)
                if hit is not None:
                    self._count("service.cache.hits")
                    self._count("service.queries.completed")
                    hit["cached"] = True
                    return hit
            self._count("service.cache.misses")
        admit_timeout = self.admit_timeout_s
        if deadline_ms is not None:
            budget_window = deadline_ms / 1e3
            admit_timeout = (
                budget_window
                if admit_timeout is None
                else min(admit_timeout, budget_window)
            )
        # ``admit()`` performs the slot/queue wait on __enter__, so the
        # ``admission.wait`` span times exactly the time spent queued —
        # a shed request dies inside it, leaving a terminal span with an
        # ``error`` attribute in the request trace.
        admit = self._admission.admit(timeout=admit_timeout)
        try:
            with tracer.span("admission.wait") as wait_span:
                admit.__enter__()
                wait_span.set("admitted", True)
        except AdmissionRejectedError as error:
            self._count("service.queries.shed")
            raise ServiceOverloadError(
                f"service overloaded: {error}",
                active=error.active,
                queued=error.queued,
                max_active=error.max_active,
                max_queued=error.max_queued,
                timed_out=error.timed_out,
                retry_after_ms=(self.admit_timeout_s or 1.0) * 1e3,
            ) from error
        try:
            self._count("service.queries.admitted")
            with tracer.span("snapshot.pin") as pin_span:
                generation = self._snapshots.acquire()
                pin_span.set("generation", generation.generation)
            try:
                body = self._execute(
                    generation,
                    op,
                    window,
                    deadline_ms,
                    kernel,
                    include_pairs,
                    max_pairs,
                    submitted,
                    tracer,
                    trace_id,
                )
                if cache is not None and fingerprint is not None:
                    # Stored before ``trace_id``/``service_ms`` stamping
                    # (those are per-request) and deep-copied inside the
                    # cache, so a hit replays exactly the deterministic
                    # part of the body.
                    cache.store(generation.generation, fingerprint, body)
                    body["cached"] = False
                return body
            finally:
                self._snapshots.release(generation)
        finally:
            admit.__exit__(None, None, None)

    def _execute(
        self,
        generation: ServingGeneration,
        op: str,
        window: Optional[Tuple[int, int]],
        deadline_ms: Optional[float],
        kernel: Optional[str],
        include_pairs: bool,
        max_pairs: int,
        submitted: float,
        tracer: Any = NULL_TRACER,
        trace_id: Optional[str] = None,
    ) -> Dict[str, Any]:
        token = CancellationToken()
        with self._lock:
            self._tokens.add(token)
        try:
            attempts = 0
            while True:
                budget = None
                if deadline_ms is not None:
                    remaining_ms = deadline_ms - (
                        (self._clock() - submitted) * 1e3
                    )
                    if remaining_ms <= 0:
                        raise ServiceError(
                            f"deadline of {deadline_ms:.0f} ms exhausted "
                            "before execution",
                            code="deadline",
                            retriable=True,
                        )
                    budget = QueryBudget(deadline_ms=remaining_ms)
                kwargs = generation.join_kwargs()
                kwargs.update(self._join_options)
                if tracer.enabled:
                    # The join's own phase spans (oipcreate, probe,
                    # kernels) nest under the open service.query span.
                    kwargs["tracer"] = tracer
                try:
                    # A lookup's window reaches the probe: the join keeps
                    # only the window's pairs (on the numpy tier its
                    # kernel joins only the tuples meeting the window),
                    # while its counters stay the full join's.
                    join = OIPJoin(
                        index_provider=generation,
                        kernel=kernel if kernel is not None else self.kernel,
                        budget=budget,
                        cancellation=token,
                        window=window,
                        **kwargs,
                    )
                    result = join.join(generation.outer, generation.inner)
                    break
                except BudgetExceededError as error:
                    raise ServiceError(
                        f"deadline exceeded ({error.reason}) after "
                        f"{error.elapsed_ms:.1f} ms and "
                        f"{error.partitions_completed} partitions",
                        code="deadline",
                        retriable=True,
                        detail={
                            "reason": error.reason,
                            "partitions_completed": (
                                error.partitions_completed
                            ),
                        },
                    ) from error
                except StorageFaultError as error:
                    attempts += 1
                    if attempts > self.max_retries:
                        raise ServiceError(
                            f"storage fault after {attempts} attempt(s): "
                            f"{error}",
                            code="storage_fault",
                            retriable=True,
                            detail={"attempts": attempts},
                        ) from error
                    self._count("service.queries.retried")
                    tracer.event(
                        "storage.retry", attempt=attempts, error=str(error)
                    )
                    self.query_log.emit(
                        "query.retry",
                        level="warning",
                        trace_id=trace_id,
                        attempt=attempts,
                        max_retries=self.max_retries,
                        error=str(error),
                    )
                    if self.retry_backoff_s:
                        self._sleep(
                            self.retry_backoff_s * (2 ** (attempts - 1))
                        )
            if not result.completed:
                # Hard-stopped mid-drain (or externally cancelled): the
                # partial result is discarded, the client gets a
                # structured error — never silent data loss.
                self._count("service.queries.cancelled")
                raise ServiceError(
                    f"query cancelled after {result.elapsed_ms:.1f} ms "
                    f"with {result.cardinality} partial pairs",
                    code="cancelled",
                    retriable=True,
                    detail={"partial_pairs": result.cardinality},
                )
            body = summarize_result(
                result,
                op=op,
                window=window,
                generation=generation.generation,
                include_pairs=include_pairs,
                max_pairs=max_pairs,
            )
            body["attempts"] = attempts + 1
            self._count("service.queries.completed")
            self._observe(
                "service.query.latency_ms",
                (self._clock() - submitted) * 1e3,
            )
            return body
        finally:
            with self._lock:
                self._tokens.discard(token)

    # -- telemetry views -----------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        """The ``service_stats`` document: per-endpoint and per-phase
        latency quantiles plus the ``service.*`` counters.

        Quantiles are deterministic bucket interpolations (see
        :mod:`repro.obs.quantiles`) over the fixed latency buckets, so
        two captures of the same traffic agree exactly.  The shape is
        versioned and diffable with ``repro compare`` — capture one
        document before and one after a change and the quantile deltas
        gate tail latency the way run reports gate phase time.
        """
        snapshot = self.publish_metrics()
        histograms = snapshot.get("histograms", {})
        endpoints: Dict[str, Any] = {}
        phases: Dict[str, Any] = {}
        for name, hist in histograms.items():
            if name.startswith("service.op.") and name.endswith(
                ".latency_ms"
            ):
                key = name[len("service.op."):-len(".latency_ms")]
                endpoints[key] = summarize_latency(hist)
            elif name.startswith("service.phase.") and name.endswith(
                ".latency_ms"
            ):
                key = name[len("service.phase."):-len(".latency_ms")]
                phases[key] = summarize_latency(hist)
        counters = {
            name: value
            for name, value in snapshot.get("counters", {}).items()
            if name.startswith("service.")
        }
        health = self.health()
        document: Dict[str, Any] = {
            "kind": "service_stats",
            "version": STATS_VERSION,
            "status": health["status"],
            "generation": health["generation"],
            "uptime_s": health["uptime_s"],
            "queries_served": health["queries_served"],
            "endpoints": endpoints,
            "phases": phases,
            "counters": counters,
            "tracing": self.tracing,
            "slow_query_ms": self.query_log.slow_query_ms,
        }
        if self.result_cache is not None:
            cache_stats = self.result_cache.stats()
            lookups = cache_stats["hits"] + cache_stats["misses"]
            cache_stats["hit_rate"] = (
                cache_stats["hits"] / lookups if lookups else 0.0
            )
            document["cache"] = cache_stats
        if self.worker_id is not None:
            document["worker"] = {"id": self.worker_id, "pid": os.getpid()}
        if self.traces is not None:
            document["traces"] = {
                "buffered": len(self.traces),
                "dropped": self.traces.dropped,
                "capacity": self.traces.capacity,
            }
        if self.query_log:
            document["log"] = {
                "emitted": self.query_log.emitted,
                "dropped": self.query_log.dropped,
            }
        return document

    def tracedump(
        self,
        trace_id: Optional[str] = None,
        limit: Optional[int] = None,
    ) -> Dict[str, Any]:
        """Recent finished request traces (the ``tracedump`` op)."""
        if self.traces is None:
            return {"tracing": False, "traces": [], "dropped": 0}
        return {
            "tracing": True,
            "traces": self.traces.dump(trace_id=trace_id, limit=limit),
            "dropped": self.traces.dropped,
        }

    # -- protocol dispatch ---------------------------------------------------

    def handle_request(self, request: Dict[str, Any]) -> Dict[str, Any]:
        """Dict-in/dict-out protocol entry (shared by the TCP server,
        the stdio loop, and in-process tests).  Never raises: every
        failure becomes a structured error response."""
        request_id = None
        trace_id = None
        try:
            if not isinstance(request, dict):
                raise BadRequestError(
                    f"request must be a JSON object, got "
                    f"{type(request).__name__}"
                )
            request_id = request.get("id")
            trace_id = trace_context(request)
            op = request.get("op")
            if op in _OPS:
                body = self.query(
                    op,
                    window=request.get("window"),
                    deadline_ms=request.get("deadline_ms"),
                    kernel=request.get("kernel"),
                    include_pairs=bool(request.get("include_pairs")),
                    max_pairs=request.get("max_pairs", 1000),
                    trace_id=trace_id,
                )
            elif op == "health":
                body = self.health()
            elif op == "metrics":
                body = {"metrics": self.publish_metrics()}
            elif op == "stats":
                # In a worker pool the ``stats`` op answers for the
                # whole fleet (satellite fix: ``repro stats`` used to
                # report only the one process that happened to take the
                # connection); ``stats_local`` keeps the single-process
                # view addressable.
                if self.roster_path is not None:
                    from .aggregate import aggregate_stats

                    body = {"stats": aggregate_stats(self)}
                else:
                    body = {"stats": self.stats()}
            elif op == "stats_local":
                body = {"stats": self.stats()}
            elif op == "tracedump":
                limit = request.get("limit")
                if limit is not None:
                    limit = _check_number("limit", limit, int)
                body = self.tracedump(
                    trace_id=request.get("filter_trace_id"), limit=limit
                )
            elif op == "refresh":
                body = self.refresh(
                    force=bool(request.get("force", False))
                )
            elif op == "ping":
                body = {"pong": True}
            else:
                raise BadRequestError(f"unknown op {op!r}")
        except ServiceError as error:
            response = {
                "id": request_id,
                "ok": False,
                "error": error.to_wire(),
            }
            wire_trace = error.detail.get("trace_id", trace_id)
            if wire_trace is not None:
                response["trace_id"] = wire_trace
            return response
        except Exception as error:  # noqa: BLE001 - protocol boundary
            response = {
                "id": request_id,
                "ok": False,
                "error": {
                    "code": "internal",
                    "message": f"{type(error).__name__}: {error}",
                    "retriable": False,
                    "detail": {},
                },
            }
            if trace_id is not None:
                response["trace_id"] = trace_id
            return response
        response = {"id": request_id, "ok": True}
        response.update(body)
        if trace_id is not None:
            response.setdefault("trace_id", trace_id)
        return response
