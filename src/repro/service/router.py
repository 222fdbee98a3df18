"""Time-shard scatter-gather execution for served overlap joins.

The paper's granule framing partitions the *time domain*, not the data:
a tuple belongs to every granule its interval touches.  This module
applies the same idea one level up — the whole query domain is split
into contiguous **shard ranges**, each shard receives the slice of both
relations that overlaps its range (boundary-spanning tuples replicated
into every shard they touch), and an independent OIPJOIN runs per shard.

**Merge with dedup.**  A pair whose tuples both span a shard boundary
is discovered by several shards.  Rather than a post-merge hash set
over the (potentially huge) result, each shard *owns* exactly the pairs
whose overlap region **starts** inside its range: the first overlapped
point of a pair ``(r, s)`` is ``max(r.start, s.start)``, both tuples
cover that point, so the owning shard is guaranteed to discover the
pair — and because the ranges tile the domain without gap or overlap,
every pair is owned by exactly one shard.  Concatenating the owned
pairs in shard order therefore reproduces the unsharded result as a
multiset — same pairs, same canonical fingerprint — with zero
duplicates and zero losses, which the differential suite pins against
the unsharded service.

**Skew.**  Real time domains are not uniform; per-shard tuple counts,
result sizes and latencies are reported through the
``service.router.*`` metric family and in the merged result's details,
so an operator can see a hot shard before it becomes the straggler
that defines query latency.

Shard plans come from :func:`shard_ranges` (equal-width split of the
domain) or from explicit operator-supplied ranges validated by
:func:`validate_shard_ranges` — overlapping or gapped plans are a
configuration error, rejected at ``serve`` startup.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..core.relation import TemporalRelation
from ..engine.parallel import map_tasks
from ..obs.registry import DEFAULT_LATENCY_BUCKETS_MS
from ..obs.trace import NULL_TRACER
from ..storage.metrics import CostCounters, ResilienceCounters
from .errors import ScaleOutConfigError

__all__ = [
    "shard_ranges",
    "validate_shard_ranges",
    "shard_slice",
    "MergedShardResult",
    "TimeShardRouter",
]

#: Upper bound on one query's shard fan-out; past this the per-shard
#: OIPCREATE overhead dwarfs any probe-side win.
MAX_SHARDS = 4096


def shard_ranges(
    domain: Tuple[int, int], shards: int
) -> List[Tuple[int, int]]:
    """Split ``[lo, hi]`` into at most *shards* contiguous, gapless,
    non-overlapping integer ranges of near-equal width."""
    lo, hi = int(domain[0]), int(domain[1])
    if hi < lo:
        raise ScaleOutConfigError(
            f"time domain end {hi} precedes start {lo}"
        )
    if shards < 1:
        raise ScaleOutConfigError(f"shards must be >= 1, got {shards}")
    points = hi - lo + 1
    count = min(int(shards), points, MAX_SHARDS)
    width, remainder = divmod(points, count)
    ranges: List[Tuple[int, int]] = []
    cursor = lo
    for index in range(count):
        span = width + (1 if index < remainder else 0)
        ranges.append((cursor, cursor + span - 1))
        cursor += span
    return ranges


def validate_shard_ranges(
    ranges: Sequence[Sequence[int]],
    domain: Optional[Tuple[int, int]] = None,
) -> List[Tuple[int, int]]:
    """Normalize and validate an explicit shard plan.

    Ranges are sorted, then checked: integer ``[lo, hi]`` pairs with
    ``lo <= hi``, no overlap, no gap between consecutive ranges, and —
    when *domain* is known — exact coverage of the domain (a plan that
    starts late or stops early would silently lose result pairs, so it
    is rejected instead).  Raises :class:`ScaleOutConfigError`.
    """
    if not ranges:
        raise ScaleOutConfigError("shard plan is empty")
    if len(ranges) > MAX_SHARDS:
        raise ScaleOutConfigError(
            f"shard plan has {len(ranges)} ranges; the maximum is "
            f"{MAX_SHARDS}"
        )
    normalized: List[Tuple[int, int]] = []
    for entry in ranges:
        try:
            lo, hi = int(entry[0]), int(entry[1])
        except (TypeError, ValueError, IndexError):
            raise ScaleOutConfigError(
                f"shard range {entry!r} is not a [lo, hi] integer pair"
            ) from None
        if hi < lo:
            raise ScaleOutConfigError(
                f"shard range [{lo}, {hi}] ends before it starts"
            )
        normalized.append((lo, hi))
    normalized.sort()
    for (prev_lo, prev_hi), (next_lo, next_hi) in zip(
        normalized, normalized[1:]
    ):
        if next_lo <= prev_hi:
            raise ScaleOutConfigError(
                f"shard ranges [{prev_lo}, {prev_hi}] and "
                f"[{next_lo}, {next_hi}] overlap",
                detail={"kind": "overlap"},
            )
        if next_lo != prev_hi + 1:
            raise ScaleOutConfigError(
                f"gap between shard ranges [{prev_lo}, {prev_hi}] and "
                f"[{next_lo}, {next_hi}]: points "
                f"{prev_hi + 1}..{next_lo - 1} belong to no shard",
                detail={"kind": "gap"},
            )
    if domain is not None:
        lo, hi = int(domain[0]), int(domain[1])
        if normalized[0][0] > lo or normalized[-1][1] < hi:
            raise ScaleOutConfigError(
                f"shard plan [{normalized[0][0]}, {normalized[-1][1]}] "
                f"does not cover the time domain [{lo}, {hi}]",
                detail={"kind": "coverage"},
            )
    return normalized


def shard_slice(
    relation: TemporalRelation, lo: int, hi: int
) -> TemporalRelation:
    """The slice of *relation* overlapping ``[lo, hi]``.

    Tuples are shared by reference (never copied), so a
    boundary-spanning tuple is *replicated* — present in every shard it
    touches — exactly as the paper's granule framing replicates tuples
    across the granules their intervals span.
    """
    return TemporalRelation(
        (t for t in relation if t.start <= hi and lo <= t.end),
        name=f"{relation.name}[{lo},{hi}]",
    )


@dataclass
class MergedShardResult:
    """The gather half: per-shard results folded into one answer with
    the same surface :func:`~repro.service.service.summarize_result`
    reads off a plain :class:`~repro.core.base.JoinResult`."""

    algorithm: str
    pairs: List[Any]
    counters: CostCounters
    details: Dict[str, Any] = field(default_factory=dict)
    resilience: ResilienceCounters = field(default_factory=ResilienceCounters)
    completed: bool = True
    elapsed_ms: float = 0.0
    report: Optional[Dict[str, Any]] = None

    def __len__(self) -> int:
        return len(self.pairs)

    @property
    def cardinality(self) -> int:
        return len(self.pairs)


class TimeShardRouter:
    """Scatter a join over a shard plan, gather with ownership dedup.

    ``join_factory`` (per :meth:`execute` call) builds a fresh join for
    each shard so per-shard state (storage managers, kernels,
    checkpoints) is never shared across concurrent shards; the factory
    closes over whatever budget/cancellation/fault machinery the caller
    wants every shard to honour.
    """

    def __init__(
        self,
        *,
        shards: Optional[int] = None,
        ranges: Optional[Sequence[Sequence[int]]] = None,
        backend: str = "thread",
        max_workers: Optional[int] = None,
        metrics: Any = None,
    ) -> None:
        if (shards is None) == (ranges is None):
            raise ScaleOutConfigError(
                "pass exactly one of shards (equal-width plan) or "
                "ranges (explicit plan)"
            )
        if shards is not None and not 1 <= int(shards) <= MAX_SHARDS:
            raise ScaleOutConfigError(
                f"shards must be in [1, {MAX_SHARDS}], got {shards}"
            )
        self.shards = None if shards is None else int(shards)
        self.ranges = (
            None if ranges is None else validate_shard_ranges(ranges)
        )
        if backend == "process":
            # Shard tasks close over per-query service state — the
            # budget, cancellation token and circuit breaker shared by
            # join_factory — none of which can cross a process
            # boundary, so ProcessPoolExecutor would fail at pickling
            # time on the first query.  Reject the configuration up
            # front instead; cross-process scale-out is what the
            # worker pool (``serve --workers``) provides.
            raise ScaleOutConfigError(
                "the 'process' shard backend is not supported: shard "
                "tasks share in-process query state (budget, "
                "cancellation, breaker) that cannot be pickled; use "
                "backend='thread' for sharding within a process, or "
                "scale across processes with serve --workers"
            )
        if backend not in ("thread", "inline"):
            raise ScaleOutConfigError(
                f"unknown shard backend {backend!r}"
            )
        self.backend = backend
        self.max_workers = max_workers
        self.metrics = metrics

    # -- planning ------------------------------------------------------------

    @staticmethod
    def domain_of(
        outer: TemporalRelation, inner: TemporalRelation
    ) -> Tuple[int, int]:
        """The joint time domain both shard plans must cover."""
        outer_range = outer.time_range
        inner_range = inner.time_range
        return (
            min(outer_range.start, inner_range.start),
            max(outer_range.end, inner_range.end),
        )

    def plan(
        self, outer: TemporalRelation, inner: TemporalRelation
    ) -> List[Tuple[int, int]]:
        """The shard plan for this relation pair; explicit ranges are
        re-validated for coverage against the *actual* domain so a
        stale plan cannot silently lose pairs."""
        domain = self.domain_of(outer, inner)
        if self.ranges is not None:
            return validate_shard_ranges(self.ranges, domain)
        return shard_ranges(domain, self.shards or 1)

    # -- execution -----------------------------------------------------------

    def execute(
        self,
        outer: TemporalRelation,
        inner: TemporalRelation,
        *,
        join_factory: Callable[[], Any],
        tracer: Any = NULL_TRACER,
    ) -> MergedShardResult:
        started = time.perf_counter()
        plan = self.plan(outer, inner)
        with tracer.span("router.scatter", shards=len(plan)):
            slices = [
                (
                    lo,
                    hi,
                    shard_slice(outer, lo, hi),
                    shard_slice(inner, lo, hi),
                )
                for lo, hi in plan
            ]

        def run_shard(task: Tuple[int, int, Any, Any]) -> Dict[str, Any]:
            lo, hi, shard_outer, shard_inner = task
            shard_started = time.perf_counter()
            if len(shard_outer) == 0 or len(shard_inner) == 0:
                return {
                    "range": (lo, hi),
                    "pairs": [],
                    "found": 0,
                    "counters": CostCounters(),
                    "resilience": ResilienceCounters(),
                    "completed": True,
                    "outer_tuples": len(shard_outer),
                    "inner_tuples": len(shard_inner),
                    "elapsed_ms": (time.perf_counter() - shard_started)
                    * 1e3,
                }
            join = join_factory()
            result = join.join(shard_outer, shard_inner)
            # Ownership dedup: keep the pairs whose overlap region
            # starts inside this shard's range.
            owned = [
                pair
                for pair in result.pairs
                if lo <= max(pair[0].start, pair[1].start) <= hi
            ]
            return {
                "range": (lo, hi),
                "pairs": owned,
                "found": len(result.pairs),
                "counters": result.counters,
                "resilience": result.resilience,
                "completed": result.completed,
                "outer_tuples": len(shard_outer),
                "inner_tuples": len(shard_inner),
                "elapsed_ms": (time.perf_counter() - shard_started) * 1e3,
            }

        outcomes = map_tasks(
            run_shard,
            slices,
            backend=self.backend,
            max_workers=self.max_workers,
        )
        with tracer.span("router.merge", shards=len(plan)):
            merged = self._merge(outer, inner, outcomes, started)
        self._publish(merged)
        return merged

    def _merge(
        self,
        outer: TemporalRelation,
        inner: TemporalRelation,
        outcomes: List[Dict[str, Any]],
        started: float,
    ) -> MergedShardResult:
        pairs: List[Any] = []
        counters = CostCounters()
        resilience = ResilienceCounters()
        completed = True
        per_shard: List[Dict[str, Any]] = []
        duplicates = 0
        replicated_outer = sum(o["outer_tuples"] for o in outcomes) - len(
            outer
        )
        replicated_inner = sum(o["inner_tuples"] for o in outcomes) - len(
            inner
        )
        for outcome in outcomes:
            pairs.extend(outcome["pairs"])
            counters.merge(outcome["counters"])
            resilience.merge(outcome["resilience"])
            completed = completed and outcome["completed"]
            duplicates += outcome["found"] - len(outcome["pairs"])
            per_shard.append(
                {
                    "range": list(outcome["range"]),
                    "pairs": len(outcome["pairs"]),
                    "outer_tuples": outcome["outer_tuples"],
                    "inner_tuples": outcome["inner_tuples"],
                    "elapsed_ms": outcome["elapsed_ms"],
                }
            )
        latencies = [shard["elapsed_ms"] for shard in per_shard]
        mean_latency = sum(latencies) / len(latencies) if latencies else 0.0
        skew = (
            max(latencies) / mean_latency
            if latencies and mean_latency > 0
            else 1.0
        )
        counts = [shard["pairs"] for shard in per_shard]
        mean_count = sum(counts) / len(counts) if counts else 0.0
        pair_skew = (
            max(counts) / mean_count if counts and mean_count > 0 else 1.0
        )
        details: Dict[str, Any] = {
            "sharded": {
                "shards": len(per_shard),
                "backend": self.backend,
                "per_shard": per_shard,
                "duplicates_dropped": duplicates,
                "replicated_outer": max(0, replicated_outer),
                "replicated_inner": max(0, replicated_inner),
                "latency_skew": skew,
                "pair_skew": pair_skew,
            },
            "index": None,
        }
        return MergedShardResult(
            algorithm="oip-sharded",
            pairs=pairs,
            counters=counters,
            resilience=resilience,
            details=details,
            completed=completed,
            elapsed_ms=(time.perf_counter() - started) * 1e3,
        )

    def _publish(self, merged: MergedShardResult) -> None:
        """The per-shard skew families; a no-op without a registry."""
        registry = self.metrics
        if registry is None:
            return
        sharded = merged.details["sharded"]
        registry.counter("service.router.queries").inc()
        registry.counter("service.router.duplicates_dropped").inc(
            sharded["duplicates_dropped"]
        )
        registry.gauge("service.router.shards").set(sharded["shards"])
        registry.gauge("service.router.latency_skew").set(
            sharded["latency_skew"]
        )
        registry.gauge("service.router.pair_skew").set(sharded["pair_skew"])
        histogram = registry.histogram(
            "service.router.shard.latency_ms",
            buckets=DEFAULT_LATENCY_BUCKETS_MS,
        )
        for shard in sharded["per_shard"]:
            histogram.observe(shard["elapsed_ms"])
