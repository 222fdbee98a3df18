"""Differential suite for the pluggable join kernels (Section 5 probe).

The kernel layer's acceptance property: every kernel is *bit-identical* to the seed implementation — same pairs in the same
order, same :class:`~repro.storage.metrics.CostCounters`, same run-report
counter sections, same checkpoint/resume behaviour.  The sweep kernel is
an execution strategy, not a cost model: it must charge exactly the
comparisons Algorithm 2 would have performed.

The decoded-run cache rides along: a hit must never serve a decode built
from a block that was later detected corrupted, which the fault-profile
tests prove differentially (faulty sweep run == fault-free naive run)
and the unit tests prove mechanically (invalidate drops the entry).
"""

import random

import pytest

from repro.core.interval import Interval
from repro.core.join import OIPJoin
from repro.core import kernels
from repro.core.kernels import (
    AUTO_NUMPY_CANDIDATES,
    DecodedRun,
    DecodedRunCache,
    choose_kernel,
    decode_columns,
    naive_matches,
    resolve_kernel,
    sweep_matches,
)
from repro.core.relation import TemporalRelation
from repro.engine.governor import CancellationToken
from repro.engine.planner import JoinPlanner
from repro.obs.registry import MetricsRegistry
from repro.storage.faults import fault_profile
from repro.workloads import long_lived_mixture

from ..conftest import oracle_pairs, random_relation

KERNELS = ("naive", "sweep")

#: The execution configurations (mirrors tests/chaos/test_lifecycle.py):
#: the probe has one path, the sequential Algorithm 2 loop.
CONFIGS = {"sequential": {}}


def fingerprint(result):
    """Everything that must be bit-identical across kernels."""
    return (
        [(p[0].start, p[0].end, p[0].payload, p[1].start, p[1].end, p[1].payload)
         for p in result.pairs],
        result.counters.snapshot(),
        result.resilience.storage_snapshot(),
    )


# ---------------------------------------------------------------------------
# Kernel unit parity: both kernels against a brute-force oracle.
# ---------------------------------------------------------------------------


def brute_force_hits(outer_run, inner_run):
    """Encoded hits of the seed nested loop, in emission order."""
    hits = []
    n_outer = len(outer_run)
    for inner_pos, inner in enumerate(inner_run):
        for outer_pos, outer in enumerate(outer_run):
            if outer.start <= inner.end and inner.start <= outer.end:
                hits.append(inner_pos * n_outer + outer_pos)
    return sorted(hits)


class TestKernelFunctions:
    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_brute_force(self, kernel, seed):
        rng = random.Random(seed)
        outer = list(random_relation(rng, rng.randint(1, 40), range_size=60))
        inner = list(random_relation(rng, rng.randint(1, 40), range_size=60))
        fn = naive_matches if kernel == "naive" else sweep_matches
        hits = fn(DecodedRun.from_tuples(outer), DecodedRun.from_tuples(inner))
        assert hits == brute_force_hits(outer, inner)

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_tie_heavy_starts(self, kernel):
        # Many equal starts stress the bisect bounds of the sweep.
        tuples = TemporalRelation.from_records(
            [(5, 5 + (i % 3), i) for i in range(12)]
        )
        run = DecodedRun.from_tuples(list(tuples))
        fn = naive_matches if kernel == "naive" else sweep_matches
        assert fn(run, run) == brute_force_hits(list(tuples), list(tuples))

    def test_sweep_equals_naive_order(self):
        rng = random.Random(99)
        outer = DecodedRun.from_tuples(
            list(random_relation(rng, 30, range_size=40))
        )
        inner = DecodedRun.from_tuples(
            list(random_relation(rng, 25, range_size=40))
        )
        # Not merely the same set: the same *list* — emission order is
        # part of the bit-identical contract.
        assert sweep_matches(outer, inner) == naive_matches(outer, inner)

    def test_decode_columns(self):
        tuples = [t for t in TemporalRelation.from_records([(1, 4, "a"), (2, 2, "b")])]
        starts, ends = decode_columns(tuples)
        assert list(starts) == [1, 2] and list(ends) == [4, 2]

    def test_decoded_run_order_is_start_sorted(self):
        rng = random.Random(3)
        tuples = list(random_relation(rng, 20, range_size=30))
        run = DecodedRun.from_tuples(tuples)
        ordered = [run.starts[i] for i in run.order]
        assert ordered == sorted(run.starts)
        assert list(run.sorted_starts) == ordered


class TestKernelSelection:
    def test_resolve_validates(self):
        rng = random.Random(0)
        rel = random_relation(rng, 5)
        with pytest.raises(ValueError, match="unknown join kernel"):
            resolve_kernel("bogus", rel, rel)

    def test_auto_picks_by_candidate_estimate(self):
        rng = random.Random(1)
        small = random_relation(rng, 8, range_size=100)
        assert kernels.estimate_candidates(small, small) < AUTO_NUMPY_CANDIDATES
        assert choose_kernel(small, small) == "sweep"
        assert resolve_kernel(None, small, small) == "sweep"
        big = long_lived_mixture(
            1_000, 0.5, Interval(1, 2**20), seed=7, name="big"
        )
        # From the threshold up: the vectorized tier when numpy is
        # importable, the sweep otherwise.
        top = "numpy" if kernels.numpy_available() else "sweep"
        assert kernels.estimate_candidates(big, big) >= AUTO_NUMPY_CANDIDATES
        assert choose_kernel(big, big) == top
        assert resolve_kernel("auto", big, big) == top
        assert resolve_kernel("naive", big, big) == "naive"
        # An explicit estimate (the planner's, from index statistics)
        # overrides the relations' own.
        assert choose_kernel(big, big, estimated=0.0) == "sweep"
        assert choose_kernel(small, small, estimated=AUTO_NUMPY_CANDIDATES) == top

    def test_auto_respects_disabled_decode_cache(self):
        # The decode cache only saves decodes, so turning it off changes
        # neither the auto kernel nor the result: the join runs with no
        # cache at all and stays bit-identical.
        outer, inner = WORKLOADS["mixed"]
        cached = OIPJoin().join(outer, inner)
        uncached = OIPJoin(decode_cache_size=0).join(outer, inner)
        assert uncached.details["kernel"] == choose_kernel(outer, inner)
        assert uncached.details["kernel"] == cached.details["kernel"]
        assert "kernel_cache" not in uncached.details
        assert fingerprint(uncached) == fingerprint(cached)


# ---------------------------------------------------------------------------
# DecodedRunCache unit behaviour.
# ---------------------------------------------------------------------------


class TestDecodedRunCache:
    def test_capacity_validated(self):
        with pytest.raises(ValueError, match="capacity"):
            DecodedRunCache(0)

    def test_lru_eviction(self):
        cache = DecodedRunCache(2)
        runs = {k: DecodedRun.from_tuples([]) for k in "abc"}
        cache.put("a", runs["a"])
        cache.put("b", runs["b"])
        assert cache.get("a") is runs["a"]  # refreshes recency
        cache.put("c", runs["c"])  # evicts "b", the LRU entry
        assert cache.get("b") is None
        assert cache.get("a") is runs["a"]
        assert cache.get("c") is runs["c"]
        snap = cache.snapshot()
        assert snap["evictions"] == 1
        assert snap["entries"] == 2

    def test_fetch_builds_once(self):
        cache = DecodedRunCache(4)
        built = []

        def build():
            built.append(1)
            return DecodedRun.from_tuples([])

        first = cache.fetch("k", build)
        second = cache.fetch("k", build)
        assert first is second and len(built) == 1
        assert cache.snapshot()["hits"] == 1
        assert cache.snapshot()["misses"] == 1

    def test_invalidate_drops_entry(self):
        # The no-stale-decode mechanism: after invalidation the next
        # fetch must rebuild from freshly read tuples.
        cache = DecodedRunCache(4)
        stale = DecodedRun.from_tuples([])
        cache.put("k", stale)
        assert cache.invalidate("k") is True
        assert cache.invalidate("k") is False  # idempotent, not counted twice
        fresh = cache.fetch("k", lambda: DecodedRun.from_tuples([]))
        assert fresh is not stale
        snap = cache.snapshot()
        assert snap["invalidations"] == 1
        assert snap["misses"] == 1

    def test_publish_metrics(self):
        registry = MetricsRegistry()
        cache = DecodedRunCache(2)
        cache.fetch("k", lambda: DecodedRun.from_tuples([]))
        cache.fetch("k", lambda: DecodedRun.from_tuples([]))
        cache.publish_metrics(registry)
        snap = registry.snapshot()
        assert snap["counters"]["kernel.cache.hits"] == 1
        assert snap["counters"]["kernel.cache.misses"] == 1
        assert snap["gauges"]["kernel.cache.entries"] == 1


# ---------------------------------------------------------------------------
# End-to-end differential: kernels x workloads x k.
# ---------------------------------------------------------------------------


def make_workloads():
    time_range = Interval(1, 30_000)
    uniform = (
        long_lived_mixture(150, 0.0, time_range, seed=11, name="u_outer"),
        long_lived_mixture(150, 0.0, time_range, seed=12, name="u_inner"),
    )
    mixed = (
        long_lived_mixture(150, 0.4, time_range, seed=13, name="m_outer"),
        long_lived_mixture(150, 0.4, time_range, seed=14, name="m_inner"),
    )
    rng = random.Random(15)
    points = (
        TemporalRelation(
            [t for t in random_relation(rng, 120, range_size=400, max_duration=1)],
            name="p_outer",
        ),
        TemporalRelation(
            [t for t in random_relation(rng, 120, range_size=400, max_duration=1)],
            name="p_inner",
        ),
    )
    return {"uniform": uniform, "mixed": mixed, "points": points}


WORKLOADS = make_workloads()


class TestDifferentialIdentity:
    """Sweep kernel == naive kernel, bit for bit."""

    @pytest.fixture(scope="class")
    def references(self):
        return {
            (name, k): OIPJoin(kernel="naive", k_outer=k, k_inner=k).join(*rels)
            for name, rels in WORKLOADS.items()
            for k in (None, 8)
        }

    @pytest.mark.parametrize("workload", sorted(WORKLOADS))
    @pytest.mark.parametrize("k", (None, 8))
    def test_sweep_sequential(self, references, workload, k):
        result = OIPJoin(kernel="sweep", k_outer=k, k_inner=k).join(
            *WORKLOADS[workload]
        )
        reference = references[(workload, k)]
        assert fingerprint(result) == fingerprint(reference)
        assert result.details["kernel"] == "sweep"
        assert reference.details["kernel"] == "naive"
        # The cache saw every revisited partition.
        cache = result.details["kernel_cache"]
        assert cache["misses"] > 0
        assert cache["invalidations"] == 0

    @pytest.mark.parametrize("config", sorted(CONFIGS))
    @pytest.mark.parametrize("kernel", KERNELS)
    def test_backends(self, references, config, kernel):
        result = OIPJoin(kernel=kernel, **CONFIGS[config]).join(
            *WORKLOADS["mixed"]
        )
        assert fingerprint(result) == fingerprint(references[("mixed", None)])

    def test_report_counter_sections_identical(self):
        outer, inner = WORKLOADS["mixed"]
        reports = {}
        for kernel in KERNELS:
            result = OIPJoin(kernel=kernel, collect_report=True).join(
                outer, inner
            )
            reports[kernel] = result.report
        assert (
            reports["naive"]["counters"] == reports["sweep"]["counters"]
        )
        assert (
            reports["naive"]["resilience"] == reports["sweep"]["resilience"]
        )
        assert reports["naive"]["result"] == reports["sweep"]["result"]


class TestCheckpointResume:
    """Cancel mid-join, resume — per kernel, and across kernels: a
    checkpoint written by one kernel must resume under the other."""

    @pytest.mark.parametrize("resume_kernel", KERNELS)
    @pytest.mark.parametrize("start_kernel", KERNELS)
    def test_resume_matches_uninterrupted(
        self, tmp_path, start_kernel, resume_kernel
    ):
        outer, inner = WORKLOADS["mixed"]
        reference = OIPJoin(kernel="naive").join(outer, inner)
        path = str(tmp_path / f"{start_kernel}-{resume_kernel}.ckpt")
        token = CancellationToken(cancel_after_checks=4)
        partial = OIPJoin(
            kernel=start_kernel,
            cancellation=token,
            checkpoint_path=path,
            checkpoint_every=1,
        ).join(outer, inner)
        assert not partial.completed
        resumed = OIPJoin(kernel=resume_kernel, resume_from=path).join(
            outer, inner
        )
        assert resumed.completed
        assert resumed.pair_keys() == reference.pair_keys()


class TestFaultInjection:
    """Corruption detected mid-run must invalidate the decoded-run cache,
    and the faulty sweep run must still equal the fault-free naive run."""

    @pytest.fixture(scope="class")
    def relations(self):
        outer = long_lived_mixture(
            220, 0.4, Interval(1, 20_000), seed=71, name="outer"
        )
        inner = long_lived_mixture(
            220, 0.4, Interval(1, 20_000), seed=72, name="inner"
        )
        return outer, inner

    def test_corruption_invalidates_cache(self, relations):
        outer, inner = relations
        fault_free = OIPJoin(kernel="naive").join(outer, inner)
        # Same seeded fault schedule for both kernels: recovery re-reads
        # are charged identically, so counters stay comparable.
        faulty_naive = OIPJoin(
            kernel="naive", fault_policy=fault_profile("corrupt", seed=4)
        ).join(outer, inner)
        # Seed 4 is pinned: its schedule corrupts blocks of partitions
        # that are already cached, forcing invalidations (not just
        # cold misses).
        result = OIPJoin(
            kernel="sweep", fault_policy=fault_profile("corrupt", seed=4)
        ).join(outer, inner)
        assert result.resilience.corruptions_detected > 0
        assert result.details["kernel_cache"]["invalidations"] >= 1
        assert result.pair_keys() == fault_free.pair_keys()
        assert result.counters.snapshot() == faulty_naive.counters.snapshot()

    @pytest.mark.parametrize("profile", ("transient", "chaos"))
    @pytest.mark.parametrize("config", sorted(CONFIGS))
    def test_faulty_backends_match_fault_free(
        self, relations, profile, config
    ):
        outer, inner = relations
        fault_free = OIPJoin(kernel="naive").join(outer, inner)
        faulty_naive = OIPJoin(
            kernel="naive", fault_policy=fault_profile(profile, seed=5)
        ).join(outer, inner)
        result = OIPJoin(
            kernel="sweep",
            fault_policy=fault_profile(profile, seed=5),
            **CONFIGS[config],
        ).join(outer, inner)
        assert result.pair_keys() == fault_free.pair_keys()
        assert result.counters.snapshot() == faulty_naive.counters.snapshot()
        assert result.resilience.faults_observed > 0


# ---------------------------------------------------------------------------
# Configuration plumbing: OIPJoin, planner, metrics.
# ---------------------------------------------------------------------------


class TestConfiguration:
    def test_join_validates_kernel(self):
        with pytest.raises(ValueError, match="kernel"):
            OIPJoin(kernel="bogus")

    def test_join_validates_cache_size(self):
        with pytest.raises(ValueError, match="decode_cache_size"):
            OIPJoin(decode_cache_size=-1)

    def test_cache_size_zero_disables_cache(self):
        # decode_cache_size=0 is an explicit "no cache": the join runs
        # (bit-identically) and reports no kernel_cache details.
        outer, inner = WORKLOADS["mixed"]
        cached = OIPJoin(kernel="naive").join(outer, inner)
        uncached = OIPJoin(kernel="naive", decode_cache_size=0).join(
            outer, inner
        )
        assert "kernel_cache" not in uncached.details
        assert fingerprint(uncached) == fingerprint(cached)

    def test_planner_validates_kernel(self):
        with pytest.raises(ValueError, match="kernel"):
            JoinPlanner(kernel="bogus")

    def test_planner_validates_cache_size(self):
        with pytest.raises(ValueError, match="decode_cache_size"):
            JoinPlanner(decode_cache_size=-1)

    def test_planner_respects_disabled_cache(self):
        # A planner whose decode cache is pinned off hands that setting
        # to the planned join; the kernel is the auto rule's either way.
        big = long_lived_mixture(
            1_000, 0.5, Interval(1, 2**20), seed=7, name="big"
        )
        plan = JoinPlanner(decode_cache_size=0).plan(big, big)
        assert plan.algorithm.decode_cache_size == 0
        assert plan.algorithm.kernel == choose_kernel(big, big)
        assert f"; {plan.algorithm.kernel} kernel" in plan.reason

    def test_planner_pins_kernel(self):
        outer, inner = WORKLOADS["uniform"]
        plan = JoinPlanner(kernel="sweep").plan(outer, inner)
        assert plan.algorithm.kernel == "sweep"
        assert "sweep kernel (pinned)" in plan.reason

    def test_planner_auto_threshold(self):
        outer, inner = WORKLOADS["uniform"]
        plan = JoinPlanner().plan(outer, inner)
        # The planner must pin exactly what choose_kernel would pick —
        # one source of truth for the auto rule.
        assert plan.algorithm.kernel == choose_kernel(outer, inner)
        assert "kernel" in plan.reason

    def test_metrics_and_histogram_published(self):
        registry = MetricsRegistry()
        outer, inner = WORKLOADS["mixed"]
        OIPJoin(kernel="sweep", metrics=registry).join(outer, inner)
        snap = registry.snapshot()
        assert snap["counters"]["kernel.cache.misses"] > 0
        histogram = snap["histograms"]["join.kernel.candidates"]
        # One observation per (outer, relevant-inner) partition pair —
        # exactly one cache lookup (hit or miss) happens per pair.
        cache = OIPJoin(kernel="sweep").join(outer, inner).details[
            "kernel_cache"
        ]
        assert histogram["count"] == cache["hits"] + cache["misses"]

    def test_kernel_spans_traced(self):
        from repro.obs.trace import Tracer

        tracer = Tracer()
        outer, inner = WORKLOADS["mixed"]
        OIPJoin(kernel="sweep", tracer=tracer).join(outer, inner)
        names = set()

        def walk(span):
            names.add(span.name)
            for child in span.children:
                walk(child)

        for root in tracer.roots:
            walk(root)
        assert "kernel.sweep" in names
        assert "kernel.decode" in names
