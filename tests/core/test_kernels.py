"""Differential suite for the pluggable join kernels (Section 5 probe).

The kernel layer's acceptance property: every kernel is *bit-identical* to the seed implementation — same pairs in the same
order, same :class:`~repro.storage.metrics.CostCounters`, same run-report
counter sections, same checkpoint/resume behaviour.  The sweep kernel is
an execution strategy, not a cost model: it must charge exactly the
comparisons Algorithm 2 would have performed.

The decode memo rides along: a join decodes each partition it reads
exactly once, and a read that detects a corruption re-decodes its run
instead of reusing the memo, which the fault-profile tests prove
differentially (faulty sweep run == fault-free naive run).
"""

import random
from collections import Counter

import pytest

from repro.core.granules import (
    NUMPY_FROM_CANDIDATES,
    GranulePolicy,
    choose_kernel,
    estimated_candidates,
)
from repro.core.interval import Interval
from repro.core.join import OIPJoin
from repro.core import kernels
from repro.core.kernels import (
    DecodedRun,
    decode_columns,
    naive_matches,
    sweep_matches,
)
from repro.core.relation import TemporalRelation
from repro.engine.governor import CancellationToken
from repro.engine.planner import JoinPlanner
from repro.obs.registry import MetricsRegistry
from repro.storage.device import DeviceProfile
from repro.storage.faults import fault_profile
from repro.storage.metrics import CostWeights
from repro.workloads import long_lived_mixture

from ..conftest import oracle_pairs, probe_decodes, random_relation

KERNELS = ("naive", "sweep")

#: The execution configurations (mirrors tests/chaos/test_lifecycle.py):
#: the probe has one path, the sequential Algorithm 2 loop.
CONFIGS = {"sequential": {}}

#: Joins compared across kernels at a *derived* k use the paper's
#: weights: they price no inner-tuple visit, so Equation 2 derives one
#: k for every kernel, where the engine's weights derive the fast
#: kernels' k from their own cost.
SAME_K = {"weights": CostWeights.main_memory()}


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


def _estimated(outer, inner):
    return estimated_candidates(
        outer.cardinality,
        inner.cardinality,
        outer.duration_fraction,
        inner.duration_fraction,
    )


DEVICE = DeviceProfile.main_memory()


class TestKernelSelection:
    def test_resolve_validates(self):
        rng = random.Random(0)
        rel = random_relation(rng, 5)
        with pytest.raises(ValueError, match="unknown join kernel"):
            choose_kernel(rel, rel, "bogus")

    def test_auto_picks_by_candidate_estimate(self):
        rng = random.Random(1)
        small = random_relation(rng, 8, range_size=100)
        assert _estimated(small, small) < NUMPY_FROM_CANDIDATES
        assert choose_kernel(small, small) == "sweep"
        big = long_lived_mixture(
            1_000, 0.5, Interval(1, 2**20), seed=7, name="big"
        )
        # From the threshold up: the vectorized tier when numpy is
        # importable, the sweep otherwise.
        top = "numpy" if kernels.numpy_available() else "sweep"
        assert _estimated(big, big) >= NUMPY_FROM_CANDIDATES
        assert choose_kernel(big, big) == top
        assert choose_kernel(big, big, "auto") == top
        assert choose_kernel(big, big, "naive") == "naive"
        # The join runs the chosen kernel, and derives k for it.
        policy = GranulePolicy()
        for requested, expected in (("auto", top), ("naive", "naive")):
            result = OIPJoin(kernel=requested).join(big, big)
            assert result.details["kernel"] == expected
            derivation = policy.derive(big, big, DEVICE, expected)
            assert result.details["k"] == policy.counts(
                big, big, derivation
            )[1]


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


def _granules(k):
    """A pinned shared k, or the derivation every kernel shares."""
    return SAME_K if k is None else {"k_outer": k, "k_inner": k}


class TestDifferentialIdentity:
    """Sweep kernel == naive kernel, bit for bit."""

    @pytest.fixture(scope="class")
    def references(self):
        return {
            (name, k): OIPJoin(kernel="naive", **_granules(k)).join(*rels)
            for name, rels in WORKLOADS.items()
            for k in (None, 8)
        }

    @pytest.mark.parametrize("workload", sorted(WORKLOADS))
    @pytest.mark.parametrize("k", (None, 8))
    def test_sweep_sequential(self, references, workload, k):
        result = OIPJoin(kernel="sweep", **_granules(k)).join(
            *WORKLOADS[workload]
        )
        reference = references[(workload, k)]
        assert fingerprint(result) == fingerprint(reference)
        assert result.details["kernel"] == "sweep"
        assert reference.details["kernel"] == "naive"

    @pytest.mark.parametrize("workload", sorted(WORKLOADS))
    @pytest.mark.parametrize("kernel", KERNELS)
    def test_join_decodes_each_partition_once(
        self, decode_log, workload, kernel
    ):
        # Every inner partition is visited by many outer partitions
        # (APA, Lemma 5), but its run is decoded on the first visit
        # only; an outer partition is decoded once it has a relevant
        # inner one.
        outer, inner = WORKLOADS[workload]
        result = OIPJoin(kernel=kernel).join(outer, inner)
        details = result.details
        assert Counter(decode_log) == probe_decodes(
            outer, inner, details["k_outer"], details["k_inner"]
        )

    @pytest.mark.parametrize("config", sorted(CONFIGS))
    @pytest.mark.parametrize("kernel", KERNELS)
    def test_backends(self, references, config, kernel):
        result = OIPJoin(kernel=kernel, **SAME_K, **CONFIGS[config]).join(
            *WORKLOADS["mixed"]
        )
        assert fingerprint(result) == fingerprint(references[("mixed", None)])

    def test_report_counter_sections_identical(self):
        outer, inner = WORKLOADS["mixed"]
        reports = {}
        for kernel in KERNELS:
            result = OIPJoin(
                kernel=kernel, collect_report=True, **SAME_K
            ).join(outer, inner)
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
        # The paper's weights partition finely enough that the cancel
        # after four checks lands mid-probe.
        weights = CostWeights.main_memory()
        reference = OIPJoin(kernel="naive", weights=weights).join(outer, inner)
        path = str(tmp_path / f"{start_kernel}-{resume_kernel}.ckpt")
        token = CancellationToken(cancel_after_checks=4)
        partial = OIPJoin(
            kernel=start_kernel,
            weights=weights,
            cancellation=token,
            checkpoint_path=path,
            checkpoint_every=1,
        ).join(outer, inner)
        assert not partial.completed
        resumed = OIPJoin(
            kernel=resume_kernel, weights=weights, resume_from=path
        ).join(outer, inner)
        assert resumed.completed
        assert resumed.pair_keys() == reference.pair_keys()


class TestFaultInjection:
    """Corruption detected mid-run must re-decode the run it was read
    from, and the faulty sweep run must still equal the fault-free naive
    run.

    Every join pins ``k=3``, the partitioning these seeds were chosen
    under: kernels compared on one relation pair need one ``k``, and
    seed 4 must corrupt blocks of runs read more than once."""

    @pytest.fixture(scope="class")
    def relations(self):
        outer = long_lived_mixture(
            220, 0.4, Interval(1, 20_000), seed=71, name="outer"
        )
        inner = long_lived_mixture(
            220, 0.4, Interval(1, 20_000), seed=72, name="inner"
        )
        return outer, inner

    def test_corruption_invalidates_cache(self, relations, decode_log):
        outer, inner = relations
        fault_free = OIPJoin(kernel="naive", k=3).join(outer, inner)
        once = Counter(decode_log)
        # Same seeded fault schedule for both kernels: recovery re-reads
        # are charged identically, so counters stay comparable.
        faulty_naive = OIPJoin(
            kernel="naive", k=3, fault_policy=fault_profile("corrupt", seed=4)
        ).join(outer, inner)
        # Seed 4 is pinned: its schedule corrupts blocks of partitions
        # that were already decoded, forcing re-decodes (not just
        # first decodes).
        del decode_log[:]
        result = OIPJoin(
            kernel="sweep", k=3, fault_policy=fault_profile("corrupt", seed=4)
        ).join(outer, inner)
        corruptions = result.resilience.corruptions_detected
        assert corruptions > 0
        decodes = Counter(decode_log)
        redecodes = decodes - once
        assert set(decodes) == set(once)
        assert 1 <= sum(redecodes.values()) <= corruptions
        assert result.pair_keys() == fault_free.pair_keys()
        assert result.counters.snapshot() == faulty_naive.counters.snapshot()

    @pytest.mark.parametrize("profile", ("transient", "chaos"))
    @pytest.mark.parametrize("config", sorted(CONFIGS))
    def test_faulty_backends_match_fault_free(
        self, relations, profile, config
    ):
        outer, inner = relations
        fault_free = OIPJoin(kernel="naive", k=3).join(outer, inner)
        faulty_naive = OIPJoin(
            kernel="naive", k=3, fault_policy=fault_profile(profile, seed=5)
        ).join(outer, inner)
        result = OIPJoin(
            kernel="sweep",
            k=3,
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

    def test_planner_validates_kernel(self):
        with pytest.raises(ValueError, match="kernel"):
            JoinPlanner(kernel="bogus")

    def test_planner_pins_kernel(self):
        outer, inner = WORKLOADS["uniform"]
        plan = JoinPlanner(kernel="sweep").plan(outer, inner)
        assert plan.algorithm.kernel == "sweep"
        assert "sweep kernel (pinned)" in plan.reason

    def test_planner_auto_threshold(self):
        outer, inner = WORKLOADS["uniform"]
        plan = JoinPlanner().plan(outer, inner)
        # The planned join leaves the kernel to the join — one source
        # of truth for the auto rule — and the reason names it.
        kernel = choose_kernel(outer, inner)
        assert plan.algorithm.kernel == "auto"
        assert f"; {kernel} kernel" in plan.reason
        assert plan.execute(outer, inner).details["kernel"] == kernel

    def test_metrics_and_histogram_published(self):
        registry = MetricsRegistry()
        outer, inner = WORKLOADS["mixed"]
        result = OIPJoin(kernel="sweep", metrics=registry).join(outer, inner)
        snap = registry.snapshot()
        histogram = snap["histograms"]["join.kernel.candidates"]
        # One observation per (outer, relevant-inner) partition pair —
        # the probe's partition accesses.
        assert histogram["count"] == result.counters.partition_accesses > 0

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
