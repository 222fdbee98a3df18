"""Tests for the query-lifecycle governor.

Covers the governor pillars in isolation — budgets, cancellation,
checkpoint/resume plumbing and admission control — plus their
integration points: keyword-interaction validation on
:class:`~repro.core.join.OIPJoin`, fail-fast on exhausted budgets and
planner-level budget refusal.
The end-to-end cancel/resume differential lives in
``tests/chaos/test_lifecycle.py``.
"""

import json
import threading

import pytest

from repro.baselines.sort_merge import SortMergeJoin
from repro.core import cost_model_for, derive_k
from repro.core.base import join_pair_key
from repro.core.interval import Interval
from repro.core.join import OIPJoin, PairChunks
from repro.core.relation import TemporalRelation, TemporalTuple
from repro.engine.governor import (
    AdmissionController,
    AdmissionRejectedError,
    BudgetExceededError,
    CancellationToken,
    CheckpointMismatchError,
    CheckpointWriter,
    QueryBudget,
    QueryCancelledError,
    QueryCheckpoint,
    make_fingerprint,
)
from repro.engine.planner import JoinPlanner
from repro.storage.buffer import BufferPool
from repro.storage.metrics import (
    CostCounters,
    CostWeights,
    ResilienceCounters,
)
from repro.storage.snapshot import relation_endpoint_digest
from repro.workloads import long_lived_mixture


@pytest.fixture(scope="module")
def relations():
    outer = long_lived_mixture(
        200, 0.3, Interval(1, 12_000), seed=71, name="outer"
    )
    inner = long_lived_mixture(
        200, 0.3, Interval(1, 12_000), seed=72, name="inner"
    )
    return outer, inner


# ----------------------------------------------------------------------
# QueryBudget.
# ----------------------------------------------------------------------


class TestQueryBudget:
    @pytest.mark.parametrize(
        "field",
        ("deadline_ms", "max_comparisons", "max_block_reads", "max_cost"),
    )
    def test_negative_limits_rejected(self, field):
        with pytest.raises(ValueError, match=field):
            QueryBudget(**{field: -1})

    def test_unbounded_by_default(self):
        assert not QueryBudget().bounded
        assert QueryBudget(max_comparisons=10).bounded
        assert QueryBudget(deadline_ms=5.0).bounded

    def test_preflight_flags_zero_limits(self):
        assert QueryBudget().preflight_violation() is None
        assert QueryBudget(max_comparisons=5).preflight_violation() is None
        assert QueryBudget(deadline_ms=0).preflight_violation() == "deadline"
        assert (
            QueryBudget(max_comparisons=0).preflight_violation()
            == "comparisons"
        )
        assert (
            QueryBudget(max_block_reads=0).preflight_violation()
            == "block-reads"
        )
        assert QueryBudget(max_cost=0).preflight_violation() == "cost"

    def test_violation_names_first_exceeded_limit(self):
        counters = CostCounters()
        counters.charge_cpu(100)
        budget = QueryBudget(max_comparisons=99)
        assert budget.violation(counters, elapsed_ms=0.0) == "comparisons"
        # Limits are strict: exactly at the limit is still within budget.
        assert (
            QueryBudget(max_comparisons=100).violation(counters, 0.0) is None
        )
        # Deadline is checked first and uses >= (a deadline of 10 ms is
        # over as soon as 10 ms elapsed).
        both = QueryBudget(deadline_ms=10.0, max_comparisons=1)
        assert both.violation(counters, elapsed_ms=10.0) == "deadline"
        assert both.violation(counters, elapsed_ms=9.0) == "comparisons"

    def test_cost_limit_priced_with_budget_weights(self):
        counters = CostCounters()
        counters.charge_cpu(10)
        heavy = CostWeights(cpu=100.0, io=1.0)
        budget = QueryBudget(max_cost=500.0, weights=heavy)
        assert budget.violation(counters, 0.0) == "cost"
        # The same counters fit easily under the default pricing.
        assert QueryBudget(max_cost=500.0).violation(counters, 0.0) is None

    def test_from_cost_units(self):
        budget = QueryBudget.from_cost_units(1234.5, deadline_ms=50.0)
        assert budget.max_cost == 1234.5
        assert budget.deadline_ms == 50.0

    def test_from_cost_model(self, relations):
        outer, inner = relations
        model = cost_model_for(outer, inner)
        k = derive_k(model).k
        budget = QueryBudget.from_cost_model(model, k, headroom=4.0)
        assert budget.max_cost == pytest.approx(4.0 * model.overhead_cost(k))
        assert budget.weights is model.weights
        with pytest.raises(ValueError, match="headroom"):
            QueryBudget.from_cost_model(model, k, headroom=0.0)


# ----------------------------------------------------------------------
# CancellationToken.
# ----------------------------------------------------------------------


class TestCancellationToken:
    def test_manual_cancel(self):
        token = CancellationToken()
        assert not token.cancelled
        assert not token.poll()
        token.cancel()
        assert token.cancelled
        assert token.poll()
        assert token.checks == 2

    def test_cancel_after_checks_is_deterministic(self):
        token = CancellationToken(cancel_after_checks=2)
        assert not token.poll()
        assert not token.poll()
        assert token.poll()  # third check crosses the threshold
        assert token.cancelled

    def test_cancel_after_zero_checks_stops_immediately(self):
        token = CancellationToken(cancel_after_checks=0)
        assert token.poll()

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError, match="cancel_after_checks"):
            CancellationToken(cancel_after_checks=-1)

    def test_raise_if_cancelled(self):
        token = CancellationToken()
        token.raise_if_cancelled()  # armed but not cancelled: no-op
        token.cancel()
        with pytest.raises(QueryCancelledError) as excinfo:
            token.raise_if_cancelled()
        assert excinfo.value.checks == 2

    def test_cancel_from_another_thread(self):
        token = CancellationToken()
        thread = threading.Thread(target=token.cancel)
        thread.start()
        thread.join()
        assert token.poll()


# ----------------------------------------------------------------------
# Fail fast on exhausted budgets.
# ----------------------------------------------------------------------


class TestFailFast:
    @pytest.mark.parametrize(
        "budget",
        (
            QueryBudget(max_comparisons=0),
            QueryBudget(max_block_reads=0),
            QueryBudget(max_cost=0),
            QueryBudget(deadline_ms=0),
        ),
    )
    def test_exhausted_budget_does_no_partition_work(
        self, relations, budget
    ):
        outer, inner = relations
        with pytest.raises(BudgetExceededError) as excinfo:
            OIPJoin(budget=budget).join(outer, inner)
        error = excinfo.value
        assert "exhausted at launch" in str(error)
        assert error.partitions_completed == 0
        # Preflight fires before k derivation and partitioning: the
        # partial counters show zero work of any kind.
        assert all(v == 0 for v in error.counters.snapshot().values())
        assert error.checkpoint_path is None


# ----------------------------------------------------------------------
# Keyword-interaction validation (OIPJoin constructor).
# ----------------------------------------------------------------------


class TestKeywordValidation:
    def test_rejection_names_the_offending_keywords(self):
        with pytest.raises(ValueError, match="per-side granule counts"):
            OIPJoin(k_outer=0, k_inner=3)
        with pytest.raises(ValueError, match="k_outer and k_inner"):
            OIPJoin(k_outer=2)
        # An unknown keyword is rejected loudly, never silently ignored.
        with pytest.raises(TypeError, match="workers"):
            OIPJoin(workers=2)

    def test_valid_combinations_construct(self, tmp_path):
        OIPJoin(kernel="sweep")
        OIPJoin(
            budget=QueryBudget(max_comparisons=10),
            cancellation=CancellationToken(),
            checkpoint_path=str(tmp_path / "ck.json"),
            checkpoint_every=4,
        )

    def test_checkpoint_every_requires_checkpoint_path(self):
        with pytest.raises(ValueError, match="checkpoint_path"):
            OIPJoin(checkpoint_every=4)
        with pytest.raises(ValueError, match="checkpoint_every"):
            OIPJoin(checkpoint_path="x.json", checkpoint_every=0)

    def test_buffer_pool_excludes_checkpoint_and_resume(self):
        pool = BufferPool(capacity_blocks=8)
        with pytest.raises(ValueError, match="buffer pool"):
            OIPJoin(buffer_pool=pool, checkpoint_path="x.json")
        with pytest.raises(ValueError, match="buffer pool"):
            OIPJoin(buffer_pool=pool, resume_from="x.json")


# ----------------------------------------------------------------------
# Checkpoints.
# ----------------------------------------------------------------------


def _checkpoint(fingerprint=None, completed=4, count=10):
    return QueryCheckpoint(
        fingerprint=fingerprint or {"algorithm": "oip", "k_outer": 3},
        partitions_completed=completed,
        partition_count=count,
        counters={"cpu_comparisons": 17, "block_reads": 5},
        resilience={"faults_observed": 0},
        pairs=[(0, 1), (2, 0)],
    )


class TestQueryCheckpoint:
    def test_write_load_round_trip(self, tmp_path):
        path = str(tmp_path / "ck.json")
        original = _checkpoint()
        assert original.write(path) == path
        loaded = QueryCheckpoint.load(path)
        assert loaded == original

    def test_unsupported_version_rejected(self, tmp_path):
        path = tmp_path / "ck.json"
        payload = {"version": 99, "fingerprint": {}, "pairs": []}
        path.write_text(json.dumps(payload))
        with pytest.raises(CheckpointMismatchError, match="version"):
            QueryCheckpoint.load(str(path))

    def test_validate_rejects_foreign_fingerprint(self):
        checkpoint = _checkpoint({"algorithm": "oip", "k_outer": 3})
        with pytest.raises(CheckpointMismatchError, match="k_outer"):
            checkpoint.validate({"algorithm": "oip", "k_outer": 5}, 10)

    def test_validate_rejects_partition_count_drift(self):
        checkpoint = _checkpoint()
        with pytest.raises(CheckpointMismatchError, match="partitions"):
            checkpoint.validate(checkpoint.fingerprint, 11)

    def test_validate_rejects_out_of_range_progress(self):
        checkpoint = _checkpoint(completed=12, count=10)
        with pytest.raises(CheckpointMismatchError, match="out"):
            checkpoint.validate(checkpoint.fingerprint, 10)

    def test_relation_digest_is_order_sensitive(self):
        forward = TemporalRelation.from_records(
            [(1, 3, "a"), (5, 9, "b")], name="r"
        )
        reversed_ = TemporalRelation.from_records(
            [(5, 9, "b"), (1, 3, "a")], name="r"
        )
        assert relation_endpoint_digest(forward) != relation_endpoint_digest(
            reversed_
        )
        # The checkpoint fingerprint carries exactly that digest.
        fingerprint = make_fingerprint("oip", 2, 2, forward, reversed_)
        assert fingerprint["outer_digest"] == relation_endpoint_digest(forward)
        assert fingerprint["inner_digest"] == relation_endpoint_digest(
            reversed_
        )

    def test_resume_against_different_relation_rejected(
        self, relations, tmp_path
    ):
        outer, inner = relations
        path = str(tmp_path / "ck.json")
        token = CancellationToken(cancel_after_checks=3)
        part = OIPJoin(
            cancellation=token, checkpoint_path=path, checkpoint_every=1
        ).join(outer, inner)
        assert not part.completed
        other = long_lived_mixture(
            200, 0.3, Interval(1, 12_000), seed=99, name="inner"
        )
        with pytest.raises(CheckpointMismatchError, match="differs in"):
            OIPJoin(resume_from=path).join(outer, other)


class TestResumeAnyPayload:
    def test_dict_payloads_and_equal_tuples_resume_exactly(
        self, relations, tmp_path
    ):
        # Dict payloads are unhashable, and the copies at the end equal
        # earlier tuples in value: the checkpoint must store each pair's
        # own positions, so the resumed pairs are the very same objects.
        base, inner = relations
        tuples = [
            TemporalTuple(t.start, t.end, {"row": t.payload}) for t in base
        ]
        tuples += [
            TemporalTuple(t.start, t.end, dict(t.payload)) for t in tuples[:20]
        ]
        outer = TemporalRelation(tuples, name="outer")
        path = str(tmp_path / "ck.json")
        token = CancellationToken(cancel_after_checks=4)
        part = OIPJoin(
            cancellation=token, checkpoint_path=path, checkpoint_every=1
        ).join(outer, inner)
        assert not part.completed
        resumed = OIPJoin(resume_from=path).join(outer, inner)
        full = OIPJoin().join(outer, inner)
        assert resumed.details["resumed_from_partition"] > 0
        assert [(id(o), id(i)) for o, i in resumed.pairs] == [
            (id(o), id(i)) for o, i in full.pairs
        ]
        assert resumed.counters.snapshot() == full.counters.snapshot()
        assert resumed.resilience.snapshot() == full.resilience.snapshot()


class TestCheckpointWriter:
    def _writer(self, relations, tmp_path, every=2):
        outer, inner = relations
        return CheckpointWriter(
            path=str(tmp_path / "ck.json"),
            every=every,
            fingerprint=make_fingerprint("oip", 3, 3, outer, inner),
            partition_count=10,
        )

    def test_cadence(self, relations, tmp_path):
        writer = self._writer(relations, tmp_path, every=2)
        counters, resilience = CostCounters(), ResilienceCounters()
        written = [
            writer.maybe_write(done, counters, resilience, PairChunks())
            for done in range(1, 6)
        ]
        # Due at 2 and 4; never at 0 work, odd counts skipped.
        assert [path is not None for path in written] == [
            False, True, False, True, False,
        ]
        assert writer.writes == 2

    def test_force_overrides_cadence(self, relations, tmp_path):
        writer = self._writer(relations, tmp_path, every=100)
        counters, resilience = CostCounters(), ResilienceCounters()
        assert writer.maybe_write(0, counters, resilience, PairChunks()) is None
        assert (
            writer.maybe_write(3, counters, resilience, PairChunks(), force=True)
            is not None
        )
        loaded = QueryCheckpoint.load(writer.path)
        assert loaded.partitions_completed == 3

    def test_duplicate_boundary_not_rewritten(self, relations, tmp_path):
        writer = self._writer(relations, tmp_path, every=2)
        counters, resilience = CostCounters(), ResilienceCounters()
        assert writer.maybe_write(2, counters, resilience, PairChunks()) is not None
        assert writer.maybe_write(2, counters, resilience, PairChunks()) is None
        assert writer.writes == 1

    def test_interval_must_be_positive(self, relations):
        outer, inner = relations
        with pytest.raises(ValueError, match="interval"):
            CheckpointWriter(
                path="x.json",
                every=0,
                fingerprint={},
                partition_count=1,
            )


# ----------------------------------------------------------------------
# Admission control.
# ----------------------------------------------------------------------


class TestAdmissionController:
    def test_validation(self):
        with pytest.raises(ValueError, match="max_active"):
            AdmissionController(max_active=0)
        with pytest.raises(ValueError, match="max_queued"):
            AdmissionController(max_active=1, max_queued=-1)

    def test_rejects_when_saturated_and_queue_full(self):
        controller = AdmissionController(max_active=1, max_queued=0)
        with controller.admit():
            with pytest.raises(AdmissionRejectedError) as excinfo:
                with controller.admit():
                    pass  # pragma: no cover
            assert not excinfo.value.timed_out
        # Rejection is observable in the stats, not silent.
        stats = controller.stats
        assert stats.submitted == 2
        assert stats.admitted == 1
        assert stats.rejected == 1
        assert stats.completed == 1

    def test_queue_wait_timeout(self):
        controller = AdmissionController(max_active=1, max_queued=1)
        with controller.admit():
            with pytest.raises(AdmissionRejectedError) as excinfo:
                with controller.admit(timeout=0.01):
                    pass  # pragma: no cover
            assert excinfo.value.timed_out
        assert controller.stats.timeouts == 1

    def test_queued_query_admitted_after_release(self):
        controller = AdmissionController(max_active=1, max_queued=1)
        holding = threading.Event()
        release = threading.Event()
        outcome = {}

        def holder():
            with controller.admit():
                holding.set()
                release.wait(timeout=5.0)

        def waiter():
            holding.wait(timeout=5.0)
            with controller.admit(timeout=5.0):
                outcome["admitted"] = True

        threads = [
            threading.Thread(target=holder),
            threading.Thread(target=waiter),
        ]
        threads[0].start()
        holding.wait(timeout=5.0)
        threads[1].start()
        while controller.queued == 0 and threads[1].is_alive():
            pass  # the waiter is about to enqueue
        release.set()
        for thread in threads:
            thread.join(timeout=5.0)
        assert outcome.get("admitted")
        assert controller.stats.admitted == 2
        assert controller.stats.peak_queued == 1

    def test_run_executes_joins_within_slot_limit(self, relations):
        outer, inner = relations
        controller = AdmissionController(max_active=2, max_queued=8)
        reference = OIPJoin().join(outer, inner)
        results = []
        lock = threading.Lock()

        def worker():
            result = controller.run(OIPJoin(), outer, inner, timeout=30.0)
            with lock:
                results.append(result)

        threads = [threading.Thread(target=worker) for _ in range(5)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
        assert len(results) == 5
        assert all(
            r.pair_keys() == reference.pair_keys() for r in results
        )
        stats = controller.stats
        assert stats.completed == 5
        assert stats.peak_active <= 2
        assert controller.active == 0


# ----------------------------------------------------------------------
# Planner budget refusal.
# ----------------------------------------------------------------------


class TestPlannerBudget:
    def test_refuses_plan_whose_estimate_exceeds_budget(self, relations):
        outer, inner = relations
        with pytest.raises(BudgetExceededError, match="planner estimate"):
            JoinPlanner().plan(
                outer, inner, budget=QueryBudget(max_comparisons=10)
            )
        with pytest.raises(BudgetExceededError, match="block reads"):
            JoinPlanner().plan(
                outer, inner, budget=QueryBudget(max_block_reads=1)
            )

    def test_threads_budget_into_the_planned_join(self, relations):
        outer, inner = relations
        budget = QueryBudget(max_comparisons=10**12)
        plan = JoinPlanner().plan(outer, inner, budget=budget)
        assert plan.algorithm.budget is budget
        result = plan.execute(outer, inner)
        assert result.completed

    def test_join_shorthand_enforces_budget(self, relations):
        outer, inner = relations
        with pytest.raises(BudgetExceededError):
            JoinPlanner().join(
                outer, inner, budget=QueryBudget(max_cost=1.0)
            )


# ----------------------------------------------------------------------
# Cooperative cancellation through the algorithm layers.
# ----------------------------------------------------------------------


class TestCancellationIntegration:
    def test_oip_cancels_at_partition_boundary(self, relations):
        outer, inner = relations
        reference = OIPJoin().join(outer, inner)
        token = CancellationToken(cancel_after_checks=5)
        partial = OIPJoin(cancellation=token).join(outer, inner)
        assert not partial.completed
        assert partial.details["cancelled"] is True
        done = partial.details["partitions_completed"]
        assert 0 < done < partial.details["outer_partitions"]
        # The sequential loop is deterministic: a partial result is an
        # exact prefix of the uninterrupted pair stream (compare in
        # emission order — pair_keys() sorts).
        keys = [join_pair_key(pair) for pair in partial.pairs]
        reference_keys = [join_pair_key(pair) for pair in reference.pairs]
        assert keys == reference_keys[: len(keys)]

    def test_baseline_cancels_via_storage_polling(self, relations):
        outer, inner = relations
        reference = SortMergeJoin().join(outer, inner)
        token = CancellationToken(cancel_after_checks=10)
        partial = SortMergeJoin(cancellation=token).join(outer, inner)
        assert not partial.completed
        assert partial.details.get("cancelled") is True
        assert token.checks > 10
        assert set(partial.pair_keys()) <= set(reference.pair_keys())
        assert partial.cardinality < reference.cardinality

    def test_results_default_to_completed(self, relations):
        outer, inner = relations
        assert OIPJoin().join(outer, inner).completed
