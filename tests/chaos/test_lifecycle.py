"""Lifecycle chaos suite: cancel/resume identity and budgets under faults.

The governor's acceptance property mirrors the resilience layer's: a
join cancelled at *any* cooperative boundary and resumed from its
checkpoint produces the **bit-identical** pair list, CostCounters and
ResilienceCounters of an uninterrupted run, with and without an active
fault policy.  (Resuming under a different kernel is covered by
``tests/core/test_kernels.py``.)

Cancellation points are driven by ``CancellationToken(cancel_after_checks
=n)``, which fires at an exact boundary with no wall-clock races; the
sweeps are seeded, so every scenario is reproducible run-to-run.

Note the completion branch in the harness: a cancellation point beyond
the outer-partition count legitimately never fires and the run
completes — in that case the identity check is against the full
reference instead.
"""

import random

import pytest

from repro.core.base import join_pair_key
from repro.core.interval import Interval
from repro.core.join import OIPJoin
from repro.engine.governor import (
    BudgetExceededError,
    CancellationToken,
    QueryBudget,
)
from repro.storage.faults import FAULT_PROFILES, fault_profile
from repro.storage.metrics import CostWeights
from repro.workloads import long_lived_mixture

#: Execution configurations the differential runs on: the probe has one
#: path, the sequential Algorithm-2 loop.  A join's cooperative stop
#: points are its outer partitions and one after the last; under the
#: paper's weights ("sequential") these relations split into enough
#: outer partitions that cancels land mid-join, and the default policy
#: joins them at k=1, whose only mid-run stop point is the last one.
CONFIGS = {
    "sequential": {"weights": CostWeights.main_memory()},
    "default": {},
}


def fingerprint(result):
    """Everything the identity guarantee covers: the exact pair list
    (emission-order sensitive via sorted canonical keys), the cost
    counters and the storage-level resilience counters."""
    return (
        sorted(join_pair_key(pair) for pair in result.pairs),
        result.counters.snapshot(),
        result.resilience.storage_snapshot(),
    )


def cancel_and_resume(outer, inner, config, point, tmp_path, policy=None):
    """Cancel at boundary *point*, then resume; returns the final result
    (the partial run itself when the point was never reached)."""
    path = str(tmp_path / f"ck-{point}.json")
    token = CancellationToken(cancel_after_checks=point)
    partial = OIPJoin(
        cancellation=token,
        checkpoint_path=path,
        checkpoint_every=1,
        fault_policy=policy,
        **config,
    ).join(outer, inner)
    if partial.completed:
        return partial
    assert partial.details["cancelled"] is True
    assert partial.details["checkpoint"] == path
    resumed = OIPJoin(
        resume_from=path, fault_policy=policy, **config
    ).join(outer, inner)
    assert resumed.completed
    if resumed.details.get("resumed_from_partition", 0) > 0:
        assert resumed.details["resumed_from_partition"] == (
            partial.details["partitions_completed"]
        )
    return resumed


@pytest.fixture(scope="module")
def relations():
    outer = long_lived_mixture(
        300, 0.3, Interval(1, 20_000), seed=41, name="outer"
    )
    inner = long_lived_mixture(
        300, 0.3, Interval(1, 20_000), seed=42, name="inner"
    )
    return outer, inner


@pytest.fixture(scope="module")
def reference(relations):
    """Uninterrupted fingerprints per config."""
    outer, inner = relations
    return {
        name: fingerprint(OIPJoin(**config).join(outer, inner))
        for name, config in CONFIGS.items()
    }


class TestCancelResumeIdentity:
    @pytest.mark.parametrize("config", sorted(CONFIGS))
    @pytest.mark.parametrize("point", (1, 4, 9))
    def test_resume_is_bit_identical(
        self, relations, reference, config, point, tmp_path
    ):
        outer, inner = relations
        result = cancel_and_resume(
            outer, inner, CONFIGS[config], point, tmp_path
        )
        assert fingerprint(result) == reference[config]

    @pytest.mark.slow
    @pytest.mark.parametrize("config", sorted(CONFIGS))
    @pytest.mark.parametrize("faulted", (False, True))
    def test_seeded_cancellation_sweep(
        self, relations, reference, config, faulted, tmp_path
    ):
        """Seeded random cancellation points, with and without an active
        fault policy."""
        outer, inner = relations
        rng = random.Random(2014 + (1 if faulted else 0))
        policy = fault_profile("chaos", seed=11) if faulted else None
        base = (
            reference[config]
            if not faulted
            else fingerprint(
                OIPJoin(
                    fault_policy=policy, **CONFIGS[config]
                ).join(outer, inner)
            )
        )
        for point in sorted(rng.sample(range(1, 40), 5)):
            result = cancel_and_resume(
                outer, inner, CONFIGS[config], point, tmp_path,
                policy=policy,
            )
            assert fingerprint(result) == base, (
                f"cancellation point {point} broke the identity"
            )


class TestFaultedCancelResume:
    @pytest.mark.parametrize("config", sorted(CONFIGS))
    def test_resume_identity_under_chaos_profile(
        self, relations, config, tmp_path
    ):
        """Cancel/resume under an active fault schedule: recovery work
        (retries, checksum repairs) lands in the checkpointed resilience
        counters and the final state still matches an uninterrupted
        faulted run exactly."""
        outer, inner = relations
        policy = fault_profile("chaos", seed=11)
        base = fingerprint(
            OIPJoin(fault_policy=policy, **CONFIGS[config]).join(
                outer, inner
            )
        )
        result = cancel_and_resume(
            outer, inner, CONFIGS[config], 4, tmp_path, policy=policy
        )
        assert fingerprint(result) == base


class TestBudgetsUnderChaos:
    @pytest.mark.parametrize("profile", sorted(FAULT_PROFILES))
    def test_tight_budget_completes_or_fails_structured(
        self, relations, profile
    ):
        """FAULT_PROFILES x a tight comparison budget: every combination
        either completes or raises BudgetExceededError whose partial
        counters are monotonically consistent with (<= field-wise, and
        past the violated limit of) the full faulted run."""
        outer, inner = relations
        policy = fault_profile(profile, seed=7)
        full = OIPJoin(fault_policy=policy).join(outer, inner)
        limit = full.counters.cpu_comparisons // 3
        try:
            result = OIPJoin(
                fault_policy=policy,
                budget=QueryBudget(max_comparisons=limit),
            ).join(outer, inner)
        except BudgetExceededError as error:
            assert error.reason == "comparisons"
            # The stop boundary is the first one past the limit: at the
            # latest the one after the last outer partition.
            assert error.counters.cpu_comparisons > limit
            assert 0 < error.partitions_completed
            assert (
                error.partitions_completed
                <= full.details["outer_partitions"]
            )
            partial = error.counters.snapshot()
            total = full.counters.snapshot()
            assert all(
                partial[field] <= total[field] for field in partial
            ), "partial counters exceed the uninterrupted totals"
        else:  # pragma: no cover - profile-dependent
            assert result.completed

    def test_budget_stop_checkpoint_is_resumable(self, relations, tmp_path):
        """A budget abort writes a final checkpoint; resuming it without
        the budget finishes the query bit-identically."""
        outer, inner = relations
        base = fingerprint(OIPJoin().join(outer, inner))
        path = str(tmp_path / "budget-ck.json")
        limit = 5_000
        with pytest.raises(BudgetExceededError) as excinfo:
            OIPJoin(
                budget=QueryBudget(max_comparisons=limit),
                checkpoint_path=path,
                checkpoint_every=1,
            ).join(outer, inner)
        assert excinfo.value.checkpoint_path == path
        resumed = OIPJoin(resume_from=path).join(outer, inner)
        assert fingerprint(resumed) == base

    def test_deadline_budget_is_enforced_or_irrelevant(self, relations):
        """A 1 ms deadline on a non-trivial join: the run either finished
        inside the deadline window or aborted at a boundary with the
        elapsed time on the error."""
        outer, inner = relations
        try:
            result = OIPJoin(
                budget=QueryBudget(deadline_ms=1.0)
            ).join(outer, inner)
        except BudgetExceededError as error:
            assert error.reason == "deadline"
            assert error.elapsed_ms >= 1.0
        else:  # pragma: no cover - timing-dependent
            assert result.completed
