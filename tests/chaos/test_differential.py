"""Differential chaos suite: joins under seeded fault schedules.

The acceptance property of the resilience layer: a run under transient
faults — reads erroring out, payloads arriving corrupted, latency spikes
— returns the *exact* pair list of a fault-free run, with the recovery
work visible in the :class:`~repro.storage.metrics.ResilienceCounters`
rather than in the results.  Permanent faults must not degrade silently:
they raise a structured error naming the failing block and the partition
being read.

Fault schedules are pure functions of the seed, so every scenario here
is reproducible run-to-run — chaos without flakiness.
"""

import pytest

from repro.baselines import ALGORITHMS
from repro.core.interval import Interval
from repro.core.join import OIPJoin
from repro.storage.faults import (
    FaultPolicy,
    StorageFaultError,
    fault_profile,
)
from repro.workloads import long_lived_mixture

#: OIPJOIN plus baselines covering distinct storage access patterns:
#: merge scans (smj) and partition-bucket fetches (grace).
CHAOS_ALGORITHMS = ("oip", "smj", "grace")

PROFILES = ("transient", "transient-heavy", "corrupt", "latency", "chaos")


@pytest.fixture(scope="module")
def relations():
    outer = long_lived_mixture(
        350, 0.3, Interval(1, 25_000), seed=31, name="outer"
    )
    inner = long_lived_mixture(
        350, 0.3, Interval(1, 25_000), seed=32, name="inner"
    )
    return outer, inner


@pytest.fixture(scope="module")
def healthy(relations):
    outer, inner = relations
    return {
        name: ALGORITHMS[name]().join(outer, inner)
        for name in CHAOS_ALGORITHMS
    }


class TestDifferentialIdentity:
    @pytest.mark.parametrize("name", CHAOS_ALGORITHMS)
    @pytest.mark.parametrize("profile", PROFILES)
    def test_faulty_run_matches_fault_free(
        self, relations, healthy, name, profile
    ):
        outer, inner = relations
        policy = fault_profile(profile, seed=5)
        result = ALGORITHMS[name](fault_policy=policy).join(outer, inner)
        reference = healthy[name]
        assert result.pair_keys() == reference.pair_keys()
        assert result.cardinality == reference.cardinality
        # Recovery is visible, not silent: fault profiles with retryable
        # faults must show them in the resilience counters.
        if profile != "latency":
            assert result.resilience.faults_observed > 0
            assert result.resilience.recovered
        else:
            assert result.resilience.latency_spikes > 0

    @pytest.mark.parametrize("seed", (0, 1, 2))
    def test_chaos_is_reproducible(self, relations, seed):
        outer, inner = relations
        policy = fault_profile("chaos", seed=seed)

        def run():
            result = OIPJoin(fault_policy=policy).join(outer, inner)
            return (
                result.pair_keys(),
                result.counters.snapshot(),
                result.resilience.snapshot(),
            )

        assert run() == run()


class TestPermanentFaults:
    def test_sequential_raises_structured_error(self, relations):
        outer, inner = relations
        policy = FaultPolicy(permanent_blocks=frozenset({0}))
        with pytest.raises(StorageFaultError) as excinfo:
            OIPJoin(fault_policy=policy).join(outer, inner)
        error = excinfo.value
        assert error.block_id == 0
        assert error.attempts == 4  # 1 try + 3 retries (default budget)
        assert "block 0" in str(error)
        assert "partition" in str(error)
        assert error.context is not None

    @pytest.mark.parametrize("name", ("smj", "grace"))
    def test_baselines_raise_structured_error(self, relations, name):
        outer, inner = relations
        policy = FaultPolicy(permanent_blocks=frozenset({0}))
        with pytest.raises(StorageFaultError) as excinfo:
            ALGORITHMS[name](fault_policy=policy).join(outer, inner)
        assert excinfo.value.block_id == 0

    def test_retry_budget_is_honoured(self, relations):
        outer, inner = relations
        policy = FaultPolicy(permanent_blocks=frozenset({0}))
        with pytest.raises(StorageFaultError) as excinfo:
            OIPJoin(fault_policy=policy, max_read_retries=1).join(
                outer, inner
            )
        assert excinfo.value.attempts == 2
