"""Tests for the deterministic fault-injection substrate."""

import pytest

from repro.storage.faults import (
    FAULT_PROFILES,
    CorruptBlockError,
    FaultKind,
    FaultPolicy,
    ReadRetriesExceededError,
    StorageFaultError,
    fault_profile,
    perform_read,
)
from repro.storage.metrics import CostCounters, ResilienceCounters


class TestFaultPolicy:
    def test_default_policy_is_fault_free(self):
        policy = FaultPolicy()
        assert not policy.injects_faults
        assert all(
            policy.decide(block_id, attempt) is FaultKind.OK
            for block_id in range(50)
            for attempt in range(4)
        )

    def test_decisions_are_deterministic(self):
        policy = FaultPolicy(seed=3, transient_probability=0.2)
        again = FaultPolicy(seed=3, transient_probability=0.2)
        decisions = [policy.decide(b, a) for b in range(200) for a in range(3)]
        assert decisions == [
            again.decide(b, a) for b in range(200) for a in range(3)
        ]

    def test_different_seeds_differ(self):
        one = FaultPolicy(seed=1, transient_probability=0.2)
        two = FaultPolicy(seed=2, transient_probability=0.2)
        assert [one.decide(b, 0) for b in range(300)] != [
            two.decide(b, 0) for b in range(300)
        ]

    def test_probability_roughly_honoured(self):
        policy = FaultPolicy(seed=0, transient_probability=0.25)
        faults = sum(
            policy.decide(b, 0) is FaultKind.TRANSIENT for b in range(2000)
        )
        assert 0.18 < faults / 2000 < 0.32

    def test_transient_schedule_pins_attempts(self):
        policy = FaultPolicy(transient_schedule={7: 2})
        assert policy.decide(7, 0) is FaultKind.TRANSIENT
        assert policy.decide(7, 1) is FaultKind.TRANSIENT
        assert policy.decide(7, 2) is FaultKind.OK
        assert policy.decide(8, 0) is FaultKind.OK

    def test_corrupt_schedule_pins_attempts(self):
        policy = FaultPolicy(corrupt_schedule={3: 1})
        assert policy.decide(3, 0) is FaultKind.CORRUPT
        assert policy.decide(3, 1) is FaultKind.OK

    def test_permanent_block_never_recovers(self):
        policy = FaultPolicy(permanent_blocks={5})
        assert all(
            policy.decide(5, attempt) is FaultKind.TRANSIENT
            for attempt in range(20)
        )

    def test_probability_validation(self):
        with pytest.raises(ValueError, match="transient_probability"):
            FaultPolicy(transient_probability=1.5)
        with pytest.raises(ValueError, match="corrupt_probability"):
            FaultPolicy(corrupt_probability=-0.1)

    def test_schedule_validation(self):
        with pytest.raises(ValueError, match="transient_schedule"):
            FaultPolicy(transient_schedule={1: -1})

    def test_equal_policies_decide_alike(self):
        first = FaultPolicy(seed=9, corrupt_probability=0.3)
        second = FaultPolicy(seed=9, corrupt_probability=0.3)
        for block_id in range(100):
            assert first.decide(block_id, 0) == second.decide(block_id, 0)


class TestFaultProfiles:
    def test_none_profile_is_none(self):
        assert fault_profile("none") is None
        assert fault_profile("off") is None

    def test_unknown_profile_raises(self):
        with pytest.raises(ValueError, match="unknown fault profile"):
            fault_profile("tornado")

    @pytest.mark.parametrize("name", sorted(FAULT_PROFILES))
    def test_named_profiles_inject(self, name):
        policy = fault_profile(name, seed=4)
        assert policy is not None
        assert policy.injects_faults
        assert policy.seed == 4


class TestPerformRead:
    def test_fault_free_sequential_classification(self):
        counters = CostCounters()
        last = None
        for block_id in (0, 1, 2, 9):
            last = perform_read(block_id, counters, last)
        assert counters.sequential_reads == 2  # 1 and 2 follow the chain
        assert counters.random_reads == 2  # 0 (first) and 9 (jump)

    def test_retries_charged_random(self):
        counters = CostCounters()
        resilience = ResilienceCounters()
        policy = FaultPolicy(transient_schedule={1: 2})
        new_last = perform_read(
            1, counters, 0, policy=policy, resilience=resilience
        )
        assert new_last == 1
        # Attempt 0 follows block 0 (sequential); both retries are random.
        assert counters.sequential_reads == 1
        assert counters.random_reads == 2
        assert resilience.transient_faults == 2
        assert resilience.retries == 2
        assert resilience.backoff_units == 2 ** 0 + 2 ** 1

    def test_retry_budget_exhaustion_raises_structured_error(self):
        policy = FaultPolicy(permanent_blocks={4})
        resilience = ResilienceCounters()
        with pytest.raises(ReadRetriesExceededError) as excinfo:
            perform_read(
                4,
                CostCounters(),
                None,
                policy=policy,
                resilience=resilience,
                max_retries=2,
                context=("inner partition", (3, 5)),
            )
        error = excinfo.value
        assert error.block_id == 4
        assert error.attempts == 3
        assert error.context == ("inner partition", (3, 5))
        assert "block 4" in str(error)
        assert "inner partition" in str(error)
        assert isinstance(error, StorageFaultError)

    def test_persistent_corruption_raises_corrupt_error(self):
        policy = FaultPolicy(corrupt_schedule={2: 10})
        with pytest.raises(CorruptBlockError) as excinfo:
            perform_read(
                2, CostCounters(), None, policy=policy, max_retries=1
            )
        assert excinfo.value.block_id == 2
        assert excinfo.value.attempts == 2

    def test_verify_failure_counts_as_corruption(self):
        resilience = ResilienceCounters()
        with pytest.raises(CorruptBlockError):
            perform_read(
                0,
                CostCounters(),
                None,
                resilience=resilience,
                max_retries=1,
                verify=lambda: False,
            )
        assert resilience.corruptions_detected == 2
        assert resilience.checksum_verifications == 2

    def test_latency_spike_succeeds_but_is_recorded(self):
        resilience = ResilienceCounters()
        policy = FaultPolicy(seed=0, latency_probability=1.0)
        counters = CostCounters()
        assert perform_read(
            3, counters, None, policy=policy, resilience=resilience
        ) == 3
        assert resilience.latency_spikes == 1
        assert resilience.retries == 0
        assert counters.block_reads == 1

    def test_negative_retry_budget_rejected(self):
        with pytest.raises(ValueError, match="max_retries"):
            perform_read(0, CostCounters(), None, max_retries=-1)

    def test_zero_retries_allows_clean_read(self):
        assert perform_read(0, CostCounters(), None, max_retries=0) == 0
