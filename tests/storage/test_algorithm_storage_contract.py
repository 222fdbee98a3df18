"""Every algorithm's storage charges, pinned to recorded values.

``algorithm_storage_contract.json`` holds, for every algorithm in
``ALGORITHMS`` and every case below, the ``CostCounters`` and
``ResilienceCounters`` (and a digest of the sorted pairs) that the
algorithm produced when the fixture was recorded, or the storage error
it raised.  The baselines read ``Block`` runs and the OIP join reads
column runs, so together the cases drive every charged read path:
plain reads, buffer-pool hits and evictions, each fault profile's
retries and checksum failures, a permanent fault and reads without
verification.

Regenerate the fixture (only when the contract changes on purpose)::

    PYTHONPATH=src:. python -m tests.storage.test_algorithm_storage_contract --write
"""

import json
import os
import sys

import pytest

from repro.baselines import ALGORITHMS
from repro.core.interval import Interval
from repro.storage.buffer import BufferPool, ClockPolicy, LRUPolicy
from repro.storage.faults import FAULT_PROFILES, FaultPolicy, StorageFaultError
from repro.workloads import long_lived_mixture

from .test_storage_contract import _device, _pairs_digest

FIXTURE = os.path.join(
    os.path.dirname(__file__), "algorithm_storage_contract.json"
)


def _relations():
    """One Figure 8(a) relation pair at n=120 per side."""
    domain = Interval(1, 20_000)
    return (
        long_lived_mixture(120, 0.3, time_range=domain, seed=5),
        long_lived_mixture(120, 0.3, time_range=domain, seed=6),
    )


def _cases():
    cases = {}
    for block_tuples in (1, 2, 14):
        cases[f"block_tuples={block_tuples}"] = {"block_tuples": block_tuples}
    for profile in sorted(FAULT_PROFILES):
        for seed in (0, 1):
            cases[f"faults={profile}:{seed}"] = {"faults": [profile, seed]}
    cases["permanent_block=3"] = {"permanent": 3}
    cases["pool=lru"] = {"pool": "lru"}
    cases["pool=clock"] = {"pool": "clock"}
    cases["pool=lru+faults=chaos:0"] = {"pool": "lru", "faults": ["chaos", 0]}
    cases["verify_checksums=False"] = {"verify": False}
    return cases


def run_case(algorithm, case, outer, inner):
    """One join of *algorithm* under *case*: its counters, or the
    storage error it raised."""
    options = {
        "device": _device(case.get("block_tuples", 14)),
        "verify_checksums": case.get("verify", True),
    }
    if "faults" in case:
        profile, seed = case["faults"]
        options["fault_policy"] = FAULT_PROFILES[profile](seed)
    if "permanent" in case:
        options["fault_policy"] = FaultPolicy(
            permanent_blocks=frozenset({case["permanent"]})
        )
    if "pool" in case:
        policy = LRUPolicy() if case["pool"] == "lru" else ClockPolicy()
        options["buffer_pool"] = BufferPool(8, policy)
    join = ALGORITHMS[algorithm](**options)
    try:
        result = join.join(outer, inner)
    except StorageFaultError as error:
        record = {
            "error": type(error).__name__,
            "block_id": error.block_id,
            "attempts": error.attempts,
            "context": error.context,
            "resilience": join._resilience.snapshot(),
        }
    else:
        pairs = sorted(
            result.pairs,
            key=lambda pair: (
                pair[0].start, pair[0].end, pair[0].payload,
                pair[1].start, pair[1].end, pair[1].payload,
            ),
        )
        record = {
            "pairs": len(pairs),
            "pairs_crc": _pairs_digest(pairs),
            "counters": result.counters.snapshot(),
            "resilience": result.resilience.snapshot(),
        }
    # As the fixture stores it (tuples become lists).
    return json.loads(json.dumps(record))


def record_all():
    outer, inner = _relations()
    return {
        f"{algorithm}/{name}": run_case(algorithm, case, outer, inner)
        for algorithm in ALGORITHMS
        for name, case in _cases().items()
    }


def _recorded():
    with open(FIXTURE, encoding="utf-8") as handle:
        return json.load(handle)


@pytest.mark.parametrize("name", sorted(_cases()))
@pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
def test_counters_match_the_recorded_contract(algorithm, name):
    outer, inner = _relations()
    recorded = _recorded()[f"{algorithm}/{name}"]
    assert run_case(algorithm, _cases()[name], outer, inner) == recorded


def test_fixture_covers_every_case():
    expected = {
        f"{algorithm}/{name}" for algorithm in ALGORITHMS for name in _cases()
    }
    assert set(_recorded()) == expected


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_algorithm_storage_contract.py --write")
    with open(FIXTURE, "w", encoding="utf-8") as handle:
        json.dump(record_all(), handle, indent=1, sort_keys=True)
        handle.write("\n")
