"""The OIP join's storage charges, pinned to recorded values.

``storage_contract.json`` holds the ``CostCounters`` and
``ResilienceCounters`` (and a digest of the pairs in order) that
``OIPJoin`` produced for each case below when the fixture was recorded.
A change to how runs are stored, read, charged or verified must keep
every case exactly equal; comparing the join with itself would not
notice a charging change made on both sides.

Regenerate the fixture (only when the contract changes on purpose)::

    PYTHONPATH=src python tests/storage/test_storage_contract.py --write
"""

import json
import os
import sys
import tempfile
import zlib
from dataclasses import replace

import pytest

from repro.core.interval import Interval
from repro.core.join import OIPJoin
from repro.storage.buffer import BufferPool, ClockPolicy, LRUPolicy
from repro.storage.device import DeviceProfile
from repro.storage.faults import FAULT_PROFILES, FaultPolicy, StorageFaultError
from repro.storage.snapshot import save_index
from repro.workloads import long_lived_mixture

FIXTURE = os.path.join(os.path.dirname(__file__), "storage_contract.json")

#: Two Figure 8(a) relation pairs at n=200 per side.
RELATION_SEEDS = ((1, 2), (3, 4))


def _relations(outer_seed, inner_seed):
    domain = Interval(1, 20_000)
    return (
        long_lived_mixture(200, 0.3, time_range=domain, seed=outer_seed),
        long_lived_mixture(200, 0.3, time_range=domain, seed=inner_seed),
    )


def _device(block_tuples):
    device = DeviceProfile.main_memory()
    return replace(
        device, block_size_bytes=block_tuples * device.tuple_size_bytes
    )


def _cases():
    cases = {}
    for block_tuples in (1, 2, 14):
        cases[f"block_tuples={block_tuples}"] = {"block_tuples": block_tuples}
    for profile in sorted(FAULT_PROFILES):
        for seed in (0, 1):
            cases[f"faults={profile}:{seed}"] = {"faults": [profile, seed]}
    cases["permanent_block=5"] = {"permanent": 5}
    cases["pool=lru"] = {"pool": "lru"}
    cases["pool=clock"] = {"pool": "clock"}
    cases["pool=lru+faults=chaos:0"] = {"pool": "lru", "faults": ["chaos", 0]}
    cases["verify_checksums=False"] = {"verify": False}
    cases["index_path"] = {"index": True}
    cases["index_path+faults=chaos:1"] = {"index": True, "faults": ["chaos", 1]}
    return cases


def _pairs_digest(pairs):
    crc = 0
    for outer, inner in pairs:
        crc = zlib.crc32(
            f"{outer.start}:{outer.end}:{outer.payload!r}|"
            f"{inner.start}:{inner.end}:{inner.payload!r};".encode(),
            crc,
        )
    return crc


def run_case(case, outer, inner, workdir):
    """One join of *case*: its counters, or the storage error it raised."""
    device = _device(case.get("block_tuples", 14))
    options = {"device": device, "verify_checksums": case.get("verify", True)}
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
    if case.get("index"):
        path = os.path.join(workdir, "contract.oip")
        save_index(path, outer, inner, device=device)
        options["index_path"] = path
    join = OIPJoin(**options)
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
        if case.get("index"):
            assert result.details["index"]["loaded"]
        record = {
            "pairs": len(result.pairs),
            "pairs_crc": _pairs_digest(result.pairs),
            "counters": result.counters.snapshot(),
            "resilience": result.resilience.snapshot(),
        }
    # As the fixture stores it (tuples become lists).
    return json.loads(json.dumps(record))


def record_all():
    records = {}
    with tempfile.TemporaryDirectory() as workdir:
        for seeds in RELATION_SEEDS:
            outer, inner = _relations(*seeds)
            for name, case in _cases().items():
                key = f"{seeds[0]}x{seeds[1]}/{name}"
                records[key] = run_case(case, outer, inner, workdir)
    return records


def _recorded():
    with open(FIXTURE, encoding="utf-8") as handle:
        return json.load(handle)


@pytest.mark.parametrize("seeds", RELATION_SEEDS, ids=lambda s: f"{s[0]}x{s[1]}")
@pytest.mark.parametrize("name", sorted(_cases()))
def test_counters_match_the_recorded_contract(seeds, name, tmp_path):
    outer, inner = _relations(*seeds)
    recorded = _recorded()[f"{seeds[0]}x{seeds[1]}/{name}"]
    assert run_case(_cases()[name], outer, inner, str(tmp_path)) == recorded


def test_fixture_covers_every_case():
    expected = {
        f"{seeds[0]}x{seeds[1]}/{name}"
        for seeds in RELATION_SEEDS
        for name in _cases()
    }
    assert set(_recorded()) == expected


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_storage_contract.py --write")
    with open(FIXTURE, "w", encoding="utf-8") as handle:
        json.dump(record_all(), handle, indent=1, sort_keys=True)
        handle.write("\n")
