"""Snapshot round-trip and recovery properties.

The acceptance property of the persistence layer: a join over a loaded
snapshot is *bit-identical* to a join that rebuilt the index in memory
— same pairs, same cost counters, same resilience counters — across
workloads and k regimes.  And every injected crash point during a save
leaves the path in a state that either fscks clean or degrades to a
rebuild with, again, identical results.
"""

import os

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, example, given, settings

from repro.core.granules import GranulePolicy
from repro.core.interval import Interval
from repro.core.join import OIPJoin
from repro.core.relation import TemporalRelation
from repro.storage import (
    DeviceProfile,
    SimulatedCrashError,
    SnapshotError,
    StorageManager,
    WriteFaultPolicy,
    fsck_index,
    load_index,
    read_statistics,
    save_index,
)
from repro.storage.snapshot import (
    IndexExpectation,
    relation_endpoint_digest,
    tmp_path,
)
from repro.workloads import (
    long_lived_mixture,
    point_relation,
    uniform_relation,
)

WORKLOADS = {
    "mixture": lambda seed: long_lived_mixture(
        400, 0.3, Interval(1, 30_000), seed=seed
    ),
    "uniform": lambda seed: uniform_relation(
        400, Interval(1, 30_000), 0.01, seed=seed
    ),
    "points": lambda seed: point_relation(
        400, Interval(1, 30_000), seed=seed
    ),
}

K_REGIMES = {
    "derived": {},
    "pinned": {"k": 7},
    "per_side": {"k_outer": 5, "k_inner": 11},
}


def assert_identical(result, baseline):
    assert result.pairs == baseline.pairs
    assert result.counters.snapshot() == baseline.counters.snapshot()
    assert result.resilience.snapshot() == baseline.resilience.snapshot()


class TestRoundTrip:
    @pytest.mark.parametrize("workload", sorted(WORKLOADS))
    @pytest.mark.parametrize("regime", sorted(K_REGIMES))
    def test_loaded_join_bit_identical(self, tmp_path_factory, workload, regime):
        outer = WORKLOADS[workload](1)
        inner = WORKLOADS[workload](2)
        path = str(
            tmp_path_factory.mktemp("snap") / f"{workload}-{regime}.oip"
        )
        kwargs = K_REGIMES[regime]
        save_index(path, outer, inner, **kwargs)
        baseline = OIPJoin(**kwargs).join(outer, inner)
        loaded = OIPJoin(index_path=path, **kwargs).join(outer, inner)
        assert loaded.details["index"]["loaded"] is True
        assert_identical(loaded, baseline)
        base_details = dict(baseline.details)
        load_details = dict(loaded.details)
        load_details.pop("index")
        assert load_details == base_details

    def test_load_restores_same_tuple_objects(self, tmp_path):
        outer = WORKLOADS["mixture"](3)
        inner = WORKLOADS["mixture"](4)
        path = str(tmp_path / "same.oip")
        save_index(path, outer, inner)
        loaded = load_index(path, outer, inner, storage=StorageManager())
        restored = {
            id(tup)
            for node in loaded.outer_list.iter_nodes()
            for tup in node.run.iter_tuples()
        }
        assert restored <= {id(tup) for tup in outer.tuples}
        for node in loaded.outer_list.iter_nodes():
            assert node.run.verify()

    def test_load_into_another_block_size_reads_clean(self, tmp_path):
        # The stored checksums describe the saving device's blocks; a
        # load into storage with other blocks must not hold its own
        # blocks to them.
        outer = WORKLOADS["mixture"](3)
        inner = WORKLOADS["mixture"](4)
        path = str(tmp_path / "blocks.oip")
        save_index(path, outer, inner)
        storage = StorageManager(device=DeviceProfile.disk())
        loaded = load_index(path, outer, inner, storage=storage)
        for partition_list in (loaded.outer_list, loaded.inner_list):
            for node in partition_list.iter_nodes():
                list(storage.read_run(node.run))
        assert storage.resilience.corruptions_detected == 0
        assert storage.resilience.checksum_verifications > 0

    def test_generation_increments(self, tmp_path):
        outer = WORKLOADS["uniform"](5)
        inner = WORKLOADS["uniform"](6)
        path = str(tmp_path / "gen.oip")
        assert save_index(path, outer, inner)["generation"] == 0
        assert save_index(path, outer, inner)["generation"] == 1
        assert read_statistics(path)["meta"]["generation"] == 1

    def test_read_statistics_matches_relations(self, tmp_path):
        outer = WORKLOADS["mixture"](7)
        inner = WORKLOADS["uniform"](8)
        path = str(tmp_path / "stats.oip")
        save_index(path, outer, inner)
        stats = read_statistics(path)["stats"]
        for side, relation in (("outer", outer), ("inner", inner)):
            assert stats[side]["cardinality"] == relation.cardinality
            assert (
                stats[side]["duration_fraction"]
                == relation.duration_fraction
            )

    def test_empty_relation_rejected(self, tmp_path):
        outer = WORKLOADS["uniform"](9)
        with pytest.raises(ValueError):
            save_index(
                str(tmp_path / "empty.oip"),
                outer,
                TemporalRelation.from_pairs([]),
            )

    @pytest.mark.parametrize(
        "granules",
        [
            {"k": 0},
            {"k_outer": 0, "k_inner": -2},
            {"k_outer": 3},
            {"k": 3, "k_outer": 3, "k_inner": 3},
        ],
    )
    def test_invalid_granules_rejected_before_writing(
        self, tmp_path, granules
    ):
        path = tmp_path / "bad-k.oip"
        with pytest.raises(ValueError):
            save_index(
                str(path),
                WORKLOADS["uniform"](1),
                WORKLOADS["uniform"](2),
                **granules,
            )
        assert list(tmp_path.iterdir()) == []


class TestDegradeReasons:
    def test_missing(self, tmp_path):
        with pytest.raises(SnapshotError) as excinfo:
            load_index(
                str(tmp_path / "nope.oip"),
                WORKLOADS["uniform"](1),
                WORKLOADS["uniform"](2),
                storage=StorageManager(),
            )
        assert excinfo.value.reason == "missing"

    def test_fingerprint_mismatch(self, tmp_path):
        outer = WORKLOADS["mixture"](1)
        inner = WORKLOADS["mixture"](2)
        path = str(tmp_path / "fp.oip")
        save_index(path, outer, inner)
        other = WORKLOADS["mixture"](3)
        with pytest.raises(SnapshotError) as excinfo:
            load_index(path, other, inner, storage=StorageManager())
        assert excinfo.value.reason == "fingerprint_mismatch"

    def test_config_mismatch(self, tmp_path):
        outer = WORKLOADS["mixture"](1)
        inner = WORKLOADS["mixture"](2)
        path = str(tmp_path / "cfg.oip")
        save_index(path, outer, inner, k=4)
        with pytest.raises(SnapshotError) as excinfo:
            load_index(
                path,
                outer,
                inner,
                storage=StorageManager(),
                expected=IndexExpectation(14, GranulePolicy(k=9)),
            )
        assert excinfo.value.reason == "config_mismatch"

    def test_no_payloads_still_loads_but_blocks_maintenance(self, tmp_path):
        from repro.storage import MaintainedIndex

        outer = WORKLOADS["mixture"](1)
        inner = WORKLOADS["mixture"](2)
        path = str(tmp_path / "nopay.oip")
        save_index(path, outer, inner, store_payloads=False)
        # Loading works: positions index into the caller's relations,
        # so the stored payloads are only needed by maintenance.
        loaded = load_index(path, outer, inner, storage=StorageManager())
        assert loaded.meta["payloads_stored"] is False
        with pytest.raises(SnapshotError) as excinfo:
            MaintainedIndex.open(path)
        assert excinfo.value.reason == "no_payloads"

    def test_truncated(self, tmp_path):
        outer = WORKLOADS["uniform"](1)
        inner = WORKLOADS["uniform"](2)
        path = str(tmp_path / "trunc.oip")
        save_index(path, outer, inner)
        os.truncate(path, os.path.getsize(path) // 2)
        with pytest.raises(SnapshotError) as excinfo:
            load_index(path, outer, inner, storage=StorageManager())
        assert excinfo.value.reason in ("truncated", "section_crc")

    def test_degrade_leaves_results_identical(self, tmp_path):
        outer = WORKLOADS["mixture"](1)
        inner = WORKLOADS["mixture"](2)
        path = str(tmp_path / "deg.oip")
        save_index(path, outer, inner)
        with open(path, "r+b") as handle:
            handle.seek(os.path.getsize(path) // 2)
            byte = handle.read(1)
            handle.seek(-1, os.SEEK_CUR)
            handle.write(bytes([byte[0] ^ 0xFF]))
        baseline = OIPJoin().join(outer, inner)
        degraded = OIPJoin(index_path=path).join(outer, inner)
        assert degraded.details["index"]["loaded"] is False
        assert_identical(degraded, baseline)


class TestCrashSweep:
    """Every injected crash point either fscks clean or degrades —
    never a wrong answer, never an unrecoverable path."""

    @pytest.fixture(scope="class")
    def relations(self):
        return WORKLOADS["mixture"](21), WORKLOADS["mixture"](22)

    @pytest.fixture(scope="class")
    def baseline(self, relations):
        outer, inner = relations
        return OIPJoin().join(outer, inner)

    def sweep_offsets(self, path, relations):
        save_index(path, *relations)
        size = os.path.getsize(path)
        os.unlink(path)
        # Crash points spread across the blob, including the header,
        # the section table and both ends.
        return [0, 1, 16, 97, size // 3, size // 2, size - 1], size

    @pytest.mark.parametrize(
        "kind", ["torn_write_at", "drop_fsync", "bitflip_at"]
    )
    def test_every_crash_point_recovers(
        self, tmp_path, relations, baseline, kind
    ):
        outer, inner = relations
        path = str(tmp_path / f"{kind}.oip")
        offsets, _size = self.sweep_offsets(path, (outer, inner))
        for offset in offsets:
            if kind == "drop_fsync":
                # The torn offset of a lost fsync comes from the
                # policy's seeded draw, not from a pinned offset.
                policy = WriteFaultPolicy(drop_fsync=True, at_commit=0)
            elif kind == "torn_write_at":
                policy = WriteFaultPolicy(torn_write_at=offset, at_commit=0)
            else:
                policy = WriteFaultPolicy(bitflip_at=offset, at_commit=0)
            try:
                save_index(path, outer, inner, write_faults=policy)
                crashed = False
            except SimulatedCrashError:
                crashed = True
            if kind != "bitflip_at":
                assert crashed
            verdict = fsck_index(path)
            if verdict["loadable"]:
                result = OIPJoin(index_path=path).join(outer, inner)
                assert result.details["index"]["loaded"] is True
            else:
                # fsck already removed stale tmp litter.
                assert not os.path.exists(tmp_path_for(path))
                result = OIPJoin(index_path=path).join(outer, inner)
                assert result.details["index"]["loaded"] is False
            assert_identical(result, baseline)
            if os.path.exists(path):
                os.unlink(path)
            if kind == "drop_fsync":
                break  # offset comes from the seeded draw; one case

    def test_failed_rename_leaves_old_snapshot(self, tmp_path, relations, baseline):
        outer, inner = relations
        path = str(tmp_path / "rename.oip")
        save_index(path, outer, inner)
        with pytest.raises(SimulatedCrashError):
            save_index(
                path,
                outer,
                inner,
                write_faults=WriteFaultPolicy(fail_rename=True, at_commit=0),
            )
        # The previous generation survives untouched; fsck removes the
        # orphaned temp file.
        assert os.path.exists(tmp_path_for(path))
        verdict = fsck_index(path)
        assert verdict["loadable"] and "removed_tmp" in verdict["repairs"]
        result = OIPJoin(index_path=path).join(outer, inner)
        assert result.details["index"]["loaded"] is True
        assert_identical(result, baseline)


def tmp_path_for(path):
    return tmp_path(path)


class TestCacheInvalidation:
    def test_cache_purged_on_index_load(self, tmp_path, decode_log):
        outer = WORKLOADS["mixture"](31)
        inner = WORKLOADS["mixture"](32)
        path = str(tmp_path / "cache.oip")
        save_index(path, outer, inner)
        join = OIPJoin(index_path=path, kernel="sweep")
        first = join.join(outer, inner)
        first_decodes = list(decode_log)
        assert first_decodes
        second = join.join(outer, inner)
        # Each load restores fresh partition nodes, so the second run
        # decodes everything again instead of reusing the first run's
        # decodes — and answers bit-identically.
        assert first.details["index"]["loaded"] is True
        assert second.details["index"]["loaded"] is True
        assert decode_log == first_decodes + first_decodes
        assert_identical(second, first)


# ----------------------------------------------------------------------
# Property-based round trips over random relations.
# ----------------------------------------------------------------------


@st.composite
def relation_pairs(draw):
    span = Interval(1, 5_000)

    def one(side):
        records = []
        for index in range(draw(st.integers(1, 40))):
            start = draw(st.integers(span.start, span.end))
            end = draw(st.integers(start, span.end))
            records.append((start, end, f"{side}{index}"))
        return TemporalRelation.from_records(records, name=side)

    return one("r"), one("s")


@given(relation_pairs(), st.integers(1, 12))
@example(
    # A one-chronon outer domain clamps the outer side to k=1 while the
    # inner side keeps k=2: the two sides report different counts.
    pair=(
        TemporalRelation.from_records([(7, 7, "r0")], name="r"),
        TemporalRelation.from_records(
            [(1, 10, "s0"), (7, 9, "s1")], name="s"
        ),
    ),
    k=2,
)
@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_property_round_trip(tmp_path_factory, pair, k):
    outer, inner = pair
    path = str(tmp_path_factory.mktemp("prop") / "prop.oip")
    save_index(path, outer, inner, k=k)
    baseline = OIPJoin(k=k).join(outer, inner)
    loaded = OIPJoin(index_path=path, k=k).join(outer, inner)
    assert loaded.details["index"]["loaded"] is True
    assert_identical(loaded, baseline)
    assert (
        read_statistics(path)["meta"]["config_outer"]["k"]
        == baseline.details["k_outer"]
    )
    assert (
        read_statistics(path)["meta"]["config_inner"]["k"]
        == baseline.details["k_inner"]
    )


@given(relation_pairs())
@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_property_endpoint_digest_stable(tmp_path_factory, pair):
    outer, _ = pair
    clone = TemporalRelation.from_records(
        [(t.start, t.end, t.payload) for t in outer.tuples], name="r"
    )
    assert relation_endpoint_digest(outer) == relation_endpoint_digest(clone)
