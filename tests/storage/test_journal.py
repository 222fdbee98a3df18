"""Maintenance-journal and maintained-index behaviour.

The journal is the write-ahead half of incremental maintenance: every
insert/delete is CRC-framed and fsynced *before* it is applied, so a
crash replays acknowledged deltas and loses at most the record being
written.  Compaction folds the deltas into a fresh snapshot generation
and resets the journal — the snapshot commit is the linearization
point.
"""

import os

import pytest

from repro.core.interval import Interval
from repro.core.join import OIPJoin
from repro.storage import (
    MaintainedIndex,
    MaintenanceJournal,
    SimulatedCrashError,
    WriteFaultPolicy,
    fsck_index,
    read_statistics,
    save_index,
)
from repro.storage.metrics import CostWeights
from repro.storage.snapshot import journal_path
from repro.workloads import long_lived_mixture, uniform_relation


@pytest.fixture
def snapshot(tmp_path):
    outer = long_lived_mixture(120, 0.3, Interval(1, 8_000), seed=41)
    inner = long_lived_mixture(120, 0.3, Interval(1, 8_000), seed=42)
    path = str(tmp_path / "maint.oip")
    save_index(path, outer, inner)
    return path, outer, inner


class TestJournal:
    def test_append_scan_round_trip(self, tmp_path):
        journal = MaintenanceJournal(str(tmp_path / "j.journal"))
        journal.reset(3)
        records = [
            {"op": "insert", "side": "outer", "start": 1, "end": 5,
             "payload": "a"},
            {"op": "delete", "side": "inner", "start": 2, "end": 2,
             "payload": None},
        ]
        for record in records:
            journal.append(record)
        state = journal.scan()
        assert state.header_ok and not state.torn
        assert state.generation == 3
        assert state.records == records

    def test_torn_tail_detected_and_truncated(self, tmp_path):
        journal = MaintenanceJournal(str(tmp_path / "j.journal"))
        journal.reset(0)
        journal.append({"op": "insert", "side": "outer", "start": 1,
                        "end": 2, "payload": None})
        with open(journal.path, "ab") as handle:
            handle.write(b"\x07garbage-partial-frame")
        state = journal.scan()
        assert state.torn and len(state.records) == 1
        journal.truncate_tail(state.good_length)
        clean = journal.scan()
        assert not clean.torn and clean.records == state.records

    def test_corrupt_header_not_trusted(self, tmp_path):
        path = str(tmp_path / "j.journal")
        journal = MaintenanceJournal(path)
        journal.reset(0)
        with open(path, "r+b") as handle:
            handle.write(b"XXXX")
        assert journal.scan().header_ok is False


class TestMaintainedIndex:
    def test_insert_delete_replay(self, snapshot):
        path, outer, inner = snapshot
        index = MaintainedIndex.open(path)
        base_cardinality = index.cardinality("outer")
        index.insert("outer", 10, 500, "new-a")
        index.insert("inner", 20, 20, "new-b")
        assert index.delete("outer", 10, 500, "new-a") is True
        assert index.delete("outer", 10, 500, "new-a") is False
        assert index.pending == 3
        index.check_invariants()
        # A reopened index replays the journal to the same state.
        replayed = MaintainedIndex.open(path)
        assert replayed.pending == 3
        assert replayed.cardinality("outer") == base_cardinality
        assert replayed.cardinality("inner") == index.cardinality("inner")
        replayed.check_invariants()

    def test_compact_folds_and_resets(self, snapshot):
        path, outer, inner = snapshot
        index = MaintainedIndex.open(path)
        index.insert("outer", 10, 500, "compact-me")
        info = index.compact()
        assert info["generation"] == 1
        assert index.pending == 0
        reopened = MaintainedIndex.open(path)
        assert reopened.generation == 1
        assert reopened.pending == 0
        # The folded tuple is join-visible through the new snapshot.
        new_outer, new_inner = reopened.relations()
        result = OIPJoin(index_path=path).join(new_outer, new_inner)
        assert result.details["index"]["loaded"] is True
        assert result.details["index"]["generation"] == 1
        rebuilt = OIPJoin().join(new_outer, new_inner)
        assert result.pairs == rebuilt.pairs
        assert result.counters.snapshot() == rebuilt.counters.snapshot()

    def test_compaction_keeps_cost_weights(self, tmp_path):
        # Under these weights the derived k is 7; the device's give 29.
        weights = CostWeights(1.0, 5000.0)
        outer = uniform_relation(800, Interval(0, 99_999), 0.01, seed=1)
        inner = uniform_relation(800, Interval(0, 99_999), 0.01, seed=2)
        path = str(tmp_path / "weights.oip")
        assert save_index(path, outer, inner, weights=weights)["k_outer"] == 7
        index = MaintainedIndex.open(path)
        index.insert("outer", 10, 500, "compacted")
        info = index.compact()
        new_outer, new_inner = index.relations()
        rebuilt = OIPJoin(weights=weights).join(new_outer, new_inner)
        assert info["k_outer"] == rebuilt.details["k_outer"] == 7
        assert read_statistics(path)["meta"]["weights"] == {
            "cpu": 1.0, "io": 5000.0
        }
        loaded = OIPJoin(index_path=path, weights=weights).join(
            new_outer, new_inner
        )
        assert loaded.details["index"]["loaded"] is True
        assert loaded.pairs == rebuilt.pairs
        assert loaded.counters.snapshot() == rebuilt.counters.snapshot()

    def test_stale_journal_reset_on_open(self, snapshot):
        path, outer, inner = snapshot
        journal = MaintenanceJournal.for_index(path)
        journal.reset(99)  # generation disagrees with the snapshot's 0
        journal.append({"op": "insert", "side": "outer", "start": 1,
                        "end": 2, "payload": None})
        index = MaintainedIndex.open(path)
        # The stale record was discarded, not replayed.
        assert index.pending == 0
        assert journal.scan().generation == 0

    def test_crash_during_append_leaves_replayable_prefix(self, snapshot):
        path, outer, inner = snapshot
        index = MaintainedIndex.open(path)
        index.insert("outer", 10, 400, "kept")
        crashing = MaintenanceJournal.for_index(
            path,
            write_faults=WriteFaultPolicy(torn_write_at=2, at_commit=0),
        )
        with pytest.raises(SimulatedCrashError):
            crashing.append({"op": "insert", "side": "outer", "start": 5,
                             "end": 6, "payload": "lost"})
        verdict = fsck_index(path)
        assert "journal_torn_tail" in verdict["problems"]
        assert "truncated_journal_tail" in verdict["repairs"]
        assert verdict["ok"]
        replayed = MaintainedIndex.open(path)
        assert replayed.pending == 1  # "kept" survived, "lost" did not
        replayed.check_invariants()

    def test_journal_file_lives_next_to_snapshot(self, snapshot):
        path, _, _ = snapshot
        index = MaintainedIndex.open(path)
        index.insert("outer", 10, 400, "x")
        assert os.path.exists(journal_path(path))
        assert journal_path(path) == path + ".journal"


class TestJournalReplayErrors:
    """Satellite contract: a journal record that cannot be replayed
    surfaces as a structured :class:`JournalReplayError` naming the
    record index and its byte offset — not a bare KeyError buried in a
    traceback."""

    def test_unreplayable_record_names_index_and_offset(self, snapshot):
        from repro.storage import JournalReplayError

        path, _, _ = snapshot
        index = MaintainedIndex.open(path)
        index.insert("outer", 3, 9, "ok")  # record 0: replayable
        journal = MaintenanceJournal(journal_path(path))
        # Record 1: frame-valid (CRC and JSON intact) but semantically
        # unknown — exactly what a version skew would produce.
        journal.append({"op": "frobnicate", "side": "outer", "start": 1,
                        "end": 2, "payload": None})
        state = journal.scan()
        assert len(state.records) == len(state.offsets) == 2
        with pytest.raises(JournalReplayError) as excinfo:
            MaintainedIndex.open(path)
        error = excinfo.value
        assert error.reason == "journal_replay"
        assert error.record_index == 1
        assert error.offset == state.offsets[1]
        assert error.path == journal.path
        assert "record 1" in str(error)
        assert str(state.offsets[1]) in str(error)

    def test_missing_field_is_also_structured(self, snapshot):
        from repro.storage import JournalReplayError

        path, _, _ = snapshot
        MaintainedIndex.open(path).insert("inner", 4, 5, "x")
        journal = MaintenanceJournal(journal_path(path))
        journal.append({"op": "insert", "start": 1, "end": 2})  # no side
        with pytest.raises(JournalReplayError) as excinfo:
            MaintainedIndex.open(path)
        assert excinfo.value.record_index == 1

    def test_scan_offsets_track_frame_starts(self, tmp_path):
        from repro.storage.snapshot import _JOURNAL_HEADER

        journal = MaintenanceJournal(str(tmp_path / "offsets.journal"))
        journal.reset(0)
        for position in range(3):
            journal.append({"op": "insert", "side": "outer",
                            "start": position, "end": position + 1,
                            "payload": "p" * position})
        state = journal.scan()
        assert len(state.offsets) == 3
        assert state.offsets[0] == _JOURNAL_HEADER.size
        assert state.offsets == sorted(set(state.offsets))
