"""Generation pinning and the load-validate-swap-drop protocol."""

import os
import shutil

import pytest

from repro.core.interval import Interval
from repro.service import ServingGeneration, SnapshotManager
from repro.service.errors import (
    ServiceUnavailableError,
    SnapshotSwapRejectedError,
)
from repro.storage import save_index
from repro.storage import snapshot as snapshot_module
from repro.workloads import long_lived_mixture


def _relations(seed):
    outer = long_lived_mixture(
        150, 0.3, Interval(1, 10_000), seed=seed, name="outer"
    )
    inner = long_lived_mixture(
        150, 0.3, Interval(1, 10_000), seed=seed + 1, name="inner"
    )
    return outer, inner


@pytest.fixture
def snapshot(tmp_path):
    path = str(tmp_path / "gen.oip")
    outer, inner = _relations(31)
    save_index(path, outer, inner)
    return path


class TestServingGeneration:
    def test_load_reconstructs_relations(self, snapshot):
        generation = ServingGeneration.load(snapshot)
        assert generation.generation == 0
        assert len(generation.outer) == 150
        assert len(generation.inner) == 150
        assert generation.outer.name == "outer"
        assert generation.refs == 0
        assert generation.age_s() >= 0.0

    def test_is_an_index_provider(self, snapshot):
        from repro.core.join import OIPJoin

        generation = ServingGeneration.load(snapshot)
        served = OIPJoin(
            index_provider=generation, **generation.join_kwargs()
        ).join(generation.outer, generation.inner)
        offline = OIPJoin(
            index_path=snapshot, **generation.join_kwargs()
        ).join(generation.outer, generation.inner)
        assert served.details["index"]["loaded"] is True
        assert offline.details["index"]["loaded"] is True
        assert served.pair_keys() == offline.pair_keys()
        assert served.counters.snapshot() == offline.counters.snapshot()

    def test_pinned_generation_survives_disk_loss(self, snapshot):
        from repro.core.join import OIPJoin

        generation = ServingGeneration.load(snapshot)
        baseline = OIPJoin(
            index_provider=generation, **generation.join_kwargs()
        ).join(generation.outer, generation.inner)
        os.remove(snapshot)  # hostile: the file vanishes mid-flight
        again = OIPJoin(
            index_provider=generation, **generation.join_kwargs()
        ).join(generation.outer, generation.inner)
        assert again.details["index"]["loaded"] is True
        assert again.pair_keys() == baseline.pair_keys()


class TestSnapshotManager:
    def test_acquire_before_load_is_unavailable(self, snapshot):
        manager = SnapshotManager(snapshot)
        with pytest.raises(ServiceUnavailableError) as excinfo:
            manager.acquire()
        assert excinfo.value.code == "unavailable"

    def test_pin_release_refcounts(self, snapshot):
        manager = SnapshotManager(snapshot)
        manager.load()
        generation = manager.acquire()
        assert generation.refs == 1
        with manager.pinned() as again:
            assert again is generation
            assert generation.refs == 2
        manager.release(generation)
        assert generation.refs == 0
        assert generation.queries_served == 2

    def test_refresh_unchanged_is_a_noop(self, snapshot):
        manager = SnapshotManager(snapshot)
        manager.load()
        report = manager.refresh()
        assert report["swapped"] is False
        assert report["reason"] == "unchanged"
        assert manager.swaps_unchanged == 1
        forced = manager.refresh(force=True)
        assert forced["swapped"] is True

    def test_refresh_swaps_to_new_generation(self, snapshot):
        manager = SnapshotManager(snapshot)
        manager.load()
        outer, inner = _relations(77)
        save_index(snapshot, outer, inner)  # auto-bumps to generation 1
        report = manager.refresh()
        assert report["swapped"] is True
        assert report["generation"] == 1
        assert report["previous_generation"] == 0
        assert report["previous_still_pinned"] is False
        assert manager.generation == 1
        assert manager.retired == ()

    def test_refresh_reads_the_candidate_once(self, snapshot, monkeypatch):
        manager = SnapshotManager(snapshot)
        manager.load()
        save_index(snapshot, *_relations(79))
        reads = []
        read = snapshot_module._read_snapshot_bytes
        monkeypatch.setattr(
            snapshot_module,
            "_read_snapshot_bytes",
            lambda path: reads.append(path) or read(path),
        )
        assert manager.refresh()["swapped"] is True
        assert reads == [snapshot]
        # The served generation is the one fsck parsed and decoded: the
        # first restore decodes no side again.
        generation = manager.current
        assert set(generation.parsed._columns) == {"outer", "inner"}

    def test_swap_retires_pinned_generation_until_released(self, snapshot):
        manager = SnapshotManager(snapshot)
        manager.load()
        pinned = manager.acquire()
        outer, inner = _relations(78)
        save_index(snapshot, outer, inner)
        report = manager.refresh()
        assert report["previous_still_pinned"] is True
        assert pinned in manager.retired
        # The old generation keeps answering while pinned ...
        assert pinned.generation == 0
        manager.release(pinned)
        # ... and is dropped at the last release.
        assert manager.retired == ()

    def test_corrupt_candidate_is_rejected_and_old_serves(self, snapshot):
        manager = SnapshotManager(snapshot)
        manager.load()
        keep = str(snapshot) + ".keep"
        shutil.copy(snapshot, keep)
        with open(snapshot, "r+b") as handle:
            handle.seek(120)
            byte = handle.read(1)
            handle.seek(-1, os.SEEK_CUR)
            handle.write(bytes([byte[0] ^ 0xFF]))
        with pytest.raises(SnapshotSwapRejectedError) as excinfo:
            manager.refresh()
        assert excinfo.value.code == "swap_rejected"
        assert excinfo.value.reason in ("section_crc", "truncated")
        assert excinfo.value.verdict["loadable"] is False
        assert manager.generation == 0  # degrade, never die
        assert manager.swaps_rejected == 1
        shutil.copy(keep, snapshot)
        assert manager.refresh(force=True)["swapped"] is True

    def test_missing_candidate_is_rejected(self, snapshot):
        manager = SnapshotManager(snapshot)
        manager.load()
        os.remove(snapshot)
        with pytest.raises(SnapshotSwapRejectedError) as excinfo:
            manager.refresh()
        assert excinfo.value.reason == "missing"
        assert manager.generation == 0

    def test_describe_reports_health_material(self, snapshot):
        manager = SnapshotManager(snapshot)
        manager.load()
        with manager.pinned():
            health = manager.describe()
        assert health["generation"] == 0
        assert health["generation_refs"] in (0, 1)
        assert health["swaps"] == 0
        assert health["retired_generations"] == 0
