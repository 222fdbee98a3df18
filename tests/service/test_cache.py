"""Result-cache correctness: LRU mechanics, fingerprint canonicality,
bit-identity of cached answers, and the two staleness defenses
(generation-keyed entries + wholesale invalidation on swap)."""

import pytest

import repro.service.service as service_module
from repro.core.interval import Interval
from repro.service import JoinService, offline_query
from repro.service.cache import ResultCache, request_fingerprint
from repro.storage import save_index
from repro.workloads import long_lived_mixture

#: Per-request fields a cache hit legitimately differs in.
VOLATILE = ("cached", "service_ms", "trace_id")


def _strip(body):
    return {k: v for k, v in body.items() if k not in VOLATILE}


def _relations(seed):
    outer = long_lived_mixture(
        150, 0.3, Interval(1, 10_000), seed=seed, name="outer"
    )
    inner = long_lived_mixture(
        150, 0.3, Interval(1, 10_000), seed=seed + 1, name="inner"
    )
    return outer, inner


@pytest.fixture(scope="module")
def snapshot(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("cache") / "cache.oip")
    outer, inner = _relations(310)
    save_index(path, outer, inner)
    return path


class TestFingerprint:
    def test_identical_requests_identical_fingerprint(self):
        a = request_fingerprint(op="join", kernel="auto")
        b = request_fingerprint(op="join", kernel="auto")
        assert a == b

    def test_every_field_is_load_bearing(self):
        base = dict(
            op="join",
            window=None,
            kernel="auto",
            include_pairs=False,
            max_pairs=1000,
        )
        reference = request_fingerprint(**base)
        for variant in (
            dict(base, op="lookup", window=[1, 50]),
            dict(base, window=[1, 50]),
            dict(base, kernel="nested"),
            dict(base, include_pairs=True),
            dict(base, max_pairs=10),
        ):
            assert request_fingerprint(**variant) != reference, variant

    def test_window_normalized_to_ints(self):
        assert request_fingerprint(
            op="lookup", window=[1, 50]
        ) == request_fingerprint(op="lookup", window=(1, 50))


class TestResultCacheUnit:
    def test_lru_eviction_order(self):
        cache = ResultCache(2)
        cache.store(0, "a", {"v": 1})
        cache.store(0, "b", {"v": 2})
        assert cache.lookup(0, "a") == {"v": 1}  # refresh a
        cache.store(0, "c", {"v": 3})  # evicts b
        assert cache.lookup(0, "b") is None
        assert cache.lookup(0, "a") == {"v": 1}
        assert cache.lookup(0, "c") == {"v": 3}
        assert cache.evictions == 1

    def test_zero_capacity_disables_storage(self):
        cache = ResultCache(0)
        cache.store(0, "a", {"v": 1})
        assert cache.lookup(0, "a") is None
        assert len(cache) == 0

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            ResultCache(-1)

    def test_generation_is_part_of_the_key(self):
        cache = ResultCache(8)
        cache.store(0, "same", {"gen": 0})
        cache.store(1, "same", {"gen": 1})
        assert cache.lookup(0, "same") == {"gen": 0}
        assert cache.lookup(1, "same") == {"gen": 1}

    def test_deep_copy_isolation_both_directions(self):
        cache = ResultCache(4)
        body = {"nested": {"v": 1}}
        cache.store(0, "a", body)
        body["nested"]["v"] = 99  # caller mutation after store
        hit = cache.lookup(0, "a")
        assert hit == {"nested": {"v": 1}}
        hit["nested"]["v"] = 77  # caller mutation after lookup
        assert cache.lookup(0, "a") == {"nested": {"v": 1}}

    def test_invalidate_drops_everything_and_counts(self):
        cache = ResultCache(8)
        cache.store(0, "a", {})
        cache.store(0, "b", {})
        assert cache.invalidate() == 2
        assert len(cache) == 0
        stats = cache.stats()
        assert stats["invalidations"] == 1
        assert stats["invalidated_entries"] == 2


class TestServiceCaching:
    def test_hit_is_bit_identical_to_miss(self, snapshot):
        svc = JoinService(snapshot, result_cache_size=8)
        svc.start()
        miss = svc.query("join")
        hit = svc.query("join")
        assert miss["cached"] is False
        assert hit["cached"] is True
        assert _strip(miss) == _strip(hit)
        stats = svc.result_cache.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1
        counters = svc.publish_metrics()["counters"]
        assert counters["service.cache.hits"] == 1
        assert counters["service.cache.misses"] == 1

    def test_hit_matches_offline_oracle(self, snapshot):
        svc = JoinService(snapshot, result_cache_size=8)
        svc.start()
        svc.query("join")
        hit = svc.query("join")
        oracle = offline_query(snapshot)
        assert hit["fingerprint"] == oracle["fingerprint"]
        assert hit["pairs"] == oracle["pairs"]
        assert hit["counters"] == oracle["counters"]

    def test_windowed_lookups_cache_independently(self, snapshot):
        svc = JoinService(snapshot, result_cache_size=8)
        svc.start()
        a1 = svc.query("lookup", window=[1, 500])
        b1 = svc.query("lookup", window=[501, 900])
        a2 = svc.query("lookup", window=[1, 500])
        assert a2["cached"] is True and b1["cached"] is False
        assert _strip(a1) == _strip(a2)
        assert a1["fingerprint"] != b1["fingerprint"] or (
            a1["pairs"] == b1["pairs"]
        )

    def test_cache_off_body_has_no_cached_field(self, snapshot):
        svc = JoinService(snapshot)
        svc.start()
        body = svc.query("join")
        assert "cached" not in body

    def test_obs_on_vs_obs_off_cached_answers_identical(self, snapshot):
        plain = JoinService(snapshot, result_cache_size=8)
        plain.start()
        traced = JoinService(snapshot, result_cache_size=8, tracing=True)
        traced.start()
        answers = []
        for svc in (plain, traced):
            svc.query("join")
            answers.append(svc.query("join"))
        assert answers[0]["cached"] and answers[1]["cached"]
        # Two *instances* executed the join independently, so only the
        # wall-clock field may differ; everything deterministic —
        # pairs, fingerprint, counters, index report — must agree.
        def deterministic(body):
            stripped = _strip(body)
            stripped.pop("elapsed_ms")
            return stripped

        assert deterministic(answers[0]) == deterministic(answers[1])

    def test_swap_invalidates_wholesale(self, snapshot, tmp_path):
        import shutil

        path = str(tmp_path / "swap.oip")
        shutil.copy(snapshot, path)
        svc = JoinService(path, result_cache_size=8)
        svc.start()
        gen0 = svc.query("join")
        assert len(svc.result_cache) == 1
        outer, inner = _relations(620)
        save_index(path, outer, inner)
        report = svc.refresh()
        assert report["swapped"]
        assert len(svc.result_cache) == 0
        assert svc.result_cache.stats()["invalidated_entries"] == 1
        gen1 = svc.query("join")
        assert gen1["cached"] is False
        assert gen1["generation"] == gen0["generation"] + 1
        assert gen1["fingerprint"] == offline_query(path)["fingerprint"]
        counters = svc.publish_metrics()["counters"]
        assert counters["service.cache.invalidations"] == 1

    def test_fingerprint_collision_across_generations_never_stale(
        self, snapshot, tmp_path, monkeypatch
    ):
        """Even with a degenerate fingerprint function that collides
        *every* request onto one digest, generation keying alone must
        keep answers fresh across a swap."""
        import shutil

        monkeypatch.setattr(
            service_module,
            "request_fingerprint",
            lambda **_kwargs: "collision",
        )
        path = str(tmp_path / "collide.oip")
        shutil.copy(snapshot, path)
        svc = JoinService(path, result_cache_size=8)
        svc.start()
        gen0 = svc.query("join")
        # Defeat the wholesale-invalidation defense on purpose so the
        # test isolates the generation-in-the-key defense.
        svc.refresh = lambda **_kwargs: None  # type: ignore[method-assign]
        outer, inner = _relations(930)
        save_index(path, outer, inner)
        report = svc.snapshots.refresh()
        assert report["swapped"]
        gen1 = svc.query("join")
        assert gen1["generation"] == gen0["generation"] + 1
        assert gen1["cached"] is False  # collision key did NOT hit
        oracle = offline_query(path)
        assert gen1["fingerprint"] == oracle["fingerprint"]
        assert gen1["pairs"] == oracle["pairs"]

    def test_lru_bound_holds_under_distinct_requests(self, snapshot):
        svc = JoinService(snapshot, result_cache_size=2)
        svc.start()
        for hi in (100, 200, 300, 400):
            svc.query("lookup", window=[1, hi])
        assert len(svc.result_cache) == 2
        assert svc.result_cache.stats()["evictions"] == 2

    def test_stats_document_has_cache_section(self, snapshot):
        svc = JoinService(snapshot, result_cache_size=8)
        svc.start()
        svc.query("join")
        svc.query("join")
        doc = svc.stats()
        assert doc["cache"]["hits"] == 1
        assert doc["cache"]["hit_rate"] == 0.5
        no_cache = JoinService(snapshot)
        no_cache.start()
        assert "cache" not in no_cache.stats()
