"""Property tests for a lookup's window cut (``hits_in_window``).

A chunk's hits are cut on its runs' endpoint columns
(``PairChunks.runs``).  The numpy kernel's ``int64`` array is cut with
two endpoint masks and stays an array; the sweep and naive kernels'
lists, and a resumed run's prefix chunk (a list in emission order), are
cut by bisection or hit by hit.  These tests draw edge-case relations
(empty sides, point intervals, a one-chronon domain, tuples on the
domain bounds) and check, at ``k=1`` and at ``k>1`` (several chunks,
concatenated inner runs), for windows that keep nothing, one-point
windows, windows that keep everything and windows on the domain bounds:

* the array cut returns exactly the list cut's hits, in the same order,
  and both equal the hits whose pair meets the window by the tuples'
  own attributes;
* ``BatchJoin``'s windowed probes, whose emission step makes the same
  cut, agree across kernels pair for pair and counter for counter;
* ``summarize_result`` bodies equal ``_summarize_pairs`` over the
  join's pairs filtered through ``_window_matches``;
* a chunk cuts on its probe's live decoded runs, and on columns rebuilt
  from its tuples once those runs are gone, to the same hits.

A join for one lookup window (``OIPJoin(window=...)``) cuts each probe
task's hits itself; on the numpy tier its kernel joins only the tuples
that meet the window.  Over the same drawn pairs, at a derived ``k``,
at ``k=1`` and at pinned ``k>1``, under a drawn seeded fault profile:

* its pairs, in order, are the full join's chunks cut by
  ``hits_in_window``, and every cost and resilience counter —
  ``result_tuples`` included — is the full join's;
* on the numpy tier every kernel call goes through
  ``join.kernel_function`` and sees only the tuples that meet the
  window;
* a service's lookups, which window their joins, answer exactly as
  ``offline_query``, which joins in full and cuts.

The array cases skip when numpy is absent.
"""

import gc
import os
import tempfile
from contextlib import contextmanager

import hypothesis.strategies as st
import pytest
from hypothesis import event, given

from repro.core import join as join_module
from repro.core import kernels
from repro.core.interval import Interval
from repro.core.join import (
    OIPJoin,
    PairChunks,
    RunReader,
    build_probe_schedule,
    hit_list,
    hits_in_window,
    pair_emitter,
    run_probe_task,
)
from repro.core.kernels import kernel_function, numpy_available
from repro.core.lazy_list import oip_create
from repro.core.oip import OIPConfiguration
from repro.engine.batch import BatchJoin
from repro.engine.governor import CancellationToken
from repro.service.service import (
    JoinService,
    _summarize_pairs,
    _window_matches,
    offline_query,
    summarize_result,
)
from repro.storage.device import TUPLE_SIZE_BYTES, DeviceProfile
from repro.storage.faults import FAULT_PROFILES, fault_profile
from repro.storage.manager import StorageManager
from repro.storage.metrics import CostCounters
from repro.storage.snapshot import save_index

from .test_probe_core import (
    PROBE_INNER,
    PROBE_OUTER,
    SMALL,
    _keys,
    _outcome,
    relation_pairs,
)

needs_numpy = pytest.mark.skipif(
    not numpy_available(), reason="numpy is not installed"
)

#: Granule counts: one chunk at k=1, several (with concatenated inner
#: runs) above it.
KS = st.sampled_from([1, 2, 3, 8])

#: Extra windows as per-mille positions of the joint domain; they may
#: overhang either end.
CUTS = st.lists(
    st.tuples(st.integers(-100, 1100), st.integers(-100, 1100)), max_size=3
)


def _windows(outer, inner, cuts):
    """Windows over the pair's joint domain ``[lo, hi]``: outside it on
    both sides (keep nothing), one-point windows on both bounds and in
    the middle, the whole domain and more (keep everything), windows
    that end or start on a bound, and the drawn *cuts*."""
    tuples = [*outer, *inner]
    lo = min((t.start for t in tuples), default=0)
    hi = max((t.end for t in tuples), default=0)
    mid = (lo + hi) // 2
    windows = [
        (hi + 1, hi + 9),
        (lo - 9, lo - 1),
        (lo, lo),
        (hi, hi),
        (mid, mid),
        (lo, hi),
        (lo - 5, hi + 5),
        (lo - 3, lo),
        (hi, hi + 3),
    ]
    for a, b in cuts:
        windows.append(tuple(sorted(lo + (hi - lo) * m // 1000 for m in (a, b))))
    return windows


@contextmanager
def _broadcast_cells(cells):
    """The numpy kernel's broadcast bound set to *cells* (0 forces its
    searchsorted path)."""
    saved = kernels.NUMPY_BROADCAST_CELLS
    kernels.NUMPY_BROADCAST_CELLS = cells
    try:
        yield
    finally:
        kernels.NUMPY_BROADCAST_CELLS = saved


def _meeting(chunk, ts, te):
    """The chunk's hits whose pair meets ``[ts, te]``, read off the
    tuples themselves."""
    outer, inner, n_outer, hits = chunk
    return [
        encoded
        for encoded in hit_list(hits)
        if _window_matches(
            (outer[encoded % n_outer], inner[encoded // n_outer]), ts, te
        )
    ]


def check_cuts(pairs, windows):
    """Every chunk of *pairs* cut on every window: the cut of the
    chunk's own hits, and of them as a list, equal the hits whose pair
    meets the window, in order; an array cut stays an array.  Returns
    what the cuts saw, for Hypothesis' statistics."""
    seen = set()
    for index, chunk in enumerate(pairs.chunks):
        hits = chunk[3]
        runs = pairs.runs(index)
        ascending = index not in pairs.unordered
        for ts, te in windows:
            cut = hits_in_window(*runs, hits, ts, te, ascending=ascending)
            listed = hits_in_window(
                *runs, hit_list(hits), ts, te, ascending=ascending
            )
            assert isinstance(listed, list)
            if not isinstance(hits, list):
                assert not isinstance(cut, list)
                seen.add("array cut")
            assert hit_list(cut) == listed == _meeting(chunk, ts, te)
            if listed and len(listed) < len(hits):
                seen.add("window kept some hits")
    return seen


def check_bodies(result, windows):
    """``summarize_result`` of *result* for a ``lookup`` on each window
    equals ``_summarize_pairs`` over its pairs filtered through
    ``_window_matches``."""
    listed = list(result.pairs)
    for ts, te in windows:
        kept = [pair for pair in listed if _window_matches(pair, ts, te)]
        for limit in (0, 1, len(kept) + 1):
            body = summarize_result(
                result,
                op="lookup",
                window=(ts, te),
                generation=None,
                include_pairs=True,
                max_pairs=limit,
            )
            count, fingerprint, first = _summarize_pairs(kept, None, limit)
            assert (body["pairs"], body["fingerprint"]) == (count, fingerprint)
            assert body["results"] == [
                [[o.start, o.end, o.payload], [i.start, i.end, i.payload]]
                for o, i in first
            ]
            assert body["results_truncated"] == (count > limit)


def _batch_record(batch):
    return [
        (
            [(o.start, o.end, o.payload, i.start, i.end, i.payload) for o, i in q.pairs],
            q.counters.snapshot(),
        )
        for q in batch.queries
    ]


@given(relation_pairs(), KS, st.sampled_from([4096, 0]), CUTS)
@SMALL
def test_cut_is_kernel_independent(pair, k, cells, cuts):
    """At one ``k`` every kernel's chunks cut to the same hits on every
    window, and every cut equals the tuple-by-tuple test."""
    outer, inner = pair
    windows = _windows(outer, inner, cuts)
    with _broadcast_cells(cells):
        runs = {
            kernel: OIPJoin(k=k, kernel=kernel).join(outer, inner).pairs
            for kernel in ("naive", "sweep", "numpy")
        }
    if len(runs["sweep"].chunks) > 1:
        event("several chunks")
    for pairs in runs.values():
        for seen in check_cuts(pairs, windows):
            event(seen)
    # Equal chunks, each cut like the tuple-by-tuple test: equal cuts.
    chunks = [[hit_list(c[3]) for c in pairs.chunks] for pairs in runs.values()]
    assert chunks[0] == chunks[1] == chunks[2]


@needs_numpy
@given(relation_pairs(), KS, st.sampled_from([4096, 0]), CUTS)
@SMALL
def test_batch_window_cut_matches_across_kernels(pair, k, cells, cuts):
    """``BatchJoin``'s windowed probes cut the numpy kernel's arrays to
    exactly the sweep kernel's pairs and charges."""
    outer, inner = pair
    windows = [Interval(ts, te) for ts, te in _windows(outer, inner, cuts)]
    with _broadcast_cells(cells):
        batches = [
            BatchJoin(k=k, kernel=kernel).run(outer, inner, windows)
            for kernel in ("numpy", "sweep")
        ]
    assert _batch_record(batches[0]) == _batch_record(batches[1])
    if any(not isinstance(c[3], list) for q in batches[0].queries for c in q.pairs.chunks):
        event("batch kept an array")


@given(relation_pairs(), KS, st.sampled_from(["naive", "sweep", "numpy"]), CUTS)
@SMALL
def test_summaries_equal_the_filtered_pairs(pair, k, kernel, cuts):
    outer, inner = pair
    result = OIPJoin(k=k, kernel=kernel).join(outer, inner)
    check_bodies(result, _windows(outer, inner, cuts))


@given(
    relation_pairs(),
    st.sampled_from([2, 3, 8]),
    st.sampled_from(["naive", "sweep", "numpy"]),
    st.integers(1, 6),
    CUTS,
)
@SMALL
def test_resumed_prefix_chunk_cut(pair, k, kernel, cancel_after, cuts):
    """A resumed run's prefix chunk (emission order, over the relations'
    own columns) cuts hit by hit to the same hits; the chunks after it
    keep their kernel's cut, and the bodies equal the filtered pairs."""
    outer, inner = pair
    windows = _windows(outer, inner, cuts)
    with tempfile.TemporaryDirectory() as scratch:
        path = os.path.join(scratch, "cut.ckpt")
        partial = OIPJoin(
            k=k,
            kernel=kernel,
            cancellation=CancellationToken(cancel_after),
            checkpoint_path=path,
            checkpoint_every=1,
        ).join(outer, inner)
        if partial.completed:
            return
        resumed = OIPJoin(k=k, kernel=kernel, resume_from=path).join(outer, inner)
    if resumed.pairs.unordered:
        event("resumed prefix chunk")
    for seen in check_cuts(resumed.pairs, windows):
        event(seen)
    check_bodies(resumed, windows)


@pytest.mark.parametrize(
    "kernel",
    [pytest.param("numpy", marks=needs_numpy), "sweep", "naive"],
)
def test_cut_over_concatenated_inner_runs(kernel):
    """At k=8 some outer partitions join three or more inner runs in one
    kernel call; their chunks cut like any other."""
    storage = StorageManager()
    outer_list, inner_list = (
        oip_create(rel, OIPConfiguration.for_relation(rel, 8), storage)
        for rel in (PROBE_OUTER, PROBE_INNER)
    )
    tasks = build_probe_schedule(outer_list, inner_list).tasks
    assert max(len(task.inner) for task in tasks) >= 3
    result = OIPJoin(k=8, kernel=kernel).join(PROBE_OUTER, PROBE_INNER)
    assert len(result.pairs.chunks) > 1
    windows = _windows(PROBE_OUTER, PROBE_INNER, [(100, 180), (500, 520)])
    seen = check_cuts(result.pairs, windows)
    assert ("array cut" in seen) == (kernel == "numpy")
    check_bodies(result, windows)


@pytest.mark.parametrize(
    "kernel",
    [pytest.param("numpy", marks=needs_numpy), "sweep"],
)
def test_chunk_reads_its_live_runs_and_rebuilds_gone_ones(kernel):
    """While the probe's decoded runs live, a chunk hands out those very
    runs (no column is rebuilt); once they are gone, it rebuilds equal
    columns from its tuples and cuts to the same hits."""
    storage = StorageManager()
    outer_list, inner_list = (
        oip_create(rel, OIPConfiguration.for_relation(rel, 8), storage)
        for rel in (PROBE_OUTER, PROBE_INNER)
    )
    task = next(
        t for t in build_probe_schedule(outer_list, inner_list).tasks
        if len(t.inner) >= 3
    )
    pairs = PairChunks()
    outer_run, inner_runs, hits = run_probe_task(
        task.outer,
        task.inner,
        task.nav_cpu,
        RunReader(storage),
        CostCounters(),
        kernel_function(kernel),
    )
    pair_emitter(pairs)(outer_run, inner_runs, hits)
    windows = _windows(PROBE_OUTER, PROBE_INNER, [(100, 180)])
    live_outer, live_inner = pairs.runs(0)
    assert live_outer is outer_run
    assert list(live_inner.starts) == [s for run in inner_runs for s in run.starts]
    live = [hit_list(hits_in_window(*pairs.runs(0), hits, *w)) for w in windows]
    del outer_list, inner_list, task, outer_run, inner_runs, live_outer, live_inner
    gc.collect()
    rebuilt_outer, rebuilt_inner = pairs.runs(0)
    outer_tuples, inner_tuples, _, _ = pairs.chunks[0]
    assert list(rebuilt_outer.starts) == [t.start for t in outer_tuples]
    assert list(rebuilt_inner.ends) == [t.end for t in inner_tuples]
    assert [
        hit_list(hits_in_window(rebuilt_outer, rebuilt_inner, hits, *w))
        for w in windows
    ] == live


# ----------------------------------------------------------------------
# A join for one lookup window (OIPJoin(window=...)).
# ----------------------------------------------------------------------

#: A derived k, k=1 (one chunk) and pinned k>1 (concatenated inner runs).
WINDOW_KS = st.sampled_from([None, 1, 2, 3, 8])

#: No faults, or a seeded fault profile (a fresh policy per run).
FAULTS = st.none() | st.tuples(
    st.sampled_from(sorted(FAULT_PROFILES)), st.integers(0, 99)
)


def _join_options(k, kernel, faults):
    """Two tuples per block, so the seeded faults hit these small
    relations often."""
    options = {
        "kernel": kernel,
        "device": DeviceProfile("window", block_size_bytes=2 * TUPLE_SIZE_BYTES),
    }
    if k is not None:
        options["k"] = k
    if faults is not None:
        options["fault_policy"] = fault_profile(*faults)
    return options


def _cut_pairs(pairs, ts, te):
    """A full join's pairs, its chunks cut by ``hits_in_window``."""
    kept = []
    for index, (outer, inner, n_outer, hits) in enumerate(pairs.chunks):
        cut = hits_in_window(
            *pairs.runs(index), hits, ts, te, ascending=index not in pairs.unordered
        )
        kept += [(outer[e % n_outer], inner[e // n_outer]) for e in hit_list(cut)]
    return kept


@given(
    relation_pairs(),
    WINDOW_KS,
    st.sampled_from(["numpy", "sweep", "naive"]),
    st.sampled_from([4096, 0]),
    FAULTS,
    CUTS,
)
@SMALL
def test_windowed_join_is_the_full_join_cut(pair, k, kernel, cells, faults, cuts):
    """A windowed join's pairs are the full join's cut to the window, in
    order, and its counters are the full join's, on every kernel."""
    outer, inner = pair
    with _broadcast_cells(cells):
        full = _outcome(
            lambda: OIPJoin(**_join_options(k, kernel, faults)).join(outer, inner)
        )
        for ts, te in _windows(outer, inner, cuts):
            windowed = _outcome(
                lambda: OIPJoin(
                    window=(ts, te), **_join_options(k, kernel, faults)
                ).join(outer, inner)
            )
            if isinstance(full, type):
                assert windowed is full
                continue
            kept = _cut_pairs(full.pairs, ts, te)
            assert _keys(windowed.pairs) == _keys(kept)
            assert windowed.counters.snapshot() == full.counters.snapshot()
            assert windowed.resilience.snapshot() == full.resilience.snapshot()
            assert windowed.counters.result_tuples == len(full.pairs)
            assert len(windowed.pairs) == len(kept)
            for key in ("k", "kernel", "outer_partitions", "inner_partitions"):
                assert windowed.details.get(key) == full.details.get(key)
            if kept and len(kept) < len(full.pairs):
                event("window kept some pairs")
            if len(full.pairs.chunks) > 1:
                event("several chunks")
            if any(full.resilience.snapshot().values()):
                event("faults met and recovered")


@contextmanager
def _traced_kernel_calls():
    """Every kernel call made through ``join.kernel_function`` (the
    patch point a profiler wraps), as ``(outer length, inner length)``."""
    calls = []
    resolve = join_module.kernel_function

    def traced(kernel):
        match = resolve(kernel)

        def call(outer, inner):
            calls.append((outer.length, inner.length))
            return match(outer, inner)

        return call

    join_module.kernel_function = traced
    try:
        yield calls
    finally:
        join_module.kernel_function = resolve


@needs_numpy
@given(relation_pairs(), st.sampled_from([4096, 0]), CUTS)
@SMALL
def test_windowed_numpy_kernel_sees_only_the_window(pair, cells, cuts):
    """At k=1 a windowed numpy join makes the full join's one kernel
    call, through ``join.kernel_function``, on exactly the tuples that
    meet the window."""
    outer, inner = pair
    full = OIPJoin(k=1, kernel="numpy").join(outer, inner)
    for ts, te in _windows(outer, inner, cuts):
        with _broadcast_cells(cells), _traced_kernel_calls() as calls:
            OIPJoin(k=1, kernel="numpy", window=(ts, te)).join(outer, inner)
        meeting = tuple(
            sum(1 for t in side if t.start <= te and ts <= t.end)
            for side in (outer, inner)
        )
        # No call when Lemma 1 finds no inner partition (or a side is
        # empty): the full join makes none either.
        assert calls == ([meeting] if full.details.get("inner_visits") else [])
        if 0 < meeting[0] < outer.cardinality:
            event("the kernel saw a strict sub-run")


@pytest.mark.parametrize(
    "kernel",
    [pytest.param("numpy", marks=needs_numpy), "sweep", "naive"],
)
@pytest.mark.parametrize("k", [1, 8])
def test_served_lookups_equal_offline_query(kernel, k, tmp_path):
    """A service's lookups, whose joins are windowed, answer exactly as
    ``offline_query``, which joins in full and cuts: pairs, results,
    fingerprint, counters, ``k`` and kernel."""
    path = str(tmp_path / "window.oip")
    save_index(path, PROBE_OUTER, PROBE_INNER, k=k)
    service = JoinService(path, kernel=kernel)
    service.start()
    try:
        full = service.query("join", kernel=kernel)
        windows = _windows(PROBE_OUTER, PROBE_INNER, [(100, 180), (500, 520)])
        for window in windows:
            body = service.query(
                "lookup", window=window, include_pairs=True, max_pairs=7
            )
            oracle = offline_query(
                path,
                op="lookup",
                window=window,
                kernel=kernel,
                include_pairs=True,
                max_pairs=7,
            )
            for key in ("elapsed_ms", "attempts", "service_ms"):
                body.pop(key, None)
                oracle.pop(key, None)
            assert body == oracle
            assert body["counters"] == full["counters"]
            assert body["kernel"] == full["kernel"]
    finally:
        service.drain()


def test_windowed_join_refuses_checkpoints_and_reversed_windows(tmp_path):
    path = str(tmp_path / "window.ckpt")
    with pytest.raises(ValueError, match="window"):
        OIPJoin(window=(0, 10), checkpoint_path=path)
    with pytest.raises(ValueError, match="window"):
        OIPJoin(window=(0, 10), resume_from=path)
    with pytest.raises(ValueError, match="precedes"):
        OIPJoin(window=(10, 9))
