"""Property tests over the one Algorithm 2 probe core.

The join and the batch executor run the same navigation
(``build_probe_schedule``) and pair loop (``run_probe_task``).  These
tests draw edge-case relations and configurations and check the core's
contract end to end:

* the result pairs are exactly the nested-loop oracle's (as a multiset);
* pairs (in order), cost counters and resilience counters equal the
  plain join on the same kernel (the granule policy prices ``k`` for
  the kernel) — also after a cancel at a random boundary and a resume
  from the checkpoint written there;
* one ``BatchJoin`` run over a window covering both domains plus
  several drawn partial windows returns, per window, the oracle's pairs
  that meet the window (the service's ``_window_matches`` filter), and
  a second batch on the naive kernel at the same ``k`` agrees with it
  per query on pairs in order, cost and resilience counters, and the
  build counters;
* a join through a snapshot saved with ``save_index`` under the same
  device and granules loads it and equals the plain join at the
  snapshot's ``k`` (a naive join's own ``k`` may differ);
* an in-process ``JoinService`` on that snapshot, its result cache on
  or off, answers each window's ``lookup`` (twice) and one ``join``
  exactly as ``offline_query`` does, and each lookup's pair count is
  the window-filtered oracle's;
* drawn journaled inserts and deletes, compacted, serve a join through
  ``ServingGeneration.join_kwargs()`` that equals the oracle and the
  plain join over the maintained relations;
* ``summarize_result`` straight from the hit chunks of the drawn join,
  of every batch query and of the served join equals
  ``summarize_result`` of the same pairs as a plain list, for ``join``
  and for ``lookup`` on the drawn windows, the whole domain, windows
  outside the domain, one-chronon windows and a window inside the
  domain that meets no tuple, with ``include_pairs`` at ``max_pairs``
  0, 1 and past the count.  The drawn join may be one chunk (``k=1``,
  and the default policy on most pairs) or hold a resumed run's
  prefix chunk, whose hits are in emission order, not ascending.

A drawn seeded fault profile (``FAULT_PROFILES``) and a drawn small
buffer pool (fresh per run) apply to every run of an example; a run with
a pool is not cancelled and resumed, since checkpoints reject pools.  Faults are a pure function of ``(block, attempt)``, so
the drawn join and the plain join either raise the same storage-fault
error or satisfy the contract above; detected corruptions exercise the
re-decode of an already decoded run.

A small profile runs in tier-1; the deep one runs under ``-m slow``.
A direct test of ``run_probe_task`` pins its shape: one kernel call per
outer partition over the concatenation of its relevant inner runs, with
the pairs and charges of one call per partition pair.  Unit tests pin
the ``PairChunks`` sequence semantics.
"""

import os
import tempfile
from collections import Counter

import hypothesis.strategies as st
import pytest
from hypothesis import event, example, given, settings

from repro.baselines.nested_loop import NestedLoopJoin
from repro.core.base import JoinResult
from repro.core.interval import Interval
from repro.core.granules import GranulePolicy, choose_kernel
from repro.core.join import (
    OIPJoin,
    PairChunks,
    RunReader,
    build_probe_schedule,
    pair_emitter,
    run_probe_task,
)
from repro.core.kernels import KERNELS, kernel_function
from repro.core.lazy_list import oip_create
from repro.core.oip import OIPConfiguration
from repro.core.relation import TemporalRelation
from repro.engine.batch import BatchJoin
from repro.engine.governor import CancellationToken
from repro.service.service import (
    JoinService,
    _window_matches,
    offline_query,
    summarize_result,
)
from repro.service.snapshots import ServingGeneration
from repro.storage.buffer import BufferPool, ClockPolicy, LRUPolicy
from repro.storage.device import TUPLE_SIZE_BYTES, DeviceProfile
from repro.storage.faults import (
    FAULT_PROFILES,
    FaultPolicy,
    StorageFaultError,
    fault_profile,
)
from repro.storage.manager import StorageManager
from repro.storage.metrics import CostCounters, CostWeights
from repro.storage.snapshot import MaintainedIndex, save_index

from ..conftest import partition_key

SMALL = settings(max_examples=30, deadline=None)
DEEP = settings(max_examples=400, deadline=None)


@st.composite
def relation_pairs(draw):
    """Two relations over one shared domain ``[lo, hi]``.

    Endpoints come from a small pool that always holds both domain
    bounds, so shared endpoints and tuples on the bounds are common.
    The domain may be a single chronon, either side may be empty, and
    either side may gain one tuple spanning the whole domain.
    """
    lo = draw(st.integers(-20, 50))
    width = draw(st.sampled_from([0, 1, 7, 60, 400]))
    hi = lo + width
    pool = sorted(
        {lo, hi} | set(draw(st.lists(st.integers(lo, hi), max_size=6)))
    )
    point = st.sampled_from(pool)
    shapes = st.one_of(
        point.map(lambda t: (t, t)),  # point intervals
        st.tuples(point, point).map(lambda p: tuple(sorted(p))),
        st.tuples(st.integers(lo, hi), st.integers(0, width)).map(
            lambda p: (p[0], min(hi, p[0] + p[1]))
        ),
    )

    def side(name):
        spans = draw(st.lists(shapes, max_size=25))
        if draw(st.booleans()):
            spans.append((lo, hi))  # one tuple spanning everything
        return TemporalRelation.from_records(
            [(s, e, f"{name}{i}") for i, (s, e) in enumerate(spans)],
            name=name,
        )

    return side("r"), side("s")


GRANULES = st.one_of(
    st.sampled_from(
        [
            {"k": 1},
            {"k": 2},
            {},  # derived by the Section 6.2 iteration
            {"k": 3},  # coarse: a few wide granules
            {"k": 10_000},  # finer than the domain: clamped per side
            {"use_exact_root": False},  # the compact approximation
            {"use_histogram_statistics": True},
            {"weights": CostWeights(1.0, 5000.0)},  # IO-heavy c_io/c_cpu
        ]
    ),
    st.tuples(st.integers(1, 9), st.integers(1, 9)).map(
        lambda p: {"k_outer": p[0], "k_inner": p[1]}
    ),
)

configs = st.fixed_dictionaries(
    {
        "granules": GRANULES,
        "kernel": st.sampled_from(["auto", "naive", "sweep", "numpy"]),
        # Partial BatchJoin windows as per-mille positions of the two
        # relations' joint span; they may overhang either end.
        "windows": st.lists(
            st.tuples(st.integers(-100, 1100), st.integers(-100, 1100)),
            min_size=1,
            max_size=4,
        ),
        "cancel_after": st.none() | st.integers(0, 12),
        "faults": st.none()
        | st.tuples(st.sampled_from(sorted(FAULT_PROFILES)), st.integers(0, 99)),
        # Tuples per block: two spreads these small relations over many
        # blocks, so the seeded faults hit them far more often.
        "block_tuples": st.sampled_from([14, 2]),
        # A small buffer pool (replacement policy, capacity in blocks),
        # fresh for every run; checkpoints reject pools, so a drawn pool
        # runs without the cancel and resume.
        "pool": st.none()
        | st.tuples(st.sampled_from(["lru", "clock"]), st.integers(1, 8)),
        # Join through a snapshot of the pair saved under the example's
        # device and granules, and serve it.
        "index": st.booleans(),
        "result_cache_size": st.sampled_from([0, 4]),
        # Journaled deltas folded into a snapshot: (op, side, a, b) with
        # a and b per-mille positions in the domain for an insert; a
        # picks the tuple a delete removes.
        "journal": st.none()
        | st.lists(
            st.tuples(
                st.sampled_from(["insert", "delete"]),
                st.sampled_from(["outer", "inner"]),
                st.integers(0, 1000),
                st.integers(0, 1000),
            ),
            max_size=4,
        ),
    }
)


def _keys(pairs):
    return [
        (a.start, a.end, a.payload, b.start, b.end, b.payload)
        for a, b in pairs
    ]


def _storage(config, with_pool=True):
    """The example's storage keywords: its device, fault policy and a
    fresh buffer pool (pool hits depend on what earlier reads left;
    ``BatchJoin`` takes no pool)."""
    faults = config["faults"]
    pool = config.get("pool") if with_pool else None
    if pool is not None:
        policy, capacity = pool
        pool = BufferPool(capacity, LRUPolicy() if policy == "lru" else ClockPolicy())
    storage = {
        "device": DeviceProfile(
            "probe", block_size_bytes=config["block_tuples"] * TUPLE_SIZE_BYTES
        ),
        "fault_policy": fault_profile(*faults) if faults is not None else None,
    }
    if with_pool:
        storage["buffer_pool"] = pool
    return storage


def _outcome(run):
    """``run()``'s result, or the storage-fault error class it raised."""
    try:
        return run()
    except StorageFaultError as error:
        event(f"raised {type(error).__name__}")
        return type(error)


def _run(outer, inner, config):
    """The configured join, cancelled and resumed when the config says
    so."""
    options = dict(config["granules"], kernel=config["kernel"], **_storage(config))
    if config["cancel_after"] is None or options["buffer_pool"] is not None:
        return OIPJoin(**options).join(outer, inner)
    with tempfile.TemporaryDirectory() as scratch:
        path = os.path.join(scratch, "probe.ckpt")
        partial = OIPJoin(
            cancellation=CancellationToken(config["cancel_after"]),
            checkpoint_path=path,
            checkpoint_every=1,
            **options,
        ).join(outer, inner)
        if partial.completed:
            return partial
        event("resumed from a checkpoint")
        return OIPJoin(resume_from=path, **options).join(outer, inner)


def check_probe_core(pair, config):
    outer, inner = pair
    oracle = NestedLoopJoin().join(outer, inner)
    result = _outcome(lambda: _run(outer, inner, config))
    plain = _outcome(
        lambda: OIPJoin(
            **config["granules"], kernel=config["kernel"], **_storage(config)
        ).join(outer, inner)
    )
    if isinstance(plain, type):
        assert result is plain
    else:
        assert result.completed
        assert Counter(_keys(result.pairs)) == Counter(_keys(oracle.pairs))
        assert _keys(result.pairs) == _keys(plain.pairs)
        assert result.counters.snapshot() == plain.counters.snapshot()
        assert result.resilience.snapshot() == plain.resilience.snapshot()
        if plain.resilience.corruptions_detected:
            event("corruption detected and recovered")

    points = [t.start for t in outer] + [t.start for t in inner]
    ends = [t.end for t in outer] + [t.end for t in inner]
    lo, hi = (min(points), max(ends)) if points else (0, 0)
    windows = [Interval(lo, hi)]
    for a, b in config["windows"]:
        ts, te = sorted(lo + (hi - lo) * m // 1000 for m in (a, b))
        windows.append(Interval(ts, te))
    if not isinstance(result, type):
        if result.pairs.unordered:
            event("summarized a resumed prefix chunk")
        if len(result.pairs.chunks) == 1:
            event("summarized one chunk")
        check_summaries(result, windows)
    if outer.cardinality and inner.cardinality:
        if config["index"]:
            check_index(outer, inner, config, plain, windows, oracle)
        if config["journal"] is not None:
            check_journal(outer, inner, config)

    granules = config["granules"]
    storage = _storage(config, with_pool=False)
    batch, naive = [
        _outcome(
            lambda: BatchJoin(
                kernel=kernel, k=k, weights=granules.get("weights"), **storage
            ).run(outer, inner, windows)
        )
        for kernel, k in (
            (config["kernel"], granules.get("k")),
            ("naive", _batch_k(outer, inner, config, storage["device"])),
        )
    ]
    if isinstance(batch, type):
        assert naive is batch
        return
    assert _batch_fingerprint(batch) == _batch_fingerprint(naive)
    assert Counter(_keys(batch.queries[0].pairs)) == Counter(
        _keys(oracle.pairs)
    )
    assert len(batch.queries) == len(windows)
    for window, query in zip(windows, batch.queries):
        assert Counter(_keys(query.pairs)) == Counter(
            _keys(_windowed(oracle, window))
        )
        check_summaries(query, [window])


def _batch_k(outer, inner, config, device):
    """The one ``k`` that partitions both sides as the drawn batch does:
    its pinned ``k``, or the ``k`` its policy derives for its kernel
    (each side's count is capped to its range, so the larger count,
    pinned, caps to the same two)."""
    granules = config["granules"]
    if granules.get("k") is not None or outer.is_empty or inner.is_empty:
        return granules.get("k")
    policy = GranulePolicy(weights=granules.get("weights")).resolved()
    kernel = choose_kernel(outer, inner, config["kernel"])
    derivation = policy.derive(outer, inner, device, kernel)
    return max(policy.counts(outer, inner, derivation))


def _gap(result, lo, hi):
    """A chronon inside ``[lo, hi]`` that no tuple of *result*'s pairs
    covers, or ``None``."""
    covered = set()
    for outer, inner in result.pairs:
        for tup in (outer, inner):
            covered.update(range(max(tup.start, lo), min(tup.end, hi) + 1))
    return next((t for t in range(lo, hi + 1) if t not in covered), None)


def check_summaries(result, windows):
    """The chunked summary of *result* equals the pair-by-pair summary of
    its pairs as a plain list: for ``join``, and for ``lookup`` on each
    of *windows*, on the whole domain, on windows wholly outside the
    domain, on one-chronon windows and on a window inside the domain
    that meets no paired tuple, with and without ``include_pairs`` at
    several ``max_pairs``."""
    listed = JoinResult(
        algorithm=result.algorithm,
        pairs=list(result.pairs),
        counters=result.counters,
        details=result.details,
        completed=result.completed,
        elapsed_ms=result.elapsed_ms,
    )
    lo = min((w.start for w in windows), default=0)
    hi = max((w.end for w in windows), default=0)
    lookups = [(w.start, w.end) for w in windows] + [
        (lo, hi),  # the whole domain
        (hi + 1, hi + 50),  # after the domain
        (lo - 50, lo - 1),  # before it
        (lo, lo),  # point windows
        (hi, hi),
        ((lo + hi) // 2, (lo + hi) // 2),
    ]
    gap = _gap(result, lo, hi)
    if gap is not None:
        lookups.append((gap, gap))  # inside the domain, meets no tuple
    count = len(result.pairs)
    for op, window in [("join", None)] + [("lookup", w) for w in lookups]:
        for extra in (
            {},
            *({"include_pairs": True, "max_pairs": m} for m in (0, 1, count + 1)),
        ):
            options = dict(op=op, window=window, generation=None, **extra)
            assert summarize_result(result, **options) == summarize_result(
                listed, **options
            ), (op, window, extra)


def _windowed(oracle, window):
    return [
        pair
        for pair in oracle.pairs
        if _window_matches(pair, window.start, window.end)
    ]


def _batch_fingerprint(batch):
    """What must not depend on the kernel: per query, pairs in order and
    the cost and resilience counters; and the shared build's counters."""
    return (
        [
            (_keys(q.pairs), q.counters.snapshot(), q.resilience.snapshot())
            for q in batch.queries
        ],
        batch.build_counters.snapshot(),
    )


def check_index(outer, inner, config, plain, windows, oracle):
    """A join through the pair's snapshot equals the plain join, and a
    service on the snapshot answers like its offline oracle."""
    storage = _storage(config)
    with tempfile.TemporaryDirectory() as scratch:
        path = os.path.join(scratch, "pair.oip")
        save_index(
            path, outer, inner, device=storage["device"], **config["granules"]
        )
        loaded = _outcome(
            lambda: OIPJoin(
                index_path=path,
                kernel=config["kernel"],
                **config["granules"],
                **storage,
            ).join(outer, inner)
        )
        check_service(path, config, windows, oracle)
    event("joined through a snapshot")
    # A join through an index derives k for the auto kernel, as
    # save_index does.  Under weights that price per-partition work
    # that is not the naive kernel's own k, so the reference is the
    # plain join at the index's k (every kernel counts alike at one k).
    granules = config["granules"]
    weights = granules.get("weights", CostWeights.engine())
    if (
        config["kernel"] == "naive"
        and "k" not in granules
        and "k_outer" not in granules
        and weights.prices_partitions
    ):
        event("a naive join ran at its snapshot's k")
        plain = _outcome(
            lambda: OIPJoin(**granules, **_storage(config)).join(outer, inner)
        )
    if isinstance(plain, type):
        assert loaded is plain
        return
    assert loaded.details["index"]["loaded"] is True
    assert _keys(loaded.pairs) == _keys(plain.pairs)
    assert loaded.counters.snapshot() == plain.counters.snapshot()
    assert loaded.resilience.snapshot() == plain.resilience.snapshot()


def check_service(path, config, windows, oracle):
    """Served lookups (each issued twice, so a result cache answers the
    second) and a served join equal ``offline_query``'s bodies."""
    kernel = config["kernel"]
    service = JoinService(
        path, kernel=kernel, result_cache_size=config["result_cache_size"]
    )
    service.start()
    try:
        requests = [
            ("lookup", [window.start, window.end])
            for window in windows
            for _ in range(2)
        ] + [("join", None)]
        for op, window in requests:
            body = service.query(op, window=window)
            expected = offline_query(path, op=op, window=window, kernel=kernel)
            for field in ("pairs", "fingerprint", "counters"):
                assert body[field] == expected[field], (op, window, field)
            if body.get("cached"):
                event("served from the result cache")
            if op == "lookup":
                assert body["pairs"] == len(
                    _windowed(oracle, Interval(*window))
                )
        generation = service.snapshots.current
        served = OIPJoin(
            index_provider=generation,
            kernel=kernel,
            **generation.join_kwargs(),
        ).join(generation.outer, generation.inner)
        check_summaries(served, windows)
    finally:
        service.drain()
    event("served lookups and a join")


def check_journal(outer, inner, config):
    """Journaled deltas, compacted, serve the oracle's pairs and the
    plain join's pairs and counters over the maintained relations."""
    device = _storage(config)["device"]
    with tempfile.TemporaryDirectory() as scratch:
        path = os.path.join(scratch, "maintained.oip")
        save_index(path, outer, inner, device=device, **config["granules"])
        index = MaintainedIndex.open(path, device=device, fsync=False)
        lo = min(t.start for t in (*outer, *inner))
        hi = max(t.end for t in (*outer, *inner))
        for step, (op, side, a, b) in enumerate(config["journal"]):
            if op == "insert":
                start, end = sorted(lo + (hi - lo) * m // 1000 for m in (a, b))
                index.insert(side, start, end, f"new{step}")
            elif index.cardinality(side) > 1:  # a snapshot side is non-empty
                victim = index.relation(side).tuples[a % index.cardinality(side)]
                assert index.delete(side, victim.start, victim.end, victim.payload)
        index.compact()
        event("compacted journaled deltas")
        generation = ServingGeneration.load(path)
        served = OIPJoin(
            index_provider=generation, **generation.join_kwargs()
        ).join(generation.outer, generation.inner)
    maintained = index.relations()
    plain = OIPJoin(device=device, **config["granules"]).join(*maintained)
    oracle = NestedLoopJoin().join(*maintained)
    assert served.details["index"]["loaded"] is True
    assert Counter(_keys(served.pairs)) == Counter(_keys(oracle.pairs))
    assert _keys(served.pairs) == _keys(plain.pairs)
    assert served.counters.snapshot() == plain.counters.snapshot()


ONE_CHRONON_OUTER = (
    TemporalRelation.from_records([(7, 7, "r0")], name="r"),
    TemporalRelation.from_records([(1, 10, "s0"), (7, 9, "s1")], name="s"),
)


#: Under ("corrupt", 3) with two tuples per block, corruptions are
#: detected on re-reads of already decoded inner runs.
REDECODED = (
    TemporalRelation.from_records(
        [(t, t + 9, f"r{t}") for t in range(0, 60, 3)] + [(0, 60, "r-all")],
        name="r",
    ),
    TemporalRelation.from_records(
        [(t, t + 4, f"s{t}") for t in range(1, 60, 4)] + [(0, 60, "s-all")],
        name="s",
    ),
)


@given(pair=relation_pairs(), config=configs)
@example(
    pair=REDECODED,
    config={
        "granules": {"k": 3},
        "kernel": "sweep",
        "windows": [(0, 400), (300, 900)],
        "cancel_after": 3,
        "faults": ("corrupt", 3),
        "block_tuples": 2,
        "index": True,
        "result_cache_size": 4,
        "journal": [("delete", "inner", 3, 0), ("insert", "outer", 100, 300)],
    },
)
@example(
    pair=ONE_CHRONON_OUTER,
    config={
        "granules": {"k": 2},
        "kernel": "auto",
        "windows": [(-100, 500), (700, 1100)],
        "cancel_after": 1,
        "faults": None,
        "block_tuples": 14,
        "index": True,
        "result_cache_size": 0,
        "journal": [("insert", "inner", 0, 1000), ("delete", "outer", 0, 0)],
    },
)
@example(
    pair=REDECODED,
    config={
        "granules": {"k": 3},
        "kernel": "naive",
        "windows": [(0, 400)],
        "cancel_after": None,
        "faults": ("corrupt", 3),
        "block_tuples": 2,
        "pool": ("lru", 3),
        "index": True,
        "result_cache_size": 0,
        "journal": None,
    },
)
@example(
    # The default policy on the naive kernel keeps Equation 1's
    # partitioning, so the cancel lands mid-join and the resumed run
    # holds a prefix chunk in emission order.
    pair=REDECODED,
    config={
        "granules": {},
        "kernel": "naive",
        "windows": [(0, 300), (500, 520)],
        "cancel_after": 2,
        "faults": None,
        "block_tuples": 14,
        "index": True,
        "result_cache_size": 4,
        "journal": None,
    },
)
@example(
    pair=REDECODED,
    config={
        "granules": {"k": 1},
        "kernel": "auto",
        "windows": [(-100, 1100), (450, 450)],
        "cancel_after": 0,
        "faults": None,
        "block_tuples": 14,
        "index": True,
        "result_cache_size": 0,
        "journal": None,
    },
)
@SMALL
def test_probe_core_matches_oracle_and_sequential(pair, config):
    check_probe_core(pair, config)


@pytest.mark.slow
@given(pair=relation_pairs(), config=configs)
@DEEP
def test_probe_core_matches_oracle_and_sequential_deep(pair, config):
    check_probe_core(pair, config)


def test_resumed_prefix_chunk_is_unordered_and_summarizes():
    """A resumed run's prefix chunk lists its pairs in emission order,
    which is not the ascending encoding a kernel chunk has; the summary
    is told so and still equals the listed pairs' summary."""
    outer, inner = REDECODED
    with tempfile.TemporaryDirectory() as scratch:
        path = os.path.join(scratch, "prefix.ckpt")
        partial = OIPJoin(
            k=3,
            cancellation=CancellationToken(3),
            checkpoint_path=path,
            checkpoint_every=1,
        ).join(outer, inner)
        assert not partial.completed
        resumed = OIPJoin(k=3, resume_from=path).join(outer, inner)
    assert resumed.pairs.unordered == {0}
    prefix_hits = resumed.pairs.chunks[0][3]
    assert prefix_hits != sorted(prefix_hits)
    plain = OIPJoin(k=3).join(outer, inner)
    assert _keys(resumed.pairs) == _keys(plain.pairs)
    lo = min(t.start for t in (*outer, *inner))
    hi = max(t.end for t in (*outer, *inner))
    check_summaries(
        resumed, [Interval(lo, hi), Interval(lo + 5, lo + 20), Interval(hi, hi)]
    )


# ----------------------------------------------------------------------
# run_probe_task: one kernel call per outer partition.
# ----------------------------------------------------------------------

#: Short tuples and a few long-lived ones over [0, 399]: at k=8 some
#: outer partitions find three or more relevant inner partitions.
PROBE_OUTER = TemporalRelation.from_records(
    [(t, t + 9, f"r{t}") for t in range(0, 400, 23)]
    + [(5, 300, "r-long"), (120, 390, "r-late")],
    name="r",
)
PROBE_INNER = TemporalRelation.from_records(
    [(t, t + 14, f"s{t}") for t in range(3, 400, 17)]
    + [(0, 399, "s-all"), (60, 250, "s-mid")],
    name="s",
)


def _probe_fixture(policy=None):
    """Partition both relations at k=8 into a fresh storage manager
    (block ids are deterministic per build) and return it, its
    counters and the first probe task with >= 3 relevant inner runs."""
    counters = CostCounters()
    storage = StorageManager(
        counters=counters,
        fault_policy=policy,
    )
    outer_list = oip_create(
        PROBE_OUTER, OIPConfiguration.for_relation(PROBE_OUTER, 8), storage
    )
    inner_list = oip_create(
        PROBE_INNER, OIPConfiguration.for_relation(PROBE_INNER, 8), storage
    )
    schedule = build_probe_schedule(outer_list, inner_list)
    task = next(t for t in schedule.tasks if len(t.inner) >= 3)
    return storage, counters, task


def _oracle(task):
    """The task's pairs by brute force, in Algorithm 2's emission order:
    relevant inner partition, inner tuple, outer tuple."""
    outer = list(task.outer.run.iter_tuples())
    return [
        (o, i)
        for part in task.inner
        for i in part.run.iter_tuples()
        for o in outer
        if o.start <= i.end and i.start <= o.end
    ]


def _per_pair_reference(task, reader, counters, match):
    """The pre-concatenation loop: one kernel call and one charge per
    partition pair."""
    counters.charge_cpu(task.nav_cpu)
    counters.charge_partition_access(len(task.inner))
    outer = reader.read(task.outer, "outer partition")
    pairs = []
    for part in task.inner:
        inner = reader.read(part, "inner partition")
        hits = match(outer, inner)
        candidates = outer.length * inner.length
        counters.charge_cpu(2 * candidates)
        counters.charge_false_hit(candidates - len(hits))
        n = outer.length
        pairs += [(outer.tuples[e % n], inner.tuples[e // n]) for e in hits]
    return pairs


def _counted(match):
    calls = []

    def counting(outer, inner):
        calls.append(inner.length)
        return match(outer, inner)

    return counting, calls


@pytest.mark.parametrize("kernel", KERNELS)
def test_run_probe_task_makes_one_kernel_call_per_outer_partition(kernel):
    match = kernel_function(kernel)
    storage, counters, task = _probe_fixture()
    counting, calls = _counted(match)
    outer_run, inner_runs, hits = run_probe_task(
        task.outer,
        task.inner,
        task.nav_cpu,
        RunReader(storage),
        counters,
        counting,
    )
    pairs = PairChunks()
    pair_emitter(pairs)(outer_run, inner_runs, hits)

    assert calls == [sum(len(run) for run in inner_runs)]
    assert len(inner_runs) == len(task.inner) >= 3

    ref_storage, ref_counters, ref_task = _probe_fixture()
    reference = _per_pair_reference(
        ref_task, RunReader(ref_storage), ref_counters, match
    )
    assert pairs == reference == _oracle(task)
    assert counters.snapshot() == ref_counters.snapshot()


@pytest.mark.parametrize("kernel", KERNELS)
def test_corrupt_middle_inner_run_invalidates_its_cached_decode(
    kernel, decode_log
):
    _, _, clean_task = _probe_fixture()
    middle = clean_task.inner[len(clean_task.inner) // 2]
    # Every read of the middle run's first block delivers one corrupt
    # payload before the good one.
    policy = FaultPolicy(corrupt_schedule={middle.run.block_ids[0]: 1})
    storage, counters, task = _probe_fixture(policy)
    reader = RunReader(storage)
    visits = []
    for _ in range(2):
        del decode_log[:]
        pairs = PairChunks()
        pair_emitter(pairs)(
            *run_probe_task(
                task.outer,
                task.inner,
                task.nav_cpu,
                reader,
                counters,
                kernel_function(kernel),
            )
        )
        assert pairs == _oracle(task)
        visits.append(list(decode_log))
    # The first visit decodes the outer run and every inner run once.
    assert Counter(visits[0]) == Counter(
        partition_key(node) for node in [task.outer, *task.inner]
    )
    # The second visit finds every decode on its columns, except that the
    # corruption detected on re-reading the middle run re-decodes it.
    assert visits[1] == [partition_key(task.inner[len(task.inner) // 2])]
    assert storage.resilience.corruptions_detected == 2


# ----------------------------------------------------------------------
# build_probe_schedule: Lemma-1 navigation, one task per outer partition.
# ----------------------------------------------------------------------


def test_schedule_matches_lemma1_navigation():
    """Every task touches exactly the inner partitions ``iter_relevant``
    (Lemma 1) yields for its outer partition's query interval."""
    from repro.engine.parallel import build_probe_schedule as reexported
    from repro.workloads import long_lived_mixture

    # perfbench imports the schedule from its former module path.
    assert reexported is build_probe_schedule
    time_range = Interval(1, 2**16)
    outer = long_lived_mixture(250, 0.3, time_range, seed=15, name="r")
    inner = long_lived_mixture(250, 0.3, time_range, seed=16, name="s")
    k = 8
    config_r = OIPConfiguration.for_relation(outer, k)
    config_s = OIPConfiguration.for_relation(inner, k)
    storage = StorageManager()
    outer_list = oip_create(outer, config_r, storage)
    inner_list = oip_create(inner, config_s, storage)

    schedule = build_probe_schedule(outer_list, inner_list)
    assert schedule.task_count == outer_list.partition_count
    assert schedule.pair_count == sum(len(task.inner) for task in schedule.tasks)

    inner_range_stop = config_s.o + k * config_s.d
    for task, outer_node in zip(schedule.tasks, outer_list.iter_nodes()):
        assert task.outer is outer_node
        query = config_r.partition_interval(outer_node.i, outer_node.j)
        if query.end < config_s.o or query.start >= inner_range_stop:
            expected = []
            # Only Algorithm 2's range-overlap guard is charged.
            assert task.nav_cpu == 2
        else:
            s, e = config_s.query_indices(query)
            expected = [(node.i, node.j) for node in inner_list.iter_relevant(s, e)]
        assert [(node.i, node.j) for node in task.inner] == expected


# ----------------------------------------------------------------------
# PairChunks: the join's result as hit chunks, read as a sequence.
# ----------------------------------------------------------------------


def _chunked_join(**options):
    return OIPJoin(k=8, **options).join(PROBE_OUTER, PROBE_INNER)


def test_pair_chunks_read_like_the_pair_list():
    result = _chunked_join()
    pairs = result.pairs
    listed = list(pairs)
    assert isinstance(pairs, PairChunks)
    assert len(pairs.chunks) > 1
    assert len(pairs) == len(listed) == result.counters.result_tuples
    oracle = NestedLoopJoin().join(PROBE_OUTER, PROBE_INNER)
    assert Counter(_keys(listed)) == Counter(_keys(oracle.pairs))
    assert [pairs[i] for i in range(len(pairs))] == listed
    assert [pairs[-i] for i in range(1, len(pairs) + 1)] == listed[::-1]
    for cut in (
        slice(None),
        slice(3, 40),
        slice(-7, None),
        slice(None, None, -3),
        slice(5, 2),
        slice(len(listed) + 10, None),
    ):
        assert pairs[cut] == listed[cut]
    with pytest.raises(IndexError):
        pairs[len(listed)]
    with pytest.raises(IndexError):
        pairs[-len(listed) - 1]
    with pytest.raises(TypeError):
        pairs["0"]
    assert pairs == listed and listed == pairs
    assert not (pairs != listed)
    assert pairs == _chunked_join().pairs
    assert pairs != listed[:-1] and listed[:-1] != pairs
    assert pairs != listed[::-1]
    assert pairs != tuple(listed)
    with pytest.raises(TypeError):
        hash(pairs)
    assert listed[5] in pairs
    assert pairs.index(listed[5]) == listed.index(listed[5])
    assert list(reversed(pairs)) == listed[::-1]


def test_pair_chunks_empty_result():
    empty = TemporalRelation.from_records([], name="r")
    for result in (
        OIPJoin().join(empty, PROBE_INNER),
        # Disjoint domains: the probe runs and emits no chunk.
        OIPJoin().join(
            PROBE_OUTER,
            TemporalRelation.from_records([(1000, 1001, "far")], name="s"),
        ),
    ):
        assert isinstance(result.pairs, PairChunks)
        assert len(result.pairs) == 0 and result.pairs.chunks == []
        assert result.pairs == [] and [] == result.pairs
        assert list(result.pairs) == [] and result.pairs[:] == []
        with pytest.raises(IndexError):
            result.pairs[0]
        body = summarize_result(
            result, op="join", window=None, generation=None, include_pairs=True
        )
        assert (body["pairs"], body["fingerprint"], body["results"]) == (0, 0, [])
    empty_batch = BatchJoin().run(empty, PROBE_INNER, [Interval(0, 10)])
    assert empty_batch.queries[0].pairs == []


def test_pair_chunks_partial_result_after_cancel_is_a_prefix():
    full = _chunked_join().pairs
    partial = _chunked_join(cancellation=CancellationToken(3))
    assert not partial.completed
    assert isinstance(partial.pairs, PairChunks)
    assert 0 < len(partial.pairs) < len(full)
    assert partial.counters.result_tuples == len(partial.pairs)
    assert partial.pairs == full[: len(partial.pairs)]


def test_pair_chunks_resumed_prefix_is_one_chunk(tmp_path):
    full = _chunked_join()
    path = str(tmp_path / "probe.ckpt")
    partial = _chunked_join(
        cancellation=CancellationToken(3), checkpoint_path=path, checkpoint_every=1
    )
    assert not partial.completed
    resumed = _chunked_join(resume_from=path)
    assert resumed.pairs == full.pairs
    assert resumed.counters.snapshot() == full.counters.snapshot()
    # The checkpointed prefix comes back as one chunk over the relations.
    outer_tuples, inner_tuples, n_outer, hits = resumed.pairs.chunks[0]
    assert outer_tuples is PROBE_OUTER.tuples
    assert n_outer == PROBE_OUTER.cardinality
    assert inner_tuples is PROBE_INNER.tuples
    assert len(hits) == len(partial.pairs)
    assert resumed.pairs[: len(hits)] == list(partial.pairs)
    for op, window in (("join", None), ("lookup", (100, 180))):
        options = dict(op=op, window=window, generation=None, include_pairs=True)
        bodies = [summarize_result(r, **options) for r in (resumed, full)]
        for body in bodies:
            del body["elapsed_ms"]
        assert bodies[0] == bodies[1]
