"""Property tests over the one Algorithm 2 probe core.

The join and the batch executor run the same navigation
(``build_probe_schedule``) and pair loop (``run_probe_task``).  These
tests draw edge-case relations and configurations and check the core's
contract end to end:

* the result pairs are exactly the nested-loop oracle's (as a multiset);
* pairs (in order), cost counters and resilience counters equal the
  plain join at the same granule count — also after a cancel at a
  random boundary and a resume from the checkpoint written there;
* one ``BatchJoin`` run over a window covering both domains plus
  several drawn partial windows returns, per window, the oracle's pairs
  that meet the window (the service's ``_window_matches`` filter);
* a join through a snapshot saved with ``save_index`` under the same
  device and granules loads it and equals the plain join;
* drawn journaled inserts and deletes, compacted, serve a join through
  ``ServingGeneration.join_kwargs()`` that equals the oracle and the
  plain join over the maintained relations.

A drawn seeded fault profile (``FAULT_PROFILES``) applies to every run
of an example.  Faults are a pure function of ``(block, attempt)``, so
the drawn join and the plain join either raise the same storage-fault
error or satisfy the contract above; detected corruptions exercise the
re-decode of an already decoded run.

A small profile runs in tier-1; the deep one runs under ``-m slow``.
A direct test of ``run_probe_task`` pins its shape: one kernel call per
outer partition over the concatenation of its relevant inner runs, with
the pairs and charges of one call per partition pair.
"""

import os
import tempfile
from collections import Counter

import hypothesis.strategies as st
import pytest
from hypothesis import event, example, given, settings

from repro.baselines.nested_loop import NestedLoopJoin
from repro.core.interval import Interval
from repro.core.join import (
    OIPJoin,
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
from repro.service.service import _window_matches
from repro.service.snapshots import ServingGeneration
from repro.storage.device import TUPLE_SIZE_BYTES, DeviceProfile
from repro.storage.faults import (
    FAULT_PROFILES,
    FaultInjector,
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
        # Join through a snapshot of the pair saved under the example's
        # device and granules.
        "index": st.booleans(),
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


def _storage(config):
    """The example's storage keywords: its device and fault policy."""
    faults = config["faults"]
    return {
        "device": DeviceProfile(
            "probe", block_size_bytes=config["block_tuples"] * TUPLE_SIZE_BYTES
        ),
        "fault_policy": fault_profile(*faults) if faults is not None else None,
    }


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
    if config["cancel_after"] is None:
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
    storage = _storage(config)
    oracle = NestedLoopJoin().join(outer, inner)
    result = _outcome(lambda: _run(outer, inner, config))
    plain = _outcome(
        lambda: OIPJoin(**config["granules"], **storage).join(outer, inner)
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
    if outer.cardinality and inner.cardinality:
        if config["index"]:
            check_index(outer, inner, config, plain)
        if config["journal"] is not None:
            check_journal(outer, inner, config)

    batch_k = config["granules"].get("k")
    batch = _outcome(
        lambda: BatchJoin(k=batch_k, kernel=config["kernel"], **storage).run(
            outer, inner, windows
        )
    )
    if isinstance(batch, type):
        return
    assert Counter(_keys(batch.queries[0].pairs)) == Counter(
        _keys(oracle.pairs)
    )
    assert len(batch.queries) == len(windows)
    for window, query in zip(windows, batch.queries):
        expected = [
            pair
            for pair in oracle.pairs
            if _window_matches(pair, window.start, window.end)
        ]
        assert Counter(_keys(query.pairs)) == Counter(_keys(expected))


def check_index(outer, inner, config, plain):
    """A join through the pair's snapshot equals the plain join."""
    storage = _storage(config)
    with tempfile.TemporaryDirectory() as scratch:
        path = os.path.join(scratch, "pair.oip")
        save_index(
            path, outer, inner, device=storage["device"], **config["granules"]
        )
        loaded = _outcome(
            lambda: OIPJoin(
                index_path=path, **config["granules"], **storage
            ).join(outer, inner)
        )
    event("joined through a snapshot")
    if isinstance(plain, type):
        assert loaded is plain
        return
    assert loaded.details["index"]["loaded"] is True
    assert _keys(loaded.pairs) == _keys(plain.pairs)
    assert loaded.counters.snapshot() == plain.counters.snapshot()
    assert loaded.resilience.snapshot() == plain.resilience.snapshot()


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
        "journal": [("insert", "inner", 0, 1000), ("delete", "outer", 0, 0)],
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
        fault_injector=FaultInjector(policy) if policy is not None else None,
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
    pairs = []
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
        pairs = []
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
    # The second visit finds every decode on its node, except that the
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
