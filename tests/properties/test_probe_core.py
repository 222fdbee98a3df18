"""Property tests over the one Algorithm 2 probe core.

The join and the batch executor run the same navigation
(``build_probe_schedule``) and pair loop (``run_probe_task``).  These
tests draw edge-case relations and configurations and check the core's
contract end to end:

* the result pairs are exactly the nested-loop oracle's (as a multiset);
* pairs (in order) and cost counters equal the plain join at the same
  granule count — also after a cancel at a random boundary and a resume
  from the checkpoint written there;
* one ``BatchJoin`` run over a window covering both domains plus
  several drawn partial windows returns, per window, the oracle's pairs
  that meet the window (the service's ``_window_matches`` filter).

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
from repro.core.kernels import (
    KERNELS,
    DecodedRun,
    DecodedRunCache,
    kernel_function,
)
from repro.core.lazy_list import oip_create
from repro.core.oip import OIPConfiguration
from repro.core.relation import TemporalRelation
from repro.engine.batch import BatchJoin
from repro.engine.governor import CancellationToken
from repro.service.service import _window_matches
from repro.storage.faults import FaultInjector, FaultPolicy
from repro.storage.manager import StorageManager
from repro.storage.metrics import CostCounters

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
    }
)


def _keys(pairs):
    return [
        (a.start, a.end, a.payload, b.start, b.end, b.payload)
        for a, b in pairs
    ]


def _run(outer, inner, config):
    """The configured join, cancelled and resumed when the config says
    so."""
    options = dict(config["granules"], kernel=config["kernel"])
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
    oracle = NestedLoopJoin().join(outer, inner)
    result = _run(outer, inner, config)
    assert result.completed
    assert Counter(_keys(result.pairs)) == Counter(_keys(oracle.pairs))

    plain = OIPJoin(**config["granules"]).join(outer, inner)
    assert _keys(result.pairs) == _keys(plain.pairs)
    assert result.counters.snapshot() == plain.counters.snapshot()

    points = [t.start for t in outer] + [t.start for t in inner]
    ends = [t.end for t in outer] + [t.end for t in inner]
    lo, hi = (min(points), max(ends)) if points else (0, 0)
    windows = [Interval(lo, hi)]
    for a, b in config["windows"]:
        ts, te = sorted(lo + (hi - lo) * m // 1000 for m in (a, b))
        windows.append(Interval(ts, te))
    batch_k = config["granules"].get("k")
    batch = BatchJoin(k=batch_k, kernel=config["kernel"]).run(
        outer, inner, windows
    )
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


ONE_CHRONON_OUTER = (
    TemporalRelation.from_records([(7, 7, "r0")], name="r"),
    TemporalRelation.from_records([(1, 10, "s0"), (7, 9, "s1")], name="s"),
)


@given(pair=relation_pairs(), config=configs)
@example(
    pair=ONE_CHRONON_OUTER,
    config={
        "granules": {"k": 2},
        "kernel": "auto",
        "windows": [(-100, 500), (700, 1100)],
        "cancel_after": 1,
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
    outer_tuples, _ = reader.read(task.outer, "outer partition")
    outer = DecodedRun.from_tuples(outer_tuples)
    pairs = []
    for part in task.inner:
        inner_tuples, _ = reader.read(part, "inner partition")
        hits = match(outer, DecodedRun.from_tuples(inner_tuples))
        candidates = len(outer_tuples) * len(inner_tuples)
        counters.charge_cpu(2 * candidates)
        counters.charge_false_hit(candidates - len(hits))
        n = len(outer_tuples)
        pairs += [(outer_tuples[e % n], inner_tuples[e // n]) for e in hits]
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
    outer_tuples, inner_runs, hits = run_probe_task(
        task.outer,
        task.inner,
        task.nav_cpu,
        RunReader(storage),
        counters,
        counting,
        cache=DecodedRunCache(),
    )
    pairs = []
    pair_emitter(pairs)(outer_tuples, inner_runs, hits)

    assert calls == [sum(len(run) for run in inner_runs)]
    assert len(inner_runs) == len(task.inner) >= 3

    ref_storage, ref_counters, ref_task = _probe_fixture()
    reference = _per_pair_reference(
        ref_task, RunReader(ref_storage), ref_counters, match
    )
    assert pairs == reference == _oracle(task)
    assert counters.snapshot() == ref_counters.snapshot()


@pytest.mark.parametrize("kernel", KERNELS)
def test_corrupt_middle_inner_run_invalidates_its_cached_decode(kernel):
    _, _, clean_task = _probe_fixture()
    middle = clean_task.inner[len(clean_task.inner) // 2]
    policy = FaultPolicy(corrupt_schedule={middle.run.block_ids[0]: 1})
    storage, counters, task = _probe_fixture(policy)
    cache = DecodedRunCache()
    reader = RunReader(storage)
    for _ in range(2):
        before = cache.invalidations
        pairs = []
        pair_emitter(pairs)(
            *run_probe_task(
                task.outer,
                task.inner,
                task.nav_cpu,
                reader,
                counters,
                kernel_function(kernel),
                cache=cache,
            )
        )
        assert pairs == _oracle(task)
    # The second visit finds the first visit's decode cached; the
    # corruption detected on re-reading the run drops it.
    assert cache.invalidations == before + 1
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
