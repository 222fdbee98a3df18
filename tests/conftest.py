"""Shared fixtures: the paper's running example and random-relation
helpers.

The canonical sample relations reproduce Figures 1 and 2 exactly.  The
interval endpoints not printed in the paper were solved from its stated
facts: the lazy-partition-list of Example 5, the Q=[2012-5] false hits,
the Figure 1 join output (8 results, 3 false hits, 5 partition accesses)
and the SFR of 14/7 = 2 — months are mapped to integers 1..12.
"""

from __future__ import annotations

import random
from typing import List, Tuple

import pytest

from repro import TemporalRelation
from repro.core.relation import TemporalTuple


def make_paper_s() -> TemporalRelation:
    """Relation s of Figure 2 (time range 2012-1 .. 2012-12)."""
    return TemporalRelation.from_records(
        [
            (1, 1, "s1"),
            (2, 3, "s2"),
            (2, 5, "s3"),
            (5, 11, "s4"),
            (5, 5, "s5"),
            (6, 10, "s6"),
            (8, 12, "s7"),
        ],
        name="s",
    )


def make_paper_r() -> TemporalRelation:
    """Relation r of Figure 1 (time range 2012-5 .. 2012-11)."""
    return TemporalRelation.from_records(
        [(5, 5, "r1"), (6, 6, "r2"), (8, 11, "r3")],
        name="r",
    )


@pytest.fixture
def paper_s() -> TemporalRelation:
    return make_paper_s()


@pytest.fixture
def paper_r() -> TemporalRelation:
    return make_paper_r()


def random_relation(
    rng: random.Random,
    cardinality: int,
    range_size: int = 500,
    max_duration: int = 50,
    name: str = "r",
) -> TemporalRelation:
    """Small random relation for cross-checking algorithms."""
    tuples: List[TemporalTuple] = []
    for index in range(cardinality):
        start = rng.randint(0, range_size)
        duration = rng.randint(1, max_duration)
        tuples.append(TemporalTuple(start, start + duration - 1, index))
    return TemporalRelation(tuples, name=name)


def oracle_pairs(
    outer: TemporalRelation, inner: TemporalRelation
) -> List[Tuple]:
    """Sorted canonical keys of the true overlap-join result."""
    keys = []
    for outer_tuple in outer:
        for inner_tuple in inner:
            if outer_tuple.overlaps(inner_tuple):
                keys.append(
                    (
                        outer_tuple.start,
                        outer_tuple.end,
                        outer_tuple.payload,
                        inner_tuple.start,
                        inner_tuple.end,
                        inner_tuple.payload,
                    )
                )
    return sorted(keys)


@pytest.fixture
def decode_log(monkeypatch) -> List[Tuple]:
    """Every columnar decode made while the test runs, in call order.

    ``DecodedRun.from_tuples`` is wrapped (the probe looks it up at call
    time); each entry is the decoded run's ``(start, end, payload)``
    keys in storage order, which identifies its partition.
    """
    from repro.core.kernels import DecodedRun

    decode = DecodedRun.from_tuples.__func__
    log: List[Tuple] = []

    def logged(cls, tuples, *columns):
        tuples = list(tuples)
        log.append(tuple((t.start, t.end, t.payload) for t in tuples))
        return decode(cls, tuples, *columns)

    monkeypatch.setattr(DecodedRun, "from_tuples", classmethod(logged))
    return log


def partition_key(node) -> Tuple:
    """A partition's tuples as ``decode_log`` records them."""
    return tuple((t.start, t.end, t.payload) for t in node.run.iter_tuples())


def probe_decodes(outer, inner, k_outer, k_inner, windows=(None,)):
    """The decodes a probe at ``(k_outer, k_inner)`` needs, each once:
    every inner partition a task visits, and the outer partition of
    every task that visits one — over the union of *windows*' probe
    schedules (``None``: the whole join).  A ``Counter`` of partition
    keys, comparable with ``Counter(decode_log)``."""
    from collections import Counter

    from repro.core.join import build_probe_schedule
    from repro.core.lazy_list import oip_create
    from repro.core.oip import OIPConfiguration
    from repro.storage.manager import StorageManager

    storage = StorageManager()
    outer_list = oip_create(
        outer, OIPConfiguration.for_relation(outer, k_outer), storage
    )
    inner_list = oip_create(
        inner, OIPConfiguration.for_relation(inner, k_inner), storage
    )
    nodes = {}
    for window in windows:
        schedule = build_probe_schedule(outer_list, inner_list, window=window)
        for task in schedule.tasks:
            if task.inner:
                for node in [task.outer, *task.inner]:
                    nodes[id(node)] = node
    return Counter(partition_key(node) for node in nodes.values())
