"""False hits, sum false hit ratio and average false hit ratio
(paper Section 5.1, Definitions 3-5, Lemma 4, Theorem 1).

The measures are defined for *any* partitioning of a valid-time relation,
so the empirical functions here operate on a generic sequence of
:class:`PartitionView` objects (a partition interval plus the tuples stored
under it).  Adapters build that view from an OIP
:class:`~repro.core.lazy_list.LazyPartitionList`, which lets the tests
compare measured values against the paper's closed forms:

* Equation (3): ``SFR`` of OIP for duration-complete relations with tuple
  durations ``l <= d``,
* Equation (4): the same for ``l > d`` (``l`` a multiple of ``d``),
* Theorem 1: ``AFR(OIP) < 1/k`` independent of tuple durations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from ..core.interval import Interval
from ..core.lazy_list import LazyPartitionList
from ..core.relation import TemporalRelation, TemporalTuple

__all__ = [
    "PartitionView",
    "partition_views_from_lazy_list",
    "false_hits",
    "sum_false_hit_ratio",
    "average_false_hit_ratio",
    "theoretical_sfr_oip",
    "theoretical_afr_bound",
]


@dataclass(frozen=True)
class PartitionView:
    """One partition as the analysis sees it: its interval and tuples."""

    interval: Interval
    tuples: Sequence[TemporalTuple]


def partition_views_from_lazy_list(
    partition_list: LazyPartitionList,
) -> List[PartitionView]:
    """Adapter: the non-empty OIP partitions as partition views."""
    config = partition_list.config
    return [
        PartitionView(
            interval=config.partition_interval(node.i, node.j),
            tuples=node.run.tuples(),
        )
        for node in partition_list.iter_nodes()
    ]


def false_hits(
    partitions: Sequence[PartitionView],
    query: Interval,
) -> List[TemporalTuple]:
    """Definition 3: tuples fetched with a relevant partition (partition
    interval overlaps *query*) that do not themselves overlap *query*.

    A tuple stored in several fetched partitions would be returned once per
    fetch; under OIP every tuple lives in exactly one partition.
    """
    hits: List[TemporalTuple] = []
    for partition in partitions:
        if not partition.interval.overlaps(query):
            continue
        for tup in partition.tuples:
            if not tup.overlaps_interval(query):
                hits.append(tup)
    return hits


def sum_false_hit_ratio(
    partitions: Sequence[PartitionView],
    relation: TemporalRelation,
    query_duration: int = 1,
) -> float:
    """Definition 4 (generalised per Lemma 4): total false hits over all
    query intervals of duration *query_duration* that overlap the
    relation's time range, divided by the relation cardinality.

    Lemma 4 guarantees the value is the same for every *query_duration*;
    the property tests exercise exactly that.
    """
    if query_duration < 1:
        raise ValueError(
            f"query duration must be >= 1, got {query_duration}"
        )
    if relation.is_empty:
        return 0.0
    time_range = relation.time_range
    total = 0
    first_start = time_range.start - query_duration + 1
    for start in range(first_start, time_range.end + 1):
        query = Interval(start, start + query_duration - 1)
        total += len(false_hits(partitions, query))
    return total / relation.cardinality


def average_false_hit_ratio(
    partitions: Sequence[PartitionView],
    relation: TemporalRelation,
    query_duration: int = 1,
) -> float:
    """Definition 5: ``AFR = SFR / (|U| + q - 1)`` for query duration q."""
    if relation.is_empty:
        return 0.0
    sfr = sum_false_hit_ratio(partitions, relation, query_duration)
    return sfr / (relation.time_range_duration + query_duration - 1)


def theoretical_sfr_oip(k: int, d: int, max_duration: int) -> float:
    """Theorem 1 closed forms for duration-complete relations.

    Equation (3) for ``l <= d``::

        SFR = 2 (l^2 - 3 d l + 3 k d^2 - 3 k d + 3 d - 1) / (3 (2 k d - l + 1))

    Equation (4) for ``l > d`` (derived for ``l`` a multiple of ``d``)::

        SFR = (d - 1)(6 k d - d + 2 - 3 l) / (3 (2 k d - l + 1))
    """
    if k < 1 or d < 1:
        raise ValueError(f"k and d must be >= 1, got k={k} d={d}")
    l = max_duration
    if l < 1 or l > k * d:
        raise ValueError(
            f"max duration must be in [1, k*d]={k * d}, got {l}"
        )
    if l <= d:
        numerator = 2 * (l * l - 3 * d * l + 3 * k * d * d - 3 * k * d + 3 * d - 1)
    else:
        numerator = (d - 1) * (6 * k * d - d + 2 - 3 * l)
    return numerator / (3 * (2 * k * d - l + 1))


def theoretical_afr_bound(k: int) -> float:
    """Theorem 1: the AFR of OIP is strictly below ``1/k``."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    return 1.0 / k
