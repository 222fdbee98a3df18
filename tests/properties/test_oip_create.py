"""OIPCREATE builds exactly what Algorithm 1 builds.

The reference below is Algorithm 1 written out in the test: one
``(j ASC, i DESC)`` key per tuple from its attributes, a stable sort,
one partition per run of equal keys, blocks allocated partition by
partition, and each block's checksum folded over the bytes of its
``starts``, ``ends`` and ``positions`` rows.  ``oip_create`` must match
it in the grid-order node ``(i, j)`` sequence, each node's rows and
block ids, the three columns, the tuples' order, the stored checksums
and the write charges — for ``k = 1`` (where the build skips the keys
and the sort) and ``k > 1``, over relations that include the edge
cases: empty, one tuple, point intervals, a one-chronon domain and
tuples on the domain bounds.
"""

import zlib
from array import array
from itertools import groupby

import hypothesis.strategies as st
from hypothesis import example, given, settings

from repro.core.interval import Interval
from repro.core.lazy_list import oip_create
from repro.core.oip import OIPConfiguration
from repro.core.relation import TemporalRelation
from repro.storage.device import TUPLE_SIZE_BYTES, DeviceProfile
from repro.storage.manager import StorageManager


@st.composite
def relations(draw):
    """A relation over a drawn domain ``[lo, hi]``, one chronon wide when
    ``hi == lo``; the domain bounds are always drawable points."""
    lo = draw(st.integers(-50, 50))
    hi = lo + draw(st.sampled_from([0, 1, 5, 40, 300]))
    point = st.sampled_from([lo, hi]) | st.integers(lo, hi)
    shapes = st.one_of(
        point.map(lambda p: (p, p)),
        st.tuples(point, point).map(lambda p: tuple(sorted(p))),
        st.tuples(point, st.integers(0, hi - lo)).map(
            lambda p: (p[0], min(hi, p[0] + p[1]))
        ),
    )
    return TemporalRelation.from_pairs(draw(st.lists(shapes, max_size=40)))


def configuration(relation, k, shift):
    """The relation's own configuration for *k*, its origin moved back
    by *shift* chronons (a relation empty of tuples gets a fixed one)."""
    if relation.is_empty:
        base = OIPConfiguration.for_time_range(Interval(0, 9), k)
    else:
        base = OIPConfiguration.for_relation(relation, k)
    return OIPConfiguration(k=base.k, d=base.d, o=base.o - shift)


def reference_build(relation, config, capacity):
    """Algorithm 1 the old way: ``(grid-order nodes, columns, tuples,
    checksums, blocks)``; a node is ``(i, j, offset, count, block ids)``."""
    d, o = config.d, config.o
    keyed = [
        (((tup.end - o) // d, -((tup.start - o) // d)), position)
        for position, tup in enumerate(relation.tuples)
    ]
    order = [position for _, position in sorted(keyed, key=lambda kp: kp[0])]
    tuples = [relation.tuples[position] for position in order]
    starts = array("q", [tup.start for tup in tuples])
    ends = array("q", [tup.end for tup in tuples])
    positions = array("q", order)
    nodes, checksums = [], []
    offset = block = 0
    keys = sorted(key for key, _ in keyed)
    for (j, minus_i), run in groupby(keys):
        count = len(list(run))
        blocks = -(-count // capacity)
        ids = list(range(block, block + blocks))
        nodes.append((-minus_i, j, offset, count, ids))
        for lo in range(offset, offset + count, capacity):
            hi = min(lo + capacity, offset + count)
            crc = zlib.crc32(starts[lo:hi].tobytes())
            crc = zlib.crc32(ends[lo:hi].tobytes(), crc)
            checksums.append(zlib.crc32(positions[lo:hi].tobytes(), crc))
        offset += count
        block += blocks
    # Grid order: main list by decreasing j, each branch by increasing i.
    nodes.sort(key=lambda node: (-node[1], node[0]))
    return nodes, (starts, ends, positions), tuples, checksums, block


def check_build(relation, config, capacity):
    device = DeviceProfile("build", block_size_bytes=capacity * TUPLE_SIZE_BYTES)
    storage = StorageManager(device=device)
    built = oip_create(relation, config, storage)
    nodes, columns, tuples, checksums, blocks = reference_build(
        relation, config, capacity
    )
    assert [
        (node.i, node.j, node.run.offset, node.run.count, node.run.block_ids)
        for node in built.iter_nodes()
    ] == nodes
    got = built.columns
    assert (got.starts, got.ends, got.positions) == columns
    assert got.tuples == tuples
    assert list(got.checksums) == checksums
    assert got.verdicts == bytearray(blocks)
    assert storage.allocated_blocks == storage.counters.block_writes == blocks
    # Every run reads back clean.
    for node in built.iter_nodes():
        assert list(storage.read_run(node.run)) == node.run.tuples()
    assert storage.resilience.corruptions_detected == 0


EDGE_CASES = [
    TemporalRelation.from_pairs([]),
    TemporalRelation.from_pairs([(7, 7)]),
    TemporalRelation.from_pairs([(3, 3), (3, 3), (3, 3)]),  # one chronon
    TemporalRelation.from_pairs([(0, 9), (0, 0), (9, 9), (4, 5), (0, 9)]),
]


@given(
    relation=relations(),
    k=st.sampled_from([1, 1, 2, 3, 4, 26]) | st.integers(1, 400),
    shift=st.sampled_from([0, 0, 1, 7]),
    capacity=st.sampled_from([14, 2, 1]),
)
@example(relation=EDGE_CASES[0], k=1, shift=0, capacity=14)
@example(relation=EDGE_CASES[1], k=1, shift=0, capacity=14)
@example(relation=EDGE_CASES[2], k=4, shift=0, capacity=2)
@example(relation=EDGE_CASES[3], k=1, shift=0, capacity=2)
@example(relation=EDGE_CASES[3], k=4, shift=3, capacity=2)
@settings(max_examples=150, deadline=None)
def test_oip_create_matches_algorithm_1(relation, k, shift, capacity):
    check_build(relation, configuration(relation, k, shift), capacity)
