"""Ablation: Algorithm 1's sort and sequential storage.

OIPCREATE sorts by partition index before inserting, which (a) makes
head insertion O(1) and (b) lays each partition out in consecutive
blocks, so scanning partitions during the join is sequential IO.  The
paper attributes the OIPJOIN's resilience on the seek-bound 4-GB server
(Figure 11(d)) to exactly this.

The bench measures the sequential/random read split of an OIPJOIN run
against a *fragmented* variant in which the inner partitions' blocks are
scattered over the address space (what unsorted insertion would
produce), and prices both with the disk profile's seek factor.
"""

import random

from repro.core.interval import Interval
from repro.core.join import OIPJoin
from repro.core.lazy_list import oip_create
from repro.core.oip import OIPConfiguration
from repro.storage import DeviceProfile
from repro.storage.snapshot import LoadedIndex
from repro.workloads import uniform_relation

from .common import heading, scaled, table, timed_join

N = 4_000
TIME_RANGE = Interval(1, 2**20)


def _scramble(*lists) -> None:
    """Assign random block ids — the layout of an unsorted build."""
    rng = random.Random(0)
    runs = [
        node.run
        for partition_list in lists
        for node in partition_list.iter_nodes()
    ]
    new_ids = list(range(sum(len(run) for run in runs)))
    rng.shuffle(new_ids)
    taken = 0
    for run in runs:
        run.relocate(new_ids[taken : taken + len(run)])
        taken += len(run)


def fragmented_layout(device):
    """An ``OIPJoin`` index provider that partitions both relations with
    OIPCREATE at the join's granule counts, then scatters their blocks
    over the address space: insertion without Algorithm 1's sort."""

    def provide(outer, inner, *, storage, expected):
        policy = expected.policy
        k_outer, k_inner = policy.counts(
            outer, inner, policy.derive(outer, inner, device)
        )
        outer_list, inner_list = (
            oip_create(
                relation, OIPConfiguration.for_relation(relation, k), storage
            )
            for relation, k in ((outer, k_outer), (inner, k_inner))
        )
        _scramble(outer_list, inner_list)
        return LoadedIndex(
            path="<fragmented>",
            generation=0,
            k_outer=k_outer,
            k_inner=k_inner,
            outer_list=outer_list,
            inner_list=inner_list,
            meta={},
            stats={},
        )

    return provide


def test_ablation_sorted_layout(benchmark):
    outer = uniform_relation(
        scaled(N) // 10, TIME_RANGE, 0.001, seed=1, name="r"
    )
    inner = uniform_relation(scaled(N), TIME_RANGE, 0.001, seed=2, name="s")
    device = DeviceProfile.disk()

    def run():
        rows = []
        for label, join in (
            (
                "sorted (Algorithm 1)",
                OIPJoin(device=device, weights=device.weights),
            ),
            (
                "fragmented layout",
                OIPJoin(
                    device=device,
                    weights=device.weights,
                    index_provider=fragmented_layout(device),
                ),
            ),
        ):
            result, elapsed = timed_join(join, outer, inner)
            counters = result.counters
            rows.append(
                (
                    label,
                    f"{counters.block_reads:,}",
                    f"{counters.sequential_reads:,}",
                    f"{counters.random_reads:,}",
                    f"{device.io_time(counters.sequential_reads, counters.random_reads):,.0f}",
                    len(result.pairs),
                )
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    heading(
        "Ablation (Algorithm 1 sort) — sequential vs fragmented layout "
        f"on the disk profile (seek factor {DeviceProfile.disk().seek_factor})"
    )
    table(
        [
            "layout",
            "device reads",
            "sequential",
            "random",
            "modelled IO ns",
            "results",
        ],
        rows,
    )
    sorted_row, fragmented_row = rows
    assert sorted_row[1] == fragmented_row[1], "block reads must match"
    assert sorted_row[5] == fragmented_row[5], "results must match"
    assert int(fragmented_row[2].replace(",", "")) < int(
        sorted_row[2].replace(",", "")
    ), "the fragmented layout must read fewer blocks sequentially"
