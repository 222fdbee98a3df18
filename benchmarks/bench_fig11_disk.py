"""Figure 11: disk-resident data — block IOs, AFR and runtime while the
inner cardinality grows, under a large OS cache (the paper's 64-GB
server, panel (c)) and a small one (the 4-GB server, panel (d)).

Setup mirrors the paper: the outer relation is 1% of the inner, tuple
durations up to 0.1% of the time range, c_io 200x c_cpu, 4-KB blocks.
Expected shape: the loose quadtree needs the fewest device reads but
burns CPU on false hits; the OIPJOIN reads mostly sequentially and
degrades least when the cache shrinks; the segment tree is worst on IO
(duplicate fetches).
"""

import pytest

from repro.storage import BufferPool, DeviceProfile, UnboundedBufferPool
from repro.workloads import scaling_pair

from .common import heading, paper_algorithm, run_contenders, scaled, table

CONTENDERS = ("oip", "lqt", "sgt", "smj")
INNER_SIZES = (4_000, 8_000, 16_000)
SMALL_CACHE_BLOCKS = 8

CACHES = {
    "64GB-server (unbounded cache)": UnboundedBufferPool,
    f"4GB-server ({SMALL_CACHE_BLOCKS}-block LRU)": (
        lambda: BufferPool(SMALL_CACHE_BLOCKS)
    ),
}


@pytest.mark.parametrize("cache_label", list(CACHES), ids=["64GB", "4GB"])
def test_fig11_scaling(benchmark, cache_label):
    cache_factory = CACHES[cache_label]

    def sweep():
        rows = []
        for inner_n in INNER_SIZES:
            outer, inner = scaling_pair(
                scaled(inner_n),
                outer_percent=1.0,
                max_duration_fraction=0.001,
                seed=5,
            )
            factories = {
                name: (
                    lambda name=name: paper_algorithm(name)(
                        device=DeviceProfile.disk(),
                        buffer_pool=cache_factory(),
                    )
                )
                for name in CONTENDERS
            }
            results = run_contenders(factories, outer, inner)
            for name in CONTENDERS:
                result, elapsed = results[name]
                counters = result.counters
                rows.append(
                    (
                        f"{scaled(inner_n):,}",
                        name,
                        f"{counters.block_reads:,}",
                        f"{counters.sequential_reads:,}",
                        f"{counters.random_reads:,}",
                        f"{result.false_hit_ratio * 100:.1f}%",
                        f"{elapsed * 1e3:.0f}",
                    )
                )
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    heading(
        f"Figure 11 — disk-resident scaling, {cache_label} "
        "(outer = 1% of inner, durations <= 0.1%, c_io/c_cpu = 200)"
    )
    table(
        [
            "inner n",
            "algo",
            "device reads",
            "sequential",
            "random",
            "AFR",
            "runtime ms",
        ],
        rows,
    )
