"""Figure 8: long-lived tuples.

(a) runtime and AFR of oip / lqt / rit / sgt / smj while the share of
    long-lived tuples (duration up to 8% of the range, average 4%)
    sweeps from 0% to 100%;
(b) the same while the maximum tuple duration sweeps from ~0% to 10%.

The paper's message: the OIPJOIN's false hits stay near zero and its
runtime flat, the loose quadtree's AFR explodes, the relational interval
tree and segment tree pay ever more index work (sgt worst), and the
sort-merge join degrades with the longest duration.
"""

import pytest

from repro.core.interval import Interval
from repro.workloads import long_lived_mixture, uniform_relation

from .common import (
    emit,
    heading,
    paper_algorithm,
    run_contenders,
    scaled,
    structural_afr_lqt,
    structural_afr_oip,
    table,
)

CONTENDERS = ("oip", "lqt", "rit", "sgt", "smj")
N = 1_200
TIME_RANGE = Interval(1, 2**20)

LONG_SHARES = (0, 25, 50, 75, 100)
MAX_DURATIONS = (0.001, 0.02, 0.04, 0.06, 0.08, 0.10)


def _factories():
    return {name: paper_algorithm(name) for name in CONTENDERS}


def test_fig8a_share_of_long_lived(benchmark):
    def sweep():
        rows = []
        for share in LONG_SHARES:
            outer = long_lived_mixture(
                scaled(N), share / 100, TIME_RANGE, seed=1, name="r"
            )
            inner = long_lived_mixture(
                scaled(N), share / 100, TIME_RANGE, seed=2, name="s"
            )
            results = run_contenders(_factories(), outer, inner)
            row = [f"{share}%"]
            for name in CONTENDERS:
                result, elapsed = results[name]
                row.append(
                    f"{elapsed * 1e3:6.0f}ms/"
                    f"{result.false_hit_ratio * 100:5.1f}%"
                )
            rows.append(row)
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    heading(
        "Figure 8(a) — runtime / AFR vs share of long-lived tuples "
        f"(n = {scaled(N):,} per relation; paper: 10M)"
    )
    table(["long-lived"] + list(CONTENDERS), rows)


def test_fig8b_max_duration(benchmark):
    def sweep():
        rows = []
        for fraction in MAX_DURATIONS:
            outer = uniform_relation(
                scaled(N), TIME_RANGE, fraction, seed=3, name="r"
            )
            inner = uniform_relation(
                scaled(N), TIME_RANGE, fraction, seed=4, name="s"
            )
            results = run_contenders(_factories(), outer, inner)
            row = [f"{fraction * 100:.1f}%"]
            for name in CONTENDERS:
                result, elapsed = results[name]
                row.append(
                    f"{elapsed * 1e3:6.0f}ms/"
                    f"{result.false_hit_ratio * 100:5.1f}%"
                )
            rows.append(row)
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    heading(
        "Figure 8(b) — runtime / AFR vs maximum tuple duration "
        f"(n = {scaled(N):,} per relation; paper: 10M)"
    )
    table(["max duration"] + list(CONTENDERS), rows)


def test_fig8a_structural_afr(benchmark):
    """The AFR panel of Figure 8(a) proper: Definition-5 AFR of the
    built partitionings (sampled point queries), which is independent of
    the result density that distorts the operational ratio at reduced
    scale.  Paper shape: oip flat near its 1/k bound, lqt rising
    drastically with the long-lived share."""

    def sweep():
        rows = []
        for share in LONG_SHARES:
            inner = long_lived_mixture(
                scaled(4 * N), share / 100, TIME_RANGE, seed=2, name="s"
            )
            oip_afr, k = structural_afr_oip(inner)
            lqt_afr = structural_afr_lqt(inner)
            rows.append(
                (
                    f"{share}%",
                    f"{oip_afr * 100:.3f}%",
                    f"{100 / k:.3f}% (k={k})",
                    f"{lqt_afr * 100:.3f}%",
                )
            )
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    heading(
        "Figure 8(a) AFR panel — Definition-5 AFR of the partitioning "
        f"(n = {scaled(4 * N):,}, sampled point queries)"
    )
    table(
        ["long-lived", "oip AFR", "Theorem-1 bound 1/k", "lqt AFR"], rows
    )
    emit(
        "expected paper shape: oip flat and below its bound; lqt rises "
        "with the long-lived share"
    )


@pytest.mark.parametrize("name", CONTENDERS)
def test_fig8_single_algorithm_timing(benchmark, name):
    """Per-algorithm timing point for pytest-benchmark's comparison
    table (50% long-lived, the middle of the Figure 8(a) sweep)."""
    outer = long_lived_mixture(
        scaled(N), 0.5, TIME_RANGE, seed=1, name="r"
    )
    inner = long_lived_mixture(
        scaled(N), 0.5, TIME_RANGE, seed=2, name="s"
    )
    benchmark.pedantic(
        lambda: paper_algorithm(name)().join(outer, inner),
        rounds=1,
        iterations=1,
    )
