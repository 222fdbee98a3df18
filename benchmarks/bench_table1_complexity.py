"""Table 1: runtime growth of the OIPJOIN and the sort-merge join when
doubling both inputs, at the lower bound (maximal tightening, short
tuples) and upper bound (no tightening, duration-complete-like data).

The paper reports growth factors of x2.61 (OIP LB), x3.28 (OIP UB),
x2.06 (SMJ LB) and x4.00 (SMJ UB) against predicted 2.52 / 3.03 / 2 /
4.  We reproduce the workload regimes at reduced scale and print
measured growth next to the Section 6.3 predictions.
"""

import functools

import pytest

from repro.analysis.complexity import (
    OIP_LOWER,
    OIP_UPPER,
    SMJ_LOWER,
    SMJ_UPPER,
    growth_factor,
)
from repro.baselines.sort_merge import SortMergeJoin
from repro.core.interval import Interval
from repro.core.join import OIPJoin
from repro.storage.metrics import CostWeights
from repro.workloads import uniform_relation

from .common import emit, heading, scaled, table, timed_join

#: The OIPJOIN with ``k`` derived from the paper's weights.
PAPER_OIP = functools.partial(OIPJoin, weights=CostWeights.main_memory())

BASE_N = 2_000
BASE_N_UB = 700
TIME_RANGE = Interval(1, 2**22)


def _workload(n: int, regime: str, seed: int):
    if regime == "lb":
        # Maximal tightening: tiny durations concentrate tuples on the
        # diagonal partitions (tau ~ 1/k).
        fraction = 1e-6
    else:
        # No tightening: durations up to the whole range use every
        # partition length (tau ~ 1).
        fraction = 1.0
    return (
        uniform_relation(n, TIME_RANGE, fraction, seed=seed, name="r"),
        uniform_relation(n, TIME_RANGE, fraction, seed=seed + 1, name="s"),
    )


@functools.lru_cache(maxsize=None)
def _measure(algorithm_factory, regime: str):
    base = BASE_N if regime == "lb" else BASE_N_UB
    small = _workload(scaled(base), regime, seed=1)
    large = _workload(scaled(base) * 2, regime, seed=3)
    _, t_small = timed_join(algorithm_factory(), *small)
    _, t_large = timed_join(algorithm_factory(), *large)
    return t_small, t_large


@pytest.mark.parametrize(
    "label,factory,regime,bound",
    [
        ("OIPJOIN LB (tau~1/k)", PAPER_OIP, "lb", OIP_LOWER),
        ("OIPJOIN UB (tau=1)", PAPER_OIP, "ub", OIP_UPPER),
        ("SMJ LB", SortMergeJoin, "lb", SMJ_LOWER),
        ("SMJ UB", SortMergeJoin, "ub", SMJ_UPPER),
    ],
    ids=["oip-lb", "oip-ub", "smj-lb", "smj-ub"],
)
def test_table1_growth(benchmark, label, factory, regime, bound):
    base = BASE_N if regime == "lb" else BASE_N_UB
    small = _workload(scaled(base), regime, seed=1)
    benchmark.pedantic(
        lambda: factory().join(*small), rounds=1, iterations=1
    )
    t_small, t_large = _measure(factory, regime)
    measured = t_large / t_small if t_small > 0 else float("nan")
    predicted = growth_factor(bound)
    emit(
        f"[table 1] {label:<22} n={scaled(base):,} -> "
        f"{2 * scaled(base):,}: runtime x{measured:.2f} "
        f"(paper prediction x{predicted:.2f})"
    )


def test_table1_summary(benchmark):
    """Print the full Table 1 analogue in one place."""

    def build():
        rows = []
        for label, factory, regime, bound in [
            ("OIPJOIN: LB (tau~1/k)", PAPER_OIP, "lb", OIP_LOWER),
            ("OIPJOIN: UB (tau=1)", PAPER_OIP, "ub", OIP_UPPER),
            ("SMJ: LB", SortMergeJoin, "lb", SMJ_LOWER),
            ("SMJ: UB", SortMergeJoin, "ub", SMJ_UPPER),
        ]:
            t_small, t_large = _measure(factory, regime)
            rows.append(
                (
                    label,
                    f"{t_small * 1e3:.1f} ms",
                    f"{t_large * 1e3:.1f} ms",
                    f"x{t_large / t_small:.2f}",
                    f"x{growth_factor(bound):.2f}",
                )
            )
        return rows

    rows = benchmark.pedantic(build, rounds=1, iterations=1)
    heading(
        "Table 1 — runtime and factor of runtime increase "
        f"(LB n = {scaled(BASE_N):,}, UB n = {scaled(BASE_N_UB):,}, "
        "each doubled; paper: 5M vs 10M)"
    )
    table(
        ["algorithm / bound", "n", "2n", "measured", "predicted"],
        rows,
    )
