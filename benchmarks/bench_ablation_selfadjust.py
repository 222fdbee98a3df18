"""Ablation: self-adjusting k vs pinned k (Section 6.2).

The OIPJOIN's headline feature is deriving k from the data and the cost
weights.  This bench pits the self-adjusted k against a grid of fixed
values on the same workload and reports where the self-adjusted run
lands: its modelled cost must be within a small factor of the best fixed
k (the cost function is flat around its minimum — Figure 7's message).
"""

from repro.core.granules import cost_model_for
from repro.core.interval import Interval
from repro.core.join import OIPJoin
from repro.storage.metrics import CostWeights
from repro.workloads import long_lived_mixture

from .common import emit, heading, scaled, table, timed_join

N = 2_500
TIME_RANGE = Interval(1, 2**20)
FIXED_KS = (2, 8, 32, 128, 512)


def test_ablation_self_adjusting_k(benchmark):
    outer = long_lived_mixture(
        scaled(N) // 5, 0.3, TIME_RANGE, seed=1, name="r"
    )
    inner = long_lived_mixture(scaled(N), 0.3, TIME_RANGE, seed=2, name="s")
    model = cost_model_for(outer, inner)

    def run():
        rows = []
        auto_result, auto_elapsed = timed_join(
            OIPJoin(weights=CostWeights.main_memory()), outer, inner
        )
        auto_k = auto_result.details["k"]
        rows.append(
            (
                "self-adjusted",
                auto_k,
                f"{model.overhead_cost(auto_k):,.0f}",
                f"{auto_elapsed * 1e3:.1f} ms",
            )
        )
        for k in FIXED_KS:
            result, elapsed = timed_join(OIPJoin(k=k), outer, inner)
            rows.append(
                (
                    "fixed",
                    k,
                    f"{model.overhead_cost(k):,.0f}",
                    f"{elapsed * 1e3:.1f} ms",
                )
            )
        return rows, auto_k

    rows, auto_k = benchmark.pedantic(run, rounds=1, iterations=1)
    heading(
        "Ablation (self-adjustment) — derived k vs fixed k "
        f"(n_r = {scaled(N) // 5:,}, n_s = {scaled(N):,}, 30% long-lived)"
    )
    table(["mode", "k", "modelled cost", "runtime"], rows)

    auto_cost = model.overhead_cost(auto_k)
    best_fixed = min(model.overhead_cost(k) for k in FIXED_KS)
    emit(
        f"self-adjusted k = {auto_k}: modelled cost within "
        f"x{auto_cost / best_fixed:.2f} of the best fixed candidate"
    )
    assert auto_cost <= best_fixed * 1.25
