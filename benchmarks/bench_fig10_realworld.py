"""Figure 10: runtime and AFR on the three real-world datasets
(stand-ins), varying the size of the outer relation from 25% to 100% of
the dataset while the inner relation is the full dataset.

The paper samples the outer relation from the dataset itself; we use a
systematic sample (every n-th tuple) so the temporal distribution is
preserved.  Expected shape per dataset: the OIPJOIN fastest, the loose
quadtree with by far the worst AFR, and sort-merge competitive only
because a large share of each dataset is short-lived.
"""

import pytest

from repro.workloads import DATASET_GENERATORS

from .common import heading, paper_algorithm, run_contenders, scaled, table

CONTENDERS = ("oip", "lqt", "rit", "sgt", "smj")
CARDINALITY = {"incumbent": 2_500, "feed": 2_500, "webkit": 2_500}
OUTER_PERCENTS = (25, 50, 75, 100)


@pytest.mark.parametrize("dataset", sorted(DATASET_GENERATORS))
def test_fig10_dataset(benchmark, dataset):
    inner = DATASET_GENERATORS[dataset](
        cardinality=scaled(CARDINALITY[dataset]), seed=0, name=dataset
    )

    def sweep():
        rows = []
        for percent in OUTER_PERCENTS:
            step = max(1, round(100 / percent))
            outer = inner.sample_every(step, name=f"{dataset}-{percent}%")
            results = run_contenders(
                {name: paper_algorithm(name) for name in CONTENDERS},
                outer,
                inner,
            )
            row = [f"{percent}%"]
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
        f"Figure 10 — {dataset}: runtime / AFR vs outer size "
        f"(inner n = {len(inner):,}; paper uses the full dataset)"
    )
    table(["outer size"] + list(CONTENDERS), rows)
