"""Integration tests: full pipelines across workloads, storage, joins,
analysis and the query engine."""

import ast
from pathlib import Path

import pytest

from repro import OIPJoin, TemporalRelation
from repro.analysis import (
    apa_bound,
    average_false_hit_ratio,
    measured_tightening_factor,
    partition_views_from_lazy_list,
    theoretical_afr_bound,
)
from repro.baselines import ALGORITHMS
from repro.core.lazy_list import oip_create
from repro.core.oip import OIPConfiguration
from repro.engine import (
    JoinPlanner,
    OverlapJoinOperator,
    ScanOperator,
    overlaps_at_least,
)
from repro.storage import BufferPool, CostWeights, DeviceProfile
from repro.workloads import (
    incumbent_standin,
    long_lived_mixture,
    uniform_relation,
)
from tests.conftest import oracle_pairs


class TestAllAlgorithmsOnWorkloads:
    """Every algorithm, on every workload family, equals the oracle."""

    @pytest.fixture(scope="class")
    def workloads(self):
        from repro.core.interval import Interval

        range_ = Interval(1, 2**14)
        return {
            "uniform": (
                uniform_relation(120, range_, 0.01, seed=1, name="r"),
                uniform_relation(150, range_, 0.01, seed=2, name="s"),
            ),
            "long-lived": (
                long_lived_mixture(120, 0.5, range_, seed=3, name="r"),
                long_lived_mixture(150, 0.5, range_, seed=4, name="s"),
            ),
            "incumbent": (
                incumbent_standin(cardinality=100, seed=5, name="r"),
                incumbent_standin(cardinality=150, seed=6, name="s"),
            ),
        }

    @pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
    @pytest.mark.parametrize(
        "workload", ["uniform", "long-lived", "incumbent"]
    )
    def test_correct_on_workload(self, algorithm, workload, workloads):
        outer, inner = workloads[workload]
        result = ALGORITHMS[algorithm]().join(outer, inner)
        assert result.pair_keys() == oracle_pairs(outer, inner)

    @pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
    def test_correct_on_disk_profile_with_small_buffer(
        self, algorithm, workloads
    ):
        outer, inner = workloads["uniform"]
        join = ALGORITHMS[algorithm](
            device=DeviceProfile.disk(),
            buffer_pool=BufferPool(capacity_blocks=8),
        )
        result = join.join(outer, inner)
        assert result.pair_keys() == oracle_pairs(outer, inner)


class TestAnalysisAgreesWithExecution:
    """The Section 5 theory holds on generated data end to end."""

    def test_afr_bound_on_realistic_workload(self):
        relation = uniform_relation(400, max_duration_fraction=0.02, seed=9)
        for k in (4, 16, 64):
            config = OIPConfiguration.for_relation(relation, k)
            built = oip_create(relation, config)
            views = partition_views_from_lazy_list(built)
            # Sampled Definition-5 AFR (a full point sweep over 2^24
            # positions is too slow): average |F(P, [x, x])| / n over
            # random positions.  Theorem 1 proves < 1/k for duration-
            # complete relations; sparse uniform data stays well below.
            afr = self._sampled_afr(views, relation, samples=300)
            assert afr < theoretical_afr_bound(k)

    @staticmethod
    def _sampled_afr(views, relation, samples):
        import random

        from repro.analysis.afr import false_hits
        from repro.core.interval import Interval

        rng = random.Random(0)
        span = relation.time_range
        total_false = 0
        for _ in range(samples):
            x = rng.randint(span.start, span.end)
            total_false += len(false_hits(views, Interval(x, x)))
        return total_false / samples / relation.cardinality

    def test_apa_bound_on_realistic_workload(self):
        relation = uniform_relation(400, max_duration_fraction=0.02, seed=10)
        k = 32
        config = OIPConfiguration.for_relation(relation, k)
        built = oip_create(relation, config)
        tau = measured_tightening_factor(built)
        total = 0
        count = 0
        for e in range(k):
            for s in range(e + 1):
                total += sum(1 for _ in built.iter_relevant(s, e))
                count += 1
        assert total / count <= apa_bound(k, tau, len(relation)) + 1e-9


class TestQuerySurface:
    def test_motivating_example_full_pipeline(self):
        """The Section 1 query: employees employed >= 5 months while a
        project is ongoing, via planner-chosen join and refinement."""
        employees = TemporalRelation.from_records(
            [(1, 400, "ann"), (100, 130, "bob"), (390, 420, "cho")],
            name="employees",
        )
        projects = TemporalRelation.from_records(
            [(80, 280, "apollo"), (410, 800, "gemini")],
            name="projects",
        )
        query = OverlapJoinOperator(
            ScanOperator(employees),
            ScanOperator(projects),
            algorithm=JoinPlanner().plan(employees, projects).algorithm,
        ).refine(overlaps_at_least(5 * 30))
        rows = query.execute()
        assert [(a.payload, b.payload) for a, b, _ in rows] == [
            ("ann", "apollo")
        ]

    def test_month_scale_quickstart(self, paper_r, paper_s):
        """The README quickstart shape: join and read shared intervals."""
        rows = OverlapJoinOperator(
            ScanOperator(paper_r), ScanOperator(paper_s)
        ).execute()
        assert len(rows) == 8
        for outer_tuple, inner_tuple, shared in rows:
            assert shared.duration >= 1
            assert outer_tuple.interval.contains(shared)
            assert inner_tuple.interval.contains(shared)

    def test_readme_quickstart_prints_its_documented_output(self, capsys):
        """The README Quickstart snippet, run verbatim, prints exactly
        the output its comments document: one ``# line`` per printed
        line, and a ``# {...}`` dict wrapped over several comment
        lines per printed dict."""
        readme = (Path(__file__).parents[2] / "README.md").read_text()
        section = readme.split("\n## Quickstart\n", 1)[1]
        snippet = section.split("```python\n", 1)[1].split("```", 1)[0]
        documented = []
        for line in snippet.splitlines():
            if not line.startswith("# "):
                continue
            text = line[2:].strip()
            if documented and documented[-1].startswith("{") and not (
                documented[-1].endswith("}")
            ):
                documented[-1] += " " + text
            else:
                documented.append(text)

        exec(compile(snippet, "README.md", "exec"), {})
        printed = capsys.readouterr().out.splitlines()

        assert len(printed) == len(documented) == 5
        for out, doc in zip(printed, documented):
            if doc.startswith("{"):
                assert ast.literal_eval(out) == ast.literal_eval(doc)
            else:
                assert out == doc


class TestCostComparability:
    """Counters are comparable across algorithms on the same input."""

    def test_oip_beats_lqt_on_long_lived_modelled_cost(self):
        from repro.core.interval import Interval

        range_ = Interval(1, 2**16)
        outer = long_lived_mixture(400, 0.5, range_, seed=11, name="r")
        inner = long_lived_mixture(400, 0.5, range_, seed=12, name="s")
        weights = CostWeights.main_memory()
        # OIP derives k from the weights it is judged by (the paper's).
        oip = ALGORITHMS["oip"](weights=weights).join(outer, inner)
        lqt = ALGORITHMS["lqt"]().join(outer, inner)
        assert oip.modelled_cost(weights) < lqt.modelled_cost(weights)

    def test_smj_wins_on_point_data(self):
        from repro.workloads import point_relation

        outer = point_relation(400, seed=13, name="r")
        inner = point_relation(400, seed=14, name="s")
        weights = CostWeights.main_memory()
        smj = ALGORITHMS["smj"]().join(outer, inner)
        oip = ALGORITHMS["oip"]().join(outer, inner)
        assert smj.modelled_cost(weights) < oip.modelled_cost(weights)
