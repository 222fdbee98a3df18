"""Tests for the statistics-driven join planner."""

import pytest

from repro.core.interval import Interval
from repro.engine.planner import JoinPlanner
from repro.workloads import long_lived_mixture, point_relation
from tests.conftest import oracle_pairs


class TestPlanSelection:
    def test_point_data_picks_sort_merge(self):
        planner = JoinPlanner()
        outer = point_relation(100, seed=1)
        inner = point_relation(100, seed=2)
        plan = planner.plan(outer, inner)
        assert plan.algorithm.name == "smj"
        assert "point data" in plan.reason

    def test_long_lived_data_picks_oip(self):
        planner = JoinPlanner()
        range_ = Interval(1, 2**16)
        outer = long_lived_mixture(100, 0.5, range_, seed=1)
        inner = long_lived_mixture(100, 0.5, range_, seed=2)
        plan = planner.plan(outer, inner)
        assert plan.algorithm.name == "oip"
        assert "long-lived" in plan.reason

    def test_one_long_lived_side_is_enough(self):
        """The paper: smj 'deteriorates as soon as the dataset contains
        a few long-lived tuples'."""
        planner = JoinPlanner()
        range_ = Interval(1, 2**16)
        outer = point_relation(100, range_, seed=1)
        inner = long_lived_mixture(100, 0.2, range_, seed=2)
        assert planner.plan(outer, inner).algorithm.name == "oip"

    def test_plan_records_statistics(self):
        planner = JoinPlanner()
        outer = point_relation(50, seed=3)
        inner = point_relation(50, seed=4)
        plan = planner.plan(outer, inner)
        assert plan.outer_duration_fraction > 0.0
        assert plan.inner_duration_fraction > 0.0

    def test_threshold_configurable(self):
        range_ = Interval(1, 1000)
        outer = long_lived_mixture(100, 0.0, range_, seed=5)
        inner = long_lived_mixture(100, 0.0, range_, seed=6)
        strict = JoinPlanner(point_threshold=1e-9)
        lax = JoinPlanner(point_threshold=1.0)
        assert strict.plan(outer, inner).algorithm.name == "oip"
        assert lax.plan(outer, inner).algorithm.name == "smj"

    def test_invalid_threshold_rejected(self):
        with pytest.raises(ValueError):
            JoinPlanner(point_threshold=0.0)


class TestLazyReasoning:
    def test_reason_not_built_until_accessed(self):
        """Plans are created on every join and usually discarded without
        logging; the reasoning string must not be formatted eagerly."""
        from repro.core.join import OIPJoin
        from repro.engine.planner import JoinPlan

        calls = []

        def factory():
            calls.append(1)
            return "because"

        plan = JoinPlan(
            algorithm=OIPJoin(),
            reason=factory,
            outer_duration_fraction=0.1,
            inner_duration_fraction=0.2,
        )
        assert calls == []
        assert plan.reason == "because"
        assert calls == [1]
        assert plan.reason == "because"  # cached, not rebuilt
        assert calls == [1]

    def test_repr_is_cheap(self):
        """repr() must not materialise the reason string."""
        from repro.core.join import OIPJoin
        from repro.engine.planner import JoinPlan

        calls = []

        def factory():
            calls.append(1)
            return "expensive"

        plan = JoinPlan(
            algorithm=OIPJoin(),
            reason=factory,
            outer_duration_fraction=0.25,
            inner_duration_fraction=0.5,
        )
        text = repr(plan)
        assert calls == []
        assert "oip" in text
        assert "2.50e-01" in text and "5.00e-01" in text

    def test_plain_string_reason_still_works(self):
        from repro.core.join import OIPJoin
        from repro.engine.planner import JoinPlan

        plan = JoinPlan(
            algorithm=OIPJoin(),
            reason="fixed",
            outer_duration_fraction=0.0,
            inner_duration_fraction=0.0,
        )
        assert plan.reason == "fixed"

    def test_planned_reasons_unchanged(self):
        """The lazily built strings match the former eager wording."""
        planner = JoinPlanner()
        range_ = Interval(1, 2**16)
        outer = long_lived_mixture(100, 0.5, range_, seed=1)
        inner = long_lived_mixture(100, 0.5, range_, seed=2)
        assert "long-lived" in planner.plan(outer, inner).reason
        points = point_relation(100, seed=1), point_relation(100, seed=2)
        assert "point data" in planner.plan(*points).reason


class TestExecution:
    def test_planned_join_is_correct(self, paper_r, paper_s):
        result = JoinPlanner().join(paper_r, paper_s)
        assert result.pair_keys() == oracle_pairs(paper_r, paper_s)

    def test_plan_execute_separately(self):
        planner = JoinPlanner()
        outer = point_relation(60, seed=7)
        inner = point_relation(60, seed=8)
        plan = planner.plan(outer, inner)
        result = plan.execute(outer, inner)
        assert result.pair_keys() == oracle_pairs(outer, inner)

    def test_empty_relations(self, paper_s):
        from repro import TemporalRelation

        result = JoinPlanner().join(TemporalRelation([]), paper_s)
        assert result.pairs == []


class TestIndexStatistics:
    """Planning from a persisted snapshot's statistics section."""

    @pytest.fixture
    def indexed(self, tmp_path):
        from repro.storage import save_index

        outer = long_lived_mixture(300, 0.3, Interval(1, 20_000), seed=71)
        inner = long_lived_mixture(300, 0.3, Interval(1, 20_000), seed=72)
        path = str(tmp_path / "plan.oip")
        save_index(path, outer, inner)
        return path, outer, inner

    def test_same_decision_as_relation_statistics(self, indexed):
        path, outer, inner = indexed
        planner = JoinPlanner()
        base = planner.plan(outer, inner)
        plan = planner.plan(outer, inner, index_path=path)
        # Persisted statistics were recorded from these relations, so
        # every decision input matches the relation-scan path.
        assert plan.outer_duration_fraction == base.outer_duration_fraction
        assert plan.inner_duration_fraction == base.inner_duration_fraction
        assert plan.estimated_candidates == base.estimated_candidates
        assert type(plan.algorithm) is type(base.algorithm)
        assert plan.algorithm.index_path == path
        assert "persisted index statistics" in plan.reason

    def test_execution_loads_snapshot(self, indexed):
        path, outer, inner = indexed
        plan = JoinPlanner().plan(outer, inner, index_path=path)
        result = plan.execute(outer, inner)
        assert result.details["index"]["loaded"] is True
        baseline = JoinPlanner().join(outer, inner)
        assert result.pairs == baseline.pairs
        assert result.counters.snapshot() == baseline.counters.snapshot()

    def test_missing_snapshot_falls_back(self, indexed, tmp_path):
        path, outer, inner = indexed
        missing = str(tmp_path / "missing.oip")
        planner = JoinPlanner()
        plan = planner.plan(outer, inner, index_path=missing)
        base = planner.plan(outer, inner)
        assert plan.estimated_candidates == base.estimated_candidates
        assert "index statistics unavailable (missing)" in plan.reason
        # Execution still answers, through the join's degrade path.
        result = plan.execute(outer, inner)
        assert result.details["index"]["loaded"] is False
        assert result.pairs == planner.join(outer, inner).pairs

    def test_point_data_plan_ignores_index(self, indexed, tmp_path):
        path, _, _ = indexed
        outer = point_relation(80, seed=73)
        inner = point_relation(80, seed=74)
        # Index statistics describe mixture data, so the planner will
        # not pick sort-merge from them; without them it does.  Use a
        # corrupt path to force relation statistics.
        plan = JoinPlanner().plan(
            outer, inner, index_path=str(tmp_path / "gone.oip")
        )
        assert "sort-merge" in plan.reason
        assert "left unused" in plan.reason


class TestCalibratedPlanning:
    """Measured-cost planning: a calibration sets the plan's prediction
    and the weights of its k derivation."""

    def _mixture_pair(self, n):
        range_ = Interval(1, 2**16)
        return (
            long_lived_mixture(n, 0.5, range_, seed=9),
            long_lived_mixture(n, 0.5, range_, seed=10),
        )

    def _calibration(self, cpu_ms, io_ms):
        from repro.obs.calibrate import Calibration

        return Calibration(
            cpu_ms=cpu_ms,
            io_ms=io_ms,
            r_squared=1.0,
            samples=4,
            residual_rms_ms=0.0,
        )

    def test_uncalibrated_plan_has_no_prediction(self):
        plan = JoinPlanner().plan(*self._mixture_pair(100))
        assert plan.predicted_ms is None

    def test_calibration_sets_the_prediction(self):
        """Identical workload and planner knobs, only the measured
        constants differ — and the plan's latency prediction follows."""
        outer, inner = self._mixture_pair(300)
        slow_plan = JoinPlanner(
            calibration=self._calibration(0.01, 0.5)
        ).plan(outer, inner)
        fast_plan = JoinPlanner(
            calibration=self._calibration(1e-9, 1e-7)
        ).plan(outer, inner)
        assert slow_plan.predicted_ms > fast_plan.predicted_ms > 0.0
        assert "calibrated prediction" in slow_plan.reason

    def test_calibrated_weights_reach_the_algorithm(self):
        from repro.storage.metrics import CostWeights

        plan = JoinPlanner(
            calibration=self._calibration(0.01, 0.5)
        ).plan(*self._mixture_pair(100))
        assert plan.algorithm.name == "oip"
        assert plan.algorithm.weights == CostWeights(cpu=0.01, io=0.5)

    def test_calibrated_plan_executes_identically(self):
        from repro.core.join import OIPJoin

        outer, inner = self._mixture_pair(150)
        baseline = OIPJoin().join(outer, inner)
        plan = JoinPlanner(
            calibration=self._calibration(0.01, 0.5)
        ).plan(outer, inner)
        result = plan.execute(outer, inner)
        # Calibrated weights change k (and thus emission order), never
        # the joined pair set.
        assert sorted(result.pair_keys()) == sorted(baseline.pair_keys())

    def test_invalid_calibration_rejected(self):
        with pytest.raises(ValueError, match="calibration"):
            JoinPlanner(calibration=object())
