"""A statistics-driven join planner.

The paper's summary (end of Section 7) is effectively an optimizer rule:

    "For datasets with only very short tuples (or point data), the
    sort-merge join is the most efficient approach, but it deteriorates
    as soon as the dataset contains a few long-lived tuples.  [In all
    other cases] the OIPJOIN is the most efficient and robust approach."

:class:`JoinPlanner` encodes that rule: it inspects the duration profile
of both inputs and picks the sort-merge join only when *both* relations
are (almost) point data; otherwise it picks the self-adjusting OIPJOIN.

On top of algorithm choice the planner estimates the number of candidate
comparisons the probe phase will perform — ``n_r * n_s`` scaled by the
overlap coverage ``min(1, lambda_r + lambda_s)`` implied by the duration
statistics.  The estimate refuses over-budget plans up front and picks
the partition-pair kernel through
:func:`~repro.core.kernels.choose_kernel` — a pure physical-execution
choice, since every kernel is bit-identical in pairs and counters.

``plan(..., index_path=...)`` points the planner at a persisted index
snapshot (:func:`repro.storage.save_index`): the snapshot's ``stats``
section supplies the duration fractions and cardinalities for all of
the above decisions without scanning the relations, and the path is
threaded into the planned OIPJOIN so execution loads the snapshot
instead of re-partitioning.  A missing or corrupt snapshot costs only
the statistics shortcut — the planner falls back to relation
statistics, and the join itself degrades to an in-memory rebuild.

**Measured costs.**  Given a :class:`~repro.obs.calibrate.Calibration`
(cost constants fitted from this machine's own run reports), the
planner *predicts the latency* of the plan via Equation 2 —
``est_comparisons * c_cpu + est_reads * c_io``, in real milliseconds —
and threads the calibrated weights into the planned OIPJOIN, where they
drive the paper's ``k`` derivation (Equation 2's fixed point).

The chosen algorithm and the reasoning are exposed on the returned
:class:`JoinPlan` so applications can log plan decisions.  Reasoning
strings are built lazily on first access of :attr:`JoinPlan.reason` —
planning happens on every join, and most callers never log the reason,
so the plan object only pays for the format work when someone asks.
"""

from __future__ import annotations

from typing import Callable, Optional, Union

from ..core.base import JoinResult, OverlapJoinAlgorithm
from ..core.join import OIPJoin
from ..core.kernels import KERNELS, choose_kernel, estimate_candidates
from ..core.relation import TemporalRelation
from ..baselines.sort_merge import SortMergeJoin
from ..storage.buffer import BufferPool
from ..storage.device import DeviceProfile

__all__ = ["JoinPlan", "JoinPlanner"]


class JoinPlan:
    """A chosen join algorithm plus the statistics that justified it.

    ``reason`` may be passed as a string or as a zero-argument callable;
    callables are invoked — and the result cached — on first attribute
    access, so discarding an unlogged plan never pays for string
    formatting.  ``repr()`` of a plan is intentionally cheap and does not
    materialise the reason.
    """

    __slots__ = (
        "algorithm",
        "outer_duration_fraction",
        "inner_duration_fraction",
        "estimated_candidates",
        "predicted_ms",
        "_reason",
    )

    def __init__(
        self,
        algorithm: OverlapJoinAlgorithm,
        reason: Union[str, Callable[[], str]],
        outer_duration_fraction: float,
        inner_duration_fraction: float,
        estimated_candidates: float = 0.0,
        predicted_ms: Optional[float] = None,
    ) -> None:
        self.algorithm = algorithm
        self.outer_duration_fraction = outer_duration_fraction
        self.inner_duration_fraction = inner_duration_fraction
        self.estimated_candidates = estimated_candidates
        #: Calibrated latency prediction (ms) for the plan; ``None``
        #: when the planner has no calibration.
        self.predicted_ms = predicted_ms
        self._reason = reason

    @property
    def reason(self) -> str:
        """The human-readable planning rationale (built lazily, cached)."""
        if callable(self._reason):
            self._reason = self._reason()
        return self._reason

    def execute(
        self, outer: TemporalRelation, inner: TemporalRelation
    ) -> JoinResult:
        return self.algorithm.join(outer, inner)

    def __repr__(self) -> str:
        return (
            f"JoinPlan(algorithm={self.algorithm.name!r}, "
            f"lambda_r={self.outer_duration_fraction:.2e}, "
            f"lambda_s={self.inner_duration_fraction:.2e})"
        )


class JoinPlanner:
    """Pick an overlap-join algorithm (and its kernel) from relation
    statistics.

    ``point_threshold`` is the duration fraction (``lambda``) below which
    a relation counts as "point data"; the paper's experiments show the
    sort-merge join losing its edge as soon as maximum durations reach a
    fraction of a percent of the time range, so the default is
    conservative.

    ``kernel`` pins the OIPJOIN's partition-pair join kernel; the
    default ``"auto"`` resolves through
    :func:`~repro.core.kernels.choose_kernel` from the candidate
    estimate.  ``decode_cache_size`` pins the OIPJOIN's decoded-run
    cache capacity (``None``: the library default; ``0`` disables it).
    """

    def __init__(
        self,
        device: Optional[DeviceProfile] = None,
        buffer_pool: Optional[BufferPool] = None,
        point_threshold: float = 1e-5,
        kernel: str = "auto",
        decode_cache_size: Optional[int] = None,
        tracer=None,
        metrics=None,
        collect_report: bool = False,
        calibration=None,
    ) -> None:
        if point_threshold <= 0:
            raise ValueError(
                f"point threshold must be positive, got {point_threshold}"
            )
        if kernel not in ("auto",) + KERNELS:
            raise ValueError(
                f"unknown join kernel {kernel!r}; choose from "
                f"{('auto',) + KERNELS}"
            )
        if decode_cache_size is not None and decode_cache_size < 0:
            raise ValueError(
                f"decode_cache_size must be >= 0 (0 disables the "
                f"cache), got {decode_cache_size}"
            )
        if calibration is not None and not hasattr(calibration, "predict_ms"):
            raise ValueError(
                "calibration must be a repro.obs.calibrate.Calibration "
                f"(or expose predict_ms/to_weights), got "
                f"{type(calibration).__name__}"
            )
        self.device = device
        self.buffer_pool = buffer_pool
        self.point_threshold = point_threshold
        self.kernel = kernel
        self.decode_cache_size = decode_cache_size
        self.tracer = tracer
        self.metrics = metrics
        self.collect_report = collect_report
        #: Measured cost constants (:class:`repro.obs.calibrate
        #: .Calibration`); when set, the plan carries a latency
        #: prediction and the fitted weights drive the OIPJOIN ``k``
        #: derivation.
        self.calibration = calibration

    # ------------------------------------------------------------------

    def _predict_ms(
        self,
        outer: TemporalRelation,
        inner: TemporalRelation,
        estimated: float,
        outer_cardinality: Optional[int] = None,
        inner_cardinality: Optional[int] = None,
    ) -> Optional[float]:
        """Calibrated Equation-2 latency prediction for the plan
        (``None`` without a calibration)."""
        if self.calibration is None:
            return None
        device = (
            self.device
            if self.device is not None
            else DeviceProfile.main_memory()
        )
        n_r = (
            outer_cardinality
            if outer_cardinality is not None
            else outer.cardinality
        )
        n_s = (
            inner_cardinality
            if inner_cardinality is not None
            else inner.cardinality
        )
        est_reads = device.blocks_for_tuples(n_r) + device.blocks_for_tuples(
            n_s
        )
        return self.calibration.predict_ms(2.0 * estimated, est_reads)

    #: Estimated probe-phase candidate comparisons (see
    #: :func:`~repro.core.kernels.estimate_candidates`).
    estimate_candidates = staticmethod(estimate_candidates)

    def _check_budget(
        self,
        budget,
        outer: TemporalRelation,
        inner: TemporalRelation,
        estimated: float,
    ) -> None:
        """Refuse to plan a join whose *estimate* already exceeds the
        budget — failing at plan time beats failing mid-execution.

        The estimate is deliberately optimistic (one scan of each input
        plus two endpoint comparisons per estimated candidate, no
        partitioning overhead), so a refusal means even a best-case
        execution could not fit; plans that pass still carry the budget
        for exact cooperative enforcement at run time.
        """
        from .governor import BudgetExceededError

        device = (
            self.device
            if self.device is not None
            else DeviceProfile.main_memory()
        )
        est_comparisons = 2.0 * estimated
        if (
            budget.max_comparisons is not None
            and est_comparisons > budget.max_comparisons
        ):
            raise BudgetExceededError(
                f"planner estimate: ~{est_comparisons:.3g} candidate "
                f"comparisons exceed max_comparisons="
                f"{budget.max_comparisons}"
            )
        est_reads = device.blocks_for_tuples(
            outer.cardinality
        ) + device.blocks_for_tuples(inner.cardinality)
        if budget.max_block_reads is not None and est_reads > budget.max_block_reads:
            raise BudgetExceededError(
                f"planner estimate: ~{est_reads} block reads exceed "
                f"max_block_reads={budget.max_block_reads}"
            )
        if budget.max_cost is not None:
            weights = (
                budget.weights
                if budget.weights is not None
                else device.weights
            )
            est_cost = (
                est_comparisons * weights.cpu + est_reads * weights.io
            )
            if est_cost > budget.max_cost:
                raise BudgetExceededError(
                    f"planner estimate: ~{est_cost:.3g} cost units exceed "
                    f"max_cost={budget.max_cost}"
                )

    @staticmethod
    def _index_statistics(index_path: str):
        """Read the planner-relevant statistics persisted in an index
        snapshot.  Returns ``(stats, None)`` on success or ``(None,
        reason_slug)`` when the snapshot is missing/corrupt/malformed —
        the planner then falls back to relation statistics and the
        planned OIPJOIN's own degrade path handles the snapshot."""
        from ..storage.snapshot import SnapshotError, read_statistics

        try:
            stats = read_statistics(index_path)["stats"]
            for side in ("outer", "inner"):
                float(stats[side]["duration_fraction"])
                int(stats[side]["cardinality"])
        except SnapshotError as error:
            return None, error.reason
        except (OSError, KeyError, TypeError, ValueError):
            return None, "inconsistent"
        return stats, None

    def plan(
        self,
        outer: TemporalRelation,
        inner: TemporalRelation,
        budget=None,
        index_path: Optional[str] = None,
    ) -> JoinPlan:
        """Choose the algorithm for ``outer JOIN inner``.

        With a :class:`~repro.engine.governor.QueryBudget`, the planner
        first refuses plans whose optimistic cost estimate already
        exceeds the budget (raising :class:`~repro.engine.governor
        .BudgetExceededError` before any work), then threads the budget
        into the planned OIPJOIN for cooperative runtime enforcement.

        ``index_path`` names a persisted index snapshot (see
        :func:`repro.storage.save_index`).  Its ``stats`` section —
        duration fractions and cardinalities recorded at save time —
        replaces the relation scan in the algorithm and kernel
        decisions, and the path is threaded into the planned OIPJOIN so
        execution loads the snapshot instead of re-partitioning (with
        graceful degradation to a rebuild if the snapshot is corrupt).
        A missing or unreadable snapshot only costs the statistics
        shortcut: the planner falls back to relation statistics and
        notes the reason.
        """
        index_stats = None
        index_note = ""
        if index_path is not None:
            index_stats, index_error = self._index_statistics(index_path)
            if index_stats is None:
                index_note = (
                    f"; index statistics unavailable ({index_error}): "
                    "planned from relation statistics"
                )
        if index_stats is not None:
            outer_lambda = float(index_stats["outer"]["duration_fraction"])
            inner_lambda = float(index_stats["inner"]["duration_fraction"])
            coverage = min(1.0, outer_lambda + inner_lambda)
            outer_cardinality = int(index_stats["outer"]["cardinality"])
            inner_cardinality = int(index_stats["inner"]["cardinality"])
            estimated = outer_cardinality * inner_cardinality * coverage
            index_note = "; planned from persisted index statistics"
        else:
            outer_lambda = (
                outer.duration_fraction if not outer.is_empty else 0.0
            )
            inner_lambda = (
                inner.duration_fraction if not inner.is_empty else 0.0
            )
            outer_cardinality = inner_cardinality = None
            estimated = self.estimate_candidates(outer, inner)
        predicted_ms = self._predict_ms(
            outer, inner, estimated, outer_cardinality, inner_cardinality
        )
        if budget is not None:
            self._check_budget(budget, outer, inner, estimated)
        if (
            outer_lambda <= self.point_threshold
            and inner_lambda <= self.point_threshold
        ):
            algorithm: OverlapJoinAlgorithm = SortMergeJoin(
                device=self.device,
                buffer_pool=self.buffer_pool,
                tracer=self.tracer,
                metrics=self.metrics,
                collect_report=self.collect_report,
            )

            def reason() -> str:
                base = (
                    "both inputs are (near-)point data "
                    f"(lambda_r={outer_lambda:.2e}, "
                    f"lambda_s={inner_lambda:.2e} "
                    f"<= {self.point_threshold:.0e}): sort-merge join "
                    "wins on short tuples"
                )
                base += index_note
                if index_path is not None:
                    base += (
                        "; persisted OIP snapshot left unused "
                        "(sort-merge plan)"
                    )
                return base

        else:
            # Pinned explicitly (rather than left "auto") so the plan's
            # reasoning matches exactly what the join will run.
            kernel = (
                choose_kernel(outer, inner, estimated=estimated)
                if self.kernel == "auto"
                else self.kernel
            )
            algorithm = OIPJoin(
                device=self.device,
                buffer_pool=self.buffer_pool,
                kernel=kernel,
                decode_cache_size=self.decode_cache_size,
                budget=budget,
                tracer=self.tracer,
                metrics=self.metrics,
                collect_report=self.collect_report,
                index_path=index_path,
                # Calibrated constants drive the paper's k derivation in
                # place of the device's assumed weights.
                weights=(
                    self.calibration.to_weights()
                    if self.calibration is not None
                    else None
                ),
            )

            def reason() -> str:
                base = (
                    "long-lived tuples present "
                    f"(lambda_r={outer_lambda:.2e}, "
                    f"lambda_s={inner_lambda:.2e}): "
                    "OIPJOIN is robust to long-lived tuples"
                )
                if predicted_ms is not None:
                    base += f"; calibrated prediction {predicted_ms:.1f} ms"
                base += f"; {kernel} kernel"
                if self.kernel != "auto":
                    base += " (pinned)"
                base += index_note
                if index_path is not None and index_note.endswith(
                    "persisted index statistics"
                ):
                    base += "; execution loads the snapshot"
                return base

        return JoinPlan(
            algorithm=algorithm,
            reason=reason,
            outer_duration_fraction=outer_lambda,
            inner_duration_fraction=inner_lambda,
            estimated_candidates=estimated,
            predicted_ms=predicted_ms,
        )

    def join(
        self,
        outer: TemporalRelation,
        inner: TemporalRelation,
        budget=None,
        index_path: Optional[str] = None,
    ) -> JoinResult:
        """Plan and execute in one call."""
        plan = self.plan(outer, inner, budget=budget, index_path=index_path)
        return plan.execute(outer, inner)
