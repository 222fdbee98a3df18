"""repro — Overlap Interval Partition Join (SIGMOD 2014 reproduction).

A production-quality Python implementation of Overlap Interval
Partitioning (OIP) and the self-adjusting OIPJOIN from

    Anton Dignös, Michael H. Böhlen, Johann Gamper:
    "Overlap Interval Partition Join", SIGMOD 2014.

together with every baseline the paper evaluates against (loose quadtree,
quadtree, relational interval tree, segment tree, sort-merge join), the
block-storage cost substrate, workload generators, and the analytical
AFR/APA machinery.

Quickstart::

    from repro import TemporalRelation, OIPJoin

    employees = TemporalRelation.from_records(
        [(5, 11, "ann"), (1, 3, "bob")], name="employees"
    )
    projects = TemporalRelation.from_records(
        [(2, 7, "apollo"), (9, 12, "gemini")], name="projects"
    )
    result = OIPJoin().join(employees, projects)
    for employee, project in result.pairs:
        print(employee.payload, "worked during", project.payload)
"""

from .core import (
    DurationHistogram,
    EmptyRelationError,
    HistogramCostModel,
    IncrementalOIP,
    Interval,
    IntervalError,
    JoinCostModel,
    JoinResult,
    KDerivation,
    LazyPartitionList,
    OIPConfiguration,
    OIPJoin,
    OverlapJoinAlgorithm,
    TemporalRelation,
    TemporalTuple,
    cost_model_for,
    derive_k,
    histogram_cost_model,
    oip_create,
)
from .engine.governor import (
    AdmissionController,
    AdmissionRejectedError,
    BudgetExceededError,
    CancellationToken,
    QueryBudget,
    QueryCancelledError,
    QueryCheckpoint,
)
from .obs import (
    JsonlSink,
    MetricsRegistry,
    NULL_TRACER,
    Tracer,
    build_report,
    compare_reports,
    load_report,
    write_report,
)
from .storage import (
    BufferPool,
    CostCounters,
    CostWeights,
    DeviceProfile,
    StorageManager,
)

__version__ = "1.0.0"

__all__ = [
    "Interval",
    "IntervalError",
    "TemporalRelation",
    "TemporalTuple",
    "EmptyRelationError",
    "OIPConfiguration",
    "LazyPartitionList",
    "oip_create",
    "OIPJoin",
    "IncrementalOIP",
    "DurationHistogram",
    "HistogramCostModel",
    "histogram_cost_model",
    "JoinResult",
    "OverlapJoinAlgorithm",
    "JoinCostModel",
    "KDerivation",
    "derive_k",
    "cost_model_for",
    "DeviceProfile",
    "BufferPool",
    "StorageManager",
    "CostCounters",
    "CostWeights",
    "QueryBudget",
    "CancellationToken",
    "QueryCheckpoint",
    "AdmissionController",
    "BudgetExceededError",
    "QueryCancelledError",
    "AdmissionRejectedError",
    "Tracer",
    "NULL_TRACER",
    "JsonlSink",
    "MetricsRegistry",
    "build_report",
    "write_report",
    "load_report",
    "compare_reports",
    "__version__",
]
