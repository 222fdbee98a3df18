"""The paper's primary contribution: OIP partitioning and the OIPJOIN.

Modules
-------
``interval``    Discrete time domain and closed intervals (Section 3).
``relation``    Temporal relations with tuple timestamping (Section 3).
``oip``         OIP configuration and partition math (Section 4.1).
``lazy_list``   Lazy partition list + ``OIPCREATE`` (Section 4.2/4.3).
``granules``    Cost model and optimal ``k`` derivation (Section 6.2).
``join``        The OIPJOIN algorithm (Section 6.1).
``base``        Shared join-algorithm interface and result type.
"""

from .base import JoinResult, OverlapJoinAlgorithm, join_pair_key
from .granules import (
    GranulePolicy,
    JoinCostModel,
    KDerivation,
    approximate_k,
    cost_model_for,
    derive_k,
    exact_k,
)
from .incremental import IncrementalOIP
from .interval import Interval, IntervalError
from .join import OIPJoin
from .lazy_list import LazyPartitionList, PartitionNode, oip_create
from .oip import (
    OIPConfiguration,
    possible_partition_count,
    tightening_factor,
    used_partition_bound,
)
from .relation import EmptyRelationError, TemporalRelation, TemporalTuple
from .statistics import (
    DurationHistogram,
    HistogramCostModel,
    histogram_cost_model,
)

__all__ = [
    "Interval",
    "IntervalError",
    "TemporalRelation",
    "TemporalTuple",
    "EmptyRelationError",
    "OIPConfiguration",
    "possible_partition_count",
    "used_partition_bound",
    "tightening_factor",
    "LazyPartitionList",
    "PartitionNode",
    "oip_create",
    "GranulePolicy",
    "JoinCostModel",
    "KDerivation",
    "derive_k",
    "approximate_k",
    "exact_k",
    "cost_model_for",
    "OIPJoin",
    "IncrementalOIP",
    "DurationHistogram",
    "HistogramCostModel",
    "histogram_cost_model",
    "JoinResult",
    "OverlapJoinAlgorithm",
    "join_pair_key",
]
