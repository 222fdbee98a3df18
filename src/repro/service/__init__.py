"""Fault-tolerant concurrent query service over persistent OIP
snapshots.

Layering (each module usable on its own):

* :mod:`~repro.service.errors` — structured, wire-ready error taxonomy.
* :mod:`~repro.service.snapshots` — generation pinning and the
  load-validate-swap-drop hot-refresh protocol.
* :mod:`~repro.service.service` — :class:`JoinService`: admission,
  deadlines, retries, drain, ``service.*`` metrics.
* :mod:`~repro.service.cache` — per-generation LRU of finished
  response bodies, keyed by canonical request fingerprint.
* :mod:`~repro.service.workers` / :mod:`~repro.service.aggregate` —
  pre-fork multi-process serving and fleet-wide stats aggregation.
* :mod:`~repro.service.protocol` / :mod:`~repro.service.server` /
  :mod:`~repro.service.client` — line-delimited JSON over TCP or stdio.
"""

from .cache import ResultCache, request_fingerprint
from .client import RemoteServiceError, ServiceClient
from .errors import (
    BadRequestError,
    ScaleOutConfigError,
    ServiceError,
    ServiceOverloadError,
    ServiceUnavailableError,
    SnapshotSwapRejectedError,
)
from .protocol import trace_context
from .server import MetricsExporter, ServiceServer, serve_stdio
from .service import (
    STATS_VERSION,
    JoinService,
    offline_query,
    summarize_result,
)
from .snapshots import ServingGeneration, SnapshotManager, join_kwargs_from_meta
from .workers import WorkerStartupError, WorkerSupervisor

__all__ = [
    "JoinService",
    "ServiceServer",
    "MetricsExporter",
    "ServiceClient",
    "STATS_VERSION",
    "trace_context",
    "RemoteServiceError",
    "ServingGeneration",
    "SnapshotManager",
    "join_kwargs_from_meta",
    "offline_query",
    "summarize_result",
    "serve_stdio",
    "ResultCache",
    "request_fingerprint",
    "WorkerSupervisor",
    "WorkerStartupError",
    "ServiceError",
    "ServiceOverloadError",
    "ServiceUnavailableError",
    "SnapshotSwapRejectedError",
    "BadRequestError",
    "ScaleOutConfigError",
]
