"""Metrics registry: counters, gauges and fixed-bucket histograms.

The repo already *measures* everything the paper reports — the event
counts live in :class:`~repro.storage.metrics.CostCounters` /
:class:`~repro.storage.metrics.ResilienceCounters` — but each subsystem
grew its own reporting shape (``AdmissionStats``, checkpoint JSON).  The registry is the single sink they all publish
into, with two expositions:

* :meth:`MetricsRegistry.snapshot` / :meth:`MetricsRegistry.to_json` —
  a deterministic JSON document (sorted metric names, fixed histogram
  buckets), diffable run over run, and
* :meth:`MetricsRegistry.to_prometheus_text` — the Prometheus text
  format (names sanitised to ``[a-zA-Z0-9_:]``), so a service embedding
  the join can expose its internals on a ``/metrics`` endpoint.

Determinism is deliberate: histogram bucket boundaries are fixed at
construction (never rebalanced from data), so two runs with the same
seed export byte-identical snapshots — the property the observability
tests pin down and the ``repro compare`` diff relies on.

Publishers (all optional, all pull-based so the hot path stays
untouched): the storage manager, buffer pool, fault policy and admission
controller each expose ``publish_metrics(registry)``;
:meth:`~repro.core.base.OverlapJoinAlgorithm.join` publishes its cost and
resilience counters after every run when a registry is attached.
"""

from __future__ import annotations

import json
import math
import re
from bisect import bisect_left
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_COUNT_BUCKETS",
    "DEFAULT_LATENCY_BUCKETS_MS",
    "merge_histogram_snapshots",
]

Number = Union[int, float]

#: Power-of-four boundaries for event-count distributions (candidate
#: comparisons per partition, tuples per partition, ...).  Fixed — never
#: derived from data — so exports are deterministic.
DEFAULT_COUNT_BUCKETS: Tuple[int, ...] = tuple(4 ** e for e in range(11))

#: Boundaries for wall-clock phase durations, in milliseconds.
DEFAULT_LATENCY_BUCKETS_MS: Tuple[float, ...] = (
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0,
    100.0, 250.0, 500.0, 1000.0, 2500.0, 5000.0, 10000.0,
)

_PROM_NAME = re.compile(r"[^a-zA-Z0-9_:]")


class Counter:
    """A monotonically increasing value."""

    kind = "counter"
    __slots__ = ("name", "help", "value")

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self.value: Number = 0

    def inc(self, amount: Number = 1) -> None:
        if amount < 0:
            raise ValueError(
                f"counter {self.name!r} cannot decrease (inc {amount})"
            )
        self.value += amount

    def snapshot(self) -> Number:
        return self.value


class Gauge:
    """A value that can go up and down (or be set outright)."""

    kind = "gauge"
    __slots__ = ("name", "help", "value")

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self.value: Number = 0

    def set(self, value: Number) -> None:
        self.value = value

    def inc(self, amount: Number = 1) -> None:
        self.value += amount

    def dec(self, amount: Number = 1) -> None:
        self.value -= amount

    def snapshot(self) -> Number:
        return self.value


class Histogram:
    """A fixed-boundary histogram (cumulative buckets on export).

    ``buckets`` are the inclusive upper bounds of the finite buckets; an
    implicit ``+Inf`` bucket catches the rest.  Boundaries are validated
    to be strictly increasing and are immutable afterwards — determinism
    of the exported snapshot is the whole point.
    """

    kind = "histogram"
    __slots__ = ("name", "help", "buckets", "counts", "total", "count")

    def __init__(
        self,
        name: str,
        buckets: Sequence[Number],
        help: str = "",
    ) -> None:
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise ValueError(f"histogram {name!r} needs at least one bucket")
        if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ValueError(
                f"histogram {name!r} bucket bounds must be strictly "
                f"increasing, got {bounds}"
            )
        if any(math.isnan(b) or math.isinf(b) for b in bounds):
            raise ValueError(
                f"histogram {name!r} bucket bounds must be finite"
            )
        self.name = name
        self.help = help
        self.buckets = bounds
        #: Per-bucket (non-cumulative) counts; last slot is +Inf.
        self.counts: List[int] = [0] * (len(bounds) + 1)
        self.total: float = 0.0
        self.count: int = 0

    def observe(self, value: Number) -> None:
        self.counts[bisect_left(self.buckets, value)] += 1
        self.total += value
        self.count += 1

    def snapshot(self) -> Dict[str, Any]:
        cumulative: List[int] = []
        running = 0
        for count in self.counts:
            running += count
            cumulative.append(running)
        return {
            "buckets": list(self.buckets),
            "counts": cumulative,
            "sum": self.total,
            "count": self.count,
        }

    def quantile(self, q: float) -> float:
        """Deterministic ``q``-quantile estimate from the fixed buckets.

        Linear interpolation inside the target bucket (see
        :mod:`repro.obs.quantiles`); a pure function of the bucket
        layout and counts, so merge order and observation order cannot
        change it.  Returns 0.0 while the histogram is empty.
        """
        from .quantiles import bucket_quantile

        snap = self.snapshot()
        return bucket_quantile(snap["buckets"], snap["counts"], q)


def merge_histogram_snapshots(
    a: Dict[str, Any], b: Dict[str, Any]
) -> Dict[str, Any]:
    """Merge two exported histogram snapshots with identical buckets.

    Cumulative per-bucket counts, ``sum`` and ``count`` add
    elementwise; because boundaries are fixed at construction, any two
    processes exporting the same metric name share the same layout and
    the merge is exact (not an approximation).  Used by the cross-worker
    ``stats`` aggregation, where each worker ships raw histograms and
    quantiles are computed only *after* the merge — summarised quantiles
    cannot be averaged, bucket counts can.
    """
    if list(a["buckets"]) != list(b["buckets"]):
        raise ValueError(
            "cannot merge histograms with different bucket layouts: "
            f"{a['buckets']} vs {b['buckets']}"
        )
    return {
        "buckets": list(a["buckets"]),
        "counts": [x + y for x, y in zip(a["counts"], b["counts"])],
        "sum": a["sum"] + b["sum"],
        "count": a["count"] + b["count"],
    }


_Metric = Union[Counter, Gauge, Histogram]


class MetricsRegistry:
    """Named metrics with get-or-create semantics.

    Re-requesting a name returns the existing instrument; requesting it
    as a different kind (or a histogram with different buckets) is a
    programming error and raises ``ValueError``.
    """

    def __init__(self) -> None:
        self._metrics: Dict[str, _Metric] = {}

    def __len__(self) -> int:
        return len(self._metrics)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def get(self, name: str) -> Optional[_Metric]:
        return self._metrics.get(name)

    def _register(self, metric: _Metric) -> _Metric:
        existing = self._metrics.get(metric.name)
        if existing is None:
            self._metrics[metric.name] = metric
            return metric
        if existing.kind != metric.kind:
            raise ValueError(
                f"metric {metric.name!r} already registered as "
                f"{existing.kind}, requested {metric.kind}"
            )
        if (
            isinstance(existing, Histogram)
            and isinstance(metric, Histogram)
            and existing.buckets != metric.buckets
        ):
            raise ValueError(
                f"histogram {metric.name!r} already registered with "
                f"buckets {existing.buckets}"
            )
        return existing

    def counter(self, name: str, help: str = "") -> Counter:
        return self._register(Counter(name, help))  # type: ignore[return-value]

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._register(Gauge(name, help))  # type: ignore[return-value]

    def histogram(
        self,
        name: str,
        buckets: Sequence[Number] = DEFAULT_COUNT_BUCKETS,
        help: str = "",
    ) -> Histogram:
        return self._register(Histogram(name, buckets, help))  # type: ignore[return-value]

    # -- bulk publishing ------------------------------------------------

    def publish_dict(
        self, prefix: str, values: Dict[str, Number], kind: str = "counter"
    ) -> None:
        """Publish a flat ``{name: number}`` snapshot under *prefix*.

        Counters are *set-by-increment*: the delta to the published value
        is added, so re-publishing a monotone snapshot (e.g. the same
        run's counters at a later boundary) never double-counts.
        """
        for key, value in values.items():
            name = f"{prefix}.{key}" if prefix else key
            if kind == "gauge":
                self.gauge(name).set(value)
            else:
                counter = self.counter(name)
                delta = value - counter.value
                if delta > 0:
                    counter.inc(delta)

    # -- exposition -----------------------------------------------------

    def snapshot(self) -> Dict[str, Dict[str, Any]]:
        """Deterministic plain-dict view, grouped by instrument kind and
        sorted by name."""
        counters: Dict[str, Any] = {}
        gauges: Dict[str, Any] = {}
        histograms: Dict[str, Any] = {}
        for name in sorted(self._metrics):
            metric = self._metrics[name]
            if metric.kind == "counter":
                counters[name] = metric.snapshot()
            elif metric.kind == "gauge":
                gauges[name] = metric.snapshot()
            else:
                histograms[name] = metric.snapshot()
        return {
            "counters": counters,
            "gauges": gauges,
            "histograms": histograms,
        }

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.snapshot(), indent=indent, sort_keys=True)

    def to_prometheus_text(self) -> str:
        """The Prometheus text exposition format (spec 0.0.4)."""
        lines: List[str] = []
        for name in sorted(self._metrics):
            metric = self._metrics[name]
            prom = _PROM_NAME.sub("_", name)
            if metric.help:
                lines.append(f"# HELP {prom} {metric.help}")
            lines.append(f"# TYPE {prom} {metric.kind}")
            if isinstance(metric, Histogram):
                snap = metric.snapshot()
                for bound, cumulative in zip(
                    snap["buckets"], snap["counts"]
                ):
                    lines.append(
                        f'{prom}_bucket{{le="{_format(bound)}"}} {cumulative}'
                    )
                lines.append(
                    f'{prom}_bucket{{le="+Inf"}} {snap["counts"][-1]}'
                )
                lines.append(f"{prom}_sum {_format(snap['sum'])}")
                lines.append(f"{prom}_count {snap['count']}")
            else:
                lines.append(f"{prom} {_format(metric.value)}")
        return "\n".join(lines) + ("\n" if lines else "")


def _format(value: Number) -> str:
    """Render numbers without a trailing ``.0`` for integral values."""
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return str(value)
