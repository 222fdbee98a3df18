"""Cost counters shared by every algorithm in the library.

The paper's evaluation reports CPU comparisons, block IOs, false hits,
partition accesses and result sizes.  :class:`CostCounters` is the single
mutable sink those events are charged to; the storage layer charges IO
events, the join algorithms charge CPU comparisons, false hits and
partition/node accesses.

The counters also price themselves through a :class:`CostWeights`
(``c_cpu``/``c_io``), reproducing the paper's modelled cost
``#cpu * c_cpu + #io * c_io`` so experiments can report a hardware-
independent cost next to wall-clock time.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Any, ClassVar, Dict, Mapping, Tuple

__all__ = ["CostWeights", "CostCounters", "ResilienceCounters"]


@dataclass(frozen=True)
class CostWeights:
    """Unit costs of the primitive operations of the paper's cost model.

    The paper's main-memory configuration uses ``c_cpu = 0.5`` ns per
    comparison and ``c_io = 10`` ns per 512-byte memory block; the
    disk-resident experiments use a ``c_io / c_cpu`` ratio of 200.  Both
    weights must be non-negative (Section 6.2 requires ``c_io >= 0`` and
    ``c_cpu >= 0``).

    ``access`` prices the fixed work of one partition access beyond its
    block IO and index comparisons (navigation, the run read, charging,
    the kernel call).  ``visit`` prices one inner tuple handed to a
    kernel call (the join's ``inner_visits`` detail): the ``sweep`` and
    ``numpy`` kernels touch every inner tuple of an outer partition's
    relevant runs but never a false hit.  Weights that price either
    term (:attr:`prices_partitions`) run those kernels at ``k = 1``
    (:mod:`repro.core.granules`); ``visit`` itself is the fitted figure
    ``repro calibrate`` reports.  The paper's model has neither term: ``0`` (the default) is the paper's
    Equation 1, and :meth:`engine` is the set fitted to this
    implementation.
    """

    cpu: float = 0.5
    io: float = 10.0
    access: float = 0.0
    visit: float = 0.0

    def __post_init__(self) -> None:
        if min(self.cpu, self.io, self.access, self.visit) < 0:
            raise ValueError(
                f"cost weights must be non-negative, got cpu={self.cpu} "
                f"io={self.io} access={self.access} visit={self.visit}"
            )

    @property
    def prices_partitions(self) -> bool:
        """Whether these weights price this engine's per-partition work
        (an access or an inner-tuple visit); the paper's weights do
        not."""
        return bool(self.access or self.visit)

    @property
    def ratio(self) -> float:
        """``c_cpu / c_io``, the x-axis of Figure 6."""
        if self.io == 0:
            return float("inf")
        return self.cpu / self.io

    def as_dict(self) -> Dict[str, float]:
        """``{"cpu", "io"}``, plus ``"access"`` and ``"visit"`` when
        they are priced, so the paper's weights serialise as they always
        have."""
        data = {"cpu": self.cpu, "io": self.io}
        if self.access:
            data["access"] = self.access
        if self.visit:
            data["visit"] = self.visit
        return data

    @classmethod
    def main_memory(cls) -> "CostWeights":
        """The paper's main-memory setting (0.5 ns CPU, 10 ns block fetch)."""
        return cls(cpu=0.5, io=10.0)

    @classmethod
    def disk(cls) -> "CostWeights":
        """The paper's disk setting: IO 200x the cost of a comparison."""
        return cls(cpu=0.5, io=100.0)

    @classmethod
    def engine(cls) -> "CostWeights":
        """The weights fitted to this implementation, in ms per
        comparison, block IO, partition access and inner-tuple visit:
        the through-origin least-squares fit of ``repro calibrate`` over
        the runtime-against-``k`` sweep that
        ``benchmarks/bench_k_model.py`` records in ``BENCH_k.json``
        (``fit.engine``, rounded: ``c_cpu`` from the naive kernel's
        points, the rest from the sweep and numpy kernels', each point
        as its excess over the fastest ``k`` of its relation set).  The
        fit leaves nothing to ``c_io``: a block read moves with the
        accesses and visits it belongs to.  Every join that is given
        neither ``weights`` nor ``k`` derives its ``k`` from these."""
        return cls(cpu=2.13e-5, io=0.0, access=1.95e-3, visit=7.77e-5)

    @classmethod
    def from_ratio(cls, cpu_over_io: float, io: float = 10.0) -> "CostWeights":
        """Weights with a given ``c_cpu / c_io`` ratio (Figure 6 sweep)."""
        if cpu_over_io < 0:
            raise ValueError(f"ratio must be non-negative, got {cpu_over_io}")
        return cls(cpu=cpu_over_io * io, io=io)


class _CounterSet:
    """The integer counters of a dataclass, named once in ``FIELDS``
    (declaration order, which is the snapshot key order), and every
    whole-set operation derived from that tuple."""

    FIELDS: ClassVar[Tuple[str, ...]] = ()

    def merge(self, other: Any) -> None:
        """Add every field of *other* onto this counter set in place."""
        for name in self.FIELDS:
            setattr(self, name, getattr(self, name) + getattr(other, name))

    def snapshot(self) -> Dict[str, int]:
        """Plain-dict view for printing and test assertions."""
        return {name: getattr(self, name) for name in self.FIELDS}

    def reset(self) -> None:
        """Zero every counter in place."""
        for name in self.FIELDS:
            setattr(self, name, 0)

    def restore(self, snapshot: Mapping[str, int]) -> None:
        """Overwrite this set, in place, with exactly the state of a
        :meth:`snapshot` dict."""
        self.reset()
        for key, value in snapshot.items():
            if key in self.FIELDS:
                setattr(self, key, int(value))
            else:
                self._restore_unknown(key, value)

    def _restore_unknown(self, key: str, value: Any) -> None:
        """A snapshot key that names no field is ignored."""

    @classmethod
    def from_snapshot(cls, snapshot: Mapping[str, int]) -> Any:
        """A new counter set holding the state of a :meth:`snapshot`
        dict."""
        counters = cls()
        counters.restore(snapshot)
        return counters


def _counter_fields(cls: type) -> type:
    """Class decorator: record a counter dataclass's integer fields."""
    cls.FIELDS = tuple(f.name for f in fields(cls) if f.name != "extras")
    return cls


@_counter_fields
@dataclass
class CostCounters(_CounterSet):
    """Mutable event counters for one algorithm run.

    Attributes mirror the paper's reported quantities:

    * ``cpu_comparisons`` — interval/endpoint/index comparisons,
    * ``block_reads`` / ``block_writes`` — block IOs issued to the device
      (after the buffer pool; ``buffer_hits`` are requests served from
      cache and are *not* IOs),
    * ``sequential_reads`` / ``random_reads`` — split of ``block_reads``
      used by the disk experiments where seeks dominate,
    * ``false_hits`` — candidate tuples fetched but not in the result,
    * ``partition_accesses`` — partitions/nodes fetched,
    * ``result_tuples`` — output cardinality (excluded from cost, as the
      paper excludes result-writing time).
    """

    cpu_comparisons: int = 0
    block_reads: int = 0
    block_writes: int = 0
    sequential_reads: int = 0
    random_reads: int = 0
    buffer_hits: int = 0
    false_hits: int = 0
    partition_accesses: int = 0
    result_tuples: int = 0
    extras: Dict[str, int] = field(default_factory=dict)

    # -- charging -----------------------------------------------------------

    def charge_cpu(self, count: int = 1) -> None:
        """Record *count* CPU comparison operations."""
        self.cpu_comparisons += count

    def charge_read(self, count: int = 1, sequential: bool = True) -> None:
        """Record *count* block reads that reached the device."""
        self.block_reads += count
        if sequential:
            self.sequential_reads += count
        else:
            self.random_reads += count

    def charge_write(self, count: int = 1) -> None:
        """Record *count* block writes."""
        self.block_writes += count

    def charge_buffer_hit(self, count: int = 1) -> None:
        """Record requests satisfied by the buffer pool (no device IO)."""
        self.buffer_hits += count

    def charge_false_hit(self, count: int = 1) -> None:
        """Record fetched candidates that failed the join predicate."""
        self.false_hits += count

    def charge_partition_access(self, count: int = 1) -> None:
        """Record fetched partitions / index nodes."""
        self.partition_accesses += count

    def charge_result(self, count: int = 1) -> None:
        """Record produced result tuples."""
        self.result_tuples += count

    def charge_extra(self, key: str, count: int = 1) -> None:
        """Record an algorithm-specific event (e.g. ``"migrations"`` for the
        grace join, ``"duplicates"`` for the segment tree)."""
        self.extras[key] = self.extras.get(key, 0) + count

    # -- reporting ------------------------------------------------------------

    @property
    def total_ios(self) -> int:
        """All block IOs that reached the device."""
        return self.block_reads + self.block_writes

    @property
    def fetched_tuples(self) -> int:
        """Candidates fetched = result tuples + false hits."""
        return self.result_tuples + self.false_hits

    def false_hit_ratio(self) -> float:
        """False hits as a fraction of all fetched tuples (the paper's AFR
        axis in Figures 8, 10, 11)."""
        fetched = self.fetched_tuples
        if fetched == 0:
            return 0.0
        return self.false_hits / fetched

    def modelled_cost(self, weights: CostWeights) -> float:
        """Paper-style cost ``#cpu * c_cpu + #io * c_io``, plus
        ``#accesses * c_access`` when *weights* price partition
        accesses."""
        return (
            self.cpu_comparisons * weights.cpu
            + self.total_ios * weights.io
            + self.partition_accesses * weights.access
        )

    def merge(self, other: "CostCounters") -> None:
        """Add every field of *other* onto this counter set in place."""
        super().merge(other)
        for key, value in other.extras.items():
            self.extras[key] = self.extras.get(key, 0) + value

    def merged_with(self, other: "CostCounters") -> "CostCounters":
        """Sum of two counter sets (used when aggregating sweep points)."""
        merged = CostCounters()
        merged.merge(self)
        merged.merge(other)
        return merged

    def snapshot(self) -> Dict[str, int]:
        """Plain-dict view for printing and test assertions.

        Algorithm-specific ``extras`` are namespaced as ``extra.<key>``
        so an extra named e.g. ``block_reads`` can never shadow the
        built-in counter of the same name."""
        data = super().snapshot()
        for key, value in self.extras.items():
            data[f"extra.{key}"] = value
        return data

    def reset(self) -> None:
        """Zero every counter in place."""
        super().reset()
        self.extras.clear()

    def _restore_unknown(self, key: str, value: Any) -> None:
        """A key that names no field is an extra; strip the
        ``extra.`` namespace :meth:`snapshot` added."""
        if key.startswith("extra."):
            key = key[6:]
        self.extras[key] = int(value)


@_counter_fields
@dataclass
class ResilienceCounters(_CounterSet):
    """Fault-handling events of one algorithm run, reported alongside
    :class:`CostCounters`.

    The IO cost of fault handling (retry re-reads charged as random IO)
    lands in the :class:`CostCounters` so the paper's cost model stays
    honest; these counters record *why* those extra IOs happened and what
    the recovery machinery did.  All fields are integers so that merging
    counters is exact in any order.

    Storage-level events (charged by :func:`repro.storage.faults
    .perform_read` and the storage manager):

    * ``transient_faults`` — device read attempts that errored out,
    * ``corruptions_detected`` — reads whose payload failed checksum
      verification (injected or real),
    * ``retries`` — re-issued device reads after a failed attempt,
    * ``backoff_units`` — accumulated exponential-backoff units
      (``2**attempt`` per retry; multiply by the policy's
      ``backoff_base_ms`` for simulated milliseconds),
    * ``latency_spikes`` — slow-but-successful reads,
    * ``checksum_verifications`` — block verifications performed,
    * ``pool_invalidations`` — corrupted blocks evicted from the buffer
      pool and re-fetched from the device.

    ``chunk_retries``, ``chunk_timeouts``, ``worker_crashes`` and
    ``sequential_downgrades`` counted events of the in-query worker pool,
    which no longer exists; they are always 0.  They stay because
    snapshots of this class are a recorded contract: benchmark contract
    records and checkpoint files carry every field.
    """

    transient_faults: int = 0
    corruptions_detected: int = 0
    retries: int = 0
    backoff_units: int = 0
    latency_spikes: int = 0
    checksum_verifications: int = 0
    pool_invalidations: int = 0
    chunk_retries: int = 0
    chunk_timeouts: int = 0
    worker_crashes: int = 0
    sequential_downgrades: int = 0

    #: Snapshot keys describing device-level fault handling (identical
    #: between runs of the same fault schedule).
    STORAGE_FIELDS = (
        "transient_faults",
        "corruptions_detected",
        "retries",
        "backoff_units",
        "latency_spikes",
    )

    @property
    def faults_observed(self) -> int:
        """Total faults of any kind seen by this run."""
        return (
            self.transient_faults
            + self.corruptions_detected
            + self.latency_spikes
            + self.chunk_timeouts
            + self.worker_crashes
        )

    @property
    def recovered(self) -> bool:
        """True when faults were observed (and, since the run produced a
        result, survived)."""
        return self.faults_observed > 0

    def storage_snapshot(self) -> Dict[str, int]:
        """The device-level subset of :meth:`snapshot` (the fields every
        run of the same fault schedule reproduces exactly)."""
        return {key: getattr(self, key) for key in self.STORAGE_FIELDS}
