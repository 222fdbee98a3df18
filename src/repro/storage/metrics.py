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

from dataclasses import dataclass, field
from typing import Dict

__all__ = ["CostWeights", "CostCounters", "ResilienceCounters"]


@dataclass(frozen=True)
class CostWeights:
    """Unit costs of the two primitive operations of the paper's cost model.

    The paper's main-memory configuration uses ``c_cpu = 0.5`` ns per
    comparison and ``c_io = 10`` ns per 512-byte memory block; the
    disk-resident experiments use a ``c_io / c_cpu`` ratio of 200.  Both
    weights must be non-negative (Section 6.2 requires ``c_io >= 0`` and
    ``c_cpu >= 0``).
    """

    cpu: float = 0.5
    io: float = 10.0

    def __post_init__(self) -> None:
        if self.cpu < 0 or self.io < 0:
            raise ValueError(
                f"cost weights must be non-negative, got cpu={self.cpu} "
                f"io={self.io}"
            )

    @property
    def ratio(self) -> float:
        """``c_cpu / c_io``, the x-axis of Figure 6."""
        if self.io == 0:
            return float("inf")
        return self.cpu / self.io

    @classmethod
    def main_memory(cls) -> "CostWeights":
        """The paper's main-memory setting (0.5 ns CPU, 10 ns block fetch)."""
        return cls(cpu=0.5, io=10.0)

    @classmethod
    def disk(cls) -> "CostWeights":
        """The paper's disk setting: IO 200x the cost of a comparison."""
        return cls(cpu=0.5, io=100.0)

    @classmethod
    def from_ratio(cls, cpu_over_io: float, io: float = 10.0) -> "CostWeights":
        """Weights with a given ``c_cpu / c_io`` ratio (Figure 6 sweep)."""
        if cpu_over_io < 0:
            raise ValueError(f"ratio must be non-negative, got {cpu_over_io}")
        return cls(cpu=cpu_over_io * io, io=io)


@dataclass
class CostCounters:
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
        """Paper-style cost ``#cpu * c_cpu + #io * c_io``."""
        return (
            self.cpu_comparisons * weights.cpu + self.total_ios * weights.io
        )

    def merge(self, other: "CostCounters") -> None:
        """Add every field of *other* onto this counter set in place."""
        self.cpu_comparisons += other.cpu_comparisons
        self.block_reads += other.block_reads
        self.block_writes += other.block_writes
        self.sequential_reads += other.sequential_reads
        self.random_reads += other.random_reads
        self.buffer_hits += other.buffer_hits
        self.false_hits += other.false_hits
        self.partition_accesses += other.partition_accesses
        self.result_tuples += other.result_tuples
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
        data = {
            "cpu_comparisons": self.cpu_comparisons,
            "block_reads": self.block_reads,
            "block_writes": self.block_writes,
            "sequential_reads": self.sequential_reads,
            "random_reads": self.random_reads,
            "buffer_hits": self.buffer_hits,
            "false_hits": self.false_hits,
            "partition_accesses": self.partition_accesses,
            "result_tuples": self.result_tuples,
        }
        for key, value in self.extras.items():
            data[f"extra.{key}"] = value
        return data

    def reset(self) -> None:
        """Zero every counter in place."""
        self.cpu_comparisons = 0
        self.block_reads = 0
        self.block_writes = 0
        self.sequential_reads = 0
        self.random_reads = 0
        self.buffer_hits = 0
        self.false_hits = 0
        self.partition_accesses = 0
        self.result_tuples = 0
        self.extras.clear()


@dataclass
class ResilienceCounters:
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

    def merge(self, other: "ResilienceCounters") -> None:
        """Add every field of *other* onto this counter set in place."""
        self.transient_faults += other.transient_faults
        self.corruptions_detected += other.corruptions_detected
        self.retries += other.retries
        self.backoff_units += other.backoff_units
        self.latency_spikes += other.latency_spikes
        self.checksum_verifications += other.checksum_verifications
        self.pool_invalidations += other.pool_invalidations
        self.chunk_retries += other.chunk_retries
        self.chunk_timeouts += other.chunk_timeouts
        self.worker_crashes += other.worker_crashes
        self.sequential_downgrades += other.sequential_downgrades

    def snapshot(self) -> Dict[str, int]:
        """Plain-dict view for printing and test assertions."""
        return {
            "transient_faults": self.transient_faults,
            "corruptions_detected": self.corruptions_detected,
            "retries": self.retries,
            "backoff_units": self.backoff_units,
            "latency_spikes": self.latency_spikes,
            "checksum_verifications": self.checksum_verifications,
            "pool_invalidations": self.pool_invalidations,
            "chunk_retries": self.chunk_retries,
            "chunk_timeouts": self.chunk_timeouts,
            "worker_crashes": self.worker_crashes,
            "sequential_downgrades": self.sequential_downgrades,
        }

    def storage_snapshot(self) -> Dict[str, int]:
        """The device-level subset of :meth:`snapshot` (the fields every
        run of the same fault schedule reproduces exactly)."""
        full = self.snapshot()
        return {key: full[key] for key in self.STORAGE_FIELDS}

    def reset(self) -> None:
        """Zero every counter in place."""
        self.transient_faults = 0
        self.corruptions_detected = 0
        self.retries = 0
        self.backoff_units = 0
        self.latency_spikes = 0
        self.checksum_verifications = 0
        self.pool_invalidations = 0
        self.chunk_retries = 0
        self.chunk_timeouts = 0
        self.worker_crashes = 0
        self.sequential_downgrades = 0
