"""Deterministic fault injection for the storage substrate.

The paper's cost model (Section 6, Equation 2) assumes a perfectly
reliable device; production deployments of partition joins do not get
one.  This module provides the chaos half of the resilience layer: a
seeded, fully deterministic :class:`FaultPolicy` describing *which* reads
misbehave and deciding it per ``(block id, attempt)``, plus
:func:`perform_read` — the one retry/charging loop the
:class:`~repro.storage.manager.StorageManager` runs its device reads
through, so every run of a join observes the *identical* fault schedule
and charges the identical IO.

Determinism is the load-bearing property.  Fault decisions are pure
functions of ``(seed, block_id, attempt)`` — an avalanche hash mapped to
the unit interval, no shared RNG stream — so

* the same seed reproduces the same faults run after run,
* a re-read of the same block at the same attempt makes the same
  decision no matter in which order it is issued, and
* differential tests can assert that a chaos run returns the exact match
  set of a fault-free run while the retries stay visible in the
  :class:`~repro.storage.metrics.ResilienceCounters`.

Fault taxonomy
--------------

* **transient read error** — the device errors out mid-read; a bounded
  exponential-backoff retry loop re-issues the read.  Every attempt is
  charged as an IO (the device did the work); re-reads are charged as
  *random* IO because error handling loses the head position.
* **corrupted payload** — the read completes but the delivered block
  fails its content checksum; the block is evicted from the buffer pool
  (never served stale) and re-read.
* **permanent fault** — a block id listed in ``permanent_blocks`` fails
  every attempt; once the retry budget is exhausted a structured error
  naming the block and the partition context is raised instead of
  returning partial results.
* **latency spike** — the read succeeds but is recorded as slow; no
  retry, visible in the resilience counters.

Write-path faults
-----------------

The persistent index (:mod:`repro.storage.snapshot`) commits files
atomically (temp file + fsync + rename).  :class:`WriteFaultPolicy`
injects the crash modes that protocol must survive, seeded through the
same avalanche-hash draw as the read faults (the "block id" is a CRC of
the target file name, so every commit of one path draws the same fate
for one seed):

* **torn write** — the process dies mid-write: the temp file is
  truncated at a byte offset and :class:`SimulatedCrashError` is raised
  with the temp file left behind (rename never happened).
* **dropped fsync** — the rename completes but the data never reached
  the platters before the crash: the *final* file is truncated at an
  offset after the rename (the classic rename-without-fsync bug).
* **failed rename** — the temp file is complete and durable but the
  rename itself never executed; the target (old snapshot, or nothing)
  is untouched.
* **post-write bit-flip** — the commit succeeds, but one bit of the
  written file flips afterwards (silent bit-rot); no crash is raised,
  detection is the section checksums' job.
"""

from __future__ import annotations

import enum
import zlib
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, FrozenSet, Mapping, Optional

from .metrics import CostCounters, ResilienceCounters

__all__ = [
    "FaultKind",
    "FaultPolicy",
    "StorageFaultError",
    "TransientReadError",
    "CorruptBlockError",
    "ReadRetriesExceededError",
    "FAULT_PROFILES",
    "fault_profile",
    "perform_read",
    "WriteFaultKind",
    "WriteFault",
    "WriteFaultPolicy",
    "SimulatedCrashError",
]


class FaultKind(enum.Enum):
    """Outcome of one injected read attempt."""

    OK = "ok"
    TRANSIENT = "transient"
    CORRUPT = "corrupt"
    LATENCY = "latency"


# ----------------------------------------------------------------------
# Structured errors.
# ----------------------------------------------------------------------


class StorageFaultError(RuntimeError):
    """Base class of all structured storage-fault errors.

    Carries the failing block id, the number of attempts made, and the
    *context* (typically the partition being fetched) so callers and
    operators can tell exactly what was lost.
    """

    def __init__(
        self,
        message: str,
        block_id: int,
        attempts: int = 1,
        context: Any = None,
    ) -> None:
        if context not in (None, ""):
            message = f"{message} while reading {context}"
        super().__init__(message)
        self.block_id = block_id
        self.attempts = attempts
        self.context = context


class TransientReadError(StorageFaultError):
    """A single failed read attempt (recoverable by retrying)."""

    def __init__(self, block_id: int, attempt: int, context: Any = None) -> None:
        super().__init__(
            f"transient read error on block {block_id} (attempt {attempt})",
            block_id,
            attempts=attempt + 1,
            context=context,
        )


class CorruptBlockError(StorageFaultError):
    """Block content failed checksum verification on every attempt."""

    def __init__(self, block_id: int, attempts: int, context: Any = None) -> None:
        super().__init__(
            f"block {block_id} failed checksum verification "
            f"after {attempts} attempt(s)",
            block_id,
            attempts=attempts,
            context=context,
        )


class ReadRetriesExceededError(StorageFaultError):
    """Transient faults persisted past the bounded retry budget."""

    def __init__(self, block_id: int, attempts: int, context: Any = None) -> None:
        super().__init__(
            f"read of block {block_id} still failing "
            f"after {attempts} attempt(s)",
            block_id,
            attempts=attempts,
            context=context,
        )


# ----------------------------------------------------------------------
# Fault policy.
# ----------------------------------------------------------------------


_MASK64 = (1 << 64) - 1


def _unit_draw(seed: int, salt: str, block_id: int, attempt: int) -> float:
    """A deterministic pseudo-random draw in ``[0, 1)`` for one decision.

    A splitmix64-style finalizer over the combined key: full avalanche,
    so draws for neighbouring block ids are independent (a plain CRC of
    the key string leaves adjacent ids correlated and the fault schedule
    visibly clustered)."""
    x = (
        seed * 0x9E3779B97F4A7C15
        + zlib.crc32(salt.encode("ascii")) * 0xD1B54A32D192ED03
        + block_id * 0xBF58476D1CE4E5B9
        + attempt * 0x94D049BB133111EB
    ) & _MASK64
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & _MASK64
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & _MASK64
    x ^= x >> 31
    return x / 18446744073709551616.0  # 2**64


@dataclass(frozen=True)
class FaultPolicy:
    """Seeded, deterministic description of how the device misbehaves.

    Probabilistic faults (``*_probability``) draw one deterministic value
    per ``(block id, attempt)``, so a given seed yields the same schedule
    on every run and on every execution path.  Explicit schedules pin
    behaviour for specific block ids: ``transient_schedule[b] = n`` makes
    the first ``n`` attempts on block ``b`` fail transiently,
    ``corrupt_schedule[b] = n`` delivers ``n`` corrupted payloads first,
    and ``permanent_blocks`` never deliver a good read at all.
    """

    seed: int = 0
    transient_probability: float = 0.0
    corrupt_probability: float = 0.0
    latency_probability: float = 0.0
    #: Simulated extra latency of one spike, in milliseconds (reported,
    #: never slept).
    latency_penalty_ms: float = 5.0
    #: First backoff step in milliseconds; step ``n`` waits ``2**n`` of
    #: these units (simulated, recorded in ``backoff_units``).
    backoff_base_ms: float = 1.0
    transient_schedule: Mapping[int, int] = field(default_factory=dict)
    corrupt_schedule: Mapping[int, int] = field(default_factory=dict)
    permanent_blocks: FrozenSet[int] = frozenset()

    def __post_init__(self) -> None:
        for name in (
            "transient_probability",
            "corrupt_probability",
            "latency_probability",
        ):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(
                    f"{name} must be within [0, 1], got {value}"
                )
        if self.latency_penalty_ms < 0 or self.backoff_base_ms < 0:
            raise ValueError("latency/backoff durations must be >= 0")
        for name in ("transient_schedule", "corrupt_schedule"):
            for block_id, count in getattr(self, name).items():
                if count < 0:
                    raise ValueError(
                        f"{name}[{block_id}] must be >= 0, got {count}"
                    )
        object.__setattr__(
            self, "permanent_blocks", frozenset(self.permanent_blocks)
        )

    def publish_metrics(self, registry: Any) -> None:
        """Expose the configured fault rates as gauges (the injected-fault
        *counts* flow through the run's resilience counters instead)."""
        registry.gauge("faults.seed").set(self.seed)
        registry.gauge("faults.transient_probability").set(
            self.transient_probability
        )
        registry.gauge("faults.corrupt_probability").set(
            self.corrupt_probability
        )
        registry.gauge("faults.latency_probability").set(
            self.latency_probability
        )

    @property
    def injects_faults(self) -> bool:
        """False when the policy can never produce a fault (checksum
        verification may still run, but no read will be disturbed)."""
        return bool(
            self.transient_probability
            or self.corrupt_probability
            or self.latency_probability
            or self.transient_schedule
            or self.corrupt_schedule
            or self.permanent_blocks
        )

    def decide(self, block_id: int, attempt: int) -> FaultKind:
        """The fate of reading *block_id* on try number *attempt*."""
        if block_id in self.permanent_blocks:
            return FaultKind.TRANSIENT
        if attempt < self.transient_schedule.get(block_id, 0):
            return FaultKind.TRANSIENT
        if attempt < self.corrupt_schedule.get(block_id, 0):
            return FaultKind.CORRUPT
        if self.transient_probability and (
            _unit_draw(self.seed, "transient", block_id, attempt)
            < self.transient_probability
        ):
            return FaultKind.TRANSIENT
        if self.corrupt_probability and (
            _unit_draw(self.seed, "corrupt", block_id, attempt)
            < self.corrupt_probability
        ):
            return FaultKind.CORRUPT
        if self.latency_probability and (
            _unit_draw(self.seed, "latency", block_id, attempt)
            < self.latency_probability
        ):
            return FaultKind.LATENCY
        return FaultKind.OK


# ----------------------------------------------------------------------
# Named chaos profiles (CLI --fault-profile).
# ----------------------------------------------------------------------

#: Named fault profiles for chaos runs; keys are CLI-visible.
FAULT_PROFILES: Dict[str, Callable[[int], FaultPolicy]] = {
    "transient": lambda seed: FaultPolicy(
        seed=seed, transient_probability=0.02
    ),
    "transient-heavy": lambda seed: FaultPolicy(
        seed=seed, transient_probability=0.15
    ),
    "corrupt": lambda seed: FaultPolicy(seed=seed, corrupt_probability=0.02),
    "latency": lambda seed: FaultPolicy(seed=seed, latency_probability=0.10),
    "chaos": lambda seed: FaultPolicy(
        seed=seed,
        transient_probability=0.05,
        corrupt_probability=0.02,
        latency_probability=0.05,
    ),
}


def fault_profile(name: str, seed: int = 0) -> Optional[FaultPolicy]:
    """The named chaos profile seeded with *seed*; ``"none"`` is ``None``."""
    if name in ("none", "off"):
        return None
    try:
        return FAULT_PROFILES[name](seed)
    except KeyError:
        raise ValueError(
            f"unknown fault profile {name!r}; choose from "
            f"{', '.join(sorted(FAULT_PROFILES))} or 'none'"
        ) from None


# ----------------------------------------------------------------------
# The shared charged-read retry loop.
# ----------------------------------------------------------------------


def perform_read(
    block_id: int,
    counters: CostCounters,
    last_read: Optional[int],
    policy: Optional[FaultPolicy] = None,
    resilience: Optional[ResilienceCounters] = None,
    max_retries: int = 3,
    verify: Optional[Callable[[], bool]] = None,
    context: Any = None,
    tracer: Optional[Any] = None,
) -> int:
    """Charge one logical block read, retrying under the fault schedule.

    This is the *single* implementation of the read/retry/verify loop
    (the storage manager calls it for every block read); it charges:

    * attempt 0 is charged sequential iff ``block_id == last_read + 1``
      (the storage manager's classic chain rule),
    * every retry attempt is charged as a **random** read — the cost
      model stays honest about error handling losing the head position,
    * a read that exhausts ``max_retries`` raises a structured
      :class:`ReadRetriesExceededError` / :class:`CorruptBlockError`
      naming the block and *context*; ``last_read`` is then left to the
      caller unchanged, so a failed read never poisons the sequential/
      random classification of the next successful one.

    *verify* (when given) is called after each successful delivery and
    must return True for the read to count; the storage manager passes
    the block's checksum verification here.  Returns *block_id*, the new
    last-read position, on success.

    *tracer* (when given) receives one ``storage.retry`` event per retry
    decision.  The healthy path never touches it, so fault-free reads
    carry zero tracing cost.
    """
    if max_retries < 0:
        raise ValueError(f"max_retries must be >= 0, got {max_retries}")
    attempt = 0
    while True:
        kind = (
            policy.decide(block_id, attempt)
            if policy is not None
            else FaultKind.OK
        )
        sequential = (
            attempt == 0
            and last_read is not None
            and block_id == last_read + 1
        )
        counters.charge_read(sequential=sequential)
        corrupt = False
        if kind is FaultKind.TRANSIENT:
            if resilience is not None:
                resilience.transient_faults += 1
        elif kind is FaultKind.CORRUPT:
            corrupt = True
            if resilience is not None:
                resilience.corruptions_detected += 1
        else:
            if kind is FaultKind.LATENCY and resilience is not None:
                resilience.latency_spikes += 1
            if verify is not None:
                if resilience is not None:
                    resilience.checksum_verifications += 1
                if verify():
                    return block_id
                corrupt = True
                if resilience is not None:
                    resilience.corruptions_detected += 1
            else:
                return block_id
        if attempt >= max_retries:
            if corrupt:
                raise CorruptBlockError(
                    block_id, attempts=attempt + 1, context=context
                )
            raise ReadRetriesExceededError(
                block_id, attempts=attempt + 1, context=context
            )
        if resilience is not None:
            resilience.retries += 1
            resilience.backoff_units += 2 ** attempt
        if tracer is not None:
            tracer.event(
                "storage.retry",
                block_id=block_id,
                attempt=attempt,
                corrupt=corrupt,
            )
        attempt += 1


# ----------------------------------------------------------------------
# Write-path faults (crash injection for atomic file commits).
# ----------------------------------------------------------------------


class WriteFaultKind(enum.Enum):
    """Fate of one atomic file commit."""

    OK = "ok"
    TORN_WRITE = "torn_write"
    DROPPED_FSYNC = "dropped_fsync"
    FAILED_RENAME = "failed_rename"
    BIT_FLIP = "bit_flip"


class SimulatedCrashError(RuntimeError):
    """The injected crash: the process "died" at *stage* of a commit.

    The on-disk state at raise time is exactly what a real crash at that
    point would leave (torn temp file, renamed-but-unsynced target,
    orphaned complete temp file); callers must not clean it up — the
    recovery machinery is what is under test.
    """

    def __init__(self, path: str, stage: str, offset: Optional[int] = None) -> None:
        detail = f" at byte {offset}" if offset is not None else ""
        super().__init__(
            f"simulated crash during {stage} of {path!r}{detail}"
        )
        self.path = path
        self.stage = stage
        self.offset = offset


@dataclass(frozen=True)
class WriteFault:
    """One commit decision: what happens, and at which byte offset."""

    kind: WriteFaultKind
    offset: Optional[int] = None


def _path_key(name: str) -> int:
    """Stable integer identity of a commit target (plays the role the
    block id plays for read faults)."""
    return zlib.crc32(name.encode("utf-8", "replace"))


@dataclass(frozen=True)
class WriteFaultPolicy:
    """Seeded, deterministic crash schedule for atomic file commits.

    Explicit pins (``torn_write_at``, ``drop_fsync``, ``fail_rename``,
    ``bitflip_at``) force the fault on the commit whose zero-based
    sequence number equals ``at_commit`` (every commit when
    ``at_commit`` is ``None``); the ``*_probability`` fields draw one
    deterministic :func:`_unit_draw` per ``(seed, path, commit)``
    instead.  Precedence when several faults fire on one commit: torn
    write, then failed rename, then dropped fsync, then bit-flip —
    mirroring the order the stages happen in time (the earliest crash
    wins).

    Offsets are clamped to the written payload, so sweeping
    ``torn_write_at`` over ``range(size)`` exercises every byte
    boundary without knowing the exact file size up front.
    """

    seed: int = 0
    torn_write_at: Optional[int] = None
    torn_write_probability: float = 0.0
    drop_fsync: bool = False
    drop_fsync_probability: float = 0.0
    fail_rename: bool = False
    fail_rename_probability: float = 0.0
    bitflip_at: Optional[int] = None
    bitflip_probability: float = 0.0
    #: Zero-based commit sequence number the pinned faults apply to
    #: (``None``: every commit).  Probabilistic faults always draw per
    #: commit.
    at_commit: Optional[int] = None

    def __post_init__(self) -> None:
        for name in (
            "torn_write_probability",
            "drop_fsync_probability",
            "fail_rename_probability",
            "bitflip_probability",
        ):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(
                    f"{name} must be within [0, 1], got {value}"
                )
        for name in ("torn_write_at", "bitflip_at"):
            value = getattr(self, name)
            if value is not None and value < 0:
                raise ValueError(f"{name} must be >= 0, got {value}")

    @property
    def injects_faults(self) -> bool:
        return bool(
            self.torn_write_at is not None
            or self.torn_write_probability
            or self.drop_fsync
            or self.drop_fsync_probability
            or self.fail_rename
            or self.fail_rename_probability
            or self.bitflip_at is not None
            or self.bitflip_probability
        )

    def _pinned(self, commit: int) -> bool:
        return self.at_commit is None or commit == self.at_commit

    def _draw(self, salt: str, name: str, commit: int) -> float:
        return _unit_draw(self.seed, salt, _path_key(name), commit)

    def _offset(self, salt: str, name: str, commit: int, size: int) -> int:
        if size <= 0:
            return 0
        return int(self._draw(salt + ".at", name, commit) * size)

    def decide_commit(self, name: str, size: int, commit: int = 0) -> WriteFault:
        """The fate of commit number *commit* of *size* bytes to *name*."""
        pinned = self._pinned(commit)
        if pinned and self.torn_write_at is not None:
            return WriteFault(
                WriteFaultKind.TORN_WRITE,
                min(self.torn_write_at, max(size - 1, 0)),
            )
        if self.torn_write_probability and (
            self._draw("write.torn", name, commit)
            < self.torn_write_probability
        ):
            return WriteFault(
                WriteFaultKind.TORN_WRITE,
                self._offset("write.torn", name, commit, size),
            )
        if (pinned and self.fail_rename) or (
            self.fail_rename_probability
            and self._draw("write.rename", name, commit)
            < self.fail_rename_probability
        ):
            return WriteFault(WriteFaultKind.FAILED_RENAME)
        if (pinned and self.drop_fsync) or (
            self.drop_fsync_probability
            and self._draw("write.fsync", name, commit)
            < self.drop_fsync_probability
        ):
            return WriteFault(
                WriteFaultKind.DROPPED_FSYNC,
                self._offset("write.fsync", name, commit, size),
            )
        if pinned and self.bitflip_at is not None:
            return WriteFault(
                WriteFaultKind.BIT_FLIP,
                min(self.bitflip_at, max(size - 1, 0)),
            )
        if self.bitflip_probability and (
            self._draw("write.bitflip", name, commit)
            < self.bitflip_probability
        ):
            return WriteFault(
                WriteFaultKind.BIT_FLIP,
                self._offset("write.bitflip", name, commit, size),
            )
        return WriteFault(WriteFaultKind.OK)
