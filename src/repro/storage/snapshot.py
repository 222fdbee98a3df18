"""Crash-safe persistent OIP index snapshots.

A snapshot persists what a join needs to rebuild both OIP partitionings
exactly as it would: the two relations' endpoint columns (and, when
they are JSON-stable, their payloads), the granule policy and derived
``k`` in force, and the statistics the planner reads.  It does not
persist the partitionings themselves: OIPCREATE (Algorithm 1) costs
O(n log n) whatever ``k`` is, and a default snapshot holds ``k = 1``, so
loading one is a parse, a check of each side's columns and OIPCREATE at
the saved configuration.  Pairs,
:class:`~repro.storage.metrics.CostCounters`, ``ResilienceCounters`` and
run reports match an in-memory rebuild.

On-disk container (``save_index`` / ``load_index``), format version 2::

    +----------------------------------------------------------+
    | header   "<4sII"  magic b"OIPX" | version | section count|
    | table    "<16sQII" per section: name | offset | len | crc|
    | payloads  one contiguous blob per section                |
    +----------------------------------------------------------+

A file of any other version (version 1 stored the partition directory,
tuple permutation and block checksums) fails every reader with
:class:`SnapshotVersionError`.  Sections (integers ``array('q')`` in the
writer's byte order, which is recorded in ``meta`` and byte-swapped on
load when needed):

``meta``
    JSON: format/generation, ``k`` bookkeeping (mode, pinned values,
    derivation trace summary), the two ``OIPConfiguration`` triples,
    device ``tuples_per_block``, cost weights, byte order.
``stats``
    JSON per side: cardinality, time range, max duration, duration
    fraction, partition/tuple/block counts — what
    :meth:`repro.engine.planner.JoinPlanner.plan` reads without paying
    for the array sections.
``fingerprints``
    JSON per side: cardinality + CRC32 endpoint digest (+ payload
    content digest when payloads are JSON-stable).  A snapshot loads
    only against the relation it was built from.
``starts_<side>`` / ``ends_<side>``
    The relation's endpoint columns in relation order.  Every reader
    checks their lengths, that no tuple ends before it starts, and
    that they reproduce the fingerprinted endpoint digest; relation
    reconstruction (:class:`MaintainedIndex`, the query service) builds
    its tuples from them.
``payloads_<side>``
    JSON payload list (only when every payload is ``None``/bool/int/
    float/str), enabling journaled maintenance without the original
    relation.

Durability: :func:`atomic_commit` writes ``<path>.tmp``, flushes,
fsyncs, renames over the target and fsyncs the directory, under an
advisory ``flock`` (``<path>.lock``).  The four deterministic
write-path faults from :class:`repro.storage.faults.WriteFaultPolicy`
are honoured with true crash semantics: a torn write leaves a truncated
temp file, a failed rename leaves a complete orphan temp file, a
dropped fsync leaves the *renamed target* truncated, and a post-write
bit-flip silently corrupts one bit for the section CRCs to catch.

Maintenance: :class:`MaintenanceJournal` is an append-only CRC-framed
record log (magic b"OIPJ") tied to a snapshot generation;
:class:`MaintainedIndex` journals ``repro.core.incremental`` deltas
before applying them and compacts back into a fresh snapshot.
:func:`fsck_index` validates everything, truncates torn journal tails,
clears stale temp files and reports a machine-readable verdict.
"""

from __future__ import annotations

import json
import os
import struct
import sys
import time
import zlib
from array import array
from contextlib import contextmanager
from dataclasses import dataclass, field
from operator import le
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from .faults import (
    SimulatedCrashError,
    WriteFault,
    WriteFaultKind,
    WriteFaultPolicy,
)

try:  # pragma: no cover - POSIX everywhere we run CI
    import fcntl
except ImportError:  # pragma: no cover
    fcntl = None  # type: ignore[assignment]

__all__ = [
    "SNAPSHOT_MAGIC",
    "SNAPSHOT_VERSION",
    "JOURNAL_MAGIC",
    "JOURNAL_VERSION",
    "SnapshotError",
    "SnapshotFormatError",
    "SnapshotVersionError",
    "SnapshotMismatchError",
    "JournalReplayError",
    "IndexExpectation",
    "LoadedIndex",
    "ParsedSnapshot",
    "SideColumns",
    "JournalState",
    "MaintenanceJournal",
    "MaintainedIndex",
    "advisory_lock",
    "atomic_commit",
    "fsck_index",
    "journal_path",
    "load_index",
    "read_statistics",
    "relation_endpoint_digest",
    "save_index",
    "tmp_path",
]

SNAPSHOT_MAGIC = b"OIPX"
SNAPSHOT_VERSION = 2
JOURNAL_MAGIC = b"OIPJ"
JOURNAL_VERSION = 1

_HEADER = struct.Struct("<4sII")
_SECTION = struct.Struct("<16sQII")
_FRAME = struct.Struct("<II")
_JOURNAL_HEADER = struct.Struct("<4sIII")
_MAX_SECTIONS = 1024
_SIDES = ("outer", "inner")
#: Payload types whose ``repr`` and JSON round trip are both stable, so
#: the content digest and stored payloads saved with them reproduce.
_STABLE_PAYLOAD_TYPES = frozenset(
    (type(None), bool, int, float, str)
)

TMP_SUFFIX = ".tmp"
LOCK_SUFFIX = ".lock"
JOURNAL_SUFFIX = ".journal"


# ----------------------------------------------------------------------
# Errors
# ----------------------------------------------------------------------


class SnapshotError(RuntimeError):
    """A snapshot could not be used; ``reason`` is a stable slug the
    degradation metrics and fsck verdicts are keyed on."""

    reason = "snapshot"

    def __init__(self, message: str, *, reason: Optional[str] = None) -> None:
        super().__init__(message)
        if reason is not None:
            self.reason = reason


class SnapshotFormatError(SnapshotError):
    """The container is structurally invalid (magic, bounds, CRC)."""

    reason = "format"


class SnapshotVersionError(SnapshotFormatError):
    """The container declares a format version this code cannot read."""

    reason = "version"


class SnapshotMismatchError(SnapshotError):
    """A valid snapshot that does not belong to this join (different
    relations, different configuration)."""

    reason = "mismatch"


class JournalReplayError(SnapshotError):
    """A scanned journal record (a whole, CRC-valid frame) could not be
    applied to the snapshot it is based on.

    Carries the record's zero-based ``record_index`` and the byte
    ``offset`` of its frame within the journal file, so an operator can
    inspect or trim the exact record instead of guessing which delta is
    poisoned.
    """

    reason = "journal_replay"

    def __init__(
        self,
        message: str,
        *,
        record_index: int,
        offset: Optional[int],
        path: Optional[str] = None,
    ) -> None:
        super().__init__(message, reason="journal_replay")
        self.record_index = record_index
        self.offset = offset
        self.path = path


# ----------------------------------------------------------------------
# Paths, locks, atomic commits
# ----------------------------------------------------------------------


def tmp_path(path: str) -> str:
    """The temp file :func:`atomic_commit` stages *path* through."""
    return path + TMP_SUFFIX


def journal_path(path: str) -> str:
    """The maintenance journal that belongs to snapshot *path*."""
    return path + JOURNAL_SUFFIX


def _lock_file(path: str) -> str:
    return path + LOCK_SUFFIX


@contextmanager
def advisory_lock(path: str, exclusive: bool = True) -> Iterator[None]:
    """Advisory ``flock`` on ``<path>.lock`` (shared for readers,
    exclusive for writers).  A no-op where ``fcntl`` is unavailable —
    the rename-based commit is still atomic, only concurrent-open
    politeness is lost."""
    if fcntl is None:  # pragma: no cover - non-POSIX fallback
        yield
        return
    handle = open(_lock_file(path), "a+b")
    try:
        fcntl.flock(
            handle.fileno(),
            fcntl.LOCK_EX if exclusive else fcntl.LOCK_SH,
        )
        try:
            yield
        finally:
            fcntl.flock(handle.fileno(), fcntl.LOCK_UN)
    finally:
        handle.close()


def _fsync_directory(directory: str) -> None:
    """Make a rename durable; ignored where directories can't be
    fsynced (some filesystems/platforms)."""
    try:
        fd = os.open(directory or ".", os.O_RDONLY)
    except OSError:  # pragma: no cover - platform quirk
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - platform quirk
        pass
    finally:
        os.close(fd)


def _flip_bit(path: str, offset: int) -> None:
    """Post-commit bit rot: XOR one deterministic bit at *offset*."""
    with open(path, "r+b") as handle:
        handle.seek(0, os.SEEK_END)
        size = handle.tell()
        if size == 0:
            return
        offset = min(offset, size - 1)
        handle.seek(offset)
        byte = handle.read(1)[0]
        handle.seek(offset)
        handle.write(bytes((byte ^ (1 << (offset % 8)),)))


def atomic_commit(
    path: str,
    data: bytes,
    *,
    write_faults: Optional[WriteFaultPolicy] = None,
    commit: int = 0,
    fsync: bool = True,
    cancellation: Any = None,
    pre_rename_delay_s: float = 0.0,
) -> int:
    """Publish *data* at *path* via temp file + fsync + rename.

    When *write_faults* schedules a crash for this commit, the on-disk
    state is left exactly as a real crash at that stage would leave it
    and :class:`SimulatedCrashError` propagates.  Any *other* failure —
    including cooperative cancellation, checked right before the write
    and right before the rename — removes the temp file, so an
    interrupted save never leaves ``*.tmp`` litter beside a valid
    index.

    *pre_rename_delay_s* sleeps between writing the temp file and
    publishing it — it widens the window in which an external crash
    (e.g. ``SIGKILL``) lands with a complete ``*.tmp`` beside the old
    index, which is what the recovery smoke tests exercise.
    """
    staging = tmp_path(path)
    fault = WriteFault(WriteFaultKind.OK)
    if write_faults is not None:
        fault = write_faults.decide_commit(
            os.path.basename(path), len(data), commit
        )
    try:
        if cancellation is not None:
            cancellation.raise_if_cancelled()
        with open(staging, "wb") as handle:
            if fault.kind is WriteFaultKind.TORN_WRITE:
                handle.write(data[: fault.offset or 0])
                handle.flush()
                os.fsync(handle.fileno())
                raise SimulatedCrashError(path, "write", fault.offset)
            handle.write(data)
            handle.flush()
            # A dropped fsync: the write call "succeeded" but the data
            # never reached the platters before the crash below.
            if fsync and fault.kind is not WriteFaultKind.DROPPED_FSYNC:
                os.fsync(handle.fileno())
        if pre_rename_delay_s > 0.0:
            time.sleep(pre_rename_delay_s)
        if cancellation is not None:
            cancellation.raise_if_cancelled()
        if fault.kind is WriteFaultKind.FAILED_RENAME:
            raise SimulatedCrashError(path, "rename")
        os.replace(staging, path)
        if fault.kind is WriteFaultKind.DROPPED_FSYNC:
            # The rename was recorded but the unsynced data was lost:
            # the crash leaves the *target* torn at the lost offset.
            os.truncate(path, fault.offset or 0)
            raise SimulatedCrashError(path, "fsync", fault.offset)
        if fsync:
            _fsync_directory(os.path.dirname(os.path.abspath(path)))
        if fault.kind is WriteFaultKind.BIT_FLIP:
            _flip_bit(path, fault.offset or 0)
    except SimulatedCrashError:
        raise
    except BaseException:
        try:
            os.unlink(staging)
        except OSError:
            pass
        raise
    return len(data)


# ----------------------------------------------------------------------
# Section container
# ----------------------------------------------------------------------


def _pack_sections(sections: Dict[str, bytes]) -> bytes:
    """Serialise the ``{name: payload}`` mapping into the container."""
    if len(sections) > _MAX_SECTIONS:
        raise ValueError(f"too many sections: {len(sections)}")
    header = _HEADER.pack(SNAPSHOT_MAGIC, SNAPSHOT_VERSION, len(sections))
    offset = len(header) + _SECTION.size * len(sections)
    table = []
    payloads = []
    for name, payload in sections.items():
        raw = name.encode("ascii")
        if len(raw) > 16:
            raise ValueError(f"section name too long: {name!r}")
        table.append(
            _SECTION.pack(
                raw.ljust(16, b"\x00"),
                offset,
                len(payload),
                zlib.crc32(payload),
            )
        )
        payloads.append(payload)
        offset += len(payload)
    return b"".join([header, *table, *payloads])


def _parse_section_table(
    blob: bytes, total_size: Optional[int] = None
) -> List[Tuple[str, int, int, int]]:
    if total_size is None:
        total_size = len(blob)
    if len(blob) < _HEADER.size:
        raise SnapshotFormatError(
            f"truncated header: {len(blob)} bytes", reason="truncated"
        )
    magic, version, count = _HEADER.unpack_from(blob)
    if magic != SNAPSHOT_MAGIC:
        raise SnapshotFormatError(
            f"bad magic {magic!r}", reason="bad_magic"
        )
    if version != SNAPSHOT_VERSION:
        raise SnapshotVersionError(
            f"unsupported snapshot format version {version} "
            f"(this build reads {SNAPSHOT_VERSION})"
        )
    if count > _MAX_SECTIONS:
        raise SnapshotFormatError(
            f"implausible section count {count}", reason="truncated"
        )
    table_end = _HEADER.size + _SECTION.size * count
    if len(blob) < table_end:
        raise SnapshotFormatError(
            "truncated section table", reason="truncated"
        )
    entries = []
    for index in range(count):
        raw, offset, length, crc = _SECTION.unpack_from(
            blob, _HEADER.size + _SECTION.size * index
        )
        try:
            name = raw.rstrip(b"\x00").decode("ascii")
        except UnicodeDecodeError:
            raise SnapshotFormatError(
                "non-ascii section name", reason="truncated"
            ) from None
        if offset < table_end or offset + length > total_size:
            raise SnapshotFormatError(
                f"section {name!r} [{offset}, {offset + length}) "
                f"outside the {total_size}-byte container",
                reason="truncated",
            )
        entries.append((name, offset, length, crc))
    return entries


def _parse_sections(blob: bytes) -> Dict[str, bytes]:
    """Validate the container and return ``{name: payload}``."""
    sections: Dict[str, bytes] = {}
    for name, offset, length, crc in _parse_section_table(blob):
        payload = blob[offset : offset + length]
        if zlib.crc32(payload) != crc:
            raise SnapshotFormatError(
                f"checksum mismatch in section {name!r}",
                reason="section_crc",
            )
        sections[name] = payload
    return sections


def _json_bytes(value: Any) -> bytes:
    return json.dumps(
        value, sort_keys=True, separators=(",", ":")
    ).encode("utf-8")


def _section(sections: Dict[str, bytes], name: str) -> bytes:
    try:
        return sections[name]
    except KeyError:
        raise SnapshotFormatError(
            f"missing section {name!r}", reason="missing_section"
        ) from None


def _json_section(sections: Dict[str, bytes], name: str) -> Any:
    payload = _section(sections, name)
    try:
        return json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise SnapshotFormatError(
            f"invalid JSON in section {name!r}: {error}",
            reason="section_json",
        ) from None


def _array_section(
    sections: Dict[str, bytes], name: str, byteorder: str
) -> array:
    payload = _section(sections, name)
    values = array("q")
    if len(payload) % values.itemsize:
        raise SnapshotFormatError(
            f"section {name!r} is not a whole number of int64s",
            reason="inconsistent",
        )
    values.frombytes(payload)
    if byteorder != sys.byteorder:
        values.byteswap()
    return values


# ----------------------------------------------------------------------
# Fingerprints
# ----------------------------------------------------------------------


def _digest_cache(relation: Any) -> Optional[Dict[str, int]]:
    """The relation's lazily-created fingerprint memo, or ``None`` for
    duck-typed relations without the ``_digests`` slot.

    Memoisation is sound because :class:`~repro.core.relation
    .TemporalRelation` is immutable after construction — every derived
    operation (filter, head, sample) returns a *new* relation, so a
    digest computed once holds for the object's lifetime.  Both
    fingerprints are O(n) per relation; caching them makes repeated
    save/load cycles against the same relation pay that cost once.
    """
    try:
        cache = relation._digests
        if cache is None:
            cache = relation._digests = {}
        return cache
    except AttributeError:  # pragma: no cover - non-standard relation
        return None


def relation_endpoint_digest(relation: Any) -> int:
    """Order-sensitive CRC32 over the relation's endpoint columns.

    Computed on little-endian bytes so the digest — unlike the array
    sections — is identical across writer platforms.  Memoised per
    relation instance (see :func:`_digest_cache`).
    """
    cache = _digest_cache(relation)
    if cache is not None and "endpoint" in cache:
        return cache["endpoint"]
    crc = _endpoint_crc(relation.starts, relation.ends)
    if cache is not None:
        cache["endpoint"] = crc
    return crc


def _endpoint_crc(starts: array, ends: array) -> int:
    """The :func:`relation_endpoint_digest` of ``array('q')`` endpoint
    columns given in relation order."""
    if sys.byteorder != "little":  # pragma: no cover - big-endian host
        starts, ends = array("q", starts), array("q", ends)
        starts.byteswap()
        ends.byteswap()
    return zlib.crc32(ends, zlib.crc32(starts))


def _payloads_stable(tuples: Sequence[Any]) -> bool:
    return all(type(tup.payload) in _STABLE_PAYLOAD_TYPES for tup in tuples)


def _content_digest(relation: Any) -> int:
    """Order-sensitive CRC32 over ``repr`` of the payload column,
    memoised per relation instance (see :func:`_digest_cache`)."""
    cache = _digest_cache(relation)
    if cache is not None and "content" in cache:
        return cache["content"]
    crc = zlib.crc32(
        repr(
            [tup.payload for tup in relation.tuples]
        ).encode("utf-8", "replace")
    )
    if cache is not None:
        cache["content"] = crc
    return crc


# ----------------------------------------------------------------------
# One side's columns
# ----------------------------------------------------------------------


def _inconsistent(side: str, problem: str) -> SnapshotFormatError:
    return SnapshotFormatError(f"{side} {problem}", reason="inconsistent")


@dataclass(frozen=True)
class SideColumns:
    """One side of a snapshot: the saved relation's endpoint columns in
    relation order and the side's configuration, and the only code that
    knows their section names and layout.

    :meth:`decode` checks everything a reader relies on, so restore,
    reconstruction, maintenance and ``fsck`` accept exactly the same
    sides.
    """

    config: Any
    starts: array
    ends: array

    def sections(self, side: str) -> Dict[str, bytes]:
        """The side's sections, in the order the container stores them."""
        return {
            f"starts_{side}": self.starts.tobytes(),
            f"ends_{side}": self.ends.tobytes(),
        }

    @classmethod
    def decode(
        cls,
        sections: Dict[str, bytes],
        side: str,
        meta: Dict[str, Any],
        fingerprints: Any,
    ) -> "SideColumns":
        """Decode one side and check it whole, before any partition list
        is built — restore must be infallible so a degrade can never
        leave half an index charged to the caller's counters.  Raises
        :class:`SnapshotFormatError` (``missing_section``,
        ``section_json`` or ``inconsistent``)."""
        from ..core.oip import OIPConfiguration

        byteorder = meta["byteorder"]
        starts, ends = (
            _array_section(sections, f"{name}_{side}", byteorder)
            for name in ("starts", "ends")
        )
        recorded = meta[f"config_{side}"]
        try:
            config = OIPConfiguration(
                k=recorded["k"], d=recorded["d"], o=recorded["o"]
            )
        except (TypeError, KeyError, ValueError) as error:
            raise SnapshotFormatError(
                f"invalid {side} configuration: {error}",
                reason="section_json",
            ) from None
        fingerprint = (
            fingerprints.get(side) if isinstance(fingerprints, dict) else None
        )
        if not isinstance(fingerprint, dict):
            fingerprint = {}
        cardinality = fingerprint.get("cardinality")
        lengths = (len(starts), len(ends))
        if lengths != (cardinality,) * 2:
            raise _inconsistent(
                side, f"columns cover {lengths} tuples, not {cardinality}"
            )
        if not all(map(le, starts, ends)):
            raise _inconsistent(side, "holds a tuple ending before its start")
        endpoint_crc = fingerprint.get("endpoint_crc")
        if endpoint_crc is not None and _endpoint_crc(starts, ends) != (
            endpoint_crc
        ):
            raise _inconsistent(
                side, "endpoints differ from the saved relation's"
            )
        return cls(config, starts, ends)

    def relation_tuples(self, payloads: Sequence[Any]) -> List[Any]:
        """The side's tuples in relation order, built from its columns
        and *payloads* (in relation order)."""
        from ..core.relation import TemporalTuple

        return list(map(TemporalTuple, self.starts, self.ends, payloads))


# ----------------------------------------------------------------------
# Saving
# ----------------------------------------------------------------------


def _next_generation(path: str) -> int:
    """Auto-increment: one past the existing snapshot's generation."""
    try:
        sections = _parse_sections(_read_snapshot_bytes(path))
        return int(_json_section(sections, "meta")["generation"]) + 1
    except (SnapshotError, KeyError, TypeError, ValueError):
        return 0


def save_index(
    path: str,
    outer: Any,
    inner: Any,
    *,
    device: Any = None,
    weights: Any = None,
    k: Optional[int] = None,
    k_outer: Optional[int] = None,
    k_inner: Optional[int] = None,
    use_exact_root: bool = True,
    use_histogram_statistics: bool = False,
    store_payloads: bool = True,
    generation: Optional[int] = None,
    write_faults: Optional[WriteFaultPolicy] = None,
    cancellation: Any = None,
    fsync: bool = True,
    pre_rename_delay_s: float = 0.0,
) -> Dict[str, Any]:
    """Persist both relations under the ``k`` a join would derive for
    them, atomically.  Both partitionings are built once, for the
    ``stats`` the planner reads; a load builds them again.

    Returns a summary dict (path, bytes, generation, k, partition
    counts).  ``generation`` defaults to one past any existing
    snapshot's at *path* (0 for a fresh file).
    """
    # Imported lazily: repro.storage must stay importable without
    # pulling the whole core layer in at import time.
    from ..core.granules import GranulePolicy
    from ..core.lazy_list import oip_create
    from ..core.oip import OIPConfiguration
    from .device import DeviceProfile
    from .manager import StorageManager

    if outer.is_empty or inner.is_empty:
        raise ValueError("cannot snapshot an empty relation")
    if device is None:
        device = DeviceProfile.main_memory()
    # The same policy OIPJoin runs, so a saved index is interchangeable
    # with what the join would build.
    policy = GranulePolicy(
        k=k,
        k_outer=k_outer,
        k_inner=k_inner,
        weights=weights,
        use_exact_root=use_exact_root,
        use_histogram_statistics=use_histogram_statistics,
    ).resolved()
    derivation = policy.derive(outer, inner, device)
    chosen_outer, chosen_inner = policy.counts(outer, inner, derivation)
    config_outer = OIPConfiguration.for_relation(outer, chosen_outer)
    config_inner = OIPConfiguration.for_relation(inner, chosen_inner)
    storage = StorageManager(device=device)
    outer_list = oip_create(outer, config_outer, storage)
    inner_list = oip_create(inner, config_inner, storage)
    if generation is None:
        generation = _next_generation(path)

    sections: Dict[str, bytes] = {}
    stats: Dict[str, Any] = {}
    fingerprints: Dict[str, Any] = {}
    payloads_stored = True
    sides = (
        ("outer", outer, outer_list, config_outer),
        ("inner", inner, inner_list, config_inner),
    )
    for side, relation, partition_list, config in sides:
        tuples = relation.tuples
        stable = _payloads_stable(tuples)
        sections.update(
            SideColumns(config, relation.starts, relation.ends).sections(side)
        )
        if stable and store_payloads:
            sections[f"payloads_{side}"] = _json_bytes(
                [tup.payload for tup in tuples]
            )
        else:
            payloads_stored = False
        stats[side] = {
            "cardinality": relation.cardinality,
            "time_range": list(relation.time_range.as_tuple()),
            "max_duration": relation.max_duration,
            "duration_fraction": relation.duration_fraction,
            "partitions": partition_list.partition_count,
            "tuples": partition_list.tuple_count,
            "blocks": len(partition_list.columns.checksums),
        }
        fingerprints[side] = {
            "cardinality": relation.cardinality,
            "endpoint_crc": relation_endpoint_digest(relation),
            "content_crc": _content_digest(relation) if stable else None,
        }

    meta = {
        "format": SNAPSHOT_VERSION,
        "generation": generation,
        "byteorder": sys.byteorder,
        "tuples_per_block": device.tuples_per_block,
        **policy.meta(),
        "k_outer": chosen_outer,
        "k_inner": chosen_inner,
        "k_steps": derivation.steps if derivation is not None else None,
        "k_oscillated": (
            derivation.oscillated if derivation is not None else None
        ),
        "config_outer": {
            "k": config_outer.k, "d": config_outer.d, "o": config_outer.o
        },
        "config_inner": {
            "k": config_inner.k, "d": config_inner.d, "o": config_inner.o
        },
        "payloads_stored": payloads_stored,
        "outer_name": outer.name,
        "inner_name": inner.name,
    }
    ordered: Dict[str, bytes] = {
        "meta": _json_bytes(meta),
        "stats": _json_bytes(stats),
        "fingerprints": _json_bytes(fingerprints),
    }
    ordered.update(sections)
    blob = _pack_sections(ordered)
    with advisory_lock(path, exclusive=True):
        atomic_commit(
            path,
            blob,
            write_faults=write_faults,
            fsync=fsync,
            cancellation=cancellation,
            pre_rename_delay_s=pre_rename_delay_s,
        )
    return {
        "path": path,
        "bytes": len(blob),
        "generation": generation,
        "k_outer": chosen_outer,
        "k_inner": chosen_inner,
        "k_mode": policy.mode,
        "outer_partitions": outer_list.partition_count,
        "inner_partitions": inner_list.partition_count,
        "payloads_stored": payloads_stored,
        "sections": list(ordered),
    }


# ----------------------------------------------------------------------
# Loading
# ----------------------------------------------------------------------


@dataclass
class LoadedIndex:
    """Both partition lists built at a snapshot's saved configuration,
    plus the metadata the join needs to report exactly what a rebuild
    would report."""

    path: str
    generation: int
    k_outer: int
    k_inner: int
    outer_list: Any
    inner_list: Any
    meta: Dict[str, Any]
    stats: Dict[str, Any]


@contextmanager
def _snapshot_file_errors(path: str) -> Iterator[None]:
    """Turn a failure to open or read the snapshot at *path* into a
    :class:`SnapshotError` (``missing`` or ``unreadable``)."""
    try:
        yield
    except FileNotFoundError:
        raise SnapshotError(
            f"no snapshot at {path!r}", reason="missing"
        ) from None
    except OSError as error:
        raise SnapshotError(
            f"unreadable snapshot {path!r}: {error}", reason="unreadable"
        ) from None


def _read_snapshot_bytes(path: str) -> bytes:
    with _snapshot_file_errors(path), open(path, "rb") as handle:
        return handle.read()


def _require_meta(sections: Dict[str, bytes]) -> Dict[str, Any]:
    meta = _json_section(sections, "meta")
    if not isinstance(meta, dict):
        raise SnapshotFormatError(
            "meta section is not an object", reason="section_json"
        )
    required = (
        "generation",
        "byteorder",
        "tuples_per_block",
        "k_mode",
        "k_outer",
        "k_inner",
        "config_outer",
        "config_inner",
    )
    for key in required:
        if key not in meta:
            raise SnapshotFormatError(
                f"meta section lacks {key!r}", reason="section_json"
            )
    if meta["byteorder"] not in ("little", "big"):
        raise SnapshotFormatError(
            f"unknown byte order {meta['byteorder']!r}",
            reason="section_json",
        )
    return meta


@dataclass(frozen=True)
class IndexExpectation:
    """What a join requires of a snapshot: its device's block size and
    its :class:`~repro.core.granules.GranulePolicy` (weights resolved)."""

    tuples_per_block: int
    policy: Any


def _check_expected(meta: Dict[str, Any], expected: IndexExpectation) -> None:
    """Degrade rather than load an index built under a different
    configuration — the structure (and the counters) would differ."""
    problem = expected.policy.mismatch(meta, expected.tuples_per_block)
    if problem is not None:
        raise SnapshotMismatchError(
            "snapshot {} is {!r}, join expects {!r}".format(*problem),
            reason="config_mismatch",
        )


def _check_fingerprints(
    fingerprints: Dict[str, Any], outer: Any, inner: Any
) -> None:
    for side, relation in (("outer", outer), ("inner", inner)):
        recorded = fingerprints.get(side)
        if not isinstance(recorded, dict):
            raise SnapshotFormatError(
                f"fingerprints section lacks {side!r}",
                reason="section_json",
            )
        if recorded.get("cardinality") != relation.cardinality:
            raise SnapshotMismatchError(
                f"{side} cardinality {relation.cardinality} != "
                f"snapshot's {recorded.get('cardinality')}",
                reason="fingerprint_mismatch",
            )
        if recorded.get("endpoint_crc") != relation_endpoint_digest(
            relation
        ):
            raise SnapshotMismatchError(
                f"{side} endpoint digest mismatch — the snapshot was "
                "built from a different relation",
                reason="fingerprint_mismatch",
            )
        content_crc = recorded.get("content_crc")
        if content_crc is not None and content_crc != _content_digest(
            relation
        ):
            # No stability precheck needed: an unstable payload type in
            # the caller's relation cannot reproduce the digest a
            # stable-typed save recorded.
            raise SnapshotMismatchError(
                f"{side} payload digest mismatch",
                reason="fingerprint_mismatch",
            )


@dataclass
class ParsedSnapshot:
    """A snapshot container parsed (section table and CRCs verified)
    into memory, split from restoration.

    Parsing touches only the file; restoration touches only the parsed
    bytes.  A long-lived service uses the split to *pin* one
    generation's sections in memory and keep restoring partition lists
    from them — bit-identically to :func:`load_index` — while the file
    on disk is atomically replaced by the next generation.
    """

    path: str
    sections: Dict[str, bytes]
    meta: Dict[str, Any]
    stats: Any
    fingerprints: Any
    #: Per side, its decoded and checked :class:`SideColumns`.
    _columns: Dict[str, SideColumns] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    #: Per side, ``(relation, tuples per block, partition list)`` of
    #: the last restore: OIPCREATE's list of that relation, whose
    #: columns keep their checksum verdicts and decoded runs.  A restore
    #: against the same relation object reuses it and only allocates
    #: the runs' blocks.
    _sides: Dict[str, Tuple[Any, int, Any]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    @classmethod
    def read(cls, path: str) -> "ParsedSnapshot":
        """Parse the snapshot at *path* (shared advisory lock)."""
        with advisory_lock(path, exclusive=False):
            blob = _read_snapshot_bytes(path)
        return cls.parse(path, blob)

    @classmethod
    def parse(cls, path: str, blob: bytes) -> "ParsedSnapshot":
        """Parse an already-read container blob."""
        return cls.of_sections(path, _parse_sections(blob))

    @classmethod
    def of_sections(
        cls, path: str, sections: Dict[str, bytes]
    ) -> "ParsedSnapshot":
        """A snapshot over already CRC-checked sections."""
        return cls(
            path=path,
            sections=sections,
            meta=_require_meta(sections),
            stats=_json_section(sections, "stats"),
            fingerprints=_json_section(sections, "fingerprints"),
        )

    @property
    def generation(self) -> int:
        return int(self.meta["generation"])

    @property
    def payloads_stored(self) -> bool:
        return bool(self.meta.get("payloads_stored"))

    def side(self, side: str) -> SideColumns:
        """One side's columns, decoded and checked once per parsed
        snapshot (see :meth:`SideColumns.decode`)."""
        columns = self._columns.get(side)
        if columns is None:
            columns = self._columns[side] = SideColumns.decode(
                self.sections, side, self.meta, self.fingerprints
            )
        return columns

    def reconstruct_side(self, side: str) -> List[Any]:
        """Rebuild one side's tuples in *relation order* from the
        columnar sections alone (requires stored payloads) — how
        :class:`MaintainedIndex` and the query service obtain relations
        without the original workload in hand."""
        columns = self.side(side)
        payloads = _json_section(self.sections, f"payloads_{side}")
        if not isinstance(payloads, list) or len(payloads) != len(
            columns.starts
        ):
            raise _inconsistent(side, "payloads miscount the tuples")
        return columns.relation_tuples(payloads)

    def reconstruct_relations(self) -> Tuple[Any, Any]:
        """Rebuild both source relations from the snapshot's columns.

        Raises :class:`SnapshotError` (``reason="no_payloads"``) for
        snapshots saved without stored payloads — without them the
        original tuples cannot be reproduced.
        """
        from ..core.relation import TemporalRelation

        if not self.payloads_stored:
            raise SnapshotError(
                "relation reconstruction requires a snapshot saved with "
                "stored payloads (store_payloads=True and JSON-stable "
                "payloads)",
                reason="no_payloads",
            )
        relations = []
        for side in _SIDES:
            relations.append(
                TemporalRelation(
                    self.reconstruct_side(side),
                    name=str(self.meta.get(f"{side}_name", side)),
                )
            )
        return tuple(relations)

    def restore(
        self,
        outer: Any,
        inner: Any,
        *,
        storage: Any,
        expected: Optional[IndexExpectation] = None,
    ) -> LoadedIndex:
        """Both partition lists of the caller's relations at the
        snapshot's saved configuration, in *storage*.

        Each side is built once per relation and block size by OIPCREATE
        and kept, with its checksum verdicts and decoded runs; every
        restore hands out fresh runs over it, allocated from *storage*
        in creation order, outer side first — the block ids and write
        charges of a build into *storage*.

        Raises :class:`SnapshotError` (with a stable ``reason`` slug)
        when the snapshot was built under a different configuration or
        from different relations — the caller degrades to an in-memory
        rebuild.  All validation happens before the first block is
        allocated, so a failed restore leaves *storage* untouched.
        """
        # Looked up at call time, so a wrapper installed on oip_create
        # (a profiler) sees these builds too.
        from ..core import lazy_list
        from ..core.oip import OIPConfiguration
        from .manager import StorageManager

        meta = self.meta
        if expected is not None:
            _check_expected(meta, expected)
        _check_fingerprints(self.fingerprints, outer, inner)

        device = storage.device
        built = []
        for side, relation in (("outer", outer), ("inner", inner)):
            config = self.side(side).config
            if config != OIPConfiguration.for_relation(
                relation, meta[f"k_{side}"]
            ):
                raise SnapshotMismatchError(
                    f"{side} configuration {config} does not match the "
                    "relation's time range",
                    reason="config_mismatch",
                )
            memo = self._sides.get(side)
            if (
                memo is None
                or memo[0] is not relation
                or memo[1] != device.tuples_per_block
            ):
                built_list = lazy_list.oip_create(
                    relation, config, StorageManager(device=device)
                )
                memo = (relation, device.tuples_per_block, built_list)
                self._sides[side] = memo
            built.append(memo[2])

        outer_list, inner_list = (
            partition_list.reallocated(storage) for partition_list in built
        )
        return LoadedIndex(
            path=self.path,
            generation=self.generation,
            k_outer=int(meta["k_outer"]),
            k_inner=int(meta["k_inner"]),
            outer_list=outer_list,
            inner_list=inner_list,
            meta=meta,
            stats=self.stats,
        )


def load_index(
    path: str,
    outer: Any,
    inner: Any,
    *,
    storage: Any,
    expected: Optional[IndexExpectation] = None,
) -> LoadedIndex:
    """Restore both partition lists from the snapshot at *path*.

    Raises :class:`SnapshotError` (with a stable ``reason`` slug) when
    the snapshot is missing, corrupt, from a different format version,
    built under a different configuration, or built from different
    relations — the caller degrades to an in-memory rebuild.  All
    validation happens before the first block is materialised, so a
    failed load leaves *storage* untouched.
    """
    return ParsedSnapshot.read(path).restore(
        outer, inner, storage=storage, expected=expected
    )


def read_statistics(path: str) -> Dict[str, Any]:
    """Read only the ``meta`` and ``stats`` sections (CRC-checked) —
    what the planner needs, without touching the array sections."""
    with advisory_lock(path, exclusive=False), _snapshot_file_errors(
        path
    ), open(path, "rb") as handle:
        total_size = os.fstat(handle.fileno()).st_size
        prefix = handle.read(_HEADER.size)
        if len(prefix) == _HEADER.size:
            _, _, count = _HEADER.unpack(prefix)
            prefix += handle.read(_SECTION.size * min(count, _MAX_SECTIONS))
        entries = _parse_section_table(prefix, total_size)
        wanted: Dict[str, bytes] = {}
        for name, offset, length, crc in entries:
            if name not in ("meta", "stats"):
                continue
            handle.seek(offset)
            payload = handle.read(length)
            if len(payload) != length or zlib.crc32(payload) != crc:
                raise SnapshotFormatError(
                    f"checksum mismatch in section {name!r}",
                    reason="section_crc",
                )
            wanted[name] = payload
    meta = _require_meta(wanted)
    return {"meta": meta, "stats": _json_section(wanted, "stats")}


# ----------------------------------------------------------------------
# Maintenance journal
# ----------------------------------------------------------------------


@dataclass
class JournalState:
    """What a scan of the journal found (``fsck`` verdict material)."""

    path: str
    exists: bool = False
    header_ok: bool = False
    generation: Optional[int] = None
    records: List[Dict[str, Any]] = field(default_factory=list)
    #: Byte offset of each record's frame within the file (parallel to
    #: ``records``) — how a replay failure names the offending record.
    offsets: List[int] = field(default_factory=list)
    #: Byte length of the valid prefix — truncating here repairs a torn
    #: tail.
    good_length: int = 0
    torn: bool = False


class MaintenanceJournal:
    """Append-only CRC-framed record log tied to a snapshot generation.

    Layout: a fixed header (magic b"OIPJ", version, base generation,
    header CRC) followed by frames of ``"<II"`` (payload length, payload
    CRC32) + a JSON record.  Appends are fsynced, so an acknowledged
    delta survives a crash; a torn tail stops replay at the last whole
    frame and is truncated by :func:`fsck_index`.
    """

    def __init__(
        self,
        path: str,
        *,
        fsync: bool = True,
        write_faults: Optional[WriteFaultPolicy] = None,
    ) -> None:
        self.path = path
        self.fsync = fsync
        self.write_faults = write_faults
        self._commit = 0

    @classmethod
    def for_index(cls, index_path: str, **kwargs: Any) -> "MaintenanceJournal":
        return cls(journal_path(index_path), **kwargs)

    def _next_commit(self) -> int:
        commit = self._commit
        self._commit += 1
        return commit

    def reset(self, generation: int) -> None:
        """Atomically replace the journal with an empty one based on
        *generation* (called right after a snapshot commit)."""
        header = _JOURNAL_HEADER.pack(
            JOURNAL_MAGIC,
            JOURNAL_VERSION,
            generation,
            zlib.crc32(struct.pack("<II", JOURNAL_VERSION, generation)),
        )
        atomic_commit(
            self.path,
            header,
            write_faults=self.write_faults,
            commit=self._next_commit(),
            fsync=self.fsync,
        )

    def append(self, record: Dict[str, Any]) -> None:
        """Durably append one maintenance record.

        The write-fault hooks apply: a torn write (or a dropped fsync —
        equivalent for an append) leaves a partial final frame and
        raises :class:`SimulatedCrashError`; a bit-flip silently
        corrupts the frame for replay's CRC to catch.
        """
        payload = _json_bytes(record)
        frame = _FRAME.pack(len(payload), zlib.crc32(payload)) + payload
        fault = WriteFault(WriteFaultKind.OK)
        if self.write_faults is not None:
            fault = self.write_faults.decide_commit(
                os.path.basename(self.path),
                len(frame),
                self._next_commit(),
            )
        if fault.kind is WriteFaultKind.BIT_FLIP:
            corrupted = bytearray(frame)
            offset = min(fault.offset or 0, len(corrupted) - 1)
            corrupted[offset] ^= 1 << (offset % 8)
            frame = bytes(corrupted)
        with open(self.path, "ab") as handle:
            if fault.kind in (
                WriteFaultKind.TORN_WRITE,
                WriteFaultKind.DROPPED_FSYNC,
            ):
                offset = min(fault.offset or 0, len(frame))
                handle.write(frame[:offset])
                handle.flush()
                os.fsync(handle.fileno())
                raise SimulatedCrashError(self.path, "journal-append", offset)
            handle.write(frame)
            handle.flush()
            if self.fsync:
                os.fsync(handle.fileno())

    def scan(self) -> JournalState:
        """Walk the journal: header, then frames up to the first torn
        or corrupt one.  Never mutates the file."""
        state = JournalState(path=self.path)
        try:
            with open(self.path, "rb") as handle:
                blob = handle.read()
        except FileNotFoundError:
            return state
        except OSError:
            return state
        state.exists = True
        if len(blob) < _JOURNAL_HEADER.size:
            return state
        magic, version, generation, crc = _JOURNAL_HEADER.unpack_from(blob)
        if magic != JOURNAL_MAGIC or version != JOURNAL_VERSION:
            return state
        if crc != zlib.crc32(struct.pack("<II", version, generation)):
            return state
        state.header_ok = True
        state.generation = generation
        cursor = _JOURNAL_HEADER.size
        while cursor < len(blob):
            if cursor + _FRAME.size > len(blob):
                state.torn = True
                break
            length, frame_crc = _FRAME.unpack_from(blob, cursor)
            start = cursor + _FRAME.size
            if start + length > len(blob):
                state.torn = True
                break
            payload = blob[start : start + length]
            if zlib.crc32(payload) != frame_crc:
                state.torn = True
                break
            try:
                record = json.loads(payload.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError):
                state.torn = True
                break
            state.records.append(record)
            state.offsets.append(cursor)
            cursor = start + length
        state.good_length = cursor if state.torn else len(blob)
        return state

    def truncate_tail(self, good_length: int) -> None:
        """Drop a torn tail (the fsck repair)."""
        os.truncate(self.path, good_length)


# ----------------------------------------------------------------------
# Maintained index: snapshot + journaled incremental deltas
# ----------------------------------------------------------------------


class MaintainedIndex:
    """A persisted OIP index that accepts journaled insert/delete deltas.

    Deltas go journal-first (a crash after the fsync replays them, a
    crash during it loses only the unacknowledged record), are applied
    to per-side :class:`~repro.core.incremental.IncrementalOIP`
    structures, and become join-visible when :meth:`compact` folds them
    into a fresh snapshot generation and resets the journal — the
    snapshot commit is the linearization point.

    Requires a snapshot saved with ``store_payloads=True`` (stable
    payloads), because maintenance reconstructs tuples without the
    original relation.
    """

    def __init__(
        self,
        path: str,
        *,
        device: Any,
        meta: Dict[str, Any],
        tuples: Dict[str, List[Any]],
        incremental: Dict[str, Any],
        journal: MaintenanceJournal,
        pending: int,
    ) -> None:
        self.path = path
        self._device = device
        self._meta = meta
        self._tuples = tuples
        self._incremental = incremental
        self._journal = journal
        self._pending = pending

    # -- construction --------------------------------------------------------

    @classmethod
    def open(
        cls,
        path: str,
        *,
        device: Any = None,
        fsync: bool = True,
        write_faults: Optional[WriteFaultPolicy] = None,
    ) -> "MaintainedIndex":
        """Load the snapshot, reconcile the journal, replay deltas.

        A journal that is missing, unreadable, or based on a different
        generation than the snapshot is *stale* and is atomically reset
        (the snapshot is authoritative); a torn tail is replayed up to
        the last whole frame and left for :func:`fsck_index` to trim.
        """
        from ..core.incremental import IncrementalOIP
        from .device import DeviceProfile

        if device is None:
            device = DeviceProfile.main_memory()
        with advisory_lock(path, exclusive=True):
            blob = _read_snapshot_bytes(path)
        parsed = ParsedSnapshot.parse(path, blob)
        meta = parsed.meta
        if not parsed.payloads_stored:
            raise SnapshotError(
                "maintenance requires a snapshot saved with stored "
                "payloads (store_payloads=True and JSON-stable payloads)",
                reason="no_payloads",
            )
        if device.tuples_per_block != meta["tuples_per_block"]:
            raise SnapshotMismatchError(
                f"device packs {device.tuples_per_block} tuples per "
                f"block; the snapshot used {meta['tuples_per_block']}",
                reason="config_mismatch",
            )
        tuples: Dict[str, List[Any]] = {}
        incremental: Dict[str, Any] = {}
        for side in _SIDES:
            relation_order = parsed.reconstruct_side(side)
            structure = IncrementalOIP(parsed.side(side).config)
            for tup in relation_order:
                structure.insert(tup)
            tuples[side] = relation_order
            incremental[side] = structure

        journal = MaintenanceJournal.for_index(
            path, fsync=fsync, write_faults=write_faults
        )
        state = journal.scan()
        generation = int(meta["generation"])
        if not state.exists or not state.header_ok or (
            state.generation != generation
        ):
            # Stale or damaged journal: the snapshot is authoritative.
            journal.reset(generation)
            state = JournalState(
                path=journal.path,
                exists=True,
                header_ok=True,
                generation=generation,
            )
        index = cls(
            path,
            device=device,
            meta=meta,
            tuples=tuples,
            incremental=incremental,
            journal=journal,
            pending=0,
        )
        for position, record in enumerate(state.records):
            try:
                index._apply(record)
            except (SnapshotError, KeyError, TypeError, ValueError) as error:
                # A CRC-valid frame whose *content* cannot be applied.
                # Name the exact record and its byte offset: replay must
                # never half-apply a journal and leave the operator
                # guessing which delta is poisoned.
                offset = (
                    state.offsets[position]
                    if position < len(state.offsets)
                    else None
                )
                raise JournalReplayError(
                    f"cannot replay journal record {position} at byte "
                    f"offset {offset} of {journal.path!r}: {error}",
                    record_index=position,
                    offset=offset,
                    path=journal.path,
                ) from error
            index._pending += 1
        return index

    # -- views ---------------------------------------------------------------

    @property
    def generation(self) -> int:
        return int(self._meta["generation"])

    @property
    def pending(self) -> int:
        """Journal records not yet folded into a snapshot."""
        return self._pending

    def cardinality(self, side: str) -> int:
        return len(self._tuples[self._side(side)])

    def relation(self, side: str) -> Any:
        from ..core.relation import TemporalRelation

        side = self._side(side)
        return TemporalRelation(
            list(self._tuples[side]),
            name=str(self._meta.get(f"{side}_name", side)),
        )

    def relations(self) -> Tuple[Any, Any]:
        return self.relation("outer"), self.relation("inner")

    def check_invariants(self) -> None:
        for structure in self._incremental.values():
            structure.check_invariants()

    # -- maintenance ---------------------------------------------------------

    @staticmethod
    def _side(side: str) -> str:
        if side not in _SIDES:
            raise ValueError(f"side must be one of {_SIDES}, got {side!r}")
        return side

    def _apply(self, record: Dict[str, Any]) -> bool:
        from ..core.relation import TemporalTuple

        side = self._side(str(record["side"]))
        tup = TemporalTuple(
            record["start"], record["end"], record.get("payload")
        )
        if record["op"] == "insert":
            self._incremental[side].insert(tup)
            self._tuples[side].append(tup)
            return True
        if record["op"] == "delete":
            if self._incremental[side].delete(tup):
                self._tuples[side].remove(tup)
                return True
            return False
        raise SnapshotFormatError(
            f"unknown journal op {record['op']!r}", reason="inconsistent"
        )

    def insert(
        self, side: str, start: int, end: int, payload: Any = None
    ) -> Tuple[int, int]:
        """Journal, then apply, one insertion; returns the logical
        ``(i, j)`` partition the tuple landed in."""
        from ..core.relation import TemporalTuple

        side = self._side(side)
        if type(payload) not in _STABLE_PAYLOAD_TYPES:
            raise ValueError(
                f"maintained payloads must be JSON-stable scalars, got "
                f"{type(payload).__name__}"
            )
        tup = TemporalTuple(start, end, payload)
        self._journal.append(
            {
                "op": "insert",
                "side": side,
                "start": tup.start,
                "end": tup.end,
                "payload": tup.payload,
            }
        )
        key = self._incremental[side].insert(tup)
        self._tuples[side].append(tup)
        self._pending += 1
        return key

    def delete(
        self, side: str, start: int, end: int, payload: Any = None
    ) -> bool:
        """Journal, then apply, one deletion; ``False`` when no equal
        tuple exists (nothing is journaled in that case)."""
        from ..core.relation import TemporalTuple

        side = self._side(side)
        tup = TemporalTuple(start, end, payload)
        if tup not in self._tuples[side]:
            return False
        self._journal.append(
            {
                "op": "delete",
                "side": side,
                "start": tup.start,
                "end": tup.end,
                "payload": tup.payload,
            }
        )
        self._incremental[side].delete(tup)
        self._tuples[side].remove(tup)
        self._pending += 1
        return True

    def compact(self, *, cancellation: Any = None) -> Dict[str, Any]:
        """Fold the journaled deltas into a fresh snapshot generation
        and reset the journal.  Crash before the snapshot rename: the
        old generation + journal still replay.  Crash after it but
        before the reset: the journal is stale (older base generation)
        and is discarded on the next open."""
        from ..core.granules import GranulePolicy

        meta = self._meta
        outer, inner = self.relations()
        info = save_index(
            self.path,
            outer,
            inner,
            device=self._device,
            store_payloads=True,
            generation=self.generation + 1,
            write_faults=self._journal.write_faults,
            cancellation=cancellation,
            fsync=self._journal.fsync,
            **GranulePolicy.from_meta(meta).keywords(),
        )
        self._journal.reset(info["generation"])
        self._meta = dict(meta, generation=info["generation"])
        self._pending = 0
        return info


# ----------------------------------------------------------------------
# fsck
# ----------------------------------------------------------------------

#: Problems that do not prevent loading the snapshot itself (they
#: concern satellites of the snapshot, all repairable).
_NON_FATAL_PROBLEMS = frozenset(
    (
        "stale_tmp",
        "journal_header",
        "journal_stale",
        "journal_torn_tail",
        "trailing_bytes",
    )
)


def fsck_index(
    path: str, *, repair: bool = True, deep: bool = True
) -> Dict[str, Any]:
    """Validate the snapshot + journal at *path*; optionally repair.

    Repairs are limited to satellites of the immutable snapshot blob:
    removing a stale ``*.tmp``, truncating a torn journal tail, and
    resetting a stale/corrupt journal.  A damaged snapshot body is
    *reported* (``loadable: false``) — recovery from that is the join's
    degrade-to-rebuild path, not a rewrite.

    Returns a machine-readable verdict dict (also what ``python -m
    repro fsck`` prints with ``--json``).
    """
    return _fsck(path, repair=repair, deep=deep)[0]


def _fsck(
    path: str, *, repair: bool, deep: bool
) -> Tuple[Dict[str, Any], Optional[ParsedSnapshot]]:
    """:func:`fsck_index`'s verdict and the snapshot it parsed (or
    ``None``), so a caller that goes on to serve it reads it once."""
    verdict: Dict[str, Any] = {
        "path": path,
        "exists": False,
        "loadable": False,
        "generation": None,
        "problems": [],
        "repairs": [],
        "sections": [],
        "stats": None,
        "journal": {"path": journal_path(path), "present": False},
    }
    problems: List[str] = verdict["problems"]
    repairs: List[str] = verdict["repairs"]

    staging = tmp_path(path)
    if os.path.exists(staging):
        problems.append("stale_tmp")
        if repair:
            try:
                os.unlink(staging)
                repairs.append("removed_tmp")
            except OSError:  # pragma: no cover - racing unlink
                pass

    meta: Optional[Dict[str, Any]] = None
    parsed: Optional[ParsedSnapshot] = None
    try:
        blob = _read_snapshot_bytes(path)
        verdict["exists"] = True
        sections = _parse_sections(blob)
        verdict["sections"] = sorted(sections)
        parsed = ParsedSnapshot.of_sections(path, sections)
        meta = parsed.meta
        verdict["generation"] = parsed.generation
        verdict["stats"] = parsed.stats
        # The commit is a single contiguous blob, so bytes past the
        # last section are never written by this code — flag (and, on
        # request, trim) whatever appended them.
        expected_size = max(
            offset + length
            for _, offset, length, _ in _parse_section_table(blob)
        )
        if len(blob) > expected_size:
            problems.append("trailing_bytes")
            if repair:
                with open(path, "r+b") as handle:
                    handle.truncate(expected_size)
                repairs.append("truncated_trailing_bytes")
        if deep:
            for side in _SIDES:
                try:
                    parsed.side(side)
                except SnapshotFormatError as error:
                    problems.append(error.reason)
    except SnapshotError as error:
        if error.reason != "missing":
            verdict["exists"] = True
        problems.append(error.reason)

    journal = MaintenanceJournal(journal_path(path))
    state = journal.scan()
    journal_verdict: Dict[str, Any] = {
        "path": journal.path,
        "present": state.exists,
        "header_ok": state.header_ok,
        "generation": state.generation,
        "records": len(state.records),
        "torn": state.torn,
    }
    verdict["journal"] = journal_verdict
    if state.exists:
        if not state.header_ok:
            problems.append("journal_header")
            if repair and meta is not None:
                journal.reset(int(meta["generation"]))
                repairs.append("reset_journal")
        elif meta is not None and state.generation != int(
            meta["generation"]
        ):
            problems.append("journal_stale")
            if repair:
                journal.reset(int(meta["generation"]))
                repairs.append("reset_journal")
        elif state.torn:
            problems.append("journal_torn_tail")
            if repair:
                journal.truncate_tail(state.good_length)
                journal_verdict["records"] = len(state.records)
                repairs.append("truncated_journal_tail")

    fatal = [
        problem
        for problem in problems
        if problem not in _NON_FATAL_PROBLEMS
    ]
    repairable = [
        problem for problem in problems if problem in _NON_FATAL_PROBLEMS
    ]
    verdict["loadable"] = verdict["exists"] and not fatal
    # "ok": loadable with no repairable problem left unrepaired.
    verdict["ok"] = verdict["loadable"] and (
        len(repairs) >= len(repairable)
    )
    return verdict, parsed
