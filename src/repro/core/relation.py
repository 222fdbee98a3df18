"""Temporal relations with tuple timestamping (paper Section 3).

A temporal relation schema is ``R = (A1, ..., Am, T)`` where ``T`` is an
interval attribute.  We model a tuple as a :class:`TemporalTuple` — an
interval plus an opaque payload holding the explicit attributes — and a
relation as an ordered collection of such tuples together with the derived
statistics the paper uses:

* the *time range* ``U = [US, UE]`` spanned by the relation,
* ``l``, the duration of the longest tuple, and
* ``lambda = l / |U|``, the longest duration as a fraction of the range.

A relation also keeps its endpoints as two ``array('q')`` columns, built
once at construction; the statistics above and every OIPCREATE over the
relation read them instead of loading tuple attributes.
"""

from __future__ import annotations

from array import array
from operator import sub
from typing import (
    Any,
    Callable,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from .interval import Interval, IntervalError

__all__ = ["TemporalTuple", "TemporalRelation", "EmptyRelationError"]


class EmptyRelationError(ValueError):
    """Raised when a statistic that needs at least one tuple is requested
    from an empty relation."""


class TemporalTuple:
    """One valid-time tuple: an interval and the non-temporal attributes.

    ``payload`` carries the explicit attributes ``A1..Am``; the library
    never inspects it, so it may be a dict, a tuple, a dataclass or simply
    an integer row id.
    """

    __slots__ = ("start", "end", "payload")

    def __init__(self, start: int, end: int, payload: Any = None) -> None:
        if end < start:
            raise IntervalError(
                f"tuple interval end {end!r} precedes start {start!r}"
            )
        self.start = int(start)
        self.end = int(end)
        self.payload = payload

    @property
    def interval(self) -> Interval:
        """The tuple's valid-time interval ``T``."""
        return Interval(self.start, self.end)

    @property
    def duration(self) -> int:
        """``|T| = TE - TS + 1``."""
        return self.end - self.start + 1

    def overlaps(self, other: "TemporalTuple") -> bool:
        """True iff the valid times of the two tuples intersect."""
        return self.start <= other.end and other.start <= self.end

    def overlaps_interval(self, interval: Interval) -> bool:
        """True iff the tuple's valid time intersects *interval*."""
        return self.start <= interval.end and interval.start <= self.end

    def __repr__(self) -> str:
        return f"TemporalTuple([{self.start}, {self.end}], {self.payload!r})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TemporalTuple):
            return NotImplemented
        return (
            self.start == other.start
            and self.end == other.end
            and self.payload == other.payload
        )

    def __hash__(self) -> int:
        return hash((self.start, self.end, self.payload))


class TemporalRelation:
    """A finite collection of :class:`TemporalTuple` with cached statistics.

    The relation is the unit every join algorithm and partitioning scheme in
    the library consumes.  Construction is O(n); the time range and duration
    statistics are computed once and reused by the cost model.

    ``starts`` / ``ends`` are the tuples' endpoints as parallel
    ``array('q')`` columns in insertion order.  They are built once,
    which is sound because the relation is immutable after construction.
    Every endpoint must therefore fit a signed 64-bit integer: a tuple
    outside that range makes construction raise :class:`OverflowError`.
    """

    __slots__ = (
        "name",
        "_tuples",
        "starts",
        "ends",
        "_time_range",
        "_max_duration",
        "_digests",
    )

    def __init__(
        self,
        tuples: Iterable[TemporalTuple],
        name: str = "r",
    ) -> None:
        self.name = name
        self._tuples: List[TemporalTuple] = list(tuples)
        #: Lazily-populated content-fingerprint cache (see
        #: :mod:`repro.storage.snapshot`).  Sound because the relation is
        #: immutable after construction: every derived operation returns
        #: a new relation.
        self._digests: Optional[dict] = None
        starts = [tup.start for tup in self._tuples]
        ends = [tup.end for tup in self._tuples]
        self.starts = array("q", starts)
        self.ends = array("q", ends)
        self._time_range: Optional[Interval] = None
        self._max_duration: Optional[int] = None
        if starts:
            self._time_range = Interval(min(starts), max(ends))
            self._max_duration = max(map(sub, ends, starts)) + 1

    # -- construction helpers ----------------------------------------------

    @classmethod
    def from_pairs(
        cls,
        pairs: Iterable[Tuple[int, int]],
        name: str = "r",
    ) -> "TemporalRelation":
        """Build a relation from ``(start, end)`` pairs; the payload of each
        tuple is its position in the input sequence."""
        return cls(
            (TemporalTuple(s, e, i) for i, (s, e) in enumerate(pairs)),
            name=name,
        )

    @classmethod
    def from_records(
        cls,
        records: Iterable[Tuple[int, int, Any]],
        name: str = "r",
    ) -> "TemporalRelation":
        """Build a relation from ``(start, end, payload)`` triples."""
        return cls((TemporalTuple(s, e, p) for s, e, p in records), name=name)

    # -- collection protocol -----------------------------------------------

    def __len__(self) -> int:
        return len(self._tuples)

    def __iter__(self) -> Iterator[TemporalTuple]:
        return iter(self._tuples)

    def __getitem__(self, index: int) -> TemporalTuple:
        return self._tuples[index]

    def __repr__(self) -> str:
        if not self._tuples:
            return f"TemporalRelation({self.name!r}, empty)"
        return (
            f"TemporalRelation({self.name!r}, n={len(self._tuples)}, "
            f"U={self.time_range.as_tuple()})"
        )

    @property
    def tuples(self) -> Sequence[TemporalTuple]:
        """The tuples in insertion order (read-only view)."""
        return self._tuples

    # -- paper statistics ----------------------------------------------------

    @property
    def cardinality(self) -> int:
        """``n``, the number of tuples."""
        return len(self._tuples)

    @property
    def is_empty(self) -> bool:
        return not self._tuples

    @property
    def time_range(self) -> Interval:
        """``U = [US, UE]``: smallest start to largest end over all tuples."""
        if self._time_range is None:
            raise EmptyRelationError(
                f"relation {self.name!r} is empty and has no time range"
            )
        return self._time_range

    @property
    def time_range_duration(self) -> int:
        """``|U|``, the number of time points in the time range."""
        return self.time_range.duration

    @property
    def max_duration(self) -> int:
        """``l``, the duration of the longest tuple."""
        if self._max_duration is None:
            raise EmptyRelationError(
                f"relation {self.name!r} is empty and has no max duration"
            )
        return self._max_duration

    @property
    def duration_fraction(self) -> float:
        """``lambda = l / |U|``, longest duration relative to the range."""
        return self.max_duration / self.time_range_duration

    # -- derived relations ---------------------------------------------------

    def filter(
        self,
        predicate: Callable[[TemporalTuple], bool],
        name: Optional[str] = None,
    ) -> "TemporalRelation":
        """New relation with the tuples satisfying *predicate*."""
        return TemporalRelation(
            (t for t in self._tuples if predicate(t)),
            name=name or self.name,
        )

    def head(self, count: int, name: Optional[str] = None) -> "TemporalRelation":
        """New relation with the first *count* tuples (used by the
        real-world-dataset experiments that join a subset against the full
        dataset)."""
        return TemporalRelation(self._tuples[:count], name=name or self.name)

    def sorted_by(
        self,
        key: Callable[[TemporalTuple], Any],
        name: Optional[str] = None,
    ) -> "TemporalRelation":
        """New relation with tuples ordered by *key*."""
        return TemporalRelation(
            sorted(self._tuples, key=key), name=name or self.name
        )

    def sample_every(
        self, step: int, name: Optional[str] = None
    ) -> "TemporalRelation":
        """Systematic sample taking every *step*-th tuple — keeps the
        temporal distribution intact, unlike a prefix."""
        if step < 1:
            raise ValueError(f"step must be >= 1, got {step}")
        return TemporalRelation(self._tuples[::step], name=name or self.name)
