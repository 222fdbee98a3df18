"""Generation management for the query service: load, validate, swap.

A :class:`ServingGeneration` pins one parsed snapshot generation in
memory — its section bytes, its reconstructed source relations, and a
reference count of the queries currently restoring partition lists from
it.  Pinning is what makes zero-downtime refresh safe: the file on disk
can be atomically replaced (or corrupted, or half-written) at any
moment without affecting a query that already holds a generation.

:class:`SnapshotManager` owns the swap protocol, **load → validate →
swap → drop**:

::

            refresh()
                │
                ▼
        ┌──────────────┐  not loadable   ┌────────────────────┐
        │ read + fsck  │ ───────────────▶│ swap REJECTED:     │
        │ (one parse)  │                 │ old generation     │
        └──────┬───────┘                 │ keeps serving      │
               │ loadable                └────────────────────┘
               ▼                                 ▲
        ┌──────────────┐  SnapshotError          │
        │ reconstruct  │ ────────────────────────┘
        │ from parse   │
        └──────┬───────┘
               │ ok
               ▼
        ┌──────────────┐  same generation  ┌──────────────────┐
        │ compare gen  │ ─────────────────▶│ no-op (unchanged)│
        └──────┬───────┘                   └──────────────────┘
               │ newer
               ▼
        ┌──────────────┐   in-flight queries stay pinned to the old
        │ atomic swap  │   generation via refcounts; it is dropped
        └──────────────┘   when the last one releases

The candidate is fully validated *before* the swap, so a torn or
corrupt generation N+1 can never take down a service that was happily
serving generation N — degrade, never die.
"""

from __future__ import annotations

import threading
import time
from dataclasses import replace
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..storage.snapshot import (
    _NON_FATAL_PROBLEMS,
    IndexExpectation,
    ParsedSnapshot,
    SnapshotError,
    _fsck,
)
from .errors import ServiceUnavailableError, SnapshotSwapRejectedError

__all__ = [
    "ServingGeneration",
    "SnapshotManager",
    "join_kwargs_from_meta",
]


def join_kwargs_from_meta(meta: Dict[str, Any]) -> Dict[str, Any]:
    """:class:`~repro.core.join.OIPJoin` keywords (the device block size
    and the :class:`~repro.core.granules.GranulePolicy` keywords) under
    which the snapshot *meta* describes loads, whichever ``k`` mode it
    was saved under."""
    from ..core.granules import GranulePolicy
    from ..storage.device import DeviceProfile

    device = DeviceProfile.main_memory()
    if device.tuples_per_block != meta["tuples_per_block"]:
        device = replace(
            device,
            block_size_bytes=(
                meta["tuples_per_block"] * device.tuple_size_bytes
            ),
        )
    return dict(GranulePolicy.from_meta(meta).keywords(), device=device)


class ServingGeneration:
    """One pinned snapshot generation: parsed sections, reconstructed
    relations, and a refcount of in-flight queries.

    Instances are the :class:`~repro.core.join.OIPJoin`
    ``index_provider``: calling one restores both partition lists from
    the pinned sections — bit-identical to a file load of the same
    generation — regardless of what the file on disk holds by now.
    """

    def __init__(
        self,
        parsed: ParsedSnapshot,
        outer: Any,
        inner: Any,
        *,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.parsed = parsed
        self.outer = outer
        self.inner = inner
        self.path = parsed.path
        self.generation = parsed.generation
        self.loaded_at = clock()
        self._clock = clock
        #: Guarded by the owning manager's lock.
        self.refs = 0
        self.queries_served = 0

    @classmethod
    def load(
        cls, path: str, *, clock: Callable[[], float] = time.monotonic
    ) -> "ServingGeneration":
        """Parse the snapshot at *path* and reconstruct its relations.
        Raises :class:`SnapshotError` when it cannot serve."""
        parsed = ParsedSnapshot.read(path)
        outer, inner = parsed.reconstruct_relations()
        return cls(parsed, outer, inner, clock=clock)

    def __call__(
        self,
        outer: Any,
        inner: Any,
        *,
        storage: Any,
        expected: Optional[IndexExpectation] = None,
    ) -> Any:
        """The ``index_provider`` protocol: restore from pinned bytes."""
        return self.parsed.restore(
            outer, inner, storage=storage, expected=expected
        )

    def join_kwargs(self) -> Dict[str, Any]:
        return join_kwargs_from_meta(self.parsed.meta)

    def age_s(self) -> float:
        return max(0.0, self._clock() - self.loaded_at)

    def __repr__(self) -> str:
        return (
            f"ServingGeneration(generation={self.generation}, "
            f"refs={self.refs}, served={self.queries_served})"
        )


class SnapshotManager:
    """Thread-safe generation registry implementing the swap protocol.

    All state transitions happen under one lock; queries pin the current
    generation with :meth:`acquire`/:meth:`release` (or the
    :meth:`pinned` context manager), and :meth:`refresh` swaps in a new
    generation only after it fully validated — a rejected candidate
    raises :class:`SnapshotSwapRejectedError` and leaves the old
    generation serving.
    """

    def __init__(
        self,
        path: str,
        *,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.path = path
        self._clock = clock
        self._lock = threading.Lock()
        self._current: Optional[ServingGeneration] = None
        #: Superseded generations still pinned by in-flight queries.
        self._retired: List[ServingGeneration] = []
        self.swaps = 0
        self.swaps_rejected = 0
        self.swaps_unchanged = 0
        self.last_swap_ms: Optional[float] = None

    # -- views ---------------------------------------------------------------

    @property
    def generation(self) -> Optional[int]:
        current = self._current
        return None if current is None else current.generation

    @property
    def current(self) -> Optional[ServingGeneration]:
        return self._current

    @property
    def retired(self) -> Tuple[ServingGeneration, ...]:
        with self._lock:
            return tuple(self._retired)

    def describe(self) -> Dict[str, Any]:
        """Health-probe material."""
        with self._lock:
            current = self._current
            return {
                "path": self.path,
                "generation": (
                    None if current is None else current.generation
                ),
                "generation_age_s": (
                    None if current is None else current.age_s()
                ),
                "generation_refs": 0 if current is None else current.refs,
                "queries_served": (
                    0 if current is None else current.queries_served
                ),
                "retired_generations": len(self._retired),
                "swaps": self.swaps,
                "swaps_rejected": self.swaps_rejected,
                "swaps_unchanged": self.swaps_unchanged,
                "last_swap_ms": self.last_swap_ms,
            }

    # -- pinning -------------------------------------------------------------

    def acquire(self) -> ServingGeneration:
        """Pin and return the current generation for one query."""
        with self._lock:
            current = self._current
            if current is None:
                raise ServiceUnavailableError(
                    f"no snapshot generation loaded from {self.path!r}",
                    status="starting",
                )
            current.refs += 1
            return current

    def release(self, generation: ServingGeneration) -> None:
        """Unpin after a query; drops a superseded generation when its
        last query releases it."""
        with self._lock:
            generation.refs -= 1
            generation.queries_served += 1
            if generation.refs <= 0 and generation is not self._current:
                try:
                    self._retired.remove(generation)
                except ValueError:
                    pass

    def pinned(self):
        """``with manager.pinned() as generation: ...``"""
        from contextlib import contextmanager

        @contextmanager
        def _pin():
            generation = self.acquire()
            try:
                yield generation
            finally:
                self.release(generation)

        return _pin()

    # -- swap protocol -------------------------------------------------------

    def load(self) -> ServingGeneration:
        """Initial load (no old generation to fall back to): raises
        :class:`SnapshotError` when the snapshot cannot serve."""
        candidate = ServingGeneration.load(self.path, clock=self._clock)
        with self._lock:
            self._current = candidate
        return candidate

    def refresh(self, *, force: bool = False) -> Dict[str, Any]:
        """Load-validate-swap-drop.  Returns a swap report; raises
        :class:`SnapshotSwapRejectedError` (old generation untouched)
        when the candidate is missing, corrupt, or fails fsck."""
        started = self._clock()
        # Serve the snapshot fsck parsed and decoded: one read.
        verdict, parsed = _fsck(self.path, repair=True, deep=True)
        if not verdict["loadable"]:
            self.swaps_rejected += 1
            fatal = [
                problem
                for problem in verdict["problems"]
                if problem not in _NON_FATAL_PROBLEMS
            ]
            reason = (
                fatal[0]
                if fatal
                else ("missing" if not verdict["exists"] else "format")
            )
            raise SnapshotSwapRejectedError(
                f"refresh rejected: snapshot at {self.path!r} is not "
                f"loadable ({reason})",
                reason=reason,
                verdict=verdict,
            )
        try:
            candidate = ServingGeneration(
                parsed, *parsed.reconstruct_relations(), clock=self._clock
            )
        except SnapshotError as error:
            self.swaps_rejected += 1
            raise SnapshotSwapRejectedError(
                f"refresh rejected: {error}",
                reason=error.reason,
                verdict=verdict,
            ) from error
        with self._lock:
            previous = self._current
            if (
                previous is not None
                and not force
                and candidate.generation == previous.generation
            ):
                self.swaps_unchanged += 1
                return {
                    "swapped": False,
                    "reason": "unchanged",
                    "generation": previous.generation,
                    "elapsed_ms": (self._clock() - started) * 1e3,
                }
            self._current = candidate
            if previous is not None and previous.refs > 0:
                self._retired.append(previous)
            self.swaps += 1
            elapsed_ms = (self._clock() - started) * 1e3
            self.last_swap_ms = elapsed_ms
            return {
                "swapped": True,
                "generation": candidate.generation,
                "previous_generation": (
                    None if previous is None else previous.generation
                ),
                "previous_still_pinned": (
                    previous is not None and previous.refs > 0
                ),
                "elapsed_ms": elapsed_ms,
            }
