"""Per-generation result cache for the query service.

A served query is a pure function of ``(snapshot generation, canonical
request)`` — the service's bit-identity contract (every answer matches
the offline oracle for its generation) is exactly what makes the answer
cacheable.  :class:`ResultCache` exploits that: a bounded LRU keyed by
``(generation id, request fingerprint)`` where the fingerprint is a
digest over the canonical request fields (op, predicate window, kernel,
pair-shipping options).

Two independent mechanisms keep stale answers impossible:

* the **generation id is part of the key**, so even a fingerprint
  collision across generations cannot alias one generation's answer to
  another's, and
* the cache is **invalidated wholesale on every generation swap**
  (:meth:`ResultCache.invalidate`, called by
  ``JoinService.refresh``), so retired generations do not linger.

Entries are deep-copied on both store and lookup: a caller mutating a
response body (the service stamps ``service_ms`` and ``trace_id`` after
the fact) can never corrupt the cached copy, and two hits never share
mutable state.

The cache is thread-safe and publishes its traffic through the
``service.cache.*`` counter family when the owning service wires a
metrics registry in.
"""

from __future__ import annotations

import copy
import hashlib
import json
import threading
from collections import OrderedDict
from typing import Any, Dict, Optional, Sequence, Tuple

__all__ = ["ResultCache", "request_fingerprint"]


def request_fingerprint(
    *,
    op: str,
    window: Optional[Sequence[int]] = None,
    kernel: str = "auto",
    include_pairs: bool = False,
    max_pairs: int = 1000,
) -> str:
    """Canonical digest of one service request.

    Two requests get the same fingerprint iff the service would produce
    byte-identical response bodies for them against the same generation.
    """
    canonical = json.dumps(
        {
            "op": op,
            "window": None if window is None else [int(window[0]), int(window[1])],
            "kernel": kernel,
            "include_pairs": bool(include_pairs),
            "max_pairs": int(max_pairs),
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class ResultCache:
    """Bounded, thread-safe LRU of finished response bodies.

    Keys are ``(generation, fingerprint)`` tuples; capacity ``0``
    disables storage entirely (every lookup misses) so call sites do not
    need their own guard.
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 0:
            raise ValueError(f"cache capacity must be >= 0, got {capacity}")
        self.capacity = int(capacity)
        self._lock = threading.Lock()
        self._entries: "OrderedDict[Tuple[int, str], Dict[str, Any]]" = (
            OrderedDict()
        )
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0
        self.invalidated_entries = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def lookup(
        self, generation: int, fingerprint: str
    ) -> Optional[Dict[str, Any]]:
        """A deep copy of the cached body, or ``None`` on a miss."""
        key = (generation, fingerprint)
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return copy.deepcopy(entry)

    def store(
        self, generation: int, fingerprint: str, body: Dict[str, Any]
    ) -> None:
        """Deep-copy *body* into the cache, evicting the least recently
        used entry past capacity."""
        if self.capacity <= 0:
            return
        key = (generation, fingerprint)
        entry = copy.deepcopy(body)
        with self._lock:
            self._entries[key] = entry
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.evictions += 1

    def invalidate(self) -> int:
        """Drop every entry (generation swap); returns the count dropped."""
        with self._lock:
            dropped = len(self._entries)
            self._entries.clear()
            self.invalidations += 1
            self.invalidated_entries += dropped
            return dropped

    def stats(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "capacity": self.capacity,
                "size": len(self._entries),
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "invalidations": self.invalidations,
                "invalidated_entries": self.invalidated_entries,
            }
