"""Garbage-collector pauses as a measured layer of a join.

The cyclic collector runs whenever allocations outpace deallocations by
its gen-0 threshold, in whichever thread made the allocation that
crossed it, and it stops that thread for the collection.  No span
covers those pauses, so they would hide in a join's unattributed time.

One ``gc.callbacks`` hook, installed on first use, times every
collection.  :func:`gc_pauses` charges the collections that run in the
calling thread while its block is open — a collection another thread
triggers is that thread's pause — to a :class:`GCPauses` tally.  The
join records the tally on its ``join`` span (``gc_ms``,
``gc_collections``) whenever it is traced, and run reports copy it into
their ``gc`` section.  The hook reads the clock and nothing else, so
results are the same with it on or off.

The open tallies live in this module, keyed by thread id, because
``gc.callbacks`` is itself one list per process.
"""

from __future__ import annotations

import gc
import threading
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional

__all__ = ["GCPauses", "gc_pauses"]


class GCPauses:
    """Collector pauses charged to one thread: total milliseconds and
    collections per generation (0, 1, 2)."""

    __slots__ = ("ms", "collections", "_started")

    def __init__(self) -> None:
        self.ms = 0.0
        self.collections: List[int] = [0, 0, 0]
        self._started: Optional[float] = None

    def record(self, span) -> None:
        """Attach the tally to *span* as ``gc_ms`` / ``gc_collections``."""
        span.set("gc_ms", self.ms)
        span.set("gc_collections", list(self.collections))


#: Open tallies per thread id; a nested block charges every open tally.
_open: Dict[int, List[GCPauses]] = {}
_install_lock = threading.Lock()
_installed = False


def _on_collection(phase: str, info: Dict[str, int]) -> None:
    tallies = _open.get(threading.get_ident())
    if not tallies:
        return
    now = time.perf_counter()
    for tally in tallies:
        if phase == "start":
            tally._started = now
        elif tally._started is not None:
            tally.ms += (now - tally._started) * 1e3
            tally.collections[info["generation"]] += 1
            tally._started = None


def _install() -> None:
    global _installed
    with _install_lock:
        if not _installed:
            gc.callbacks.append(_on_collection)
            _installed = True


@contextmanager
def gc_pauses() -> Iterator[GCPauses]:
    """Tally the collections that pause this thread inside the block."""
    if not _installed:
        _install()
    tally = GCPauses()
    thread = threading.get_ident()
    tallies = _open.setdefault(thread, [])
    tallies.append(tally)
    try:
        yield tally
    finally:
        tallies.remove(tally)
        if not tallies:
            del _open[thread]
