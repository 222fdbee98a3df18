"""Phase-level tracing: structured spans and events for one join run.

The paper attributes performance to *where inside the join* work happens
— index build vs. probe (Section 6), partition accesses vs. false hits
(Section 7) — and the repo's counters only report end-of-run totals.
The tracer closes that gap: join phases open :class:`Span`\\ s (OIPCREATE
partitioning, Lemma-1 pair enumeration, the probe loop), and
point-in-time occurrences (a storage retry, a governor boundary check)
are recorded as :class:`TraceEvent`\\ s
attached to the innermost open span.

Two consumers are supported simultaneously:

* the **in-memory collector** — every tracer keeps its finished root
  spans on :attr:`Tracer.roots`; the run-report builder reads the span
  tree from there, and
* an optional **JSONL sink** — one JSON object per finished span and
  per event, written as they complete, for offline analysis
  (``repro join --trace spans.jsonl``).

Tracing off must cost (almost) nothing: the join layers hold a
:data:`NULL_TRACER` whose ``span()`` returns one preallocated no-op
context manager and whose ``event()`` is a constant ``None`` return — no
allocation, no timestamping, no branching beyond the call itself.  Hot
loops additionally guard on :attr:`Tracer.enabled` so per-partition
spans are skipped entirely when tracing is off.  The overhead budget
(<2% wall clock on the Figure 8 workload) is enforced by
``benchmarks/bench_obs_overhead.py``.

Spans form a tree per run via an explicit stack; the tracer is meant to
be driven from one thread (the join's), which keeps the trace
deterministic in structure (span nesting and event kinds) even though
durations are wall-clock measurements.
"""

from __future__ import annotations

import json
import os
import random
import threading
import time
from typing import Any, Dict, List, Optional, TextIO

__all__ = [
    "Span",
    "TraceEvent",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "JsonlSink",
    "span_tree",
    "new_trace_id",
    "TraceBuffer",
    "stitch_traces",
]


#: The trace-id generator: seeded once from the OS, and again in every
#: forked child, so pre-forked workers never mint the same sequence.
_trace_ids = random.Random(os.urandom(16))
os.register_at_fork(after_in_child=lambda: _trace_ids.seed(os.urandom(16)))


def new_trace_id() -> str:
    """A fresh 16-hex-char request trace id.

    Trace ids are opaque correlation tokens: the client stamps one on a
    wire request, the server threads it through its span tree, the
    query log and the response — so one id ties together everything a
    single request touched across both processes.

    Ids are 64 random bits from an in-process generator, not one
    ``os.urandom`` call per request: a thread that releases and retakes
    the interpreter lock around a system call on every request can keep
    the other threads of its process (a sleeping test driver, the
    server's acceptor) from getting it back for seconds.
    """
    return f"{_trace_ids.getrandbits(64):016x}"


class TraceEvent:
    """A point-in-time occurrence inside a span (retry, boundary check,
    chunk dispatch, ...)."""

    __slots__ = ("name", "at_ms", "attributes")

    def __init__(self, name: str, at_ms: float, attributes: Dict[str, Any]):
        self.name = name
        self.at_ms = at_ms
        self.attributes = attributes

    def as_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {"name": self.name, "at_ms": self.at_ms}
        if self.attributes:
            data["attributes"] = dict(self.attributes)
        return data

    def __repr__(self) -> str:
        return f"TraceEvent({self.name!r}, at_ms={self.at_ms:.3f})"


class Span:
    """One timed phase of a join run; spans nest into a tree.

    A span is also its own context manager *body* — :meth:`Tracer.span`
    returns the live span, ``with`` closes it — so callers can attach
    attributes discovered mid-phase::

        with tracer.span("oipcreate", side="outer") as span:
            ...
            span.set("partitions", partition_count)
    """

    __slots__ = (
        "name",
        "attributes",
        "children",
        "events",
        "start_ms",
        "end_ms",
        "_tracer",
    )

    def __init__(
        self,
        name: str,
        attributes: Dict[str, Any],
        start_ms: float,
        tracer: "Tracer",
    ) -> None:
        self.name = name
        self.attributes = attributes
        self.children: List["Span"] = []
        self.events: List[TraceEvent] = []
        self.start_ms = start_ms
        self.end_ms: Optional[float] = None
        self._tracer = tracer

    @property
    def duration_ms(self) -> float:
        """Wall-clock duration; 0.0 while the span is still open."""
        if self.end_ms is None:
            return 0.0
        return self.end_ms - self.start_ms

    def set(self, key: str, value: Any) -> None:
        """Attach one attribute to the span."""
        self.attributes[key] = value

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            self.attributes["error"] = exc_type.__name__
        self._tracer._finish(self)

    def as_dict(self) -> Dict[str, Any]:
        """The span subtree as plain JSON-ready dicts."""
        data: Dict[str, Any] = {
            "name": self.name,
            "start_ms": self.start_ms,
            "duration_ms": self.duration_ms,
        }
        if self.attributes:
            data["attributes"] = _jsonable(self.attributes)
        if self.events:
            data["events"] = [event.as_dict() for event in self.events]
        if self.children:
            data["children"] = [child.as_dict() for child in self.children]
        return data

    def __repr__(self) -> str:
        state = "open" if self.end_ms is None else f"{self.duration_ms:.3f}ms"
        return f"Span({self.name!r}, {state}, children={len(self.children)})"


def _jsonable(value: Any) -> Any:
    """Coerce attribute values into JSON-representable shapes."""
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)


class JsonlSink:
    """Streams finished spans and events as JSON lines.

    Each line is ``{"kind": "span"|"event", ...}``; spans carry their
    full subtree (children were finished earlier as their own lines too,
    so a consumer may use either the ``root`` lines or the flat stream).
    The sink owns its file handle; call :meth:`close` (the CLI does)
    when the run is over.
    """

    def __init__(self, path: str) -> None:
        self.path = str(path)
        self._handle: Optional[TextIO] = open(self.path, "w", encoding="utf-8")
        self.lines_written = 0

    def emit(self, kind: str, payload: Dict[str, Any]) -> None:
        if self._handle is None:
            return
        record = {"kind": kind}
        record.update(payload)
        self._handle.write(json.dumps(record, separators=(",", ":")))
        self._handle.write("\n")
        self.lines_written += 1

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None


class Tracer:
    """Collects a span tree (and optionally streams it to a sink).

    ``roots`` accumulates the finished top-level spans, one per traced
    join run when the tracer is reused across runs.  ``clock`` is
    injectable for deterministic tests (defaults to
    :func:`time.perf_counter`).
    """

    enabled = True

    def __init__(
        self,
        sink: Optional[JsonlSink] = None,
        clock=time.perf_counter,
        trace_id: Optional[str] = None,
        max_depth: Optional[int] = None,
    ) -> None:
        self._sink = sink
        self._clock = clock
        self._origin = clock()
        #: Correlation id stamped onto every finished root span.
        self.trace_id = trace_id
        #: Nesting cap: ``span()`` calls at or below ``max_depth`` open
        #: real spans, deeper calls get the shared no-op span.  A
        #: serving-path tracer caps at phase granularity so per-partition
        #: spans (thousands per probe) never tax a live query.
        self.max_depth = max_depth
        self._stack: List[Span] = []
        #: Finished top-level spans, oldest first.
        self.roots: List[Span] = []
        #: Spans finished over the tracer's lifetime.
        self.span_count = 0
        #: Events recorded over the tracer's lifetime.
        self.event_count = 0

    def _now_ms(self) -> float:
        return (self._clock() - self._origin) * 1000.0

    @property
    def saturated(self) -> bool:
        """True when the next ``span()`` would exceed :attr:`max_depth`.

        Hot loops guard on this (alongside :attr:`enabled`) so a
        depth-capped request trace skips per-partition instrumentation
        at loop setup instead of paying a no-op call per partition."""
        return (
            self.max_depth is not None
            and len(self._stack) >= self.max_depth
        )

    def span(self, name: str, **attributes: Any) -> Any:
        """Open a child span of the innermost open span (or the no-op
        span past :attr:`max_depth`)."""
        if self.max_depth is not None and len(self._stack) >= self.max_depth:
            return _NOOP_SPAN
        span = Span(name, attributes, self._now_ms(), self)
        self._stack.append(span)
        return span

    def event(self, name: str, **attributes: Any) -> TraceEvent:
        """Record a point-in-time event on the innermost open span (or as
        a free-standing root event when no span is open)."""
        event = TraceEvent(name, self._now_ms(), attributes)
        self.event_count += 1
        if self._stack:
            self._stack[-1].events.append(event)
        if self._sink is not None:
            self._sink.emit("event", event.as_dict())
        return event

    def _finish(self, span: Span) -> None:
        span.end_ms = self._now_ms()
        self.span_count += 1
        # Unwind to the finished span; tolerates a child left open by an
        # exception unwinding through several spans at once.
        while self._stack:
            top = self._stack.pop()
            if top.end_ms is None:
                top.end_ms = span.end_ms
                self.span_count += 1
            parent = self._stack[-1] if self._stack else None
            if parent is not None:
                parent.children.append(top)
            else:
                if self.trace_id and "trace_id" not in top.attributes:
                    top.attributes["trace_id"] = self.trace_id
                self.roots.append(top)
                if self._sink is not None:
                    self._sink.emit("span", top.as_dict())
            if top is span:
                break

    @property
    def last_root(self) -> Optional[Span]:
        """The most recently finished top-level span."""
        return self.roots[-1] if self.roots else None

    def close(self) -> None:
        """Close the attached sink, if any."""
        if self._sink is not None:
            self._sink.close()

    def __repr__(self) -> str:
        return (
            f"Tracer(spans={self.span_count}, events={self.event_count}, "
            f"open={len(self._stack)})"
        )


class _NoopSpan:
    """The shared do-nothing span of :class:`NullTracer`."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        return None

    def set(self, key: str, value: Any) -> None:
        return None

    name = "noop"
    children: List[Any] = []
    events: List[Any] = []
    attributes: Dict[str, Any] = {}
    duration_ms = 0.0

    def as_dict(self) -> Dict[str, Any]:
        return {"name": "noop", "start_ms": 0.0, "duration_ms": 0.0}


_NOOP_SPAN = _NoopSpan()


class NullTracer:
    """The zero-allocation disabled tracer.

    ``span()`` hands back one preallocated no-op context manager and
    ``event()`` returns ``None`` — no timestamps, no objects, no sink.
    All join layers default to the module singleton :data:`NULL_TRACER`,
    and their hot loops additionally skip per-partition instrumentation
    when ``tracer.enabled`` is false.
    """

    enabled = False
    saturated = False
    roots: List[Any] = []
    span_count = 0
    event_count = 0
    last_root = None
    trace_id: Optional[str] = None

    __slots__ = ()

    def span(self, name: str, **attributes: Any) -> _NoopSpan:
        return _NOOP_SPAN

    def event(self, name: str, **attributes: Any) -> None:
        return None

    def close(self) -> None:
        return None

    def __repr__(self) -> str:
        return "NullTracer()"


#: Shared disabled tracer; identity-comparable (`tracer is NULL_TRACER`).
NULL_TRACER = NullTracer()


def span_tree(span: Optional[Span]) -> Dict[str, Any]:
    """The JSON-ready tree of *span* (an empty stub for ``None``)."""
    if span is None:
        return {"name": "join", "start_ms": 0.0, "duration_ms": 0.0}
    return span.as_dict()


class TraceBuffer:
    """Thread-safe ring of recently finished trace trees.

    The service deposits each request's finished root span (as a
    JSON-ready dict) here; the ``tracedump`` wire command reads them
    back.  Bounded so an unwatched server never grows without limit —
    when full, the oldest trace is evicted and counted in ``dropped``.
    """

    def __init__(self, capacity: int = 256) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._lock = threading.Lock()
        self._traces: List[Dict[str, Any]] = []
        self.dropped = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._traces)

    def add(self, tree: Dict[str, Any]) -> None:
        with self._lock:
            self._traces.append(tree)
            if len(self._traces) > self.capacity:
                del self._traces[0]
                self.dropped += 1

    def dump(
        self,
        trace_id: Optional[str] = None,
        limit: Optional[int] = None,
    ) -> List[Dict[str, Any]]:
        """Matching traces, oldest first (optionally only the last *limit*)."""
        with self._lock:
            traces = list(self._traces)
        if trace_id is not None:
            traces = [
                tree
                for tree in traces
                if tree.get("attributes", {}).get("trace_id") == trace_id
            ]
        if limit is not None and limit >= 0:
            traces = traces[-limit:]
        return traces

    def clear(self) -> None:
        with self._lock:
            self._traces.clear()


def _find_trace_node(
    tree: Dict[str, Any], trace_id: str
) -> Optional[Dict[str, Any]]:
    if tree.get("attributes", {}).get("trace_id") == trace_id:
        return tree
    for child in tree.get("children", ()):  # type: ignore[union-attr]
        found = _find_trace_node(child, trace_id)
        if found is not None:
            return found
    return None


def stitch_traces(
    client_tree: Dict[str, Any], server_tree: Dict[str, Any]
) -> Dict[str, Any]:
    """Graft a server span tree under the client span sharing its trace id.

    Both trees are JSON-ready dicts (``Span.as_dict()`` shape).  The
    server tree is attached as a child of the client span whose
    ``attributes.trace_id`` matches the server root's — the wire hop the
    request travelled — producing the single end-to-end tree the
    integration tests assert on.  Raises ``ValueError`` when the trees
    do not share a trace id.
    """
    trace_id = server_tree.get("attributes", {}).get("trace_id")
    if not trace_id:
        raise ValueError("server trace carries no trace_id attribute")
    merged = json.loads(json.dumps(client_tree))
    anchor = _find_trace_node(merged, trace_id)
    if anchor is None:
        raise ValueError(
            f"client trace has no span with trace_id={trace_id!r}"
        )
    anchor.setdefault("children", []).append(server_tree)
    return merged
