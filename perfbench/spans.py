"""Benchmark-side spans around the public entry points of each layer.

The traced run installs thin wrappers over module and class attributes
of the program (``install``), replays a sample of the workload's ops,
and removes the wrappers again.  Every wrapped call inside an op becomes
a span: name, start, end, parent span and the op's request id.  Spans
are kept in memory and dumped as JSON when the run ends.

A span's self time is its duration minus the durations of its children;
``per_op_times`` sums self and inclusive time per span name within each
op, and ``layer_value`` takes the median over the ops in which the span
occurs.
"""

from __future__ import annotations

import itertools
import threading
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from harness import median


class Span:
    __slots__ = ("id", "name", "parent", "rid", "start", "end", "attrs")

    def __init__(self, span_id, name, parent, rid, start):
        self.id = span_id
        self.name = name
        self.parent = parent
        self.rid = rid
        self.start = start
        self.end = start
        self.attrs: Dict[str, Any] = {}

    @property
    def duration_ms(self) -> float:
        return (self.end - self.start) * 1e3

    def as_dict(self) -> Dict[str, Any]:
        return {
            "id": self.id,
            "name": self.name,
            "parent": self.parent,
            "rid": self.rid,
            "start": self.start,
            "end": self.end,
            "attrs": {
                key: value
                for key, value in self.attrs.items()
                if isinstance(value, (int, float, str, bool, type(None)))
            },
        }


class SpanRecorder:
    """In-memory span store.  Ops run one at a time; a span opened on a
    thread with no open span of its own (a server handler thread) is
    parented to the op in flight."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.ops: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._op: Optional[Span] = None

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def op(self, kind: str) -> Iterator[Span]:
        root = Span(next(self._ids), "op." + kind, None, None, 0.0)
        root.rid = root.id
        stack = self._stack()
        self._op = root
        stack.append(root)
        root.start = time.perf_counter()
        try:
            yield root
        finally:
            root.end = time.perf_counter()
            stack.pop()
            self._op = None
            self.spans.append(root)
            self.ops.append(root)

    def begin(self, name: str) -> Optional[Span]:
        """Open a span, or return ``None`` outside any op."""
        op = self._op
        if op is None:
            return None
        stack = self._stack()
        parent = stack[-1] if stack else op
        span = Span(next(self._ids), name, parent.id, op.rid, 0.0)
        stack.append(span)
        span.start = time.perf_counter()
        return span

    def end(self, span: Optional[Span]) -> None:
        if span is None:
            return
        span.end = time.perf_counter()
        self._stack().pop()
        self.spans.append(span)

    @contextmanager
    def span(self, name: str) -> Iterator[Optional[Span]]:
        span = self.begin(name)
        try:
            yield span
        finally:
            self.end(span)

    def current_op(self) -> Optional[Span]:
        return self._op

    def dump(self) -> List[Dict[str, Any]]:
        return [span.as_dict() for span in sorted(self.spans, key=lambda s: s.id)]


# ----------------------------------------------------------------------
# Wrappers
# ----------------------------------------------------------------------


def _timed(
    recorder: SpanRecorder,
    name: str,
    fn: Callable,
    observe: Optional[Callable[[Any], None]] = None,
) -> Callable:
    def wrapper(*args, **kwargs):
        span = recorder.begin(name)
        try:
            result = fn(*args, **kwargs)
            if span is not None and observe is not None:
                observe(result)
            return result
        finally:
            recorder.end(span)

    return wrapper


def _patch_points(recorder: SpanRecorder) -> List[Tuple[Any, str, Callable]]:
    """(owner, attribute, wrapper factory) for every traced entry point."""
    import repro.core.granules as granules
    import repro.core.join as join_module
    import repro.core.lazy_list as lazy_list
    import repro.service.client as client_module
    import repro.service.server as server_module
    import repro.service.service as service_module
    import repro.storage.snapshot as snapshot_module
    from repro.core.kernels import DecodedRun
    from repro.service.service import JoinService
    from repro.service.snapshots import ServingGeneration
    from repro.storage.manager import StorageManager
    from repro.storage.snapshot import MaintainedIndex

    def timed(name, observe=None):
        return lambda fn: _timed(recorder, name, fn, observe)

    def read_run(fn):
        # The join consumes the generator at once (``list(read_run(...))``);
        # consuming it inside the span times the block reads themselves.
        def wrapper(self, run, context=None):
            span = recorder.begin("storage.read_run")
            try:
                return iter(list(fn(self, run, context)))
            finally:
                recorder.end(span)

        return wrapper

    def kernel_function(fn):
        def wrapper(kernel):
            match = fn(kernel)

            def traced_match(outer, inner):
                span = recorder.begin("kernels.match")
                try:
                    matches = match(outer, inner)
                    if span is not None:
                        span.attrs["candidates"] = outer.length * inner.length
                        span.attrs["results"] = len(matches)
                        span.attrs["kernel"] = kernel
                    return matches
                finally:
                    recorder.end(span)

            return traced_match

        return wrapper

    def capture(key, value_of=lambda result: result):
        """An ``observe`` hook keeping a value on the op in flight."""

        def observe(result):
            op = recorder.current_op()
            if op is not None:
                op.attrs.setdefault(key, []).append(value_of(result))

        return observe

    def join_summary(result):
        # Only what the layer metrics need: a kept JoinResult would hold
        # every result pair alive for the rest of the replay.
        summary = dict(result.counters.snapshot())
        summary["k"] = result.details["k"]
        summary["partitions"] = (
            result.details["outer_partitions"] + result.details["inner_partitions"]
        )
        summary["pairs"] = len(result.pairs)
        return summary

    partition_list = capture("partition_lists")
    join_result = capture("join_results", join_summary)
    service_body = capture("service_bodies")
    frame = capture("response_bytes", len)

    return [
        (join_module.OIPJoin, "join", timed("join", join_result)),
        (join_module.OIPJoin, "_derive_k", timed("granules.derive_k")),
        (granules, "cost_model_for", timed("granules.derive_k")),
        (granules, "derive_k", timed("granules.derive_k")),
        (join_module, "oip_create", timed("lazy_list.oip_create", partition_list)),
        (lazy_list, "oip_create", timed("lazy_list.oip_create")),
        (StorageManager, "read_run", read_run),
        (DecodedRun, "from_tuples", timed("kernels.decode")),
        (join_module, "kernel_function", kernel_function),
        (ServingGeneration, "__call__", timed("snapshot.restore")),
        (ServingGeneration, "load", timed("snapshot.load")),
        (snapshot_module, "save_index", timed("snapshot.save")),
        (MaintainedIndex, "insert", timed("snapshot.journal_append")),
        (MaintainedIndex, "delete", timed("snapshot.journal_append")),
        (service_module, "summarize_result", timed("service.summarize")),
        (JoinService, "query", timed("service.query", service_body)),
        (JoinService, "refresh", timed("service.refresh")),
        (client_module, "encode_message", timed("protocol.encode")),
        (server_module, "encode_message", timed("protocol.encode", frame)),
        (server_module, "decode_line", timed("protocol.decode")),
    ]


@contextmanager
def install(recorder: SpanRecorder) -> Iterator[SpanRecorder]:
    """Wrap every traced entry point for the duration of the block."""
    restore: List[Tuple[Any, str, Any, bool]] = []
    try:
        for owner, attribute, factory in _patch_points(recorder):
            own = attribute in vars(owner)
            raw = vars(owner)[attribute] if own else getattr(owner, attribute)
            if isinstance(raw, classmethod):
                patched: Any = classmethod(factory(raw.__func__))
            else:
                patched = factory(raw)
            restore.append((owner, attribute, raw, own))
            setattr(owner, attribute, patched)
        yield recorder
    finally:
        for owner, attribute, raw, own in reversed(restore):
            if own:
                setattr(owner, attribute, raw)
            else:
                delattr(owner, attribute)


# ----------------------------------------------------------------------
# Aggregation
# ----------------------------------------------------------------------


def per_op_times(recorder: SpanRecorder) -> Dict[int, Dict[str, Dict[str, float]]]:
    """``{rid: {name: {"self": ms, "total": ms}}}``."""
    children: Dict[int, float] = {}
    for span in recorder.spans:
        if span.parent is not None:
            children[span.parent] = children.get(span.parent, 0.0) + span.duration_ms
    table: Dict[int, Dict[str, Dict[str, float]]] = {}
    for span in recorder.spans:
        row = table.setdefault(span.rid, {}).setdefault(
            span.name, {"self": 0.0, "total": 0.0}
        )
        row["self"] += span.duration_ms - children.get(span.id, 0.0)
        row["total"] += span.duration_ms
    return table


def layer_value(
    table: Dict[int, Dict[str, Dict[str, float]]], name: str, field: str
) -> float:
    """Median over the ops containing span *name* of its per-op *field*;
    0 when no op ran the layer."""
    return median([row[name][field] for row in table.values() if name in row])


def kernel_totals(recorder: SpanRecorder) -> Dict[int, Dict[str, int]]:
    """Per op: kernel calls, candidates and results."""
    totals: Dict[int, Dict[str, int]] = {}
    for span in recorder.spans:
        if span.name != "kernels.match":
            continue
        row = totals.setdefault(
            span.rid, {"calls": 0, "candidates": 0, "results": 0}
        )
        row["calls"] += 1
        row["candidates"] += span.attrs.get("candidates", 0)
        row["results"] += span.attrs.get("results", 0)
    return totals
