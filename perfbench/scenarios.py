"""The benchmark's three workloads.

Each workload builds its inputs from the seed (``setup``), runs its
untraced load for a fixed time (``measure``), replays a seeded sample of
its ops one at a time for the traced run (``replay``), and checks the
program's answers against an independent oracle (``verify``).
"""

from __future__ import annotations

import os
import random
import shutil
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Any, Dict, List, Tuple

from repro.baselines.nested_loop import NestedLoopJoin
from repro.core.interval import Interval
from repro.core.join import OIPJoin
from repro.core.relation import TemporalRelation, TemporalTuple
from repro.engine.parallel import build_probe_schedule
from repro.service.client import ServiceClient
from repro.service.server import ServiceServer
from repro.service.service import JoinService, offline_query, summarize_result
from repro.storage.metrics import CostCounters
from repro.storage.snapshot import MaintainedIndex, journal_path, save_index
from repro.workloads.synthetic import (
    PAPER_TIME_RANGE,
    long_lived_mixture,
    uniform_relation,
)

from harness import median, tail

#: The Figure 8(a) domain, |U| = 20 000 chronons.
FIGURE8_DOMAIN = Interval(1, 20_000)


@dataclass
class Measured:
    """What one measured or replayed stretch of a workload produced."""

    #: Latency of every completed read op, in ms.
    reads: List[float] = field(default_factory=list)
    wall_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    #: Workload-specific end-to-end metrics: name -> (value, unit).
    extra: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    #: Facts worth reporting that are not metrics.
    notes: Dict[str, Any] = field(default_factory=dict)
    #: Per-op material the answer checks need.
    answers: List[Any] = field(default_factory=list)
    #: One line per failed op or failed check.
    errors: List[str] = field(default_factory=list)

    def fail(self, message: str, ops: int = 1) -> None:
        self.failed += ops
        if len(self.errors) < 20:
            self.errors.append(message)


def fingerprint(result: Any) -> int:
    """The service's order-independent result fingerprint of a join."""
    return summarize_result(result, op="join", window=None, generation=None)[
        "fingerprint"
    ]


def counter_record(result: Any) -> Dict[str, Dict[str, int]]:
    return {
        "cost": result.counters.snapshot(),
        "resilience": result.resilience.snapshot(),
    }


def random_window(rng: random.Random, domain: Interval, fraction: float) -> List[int]:
    """A window ``[ts, te]`` inside *domain*, up to *fraction* of it wide."""
    width = rng.randint(1, max(1, int(fraction * domain.duration)))
    start = rng.randint(domain.start, domain.end - width + 1)
    return [start, start + width - 1]


def pinned_join(service: JoinService) -> Any:
    """The join a service query runs, executed in process against the
    service's pinned generation (for counters the response omits)."""
    generation = service.snapshots.current
    join = OIPJoin(index_provider=generation, **generation.join_kwargs())
    return join.join(generation.outer, generation.inner)


def _op(recorder: Any, kind: str):
    return recorder.op(kind) if recorder is not None else nullcontext(None)


class Workload:
    """Base class: one set of inputs and the load driven against them."""

    name = ""
    #: Tail percentile reported for reads (see :func:`harness.tail`).
    tail_percentile = 90.0
    #: Ops the traced run replays.
    trace_ops = 16

    def __init__(self, seed: int, workdir: str) -> None:
        self.seed = seed
        self.workdir = workdir
        self._setups = 0

    def params(self) -> Dict[str, Any]:
        raise NotImplementedError

    def fresh_directory(self) -> str:
        """An empty directory for one set-up."""
        self._setups += 1
        path = os.path.join(self.workdir, f"setup{self._setups}")
        os.makedirs(path)
        return path

    def setup(self) -> None:
        raise NotImplementedError

    def close(self) -> None:
        """Release what the last set-up holds (idempotent)."""

    def contract(self) -> Dict[str, Any]:
        """Paper-model counters of this seed's deterministic joins."""
        raise NotImplementedError

    def measure(self, seconds: float) -> Measured:
        raise NotImplementedError

    def replay(self, recorder: Any) -> Measured:
        raise NotImplementedError

    def verify(self, measured: Measured) -> None:
        raise NotImplementedError


# ----------------------------------------------------------------------
# adhoc-longlived
# ----------------------------------------------------------------------


class AdhocLongLived(Workload):
    """In-process ``OIPJoin().join`` over pre-generated Figure 8(a)
    relation pairs, one client in a closed loop."""

    name = "adhoc-longlived"
    cardinality = 1200
    long_fraction = 0.3
    #: Relation pairs joined in rotation; enough that the per-seed mix
    #: of result sizes (and the garbage collections they trigger)
    #: averages out.
    pool = 16
    tail_percentile = 90.0

    def params(self) -> Dict[str, Any]:
        return {
            "generator": "long_lived_mixture",
            "n_per_side": self.cardinality,
            "long_fraction": self.long_fraction,
            "domain": list(FIGURE8_DOMAIN.as_tuple()),
            "relation_pairs": self.pool,
            "k": "auto",
            "kernel": "auto",
            "clients": 1,
            "loop": "closed",
            "trace_ops": self.trace_ops,
        }

    def _relation(self, rng: random.Random, name: str) -> TemporalRelation:
        return long_lived_mixture(
            self.cardinality,
            self.long_fraction,
            time_range=FIGURE8_DOMAIN,
            seed=rng.getrandbits(32),
            name=name,
        )

    def setup(self) -> None:
        rng = random.Random(f"adhoc:{self.seed}")
        self.pairs = [
            (self._relation(rng, "outer"), self._relation(rng, "inner"))
            for _ in range(self.pool)
        ]
        for outer, inner in self.pairs[:2]:
            OIPJoin().join(outer, inner)

    def contract(self) -> Dict[str, Any]:
        results = [OIPJoin().join(outer, inner) for outer, inner in self.pairs]
        #: Per pair: (cardinality, cost counters) every run must repeat.
        self.reference = [
            (len(result.pairs), result.counters.snapshot()) for result in results
        ]
        return {"joins": [counter_record(result) for result in results]}

    def _join(self, measured: Measured, index: int) -> Any:
        outer, inner = self.pairs[index]
        started = time.perf_counter()
        result = OIPJoin().join(outer, inner)
        measured.reads.append((time.perf_counter() - started) * 1e3)
        measured.attempted += 1
        return result

    def _check(
        self, measured: Measured, index: int, result: Any, checked: Dict[int, List]
    ) -> float:
        """Check one answer; returns the seconds the check took.

        Every answer must repeat the pair's reference cardinality and
        counters.  The first answer per pair is fingerprinted at once
        rather than kept (kept results would slow the interpreter's
        garbage collector for every later join); the fingerprint is
        checked against the oracle after the run.
        """
        started = time.perf_counter()
        if (len(result.pairs), result.counters.snapshot()) != self.reference[index]:
            measured.fail(f"pair {index}: cardinality or counters differ")
        if index not in checked:
            checked[index] = [fingerprint(result), len(result.pairs), 0]
        checked[index][2] += 1
        return time.perf_counter() - started

    def measure(self, seconds: float) -> Measured:
        measured = Measured()
        checked: Dict[int, List] = {}
        checking = 0.0
        started = time.perf_counter()
        while time.perf_counter() < started + seconds + checking:
            index = measured.attempted % self.pool
            result = self._join(measured, index)
            checking += self._check(measured, index, result, checked)
        measured.wall_s = time.perf_counter() - started - checking
        measured.answers = [(index, *checked[index]) for index in sorted(checked)]
        return measured

    def replay(self, recorder: Any) -> Measured:
        rng = random.Random(f"adhoc-trace:{self.seed}")
        measured = Measured()
        checked: Dict[int, List] = {}
        for _ in range(self.trace_ops):
            index = rng.randrange(self.pool)
            with _op(recorder, "join") as op:
                result = self._join(measured, index)
                lists = op.attrs.pop("partition_lists", []) if op else []
                if len(lists) == 2:
                    # Lemma-1 navigation as build_probe_schedule replays it
                    # over the lists this join built.
                    with recorder.span("parallel.schedule") as span:
                        schedule = build_probe_schedule(
                            lists[0], lists[1], lists[1].config.k, CostCounters()
                        )
                    span.attrs["partition_pairs"] = schedule.pair_count
            self._check(measured, index, result, checked)
            del result  # freed outside the next op's span
        measured.answers = [(index, *checked[index]) for index in sorted(checked)]
        return measured

    def verify(self, measured: Measured) -> None:
        started = time.perf_counter()
        for index, answer, cardinality, ops in measured.answers:
            oracle = NestedLoopJoin().join(*self.pairs[index])
            if (answer, cardinality) != (fingerprint(oracle), len(oracle.pairs)):
                measured.fail(
                    f"pair {index}: answer differs from the nested-loop oracle",
                    ops=ops,
                )
        measured.notes["oracle_s"] = time.perf_counter() - started
        measured.notes["pairs_checked_against_oracle"] = len(measured.answers)


# ----------------------------------------------------------------------
# serve-lookup-uniform
# ----------------------------------------------------------------------


class ServeLookupUniform(Workload):
    """Windowed lookups from two TCP clients against a cached service
    over a pinned uniform short-lived snapshot."""

    name = "serve-lookup-uniform"
    cardinality = 6000
    duration_fraction = 0.001
    window_fraction = 0.05
    hot_windows = 4
    #: Every fifth request of a client re-asks a hot window.  A fixed
    #: cadence rather than a coin flip keeps the hit share equal across
    #: seeds.  It stays below one in four because each hit lets the
    #: other client's next miss skip the admission queue: hits and those
    #: unqueued misses together must stay well under half of all reads,
    #: or the median lands on the edge between one and two service times.
    hot_every = 5
    cache_entries = 64
    clients = 2
    #: The join is interpreter-bound, so two joins at once in one
    #: process only trade the interpreter lock back and forth; queries
    #: queue in admission instead.
    max_active = 1
    tail_percentile = 75.0
    trace_ops = 20

    def params(self) -> Dict[str, Any]:
        return {
            "generator": "uniform_relation",
            "n_per_side": self.cardinality,
            "max_duration_fraction": self.duration_fraction,
            "domain": list(PAPER_TIME_RANGE.as_tuple()),
            "window_max_fraction": self.window_fraction,
            "hot_windows": self.hot_windows,
            "hot_every_nth_request": self.hot_every,
            "result_cache_entries": self.cache_entries,
            "max_active_queries": self.max_active,
            "clients": self.clients,
            "loop": "closed",
            "transport": "loopback TCP, line-JSON",
            "trace_ops": self.trace_ops,
        }

    def setup(self) -> None:
        directory = self.fresh_directory()
        rng = random.Random(f"serve:{self.seed}")
        outer, inner = (
            uniform_relation(
                self.cardinality,
                max_duration_fraction=self.duration_fraction,
                seed=rng.getrandbits(32),
                name=name,
            )
            for name in ("outer", "inner")
        )
        self.path = os.path.join(directory, "serve.oip")
        self.snapshot_bytes = save_index(self.path, outer, inner)["bytes"]
        self.service = JoinService(
            self.path,
            max_active=self.max_active,
            result_cache_size=self.cache_entries,
        )
        self.service.start()
        self.server = ServiceServer(self.service).start()
        self.connections = [
            ServiceClient(self.server.host, self.server.port, timeout_s=120.0)
            for _ in range(self.clients)
        ]
        self.hot = [
            random_window(rng, PAPER_TIME_RANGE, self.window_fraction)
            for _ in range(self.hot_windows)
        ]
        for client in self.connections:
            client.lookup(random_window(rng, PAPER_TIME_RANGE, self.window_fraction))

    def close(self) -> None:
        for client in getattr(self, "connections", []):
            client.close()
        self.connections = []
        server = getattr(self, "server", None)
        if server is not None:
            server.shutdown()
            self.server = None
            shutil.rmtree(os.path.dirname(self.path), ignore_errors=True)

    def contract(self) -> Dict[str, Any]:
        result = pinned_join(self.service)
        self.reference_counters = result.counters.snapshot()
        return {
            "joins": [counter_record(result)],
            "kernel": result.details["kernel"],
        }

    def _window(self, rng: random.Random, sequence: int) -> List[int]:
        if sequence % self.hot_every == self.hot_every - 1:
            return self.hot[rng.randrange(self.hot_windows)]
        return random_window(rng, PAPER_TIME_RANGE, self.window_fraction)

    def _lookup(self, client: ServiceClient, window: List[int], records: List) -> None:
        started = time.perf_counter()
        try:
            body = client.lookup(window)
        except Exception as error:  # noqa: BLE001 - a failed op is counted
            records.append((window, None, f"{type(error).__name__}: {error}"))
            return
        records.append((window, (time.perf_counter() - started) * 1e3, body))

    def _collect(self, measured: Measured, records: List) -> None:
        for window, latency, body in records:
            measured.attempted += 1
            if latency is None:
                measured.fail(f"lookup {window}: {body}")
                continue
            measured.reads.append(latency)
            measured.answers.append((tuple(window), body))

    def _cache_delta(self, before: Dict[str, int], measured: Measured) -> None:
        after = self.service.result_cache.stats()
        hits = after["hits"] - before["hits"]
        lookups = hits + after["misses"] - before["misses"]
        measured.notes["cache_hits"] = hits
        measured.notes["cache_lookups"] = lookups
        measured.notes["cache_hit_ratio"] = hits / lookups if lookups else 0.0

    def measure(self, seconds: float) -> Measured:
        measured = Measured()
        records: List[List] = [[] for _ in range(self.clients)]
        before = self.service.result_cache.stats()
        started = time.perf_counter()
        deadline = started + seconds

        def client_loop(index: int) -> None:
            rng = random.Random(f"serve:{self.seed}:client{index}")
            client = self.connections[index]
            while time.perf_counter() < deadline:
                window = self._window(rng, len(records[index]))
                self._lookup(client, window, records[index])

        threads = [
            threading.Thread(target=client_loop, args=(index,), name=f"client{index}")
            for index in range(self.clients)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        measured.wall_s = time.perf_counter() - started
        for client_records in records:
            self._collect(measured, client_records)
        self._cache_delta(before, measured)
        measured.extra["snapshot_bytes_per_tuple"] = (
            self.snapshot_bytes / (2 * self.cardinality),
            "B",
        )
        return measured

    def replay(self, recorder: Any) -> Measured:
        rng = random.Random(f"serve-trace:{self.seed}")
        measured = Measured()
        records: List = []
        # Both passes start cold, so they see the same hits and misses.
        self.service.result_cache.invalidate()
        before = self.service.result_cache.stats()
        for _ in range(self.trace_ops):
            with _op(recorder, "lookup"):
                window = self._window(rng, len(records))
                self._lookup(self.connections[0], window, records)
        self._collect(measured, records)
        self._cache_delta(before, measured)
        return measured

    def verify(self, measured: Measured) -> None:
        expected: Dict[Tuple[int, int], Dict[str, Any]] = {}
        started = time.perf_counter()
        for window, body in measured.answers:
            if window not in expected:
                expected[window] = offline_query(self.path, op="lookup", window=window)
            oracle = expected[window]
            if (body["fingerprint"], body["pairs"]) != (
                oracle["fingerprint"],
                oracle["pairs"],
            ) or body["counters"] != self.reference_counters:
                measured.fail(f"lookup {list(window)}: answer differs from offline_query")
        measured.notes["oracle_s"] = time.perf_counter() - started
        measured.notes["windows_checked_against_offline_query"] = len(expected)


# ----------------------------------------------------------------------
# maintain-longlived
# ----------------------------------------------------------------------


class MaintainLongLived(Workload):
    """Journaled deltas, compaction and hot refresh on one thread beside
    in-process lookups on another, over a Figure 8(a) snapshot."""

    name = "maintain-longlived"
    cardinality = 1200
    long_fraction = 0.3
    #: Low enough that the writer keeps up with its schedule: at 200
    #: deltas/s every delta waited for the reader to hand over the
    #: interpreter lock, the writer ran permanently late, and read
    #: latency swung between runs.
    delta_rate = 60.0
    compact_every = 20
    window_fraction = 0.05
    tail_percentile = 75.0
    delta_tail_percentile = 99.0
    trace_cycles = 4
    trace_lookups_per_cycle = 4

    def params(self) -> Dict[str, Any]:
        return {
            "generator": "long_lived_mixture",
            "n_per_side": self.cardinality,
            "long_fraction": self.long_fraction,
            "domain": list(FIGURE8_DOMAIN.as_tuple()),
            "store_payloads": True,
            "deltas": "alternating insert / delete of an existing tuple",
            "writer_loop": f"open, {self.delta_rate:g} deltas/s",
            "compact_every_deltas": self.compact_every,
            "reader_loop": "closed, 1 thread, in-process JoinService.query",
            "window_max_fraction": self.window_fraction,
            "flush_policy": "fsync on every journal append and snapshot commit",
            "trace_cycles": self.trace_cycles,
        }

    def _relation(self, rng: random.Random, name: str) -> TemporalRelation:
        return long_lived_mixture(
            self.cardinality,
            self.long_fraction,
            time_range=FIGURE8_DOMAIN,
            seed=rng.getrandbits(32),
            name=name,
        )

    def setup(self) -> None:
        directory = self.fresh_directory()
        rng = random.Random(f"maintain:{self.seed}")
        outer = self._relation(rng, "outer")
        inner = self._relation(rng, "inner")
        self.path = os.path.join(directory, "maintain.oip")
        save_index(self.path, outer, inner, store_payloads=True, fsync=True)
        self.index = MaintainedIndex.open(self.path, fsync=True)
        #: Journal size right after the last reset (its header).
        self._journal_base = os.path.getsize(journal_path(self.path))
        self.service = JoinService(self.path)
        self.service.start()
        for _ in range(2):
            self.service.query(
                "lookup", window=random_window(rng, FIGURE8_DOMAIN, self.window_fraction)
            )
        #: The benchmark's own model of both relations under the deltas.
        self.model = {"outer": list(outer.tuples), "inner": list(inner.tuples)}
        self.inserted = 0
        self.deltas = 0
        self.replay_rng = random.Random(f"maintain-trace:{self.seed}")

    def close(self) -> None:
        service = getattr(self, "service", None)
        if service is not None:
            service.drain()
            self.service = None
            shutil.rmtree(os.path.dirname(self.path), ignore_errors=True)

    def contract(self) -> Dict[str, Any]:
        return {"joins": [counter_record(pinned_join(self.service))]}

    def _delta(self, rng: random.Random, measured: Measured, latencies: List[float]) -> None:
        """One journaled delta: inserts and deletes alternate."""
        side = rng.choice(("outer", "inner"))
        tuples = self.model[side]
        insert = self.deltas % 2 == 0
        self.deltas += 1
        if insert:
            span = FIGURE8_DOMAIN.duration
            longest = 0.08 if rng.random() < self.long_fraction else 0.0001
            start = rng.randint(FIGURE8_DOMAIN.start, FIGURE8_DOMAIN.end)
            end = min(
                start + rng.randint(1, max(1, int(longest * span))) - 1,
                FIGURE8_DOMAIN.end,
            )
            self.inserted += 1
            tup = TemporalTuple(start, end, 1_000_000 + self.inserted)
        else:
            tup = tuples[rng.randrange(len(tuples))]
        measured.attempted += 1
        started = time.perf_counter()
        try:
            if insert:
                self.index.insert(side, tup.start, tup.end, tup.payload)
                applied = True
            else:
                applied = self.index.delete(side, tup.start, tup.end, tup.payload)
        except Exception as error:  # noqa: BLE001 - a failed op is counted
            measured.fail(f"delta: {type(error).__name__}: {error}")
            return
        latencies.append((time.perf_counter() - started) * 1e3)
        if not applied:
            measured.fail(f"delete of existing {side} tuple {tup} was refused")
            return
        if insert:
            tuples.append(tup)
        else:
            tuples.remove(tup)

    def _compact(self, measured: Measured, visible: List[float], written: List[int]) -> None:
        """Fold the journal into a new generation and swap it in."""
        journal = journal_path(self.path)
        measured.attempted += 1
        appended = os.path.getsize(journal) - self._journal_base
        started = time.perf_counter()
        try:
            info = self.index.compact()
            report = self.service.refresh()
        except Exception as error:  # noqa: BLE001 - a failed op is counted
            measured.fail(f"compaction: {type(error).__name__}: {error}")
            return
        visible.append((time.perf_counter() - started) * 1e3)
        self._journal_base = os.path.getsize(journal)
        written.append(appended + info["bytes"] + self._journal_base)
        if not report["swapped"] or report["generation"] != info["generation"]:
            measured.fail(f"refresh did not swap in generation {info['generation']}")

    def _lookup(self, rng: random.Random, measured: Measured) -> None:
        window = random_window(rng, FIGURE8_DOMAIN, self.window_fraction)
        measured.attempted += 1
        started = time.perf_counter()
        try:
            self.service.query("lookup", window=window)
        except Exception as error:  # noqa: BLE001 - a failed op is counted
            measured.fail(f"lookup {window}: {type(error).__name__}: {error}")
            return
        measured.reads.append((time.perf_counter() - started) * 1e3)

    def _write_metrics(
        self,
        measured: Measured,
        deltas: List[float],
        visible: List[float],
        written: List[int],
    ) -> None:
        measured.extra["delta_p50_ms"] = (median(deltas), "ms")
        delta_tail = tail(deltas, self.delta_tail_percentile)
        measured.extra["delta_tail_ms"] = (delta_tail["value"], "ms")
        measured.notes["delta_tail"] = delta_tail
        measured.extra["visible_p50_ms"] = (median(visible), "ms")
        acknowledged = len(deltas)
        measured.extra["write_bytes_per_delta"] = (
            sum(written) / acknowledged if acknowledged else 0.0,
            "B",
        )
        tuples = len(self.model["outer"]) + len(self.model["inner"])
        measured.extra["snapshot_bytes_per_tuple"] = (
            os.path.getsize(self.path) / tuples,
            "B",
        )
        measured.notes["deltas"] = acknowledged
        measured.notes["compactions"] = len(visible)
        measured.notes["bytes_per_compaction_p50"] = median(written)

    def measure(self, seconds: float) -> Measured:
        measured = Measured()
        writes = Measured()
        deltas: List[float] = []
        visible: List[float] = []
        written: List[int] = []
        lateness: List[float] = []
        started = time.perf_counter()
        deadline = started + seconds

        def writer() -> None:
            rng = random.Random(f"maintain:{self.seed}:writer")
            sent = 0
            while True:
                due = started + sent / self.delta_rate
                if due >= deadline:
                    return
                now = time.perf_counter()
                if due > now:
                    time.sleep(due - now)
                lateness.append(max(0.0, now - due) * 1e3)
                self._delta(rng, writes, deltas)
                sent += 1
                if sent % self.compact_every == 0:
                    self._compact(writes, visible, written)

        def reader() -> None:
            rng = random.Random(f"maintain:{self.seed}:reader")
            while time.perf_counter() < deadline:
                self._lookup(rng, measured)

        threads = [
            threading.Thread(target=writer, name="writer"),
            threading.Thread(target=reader, name="reader"),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        measured.wall_s = time.perf_counter() - started
        measured.attempted += writes.attempted
        measured.failed += writes.failed
        measured.errors += writes.errors
        self._write_metrics(measured, deltas, visible, written)
        measured.notes["writer_lateness_p50_ms"] = median(lateness)
        measured.notes["writer_lateness_max_ms"] = max(lateness, default=0.0)
        return measured

    def replay(self, recorder: Any) -> Measured:
        rng = self.replay_rng
        measured = Measured()
        deltas: List[float] = []
        visible: List[float] = []
        written: List[int] = []
        for _ in range(self.trace_cycles):
            for _ in range(self.compact_every):
                with _op(recorder, "delta"):
                    self._delta(rng, measured, deltas)
            with _op(recorder, "visible"):
                self._compact(measured, visible, written)
            for _ in range(self.trace_lookups_per_cycle):
                with _op(recorder, "lookup"):
                    self._lookup(rng, measured)
        self._write_metrics(measured, deltas, visible, written)
        return measured

    def verify(self, measured: Measured) -> None:
        started = time.perf_counter()
        measured.attempted += 1
        if self.index.pending:
            self._compact(measured, [], [])
        served = self.service.query("join")
        outer = TemporalRelation(self.model["outer"], name="outer")
        inner = TemporalRelation(self.model["inner"], name="inner")
        expected = OIPJoin().join(outer, inner)
        if (served["fingerprint"], served["pairs"]) != (
            fingerprint(expected),
            len(expected.pairs),
        ):
            measured.fail("served join differs from a fresh OIPJoin over the model")
        if served["generation"] != self.index.generation:
            measured.fail("service does not serve the last compacted generation")
        measured.notes["oracle_s"] = time.perf_counter() - started


WORKLOADS = {
    workload.name: workload
    for workload in (AdhocLongLived, ServeLookupUniform, MaintainLongLived)
}
