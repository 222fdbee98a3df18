"""Collector pauses as a measured layer: the ``gc.callbacks`` tally,
the ``join`` span's ``gc_ms`` / ``gc_collections`` attributes and the
run report's ``gc`` section."""

import gc
import sys
import threading

from repro.core.interval import Interval
from repro.core.join import OIPJoin
from repro.obs import Tracer, validate_report
from repro.obs.gcpause import gc_pauses
from repro.workloads import long_lived_mixture

OUTER = long_lived_mixture(300, 0.3, Interval(1, 5_000), seed=3, name="r")
INNER = long_lived_mixture(300, 0.3, Interval(1, 5_000), seed=4, name="s")


def test_tally_counts_collections_of_its_own_thread():
    was_enabled = gc.isenabled()
    gc.disable()  # only the explicit collections below run
    try:
        with gc_pauses() as outer:
            with gc_pauses() as inner:
                gc.collect(0)
                gc.collect(2)
            gc.collect(1)
        gc.collect()  # outside every block: charged to nobody
    finally:
        if was_enabled:
            gc.enable()
    assert inner.collections == [1, 0, 1]
    assert outer.collections == [1, 1, 1]
    assert outer.ms >= inner.ms > 0.0


def test_collections_of_another_thread_are_not_charged():
    opened, done = threading.Event(), threading.Event()
    tallies = []

    def watcher():
        with gc_pauses() as tally:
            tallies.append(tally)
            opened.set()
            done.wait(10)

    thread = threading.Thread(target=watcher)
    thread.start()
    opened.wait(10)
    gc.collect()
    done.set()
    thread.join(10)
    assert tallies[0].collections == [0, 0, 0]
    assert tallies[0].ms == 0.0


def test_concurrent_tallies_each_count_only_their_own_thread():
    """More threads than cores open, nest and close tallies while each
    forces collections.  Every outer tally equals both the sum of its
    nested ones and an independent per-thread count of the collections
    that ran in its thread (a ``gc.collect`` that finds another thread's
    collection running is skipped, so that count is not ``rounds``)."""
    rounds, threads = 40, 6
    results = [None] * threads
    seen = {}

    def count(phase, info):
        if phase == "stop":
            # Thread objects, not idents: a finished thread's ident is
            # reused by the next one started.
            thread = threading.current_thread()
            seen[thread] = seen.get(thread, 0) + 1

    def worker(index):
        nested = 0
        with gc_pauses() as tally:
            for _ in range(rounds):
                with gc_pauses() as inner:
                    gc.collect(0)
                nested += inner.collections[0]
        results[index] = (threading.current_thread(), tally.collections, nested)

    interval = sys.getswitchinterval()
    was_enabled = gc.isenabled()
    gc.disable()
    gc.callbacks.append(count)
    sys.setswitchinterval(1e-6)
    try:
        pool = [threading.Thread(target=worker, args=(i,)) for i in range(threads)]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join(30)
        assert not any(thread.is_alive() for thread in pool)
    finally:
        sys.setswitchinterval(interval)
        gc.callbacks.remove(count)
        if was_enabled:
            gc.enable()
    for thread, collections, nested in results:
        assert collections == [nested, 0, 0] == [seen.get(thread, 0), 0, 0]
    assert sum(seen.values()) > 0


def test_traced_join_records_gc_on_its_span_and_report():
    tracer = Tracer()
    traced = OIPJoin(tracer=tracer, collect_report=True).join(OUTER, INNER)
    root = tracer.roots[-1]
    assert root.name == "join"
    assert root.attributes["gc_ms"] >= 0.0
    assert len(root.attributes["gc_collections"]) == 3
    report = traced.report
    validate_report(report)
    assert report["gc"] == {
        "ms": root.attributes["gc_ms"],
        "collections": root.attributes["gc_collections"],
    }
    plain = OIPJoin().join(OUTER, INNER)
    assert list(traced.pairs) == list(plain.pairs)
    assert traced.counters.snapshot() == plain.counters.snapshot()
    assert traced.resilience.snapshot() == plain.resilience.snapshot()


def test_untraced_report_section_is_null_when_no_span_recorded_it():
    from repro.obs.report import build_report

    result = OIPJoin().join(OUTER, INNER)
    report = build_report(result, OIPJoin().device, OIPJoin().weights)
    assert report["gc"] is None
    validate_report(report)
