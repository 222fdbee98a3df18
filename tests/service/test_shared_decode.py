"""A pinned generation shares its decoded runs across queries.

The probe's decode of a run (its endpoint columns and sort views) lives
on the run's columns, which a pinned generation's parsed snapshot shares
with every query it serves.  Each query still reads, checks and charges
the run's blocks itself.  These tests pin what that must not change:

* four threads querying a ``JoinService(max_active=4)`` at once get,
  for every window, exactly ``offline_query``'s body;
* a value of a pinned generation's ``starts`` column changed after a
  first lookup reaches the next lookup exactly as it did when every
  query decoded its runs afresh: the same body, counters included (the
  recorded values below), so a decode made before the change is never
  served after it;
* a value of a generation's ``starts`` column changed before its first
  lookup fails that lookup: the generation's blocks carry checksums
  over the columns the kernels read;
* a corruption detected on a read drops the run's shared decode, and a
  run that never delivers a good block fails the query as before;
* once ``refresh`` has swapped in a new generation and the old one's
  last pin is released, the old generation's decoded runs are freed.

The expected bodies were recorded when every query decoded its own
runs.
"""

import gc
import sys
import threading
import weakref

import pytest

from repro.core.interval import Interval
from repro.core.join import OIPJoin
from repro.service import JoinService, offline_query
from repro.service.errors import ServiceError
from repro.storage import save_index
from repro.storage.faults import CorruptBlockError, FaultPolicy
from repro.storage.manager import StorageManager
from repro.workloads import long_lived_mixture

KERNELS = ["sweep", "numpy"]

WINDOW = (1000, 1100)

#: The lookup of WINDOW before any change, on either kernel.
CLEAN = {
    "pairs": 96,
    "fingerprint": 200796432453,
    "counters": {
        "cpu_comparisons": 320004,
        "block_reads": 58,
        "block_writes": 58,
        "sequential_reads": 57,
        "random_reads": 1,
        "buffer_hits": 0,
        "false_hits": 156109,
        "partition_accesses": 1,
        "result_tuples": 3891,
    },
}

#: The lookup of WINDOW after the outer column change below: the same
#: windowed pairs, but the join behind them lost 32 pairs.
CHANGED = {
    "pairs": 96,
    "fingerprint": 200796432453,
    "counters": dict(CLEAN["counters"], false_hits=156141, result_tuples=3859),
}

#: The lookup of WINDOW when every read of block 1 first delivers one
#: corrupt payload: one more block read, the same answer.
CORRUPT = dict(
    CLEAN,
    counters=dict(CLEAN["counters"], block_reads=59, random_reads=2),
)


def _save(path, generation_seed=0):
    outer = long_lived_mixture(
        400, 0.3, Interval(1, 5000), seed=41 + generation_seed, name="outer"
    )
    inner = long_lived_mixture(400, 0.3, Interval(1, 5000), seed=42, name="inner")
    save_index(path, outer, inner, store_payloads=True)


@pytest.fixture(scope="module")
def snapshot(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("shared") / "shared.oip")
    _save(path)
    return path


def _served(snapshot, **options):
    service = JoinService(snapshot, **options)
    service.start()
    return service


def _answer(body):
    return {key: body[key] for key in ("pairs", "fingerprint", "counters")}


def _shared_columns(service):
    """The pinned generation's outer columns, as every query restores
    them."""
    generation = service.snapshots.current
    loaded = generation(generation.outer, generation.inner, storage=StorageManager())
    return loaded.outer_list.columns


@pytest.mark.parametrize("kernel", KERNELS)
def test_concurrent_lookups_match_offline_query(snapshot, kernel):
    """Four threads start on a cold generation, so they race to decode
    and sort the same runs; a short switch interval makes them trade
    the interpreter lock inside those steps."""
    service = _served(snapshot, max_active=4, kernel=kernel)
    windows = [(start, start + 400) for start in range(1, 5000, 250)]
    bodies = [[] for _ in range(4)]
    errors = []

    def client(index):
        try:
            for window in windows[index::4] + windows[: 4 - index]:
                bodies[index].append((window, service.query("lookup", window=window)))
        except Exception as error:  # noqa: BLE001 - reported below
            errors.append(error)

    threads = [threading.Thread(target=client, args=(i,)) for i in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120.0)
    finally:
        sys.setswitchinterval(interval)
        service.drain(timeout_s=5.0)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors
    oracle = {}
    for window, body in (item for client_bodies in bodies for item in client_bodies):
        if window not in oracle:
            oracle[window] = offline_query(
                snapshot, op="lookup", window=window, kernel=kernel
            )
        expected = oracle[window]
        assert _answer(body) == _answer(expected), window
    assert len(oracle) == len(windows)


@pytest.mark.parametrize("kernel", KERNELS)
def test_changed_column_reaches_the_next_lookup(snapshot, kernel):
    service = _served(snapshot, kernel=kernel)
    try:
        first = service.query("lookup", window=WINDOW)
        columns = _shared_columns(service)
        # The longest outer tuple that ends before the window becomes a
        # point at its end: its overlaps change, the window's do not.
        row = max(
            (r for r in range(len(columns.starts)) if columns.ends[r] < WINDOW[0]),
            key=lambda r: columns.ends[r] - columns.starts[r],
        )
        assert row == 192
        columns.starts[row] = columns.ends[row]
        second = service.query("lookup", window=WINDOW)
    finally:
        service.drain(timeout_s=5.0)
    assert _answer(first) == CLEAN
    assert _answer(second) == CHANGED
    assert second["index"]["loaded"] and second["attempts"] == 1


@pytest.mark.parametrize("kernel", KERNELS)
def test_column_changed_before_the_first_lookup_fails_it(snapshot, kernel):
    """The generation's columns are built and sealed with column
    checksums at its first restore, so a value changed before any
    block of the run is read fails that read, served or in process."""
    service = _served(snapshot, kernel=kernel, retry_backoff_s=0.0)
    try:
        generation = service.snapshots.current
        columns = _shared_columns(service)
        columns.starts[192] = columns.ends[192]
        with pytest.raises(ServiceError) as caught:
            service.query("lookup", window=WINDOW)
        assert caught.value.code == "storage_fault"
        join = OIPJoin(
            index_provider=generation, kernel=kernel, **generation.join_kwargs()
        )
        with pytest.raises(CorruptBlockError):
            join.join(generation.outer, generation.inner)
    finally:
        service.drain(timeout_s=5.0)


@pytest.mark.parametrize("kernel", KERNELS)
def test_detected_corruption_drops_the_shared_decode(snapshot, kernel, decode_log):
    policy = FaultPolicy(corrupt_schedule={1: 1})
    service = _served(
        snapshot, kernel=kernel, join_options={"fault_policy": policy}
    )
    try:
        decodes = []
        for _ in range(2):
            del decode_log[:]
            body = service.query("lookup", window=WINDOW)
            assert _answer(body) == CORRUPT
            assert body["attempts"] == 1
            decodes.append(list(decode_log))
        outer_run = tuple(
            (t.start, t.end, t.payload) for t in _shared_columns(service).tuples
        )
    finally:
        service.drain(timeout_s=5.0)
    # The first lookup decodes both runs; the second re-decodes only the
    # outer run, whose block 1 read corrupt again.
    assert len(decodes[0]) == 2 and outer_run in decodes[0]
    assert decodes[1] == [outer_run]


@pytest.mark.parametrize("kernel", KERNELS)
def test_permanently_bad_block_fails_every_lookup(snapshot, kernel):
    policy = FaultPolicy(permanent_blocks=frozenset({1}))
    service = _served(
        snapshot,
        kernel=kernel,
        join_options={"fault_policy": policy},
        retry_backoff_s=0.0,
    )
    try:
        for _ in range(2):
            with pytest.raises(ServiceError) as caught:
                service.query("lookup", window=WINDOW)
            assert caught.value.code == "storage_fault"
    finally:
        service.drain(timeout_s=5.0)


def test_clean_lookups_decode_once_per_generation(snapshot, decode_log):
    service = _served(snapshot)
    try:
        for _ in range(3):
            service.query("lookup", window=WINDOW)
    finally:
        service.drain(timeout_s=5.0)
    assert len(decode_log) == 2


def test_retired_generation_frees_its_decodes(tmp_path):
    path = str(tmp_path / "refresh.oip")
    _save(path)
    service = _served(path)
    try:
        service.query("lookup", window=WINDOW)
        pinned = service.snapshots.acquire()
        decoded = weakref.ref(_shared_columns(service).decoded[0])
        _save(path, generation_seed=1)
        assert service.refresh()["swapped"]
        gc.collect()
        assert decoded() is not None  # still pinned
        service.snapshots.release(pinned)
        del pinned
        gc.collect()
        assert decoded() is None
        assert service.query("lookup", window=WINDOW)["generation"] == 1
    finally:
        service.drain(timeout_s=5.0)
