"""The numpy kernel hands its ``int64`` hit array to ``PairChunks``.

``numpy_matches`` returns its sorted array from both of its paths and
the join keeps it as the chunk's hits; every reader converts a chunk to
Python ints where it reads it.  A ``PairChunks`` holding the numpy
kernel's arrays must therefore read exactly like one holding the sweep
kernel's lists: in every accessor, in the checkpoint it writes, and in
the ``summarize_result`` bodies of ``join`` and ``lookup`` — also when
a resumed run's prefix chunk (a list in emission order) comes first.
"""

import json
import random
from array import array

import pytest

from repro.core import kernels
from repro.core.base import JoinResult
from repro.core.join import OIPJoin, PairChunks
from repro.core.kernels import (
    DecodedRun,
    numpy_available,
    numpy_matches,
    sweep_matches,
)
from repro.engine.governor import CancellationToken
from repro.service.service import summarize_result
from repro.storage.metrics import CostCounters

from ..conftest import random_relation

pytestmark = pytest.mark.skipif(
    not numpy_available(), reason="numpy is not installed"
)

#: Broadcast path (small calls) and the searchsorted path (forced).
PATHS = [4096, 0]


def _relations(seed, n=60):
    rng = random.Random(seed)
    return (
        random_relation(rng, n, range_size=400, max_duration=60),
        random_relation(rng, n, range_size=400, max_duration=60),
    )


def _accessors(pairs):
    """Everything a reader can ask a ``PairChunks``, as plain values."""
    count = len(pairs)
    return {
        "len": count,
        "iter": list(pairs),
        "index": [pairs[i] for i in range(count)],
        "negative": [pairs[-i] for i in range(1, count + 1)],
        "slices": [pairs[cut] for cut in (slice(None), slice(3, 40, 2), slice(-5))],
        "positions": pairs.positions(),
    }


def _bodies(pairs, windows):
    result = JoinResult(
        algorithm="oip", pairs=pairs, counters=CostCounters(), details={}
    )
    bodies = []
    for op, window in [("join", None)] + [("lookup", w) for w in windows]:
        for extra in ({}, {"include_pairs": True, "max_pairs": 7}):
            body = summarize_result(
                result, op=op, window=window, generation=None, **extra
            )
            del body["elapsed_ms"]
            bodies.append(body)
    return bodies


WINDOWS = [(0, 450), (100, 180), (37, 37), (500, 600)]


@pytest.mark.parametrize("cells", PATHS)
@pytest.mark.parametrize("seed", range(4))
def test_array_chunks_read_like_list_chunks(seed, cells, monkeypatch):
    monkeypatch.setattr(kernels, "NUMPY_BROADCAST_CELLS", cells)
    outer_rel, inner_rel = _relations(seed)
    outer = DecodedRun.from_tuples(
        outer_rel.tuples, positions=array("q", range(len(outer_rel)))
    )
    inner = DecodedRun.from_tuples(
        inner_rel.tuples, positions=array("q", range(len(inner_rel)))
    )
    as_array = numpy_matches(outer, inner)
    as_list = sweep_matches(outer, inner)
    assert not isinstance(as_array, list) and as_array.dtype.name == "int64"
    assert as_array.tolist() == as_list
    # A resumed prefix: a list in emission order (not ascending).
    n = len(outer_rel)
    prefix = [i * n + o for o, i in [(5, 2), (1, 2), (7, 0)]]
    position_sets = (range(n), [range(len(inner_rel))])
    chunked = []
    for hits in (as_array, as_list):
        pairs = PairChunks()
        pairs.append(
            outer_rel.tuples, inner_rel.tuples, n, prefix, position_sets, False
        )
        pairs.append(
            outer.tuples,
            inner.tuples,
            n,
            hits,
            (outer.positions, [inner.positions]),
        )
        chunked.append(pairs)
    from_array, from_list = chunked
    assert from_array == from_list
    assert _accessors(from_array) == _accessors(from_list)
    assert _bodies(from_array, WINDOWS) == _bodies(from_list, WINDOWS)


@pytest.mark.parametrize("cells", PATHS)
def test_resumed_numpy_join_matches_resumed_sweep_join(tmp_path, cells, monkeypatch):
    """A numpy join cancelled mid-way, checkpointed from its array
    chunks and resumed, equals the sweep kernel's run in every accessor,
    checkpoint and summary."""
    monkeypatch.setattr(kernels, "NUMPY_BROADCAST_CELLS", cells)
    outer, inner = _relations(11, n=150)
    runs = {}
    for kernel in ("numpy", "sweep"):
        path = str(tmp_path / f"{kernel}.ckpt")
        partial = OIPJoin(
            k=8,
            kernel=kernel,
            cancellation=CancellationToken(3),
            checkpoint_path=path,
            checkpoint_every=1,
        ).join(outer, inner)
        assert not partial.completed
        with open(path) as handle:
            checkpoint = json.load(handle)
        resumed = OIPJoin(
            k=8, kernel=kernel, resume_from=path, checkpoint_path=path
        ).join(outer, inner)
        assert resumed.details["kernel"] == kernel
        runs[kernel] = (checkpoint, resumed)
    np_checkpoint, np_run = runs["numpy"]
    sweep_checkpoint, sweep_run = runs["sweep"]
    assert np_checkpoint == sweep_checkpoint
    assert np_run.pairs.unordered == sweep_run.pairs.unordered == {0}
    assert any(not isinstance(chunk[3], list) for chunk in np_run.pairs.chunks)
    assert np_run.counters.snapshot() == sweep_run.counters.snapshot()
    assert _accessors(np_run.pairs) == _accessors(sweep_run.pairs)
    assert _bodies(np_run.pairs, WINDOWS) == _bodies(sweep_run.pairs, WINDOWS)
