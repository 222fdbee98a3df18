"""What the block-storage emulation costs the join, layer by layer.

OIPCREATE lays every partition out as one contiguous block run.  The
storage layer charges those runs' writes and reads and verifies their
checksums; since runs became slices of their list's columns
(:mod:`repro.storage.columns`), a healthy run is charged in O(1) and
each block's checksum is checked once, in C.  This benchmark times that
layer and what it feeds, on perfbench's workloads built the same way
for seed 1:

* ``join_ms`` — one ``OIPJoin().join`` of the 16 ``adhoc-longlived``
  Figure 8(a) pairs (n=1200 per side), per join;
* ``oipcreate_ms`` — OIPCREATE of both sides of those pairs at the
  join's granule counts, per pair;
* ``read_verify_ms`` — every ``StorageManager.read_run`` a join's probe
  makes (each task's outer run, then its relevant inner runs), on
  freshly built lists so first reads verify, per join;
* ``served_lookup_ms`` — one in-process ``JoinService`` lookup (result
  cache off) on the ``serve-lookup-uniform`` snapshot (n=6000 per
  side, windows of up to 5% of the domain), per lookup.

Every figure is min-of-repeats and the document records ``cpu_count``.
``--parent-src DIR`` also measures another source tree (a ``git
archive`` of the parent commit, say): both trees run in subprocesses,
alternating, and ``BENCH_storage.json`` records both.  ``--smoke`` (the
CI ``tests`` job) joins one small pair with and without a no-fault
policy — which forces the per-block read path — and asserts equal
pairs, cost and resilience counters, and that the per-run charge takes
at most :data:`SMOKE_CEILING` of the per-block path's read time.

    PYTHONPATH=src python benchmarks/bench_storage_layer.py --parent-src /path/to/parent/src
    PYTHONPATH=src python benchmarks/bench_storage_layer.py --smoke
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import subprocess
import sys
import tempfile
import time
from typing import Callable, Dict, Optional, Sequence

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

if __package__:
    from .common import best_times, emit, heading, table
else:  # run as a script: the harness sits next to this file
    # Appended, so a tree named by PYTHONPATH (see _measure_tree) wins.
    _SRC = os.path.join(_ROOT, "src")
    if _SRC not in sys.path:
        sys.path.append(_SRC)
    from common import best_times, emit, heading, table

from repro.core.interval import Interval
from repro.core.join import OIPJoin, build_probe_schedule
from repro.core.lazy_list import oip_create
from repro.core.oip import OIPConfiguration
from repro.service.service import JoinService
from repro.storage.faults import FaultPolicy
from repro.storage.manager import StorageManager
from repro.storage.snapshot import save_index
from repro.workloads import long_lived_mixture
from repro.workloads.synthetic import PAPER_TIME_RANGE, uniform_relation

SEED = 1
FIGURE8_DOMAIN = Interval(1, 20_000)
ADHOC_PAIRS = 16
WINDOW_FRACTION = 0.05
LOOKUPS = 8
METRICS = ("join_ms", "oipcreate_ms", "read_verify_ms", "served_lookup_ms")

#: The smoke gate: per-run read time over per-block read time.
SMOKE_CEILING = 0.7

RESULTS_FILE = os.path.join(_ROOT, "BENCH_storage.json")


def adhoc_pairs(count: int = ADHOC_PAIRS, n: int = 1200):
    """perfbench's ``adhoc-longlived`` relation pairs for seed 1."""
    rng = random.Random(f"adhoc:{SEED}")
    return [
        tuple(
            long_lived_mixture(
                n, 0.3, time_range=FIGURE8_DOMAIN, seed=rng.getrandbits(32), name=name
            )
            for name in ("outer", "inner")
        )
        for _ in range(count)
    ]


def serve_relations():
    """perfbench's ``serve-lookup-uniform`` relations for seed 1."""
    rng = random.Random(f"serve:{SEED}")
    return tuple(
        uniform_relation(
            6000, max_duration_fraction=0.001, seed=rng.getrandbits(32), name=name
        )
        for name in ("outer", "inner")
    )


def _build(outer, inner, ks, storage):
    return [
        oip_create(relation, OIPConfiguration.for_relation(relation, k), storage)
        for relation, k in zip((outer, inner), ks)
    ]


def _probe_runs(lists):
    """Every run the probe reads, in its order, with its read context."""
    runs = []
    for task in build_probe_schedule(*lists).tasks:
        runs.append((task.outer.run, ("outer partition", task.index)))
        runs.extend((node.run, ("inner partition", task.index)) for node in task.inner)
    return runs


def _timed_reads(pairs, ks, make_storage: Callable[[], StorageManager]) -> float:
    """Seconds for the probe's reads of every pair, on fresh lists."""
    built = []
    for (outer, inner), pair_ks in zip(pairs, ks):
        storage = make_storage()
        built.append((storage, _probe_runs(_build(outer, inner, pair_ks, storage))))
    started = time.perf_counter()
    for storage, runs in built:
        read_run = storage.read_run
        for run, context in runs:
            list(read_run(run, context=context))
    return time.perf_counter() - started


def _granules(pairs):
    ks = []
    for outer, inner in pairs:
        details = OIPJoin().join(outer, inner).details
        ks.append((details["k_outer"], details["k_inner"]))
    return ks


def _served_lookups(repeats: int) -> float:
    """Min-of-repeats seconds per in-process served lookup."""
    outer, inner = serve_relations()
    scratch = tempfile.mkdtemp(prefix="bench-storage-")
    try:
        path = os.path.join(scratch, "serve.oip")
        save_index(path, outer, inner)
        service = JoinService(path, result_cache_size=0)
        service.start()
        try:
            rng = random.Random(f"windows:{SEED}")
            windows = []
            for _ in range(LOOKUPS):
                width = rng.randint(
                    1, max(1, int(WINDOW_FRACTION * PAPER_TIME_RANGE.duration))
                )
                start = rng.randint(
                    PAPER_TIME_RANGE.start, PAPER_TIME_RANGE.end - width + 1
                )
                windows.append([start, start + width - 1])

            def lookups():
                for window in windows:
                    service.query("lookup", window=window)

            return best_times({"lookups": lookups}, repeats)["lookups"] / LOOKUPS
        finally:
            service.drain(timeout_s=10.0)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def measure(repeats: int) -> Dict[str, float]:
    """Min-of-repeats ms of every metric (see the module docstring)."""
    pairs = adhoc_pairs()
    ks = _granules(pairs)
    times = best_times(
        {
            "join_ms": lambda: [OIPJoin().join(o, i) for o, i in pairs],
            "oipcreate_ms": lambda: [
                _build(o, i, pair_ks, StorageManager())
                for (o, i), pair_ks in zip(pairs, ks)
            ],
        },
        repeats,
    )
    row = {name: seconds * 1e3 / len(pairs) for name, seconds in times.items()}
    row["read_verify_ms"] = (
        min(_timed_reads(pairs, ks, StorageManager) for _ in range(repeats))
        * 1e3
        / len(pairs)
    )
    row["served_lookup_ms"] = _served_lookups(repeats) * 1e3
    return row


def _measure_tree(src: str, repeats: int) -> Dict[str, float]:
    """:func:`measure`, run on the package in *src*."""
    completed = subprocess.run(
        [sys.executable, __file__, "--measure", "--repeats", str(repeats)],
        env=dict(os.environ, PYTHONPATH=src),
        check=True,
        capture_output=True,
        text=True,
    )
    return json.loads(completed.stdout.splitlines()[-1])


def compare_trees(
    trees: Dict[str, str], repeats: int, rounds: int
) -> Dict[str, Dict[str, float]]:
    """``{tree: row}``: each tree measured *rounds* times, alternating,
    keeping each metric's minimum."""
    best: Dict[str, Dict[str, float]] = {}
    for _ in range(rounds):
        for tree, src in trees.items():
            row = _measure_tree(src, repeats)
            kept = best.setdefault(tree, dict(row))
            for metric in METRICS:
                kept[metric] = min(kept[metric], row[metric])
    return best


def _report(rows: Dict[str, Dict[str, float]]) -> None:
    heading("Storage layer — join, OIPCREATE, probe reads and a served lookup")
    table(
        ["tree"] + [m[:-3] + " ms" for m in METRICS],
        [[tree] + [f"{row[m]:.2f}" for m in METRICS] for tree, row in rows.items()],
    )
    emit(
        "(Min-of-repeats; join, OIPCREATE and read+verify per Figure 8(a) "
        "pair, served lookup per lookup.)"
    )


def smoke(repeats: int = 5, attempts: int = 3) -> float:
    """Assert that charging a run at once matches charging it block by
    block, and is at most :data:`SMOKE_CEILING` of that path's read time
    (best of *attempts*, so scheduler noise cannot flake it)."""
    pairs = adhoc_pairs(count=1, n=600)
    outer, inner = pairs[0]
    per_run = OIPJoin().join(outer, inner)
    per_block = OIPJoin(fault_policy=FaultPolicy()).join(outer, inner)
    assert list(per_run.pairs) == list(per_block.pairs)
    assert per_run.counters.snapshot() == per_block.counters.snapshot()
    assert per_run.resilience.snapshot() == per_block.resilience.snapshot()
    ks = _granules(pairs)

    def blockwise() -> StorageManager:
        return StorageManager(fault_policy=FaultPolicy())

    best = float("inf")
    for _ in range(attempts):
        runs = min(_timed_reads(pairs, ks, StorageManager) for _ in range(repeats))
        blocks = min(_timed_reads(pairs, ks, blockwise) for _ in range(repeats))
        best = min(best, runs / blocks)
        if best <= SMOKE_CEILING:
            break
    emit(
        f"per-run read charge {best:.2f}x the per-block path's time "
        f"(ceiling {SMOKE_CEILING:.2f}x)"
    )
    assert best <= SMOKE_CEILING, (
        f"per-run reads took {best:.2f}x the per-block time"
    )
    return best


def test_storage_layer_smoke(benchmark):
    benchmark.pedantic(smoke, rounds=1, iterations=1)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true", help="assert the gate only")
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--rounds", type=int, default=2)
    parser.add_argument(
        "--parent-src",
        help="another tree's src/ directory to measure beside this one",
    )
    parser.add_argument("--measure", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--no-write", action="store_true")
    args = parser.parse_args(argv)

    if args.smoke:
        smoke()
        return 0
    if args.measure:
        print(json.dumps(measure(args.repeats)))
        return 0
    trees = {"change": os.path.join(_ROOT, "src")}
    if args.parent_src:
        trees = {"parent": os.path.abspath(args.parent_src), **trees}
    rows = compare_trees(trees, args.repeats, args.rounds)
    _report(rows)
    if not args.no_write:
        document = {
            "benchmark": "storage_layer",
            "cpu_count": os.cpu_count(),
            "python": sys.version.split()[0],
            "repeats": args.repeats,
            "rounds": args.rounds,
            "unit": "ms (join, oipcreate, read_verify: per Figure 8(a) pair; "
            "served_lookup: per lookup)",
            "trees": rows,
        }
        with open(RESULTS_FILE, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=2)
            handle.write("\n")
        emit(f"(results written to {RESULTS_FILE})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
