"""What the join's result costs its consumers: pair tuples vs hit chunks.

An OIPJOIN keeps its result as the kernel's hit chunks
(:class:`~repro.core.join.PairChunks`) and builds a pair tuple only when
a consumer asks for one.  Timing the join call alone would make that
deferred work look free, so this benchmark times four things on the
same inputs:

* ``join_ms`` — ``OIPJoin().join(outer, inner)`` alone;
* ``join_list_ms`` — the join plus ``list(result.pairs)``: what a
  consumer pays that builds every pair;
* ``summarize_join_ms`` — :func:`~repro.service.service.summarize_result`
  of the join (count and fingerprint of every pair, the served ``join``
  body);
* ``summarize_lookup_ms`` — the same for a ``lookup`` with a window of
  up to 5% of the domain (the served ``lookup`` body).

Workloads are perfbench's, built the same way for seed 1: ``adhoc`` is
the 16 Figure 8(a) relation pairs of ``adhoc-longlived`` (n=1200 per
side, per-join times), ``serve-lookup`` the uniform relations of
``serve-lookup-uniform`` (n=6000 per side).  Every figure is
min-of-repeats (:func:`~common.best_times`) and the document records
``cpu_count``.

``--parent-src DIR`` also measures another source tree (a ``git
archive`` of the parent commit, say): both trees run in subprocesses,
alternating, and ``BENCH_pairs.json`` records both.  ``--smoke`` (the CI
``tests`` job) runs one small adhoc pair in process and asserts that
the chunked summary equals the pair-by-pair summary of the same pairs
and is faster than it.

    PYTHONPATH=src python benchmarks/bench_result_pairs.py --parent-src /path/to/parent/src
    PYTHONPATH=src python benchmarks/bench_result_pairs.py --smoke
"""

from __future__ import annotations

import argparse
import json
import os
import random
import subprocess
import sys
from typing import Dict, List, Optional, Sequence

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

if __package__:
    from .common import best_times, emit, heading, table
else:  # run as a script: the harness sits next to this file
    # Appended, so a tree named by PYTHONPATH (see _measure_tree) wins.
    _SRC = os.path.join(_ROOT, "src")
    if _SRC not in sys.path:
        sys.path.append(_SRC)
    from common import best_times, emit, heading, table

from repro.core.base import JoinResult
from repro.core.interval import Interval
from repro.core.join import OIPJoin
from repro.service.service import summarize_result
from repro.workloads import long_lived_mixture
from repro.workloads.synthetic import PAPER_TIME_RANGE, uniform_relation

SEED = 1
FIGURE8_DOMAIN = Interval(1, 20_000)
ADHOC_PAIRS = 16
WINDOW_FRACTION = 0.05
#: Lookup windows summarized per result.
WINDOWS = 4
METRICS = ("join_ms", "join_list_ms", "summarize_join_ms", "summarize_lookup_ms")

#: The smoke gate: chunked summary time over pair-by-pair summary time.
SMOKE_CEILING = 0.8

RESULTS_FILE = os.path.join(_ROOT, "BENCH_pairs.json")


def _window(rng: random.Random, domain: Interval) -> List[int]:
    width = rng.randint(1, max(1, int(WINDOW_FRACTION * domain.duration)))
    start = rng.randint(domain.start, domain.end - width + 1)
    return [start, start + width - 1]


def workloads(smoke: bool = False) -> Dict[str, Dict]:
    """``{name: {"pairs": [(outer, inner), ...], "domain": Interval}}``,
    seeded like perfbench's workloads."""
    rng = random.Random(f"adhoc:{SEED}")

    def figure8(name: str, n: int):
        return long_lived_mixture(
            n, 0.3, time_range=FIGURE8_DOMAIN, seed=rng.getrandbits(32), name=name
        )

    if smoke:
        return {
            "adhoc": {
                "pairs": [(figure8("outer", 600), figure8("inner", 600))],
                "domain": FIGURE8_DOMAIN,
            }
        }
    adhoc = [
        (figure8("outer", 1200), figure8("inner", 1200)) for _ in range(ADHOC_PAIRS)
    ]
    rng = random.Random(f"serve:{SEED}")
    serve = tuple(
        uniform_relation(
            6000, max_duration_fraction=0.001, seed=rng.getrandbits(32), name=name
        )
        for name in ("outer", "inner")
    )
    return {
        "adhoc": {"pairs": adhoc, "domain": FIGURE8_DOMAIN},
        "serve-lookup": {"pairs": [serve], "domain": PAPER_TIME_RANGE},
    }


def _summarize_all(results, windows) -> None:
    for result, result_windows in zip(results, windows):
        for window in result_windows:
            summarize_result(result, op="lookup", window=window, generation=None)


def measure(workload: Dict, repeats: int) -> Dict[str, float]:
    """Min-of-repeats ms per relation pair of every metric on *workload*."""
    pairs = workload["pairs"]
    rng = random.Random(f"windows:{SEED}")
    windows = [
        [tuple(_window(rng, workload["domain"])) for _ in range(WINDOWS)]
        for _ in pairs
    ]
    results = [OIPJoin().join(outer, inner) for outer, inner in pairs]
    times = best_times(
        {
            "join_ms": lambda: [OIPJoin().join(o, i) for o, i in pairs],
            "join_list_ms": lambda: [
                list(OIPJoin().join(o, i).pairs) for o, i in pairs
            ],
            "summarize_join_ms": lambda: [
                summarize_result(r, op="join", window=None, generation=None)
                for r in results
            ],
            "summarize_lookup_ms": lambda: _summarize_all(results, windows),
        },
        repeats,
    )
    row = {name: seconds * 1e3 / len(pairs) for name, seconds in times.items()}
    row["summarize_lookup_ms"] /= WINDOWS
    row["pairs_per_join"] = sum(len(r.pairs) for r in results) / len(results)
    return row


def _measure_tree(src: str, repeats: int) -> Dict[str, Dict[str, float]]:
    """:func:`measure` of every workload, run on the package in *src*."""
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
) -> Dict[str, Dict[str, Dict[str, float]]]:
    """``{workload: {tree: row}}``: each tree measured *rounds* times,
    alternating, keeping each metric's minimum."""
    best: Dict[str, Dict[str, Dict[str, float]]] = {}
    for _ in range(rounds):
        for tree, src in trees.items():
            for name, row in _measure_tree(src, repeats).items():
                kept = best.setdefault(name, {}).setdefault(tree, dict(row))
                for metric in METRICS:
                    kept[metric] = min(kept[metric], row[metric])
    return best


def _report(rows: Dict[str, Dict[str, Dict[str, float]]]) -> None:
    heading("Result pairs — the join, every pair built, and the served summaries")
    table(
        ["workload", "tree", "pairs/join"] + [m[:-3] + " ms" for m in METRICS],
        [
            [name, tree, f"{row['pairs_per_join']:,.0f}"]
            + [f"{row[m]:.2f}" for m in METRICS]
            for name, trees in rows.items()
            for tree, row in trees.items()
        ],
    )
    emit(
        "(Per relation pair, min-of-repeats; summarize_lookup is per "
        f"window of up to {WINDOW_FRACTION:.0%} of the domain.)"
    )


def smoke(repeats: int = 5, attempts: int = 3) -> float:
    """Assert that the chunked summary equals the pair-by-pair summary of
    the same pairs, and beats it by the :data:`SMOKE_CEILING` ratio
    (best of *attempts*, so scheduler noise cannot flake it)."""
    workload = workloads(smoke=True)["adhoc"]
    outer, inner = workload["pairs"][0]
    chunked = OIPJoin().join(outer, inner)
    listed = JoinResult(
        algorithm=chunked.algorithm,
        pairs=list(chunked.pairs),
        counters=chunked.counters,
        details=chunked.details,
        elapsed_ms=chunked.elapsed_ms,
    )
    rng = random.Random(f"windows:{SEED}")
    requests = [("join", None)] + [
        ("lookup", tuple(_window(rng, workload["domain"]))) for _ in range(WINDOWS)
    ]
    for op, window in requests:
        bodies = [
            summarize_result(
                result, op=op, window=window, generation=None, include_pairs=True
            )
            for result in (chunked, listed)
        ]
        assert bodies[0] == bodies[1], (op, window)
    best = float("inf")
    for _ in range(attempts):
        times = best_times(
            {
                name: (
                    lambda result=result: summarize_result(
                        result, op="join", window=None, generation=None
                    )
                )
                for name, result in (("chunks", chunked), ("list", listed))
            },
            repeats,
        )
        best = min(best, times["chunks"] / times["list"])
        if best <= SMOKE_CEILING:
            break
    emit(
        f"chunked summary {best:.2f}x the pair-by-pair summary's time "
        f"({len(chunked.pairs):,} pairs; ceiling {SMOKE_CEILING:.2f}x)"
    )
    assert best <= SMOKE_CEILING, (
        f"chunked summary took {best:.2f}x the pair-by-pair time"
    )
    return best


def test_result_pairs_smoke(benchmark):
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
        rows = {
            name: measure(workload, args.repeats)
            for name, workload in workloads().items()
        }
        print(json.dumps(rows))
        return 0
    trees = {"change": os.path.join(_ROOT, "src")}
    if args.parent_src:
        trees = {"parent": os.path.abspath(args.parent_src), **trees}
    rows = compare_trees(trees, args.repeats, args.rounds)
    _report(rows)
    if not args.no_write:
        document = {
            "benchmark": "result_pairs",
            "cpu_count": os.cpu_count(),
            "python": sys.version.split()[0],
            "repeats": args.repeats,
            "rounds": args.rounds,
            "unit": "ms per relation pair (summarize_lookup: per window)",
            "workloads": rows,
        }
        with open(RESULTS_FILE, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=2)
            handle.write("\n")
        emit(f"(results written to {RESULTS_FILE})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
