"""Shared benchmark harness.

Every module in this directory regenerates one table or figure of the
paper (see DESIGN.md section 4 for the index).  The joins run at reduced
cardinality — pure Python cannot process the paper's 10M-1.5G tuples —
and the harness therefore reports, next to wall-clock time, the
*model-level* metrics (block IOs, CPU comparisons, false-hit ratios,
partition accesses) whose shape is scale-independent.

Scale can be raised with the ``REPRO_BENCH_SCALE`` environment variable
(a float multiplier on all cardinalities, default 1.0).

Tables are emitted through :func:`emit`, which buffers the lines; the
``benchmarks/conftest.py`` terminal-summary hook prints the buffer after
the run (outside pytest's capture) and mirrors it to
``benchmarks/report.txt``, so ``pytest benchmarks/ --benchmark-only |
tee bench_output.txt`` records the paper-style rows alongside
pytest-benchmark's timing summary.
"""

from __future__ import annotations

import os
import time
from typing import Callable, Dict, List, Sequence

from repro.baselines import ALGORITHMS
from repro.core.base import JoinResult, OverlapJoinAlgorithm
from repro.core.relation import TemporalRelation
from repro.storage.device import DeviceProfile

#: Multiplier applied to every benchmark cardinality.
SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))

#: Lines accumulated by :func:`emit`, flushed by the conftest hook.
REPORT_LINES: List[str] = []


def scaled(cardinality: int) -> int:
    """Apply the global scale factor to a cardinality."""
    return max(1, int(cardinality * SCALE))


def emit(line: str = "") -> None:
    """Record *line* for the end-of-run report (pytest captures stdout
    at the file-descriptor level, so tables are buffered and printed by
    the terminal-summary hook in conftest.py)."""
    REPORT_LINES.append(line)
    print(line)


def heading(title: str) -> None:
    emit()
    emit("=" * 72)
    emit(title)
    emit("=" * 72)


def table(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> None:
    """Emit an aligned text table."""
    columns = [
        [str(header)] + [str(row[i]) for row in rows]
        for i, header in enumerate(headers)
    ]
    widths = [max(len(cell) for cell in column) for column in columns]
    emit(
        " | ".join(
            str(header).rjust(width)
            for header, width in zip(headers, widths)
        )
    )
    emit("-+-".join("-" * width for width in widths))
    for row in rows:
        emit(
            " | ".join(
                str(cell).rjust(width) for cell, width in zip(row, widths)
            )
        )


def paper_algorithm(name: str) -> Callable[..., OverlapJoinAlgorithm]:
    """``ALGORITHMS[name]``, with the OIPJOIN deriving ``k`` from the
    paper's weights (its device's) instead of the engine's, as the
    paper's figures do."""
    factory = ALGORITHMS[name]
    if name != "oip":
        return factory

    def oip(device=None, **kwargs):
        device = device if device is not None else DeviceProfile.main_memory()
        return factory(device=device, weights=device.weights, **kwargs)

    return oip


def timed_join(
    algorithm: OverlapJoinAlgorithm,
    outer: TemporalRelation,
    inner: TemporalRelation,
) -> "tuple[JoinResult, float]":
    """Run one join and return (result, elapsed seconds)."""
    started = time.perf_counter()
    result = algorithm.join(outer, inner)
    return result, time.perf_counter() - started


def best_times(
    contenders: Dict[str, Callable[[], object]], repeats: int
) -> Dict[str, float]:
    """Min-of-repeats wall-clock seconds per contender, interleaved.

    Every contender runs once untimed (warm-up); then each of *repeats*
    rounds times every contender back to back, in dict order, and the
    minimum per contender is kept.  Interleaving lets clock drift and
    scheduler noise hit every contender equally — at millisecond run
    lengths the difference between a stable ratio and run-to-run
    jitter.
    """
    for run in contenders.values():
        run()
    best = {name: float("inf") for name in contenders}
    for _ in range(repeats):
        for name, run in contenders.items():
            started = time.perf_counter()
            run()
            best[name] = min(best[name], time.perf_counter() - started)
    return best


def run_contenders(
    factories: Dict[str, Callable[[], OverlapJoinAlgorithm]],
    outer: TemporalRelation,
    inner: TemporalRelation,
    verify: bool = True,
) -> Dict[str, "tuple[JoinResult, float]"]:
    """Run several algorithms on one input pair, optionally verifying
    that they all return the same pair set."""
    results: Dict[str, "tuple[JoinResult, float]"] = {}
    reference: List = []
    for name, factory in factories.items():
        result, elapsed = timed_join(factory(), outer, inner)
        if verify:
            keys = result.pair_keys()
            if not reference:
                reference.append(keys)
            elif keys != reference[0]:
                raise AssertionError(
                    f"algorithm {name!r} disagreed with the others"
                )
        results[name] = (result, elapsed)
    return results


def fmt_ms(seconds: float) -> str:
    return f"{seconds * 1e3:.1f}"


def fmt_pct(fraction: float) -> str:
    return f"{fraction * 100:.2f}%"


def structural_afr_oip(
    relation: TemporalRelation,
    samples: int = 300,
    k: int = 0,
) -> "tuple[float, int]":
    """Sampled Definition-5 AFR of an OIP partitioning of *relation*:
    average false hits per point query over the relation cardinality.
    ``k = 0`` derives k self-adjustingly.  Returns ``(afr, k)``."""
    import random

    from repro.core.granules import cost_model_for, derive_k
    from repro.core.interval import Interval
    from repro.core.lazy_list import oip_create
    from repro.core.oip import OIPConfiguration

    if k <= 0:
        k = derive_k(cost_model_for(relation, relation)).k
    config = OIPConfiguration.for_relation(relation, k)
    built = oip_create(relation, config)
    rng = random.Random(0)
    span = relation.time_range
    false_hits = 0
    for _ in range(samples):
        x = rng.randint(span.start, span.end)
        s, e = config.query_indices(Interval(x, x))
        for node in built.iter_relevant(s, e):
            for tup in node.run.iter_tuples():
                if not tup.start <= x <= tup.end:
                    false_hits += 1
    return false_hits / samples / relation.cardinality, k


def structural_afr_lqt(
    relation: TemporalRelation, samples: int = 300
) -> float:
    """Sampled Definition-5 AFR of a loose-quadtree partitioning."""
    import random

    from repro.baselines.loose_quadtree import LooseIntervalQuadtree
    from repro.core.interval import Interval
    from repro.storage.manager import StorageManager
    from repro.storage.metrics import CostCounters

    tree = LooseIntervalQuadtree.build(relation, StorageManager())
    rng = random.Random(0)
    span = relation.time_range
    counters = CostCounters()
    false_hits = 0
    for _ in range(samples):
        x = rng.randint(span.start, span.end)
        query = Interval(x, x)
        for node in tree.iter_overlapping(query, counters):
            for tup in node.run.iter_tuples():
                if not tup.start <= x <= tup.end:
                    false_hits += 1
    return false_hits / samples / relation.cardinality
