"""Naive vs sweep join kernels on the paper's probe workloads.

The kernel layer (:mod:`repro.core.kernels`) changes *how* partition
pairs are matched, never *what* is charged: both kernels produce
bit-identical pairs and cost counters.  This benchmark documents the
wall-clock consequence on the Figure 8 workload (long-lived mixture)
and the Figure 9 real-world stand-ins, each in two partitioning
regimes:

* ``auto`` — the derived ``k`` of Section 4.2.  OIP partitioning then
  prunes so aggressively that most surviving candidates are results,
  and the kernels are within noise of each other: there is little left
  for the sweep to skip.
* ``coarse`` — ``k`` pinned to 2, the memory-constrained regime (fewer
  partitions, less metadata, many more candidates per partition pair).
  Here the naive kernel compares every candidate in interpreted code
  while the sweep touches only the results, and the gap is large.

The acceptance bar lives in the coarse regime: **sweep >= 1.5x naive**
on the long-lived workload.  The standalone script records the full
sweep in ``BENCH_kernels.json`` at the repository root; ``--smoke``
(the CI ``kernel-smoke`` job) asserts the bar on a small input with
min-of-repeats timing and best-of-attempts retries so scheduler noise
cannot flake it.

    PYTHONPATH=src python benchmarks/bench_kernel_speedup.py
    PYTHONPATH=src python benchmarks/bench_kernel_speedup.py --smoke
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Dict, List, Optional, Sequence

if __package__:
    from .common import emit, heading, scaled, table
else:
    _SRC = os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"
    )
    if _SRC not in sys.path:
        sys.path.insert(0, _SRC)

    def emit(line: str = "") -> None:
        print(line)

    def heading(title: str) -> None:
        emit()
        emit("=" * 72)
        emit(title)
        emit("=" * 72)

    def table(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> None:
        columns = [
            [str(header)] + [str(row[i]) for row in rows]
            for i, header in enumerate(headers)
        ]
        widths = [max(len(cell) for cell in column) for column in columns]
        emit(" | ".join(h.rjust(w) for h, w in zip(headers, widths)))
        emit("-+-".join("-" * w for w in widths))
        for row in rows:
            emit(
                " | ".join(
                    str(cell).rjust(w) for cell, w in zip(row, widths)
                )
            )

    def scaled(cardinality: int) -> int:
        scale = float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))
        return max(1, int(cardinality * scale))

from repro.core.interval import Interval
from repro.core.join import OIPJoin
from repro.workloads import DATASET_GENERATORS, long_lived_mixture

N = 1_200  # the Figure 8 scale
SMOKE_N = 400
TIME_RANGE = Interval(1, 2**20)
LONG_SHARE = 0.5
KERNELS = ("naive", "sweep")

#: Partitioning regimes: the derived k, and k pinned coarse.
REGIMES = {"auto": {}, "coarse": {"k_outer": 2, "k_inner": 2}}
COARSE_K = 2

#: The CI gate: sweep over naive on the long-lived coarse row.
SPEEDUP_BUDGET = 1.5

RESULTS_FILE = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "BENCH_kernels.json",
)


def _workloads(cardinality: int, smoke: bool) -> Dict[str, tuple]:
    workloads = {
        "long-lived": (
            long_lived_mixture(
                cardinality, LONG_SHARE, TIME_RANGE, seed=1, name="r"
            ),
            long_lived_mixture(
                cardinality, LONG_SHARE, TIME_RANGE, seed=2, name="s"
            ),
        )
    }
    if not smoke:
        for name, generator in sorted(DATASET_GENERATORS.items()):
            workloads[name] = (
                generator(cardinality=cardinality, seed=1, name=f"{name}_r"),
                generator(cardinality=cardinality, seed=2, name=f"{name}_s"),
            )
    return workloads


def _one_run(kernel: str, outer, inner, regime_kwargs: Dict) -> float:
    join = OIPJoin(kernel=kernel, **regime_kwargs)
    started = time.perf_counter()
    join.join(outer, inner)
    return time.perf_counter() - started


def _best_times(
    outer, inner, regime_kwargs: Dict, repeats: int
) -> Dict[str, float]:
    """Min-of-repeats per kernel, interleaved.

    Timing the kernels back to back inside a repeat (rather than all
    repeats of one kernel first) lets clock drift and scheduler noise
    hit both equally — the difference between a stable ratio and
    run-to-run jitter at these run lengths.
    """
    for kernel in KERNELS:  # warm-up, untimed
        _one_run(kernel, outer, inner, regime_kwargs)
    best = {kernel: float("inf") for kernel in KERNELS}
    for _ in range(repeats):
        for kernel in KERNELS:
            best[kernel] = min(
                best[kernel], _one_run(kernel, outer, inner, regime_kwargs)
            )
    return best


def run_speedup_sweep(
    cardinality: int, repeats: int = 3, smoke: bool = False
) -> Dict:
    """Time both kernels on every workload x regime.

    Returns ``{"rows": result dicts, "gate": the long-lived coarse
    speedup the CI job asserts on}``.
    """
    rows: List[Dict] = []
    gate: Optional[float] = None
    for workload, (outer, inner) in _workloads(cardinality, smoke).items():
        for regime, regime_kwargs in REGIMES.items():
            times = _best_times(outer, inner, regime_kwargs, repeats)
            speedup = times["naive"] / times["sweep"]
            rows.append(
                {
                    "workload": workload,
                    "cardinality": cardinality,
                    "regime": regime,
                    "k": regime_kwargs.get("k_outer"),
                    "naive_ms": times["naive"] * 1e3,
                    "sweep_ms": times["sweep"] * 1e3,
                    "speedup": speedup,
                }
            )
            if workload == "long-lived" and regime == "coarse":
                gate = speedup
    return {"rows": rows, "gate": gate}


def _report(cardinality: int, sweep: Dict) -> None:
    heading(
        "Join-kernel speedup — naive vs forward-scan sweep "
        f"(n = {cardinality:,} per relation)"
    )
    table(
        ["workload", "regime", "naive ms", "sweep ms", "speedup"],
        [
            [
                row["workload"],
                row["regime"] if row["k"] is None else f"k={row['k']}",
                f"{row['naive_ms']:.1f}",
                f"{row['sweep_ms']:.1f}",
                f"{row['speedup']:.2f}x",
            ]
            for row in sweep["rows"]
        ],
    )
    emit(
        "(Both kernels emit identical pairs and charge identical model "
        "costs.  In the auto regime the derived k leaves few false "
        "candidates, so the kernels tie; with k pinned coarse the sweep "
        f"skips what the naive loop compares one by one.  Gate: >= "
        f"{SPEEDUP_BUDGET:.1f}x on the long-lived coarse row.)"
    )


def _write_results(cardinality: int, sweep: Dict) -> None:
    document = {
        "benchmark": "kernel_speedup",
        "cardinality": cardinality,
        "cpu_count": os.cpu_count(),
        "budget_speedup": SPEEDUP_BUDGET,
        "gate_row": {"workload": "long-lived", "regime": "coarse"},
        "gate_speedup": sweep["gate"],
        "rows": sweep["rows"],
    }
    with open(RESULTS_FILE, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2)
        handle.write("\n")
    emit(f"(results written to {RESULTS_FILE})")


def _enforce_budget_with_retries(
    cardinality: int, repeats: int, floor: float, attempts: int = 3
) -> float:
    """Assert the speedup floor, re-measuring on a miss.

    The measured margin is ~2.5x against a 1.5x floor, so a miss is
    overwhelmingly a scheduler artefact; fresh sweeps (up to
    ``attempts`` total) assert on the *best* gate speedup seen.  A
    genuine regression stays below the floor in every attempt and still
    fails.
    """
    best = 0.0
    for attempt in range(attempts):
        sweep = run_speedup_sweep(cardinality, repeats=repeats, smoke=True)
        best = max(best, sweep["gate"])
        if best >= floor:
            return best
        emit(
            f"(speedup {sweep['gate']:.2f}x below the {floor:.1f}x floor "
            f"on attempt {attempt + 1}/{attempts}; re-measuring)"
        )
    assert best >= floor, (
        f"sweep kernel speedup {best:.2f}x is below the "
        f"{floor:.1f}x floor on the long-lived coarse workload"
    )
    return best


def test_kernel_speedup(benchmark):
    cardinality = scaled(SMOKE_N)
    sweep = benchmark.pedantic(
        lambda: run_speedup_sweep(cardinality, repeats=3, smoke=True),
        rounds=1,
        iterations=1,
    )
    _report(cardinality, sweep)
    # Lenient CI floor; the documented gate is 1.5x and --smoke
    # enforces it with best-of-attempts retries.
    if sweep["gate"] < 1.2:
        _enforce_budget_with_retries(cardinality, repeats=3, floor=1.2)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Join-kernel speedup benchmark (naive vs sweep)"
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="long-lived workload only, and assert the >= 1.5x gate",
    )
    parser.add_argument("--cardinality", type=int, default=None)
    parser.add_argument("--repeats", type=int, default=None)
    parser.add_argument(
        "--no-write",
        action="store_true",
        help="skip writing BENCH_kernels.json",
    )
    args = parser.parse_args(argv)

    if args.smoke:
        cardinality = args.cardinality or SMOKE_N
        repeats = args.repeats or 5
    else:
        cardinality = args.cardinality or scaled(N)
        repeats = args.repeats or 3

    sweep = run_speedup_sweep(cardinality, repeats=repeats, smoke=args.smoke)
    _report(cardinality, sweep)
    if args.smoke:
        if sweep["gate"] < SPEEDUP_BUDGET:
            sweep["gate"] = _enforce_budget_with_retries(
                cardinality, repeats, floor=SPEEDUP_BUDGET
            )
        emit(
            f"sweep kernel {sweep['gate']:.2f}x over naive — meets the "
            f"{SPEEDUP_BUDGET:.1f}x floor"
        )
    else:
        _write_results(cardinality, sweep)
    return 0


if __name__ == "__main__":
    sys.exit(main())
