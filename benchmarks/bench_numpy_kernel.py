"""Sweep vs numpy join kernels on the paper's probe workloads.

The numpy kernel (:func:`repro.core.kernels.numpy_matches`) vectorizes
the partition-pair match step — broadcasted endpoint comparisons for
small pairs, ``searchsorted`` range pruning for large ones — while
emitting the identical pairs and charging the identical model costs as
``naive`` and ``sweep``.  This benchmark documents what the
vectorization buys and calibrates the planner threshold
(:data:`repro.core.kernels.AUTO_NUMPY_CANDIDATES`).

Two measurements:

* **kernel-level** — the match step alone, on the exact kernel calls
  the coarse-``k`` (``k = 2``) Figure 8 workload makes: one per outer
  partition, against the concatenation of its relevant inner runs.
  Coarse partitioning is the memory-constrained regime where a call
  carries hundreds of thousands of candidates, the regime the numpy
  tier exists for.  Decoded runs are reused across repeats the way the
  probe reuses each partition's decode across outer partitions (APA,
  Lemma 5);
  the concatenation is rebuilt on every call, as the probe does.
  The acceptance bar lives here: **numpy >= 2x sweep**.
* **end-to-end** — full ``OIPJoin`` wall clock per kernel in the auto
  and coarse regimes, for context (IO, partitioning and analytic
  charging dominate there, so the end-to-end margin is smaller) and as
  the measured basis of the ``AUTO_NUMPY_CANDIDATES`` threshold: the
  numpy tier must never lose end-to-end where auto selection picks it.

The standalone script records both sweeps in ``BENCH_numpy.json`` at
the repository root; ``--smoke`` (the CI ``kernel-smoke`` numpy leg)
asserts the kernel-level gate on a small input with min-of-repeats
timing and best-of-attempts retries so scheduler noise cannot flake it.
Without numpy installed the script reports the fallback and exits
cleanly (the kernel tier itself degrades to ``sweep`` the same way).

    PYTHONPATH=src python benchmarks/bench_numpy_kernel.py
    PYTHONPATH=src python benchmarks/bench_numpy_kernel.py --smoke
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Dict, List, Optional, Sequence, Tuple

if __package__:
    from .common import emit, heading, scaled, table
else:  # run as a script: the harness sits next to this file
    _SRC = os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"
    )
    if _SRC not in sys.path:
        sys.path.insert(0, _SRC)
    from common import emit, heading, scaled, table

from repro.core import kernels
from repro.core.interval import Interval
from repro.core.join import OIPJoin
from repro.core.kernels import DecodedRun, KERNEL_FUNCS, numpy_available
from repro.core.lazy_list import oip_create
from repro.core.oip import OIPConfiguration
from repro.storage.manager import StorageManager
from repro.workloads import long_lived_mixture

N = 1_200  # the Figure 8 scale
SMOKE_N = 400
TIME_RANGE = Interval(1, 2**20)
LONG_SHARE = 0.5
COARSE_K = 2
KERNELS = ("naive", "sweep", "numpy")
REGIMES = {"auto": {}, "coarse": {"k_outer": COARSE_K, "k_inner": COARSE_K}}

#: The CI gate: numpy over sweep, kernel-level, on the coarse-k pairs.
SPEEDUP_BUDGET = 2.0

RESULTS_FILE = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "BENCH_numpy.json",
)


def _figure8_pair(cardinality: int):
    return (
        long_lived_mixture(
            cardinality, LONG_SHARE, TIME_RANGE, seed=1, name="r"
        ),
        long_lived_mixture(
            cardinality, LONG_SHARE, TIME_RANGE, seed=2, name="s"
        ),
    )


def _kernel_calls(
    outer, inner, k: int
) -> List[Tuple[DecodedRun, List[DecodedRun]]]:
    """The decoded inputs of every kernel call an OIPJOIN at granule
    count *k* makes: each outer run with the runs of all inner
    partitions (at k=2 the Lemma 1 pruning keeps essentially all of
    them anyway)."""
    storage = StorageManager()
    outer_list = oip_create(
        outer, OIPConfiguration.for_relation(outer, k), storage
    )
    inner_list = oip_create(
        inner, OIPConfiguration.for_relation(inner, k), storage
    )
    inner_decoded = [
        DecodedRun.from_tuples(list(storage.read_run(node.run)))
        for node in inner_list.iter_nodes()
    ]
    return [
        (
            DecodedRun.from_tuples(list(storage.read_run(outer_node.run))),
            inner_decoded,
        )
        for outer_node in outer_list.iter_nodes()
    ]


def run_kernel_sweep(cardinality: int, repeats: int = 5) -> Dict:
    """Time the bare match step per kernel on the coarse-k pair set.

    Min-of-repeats, kernels interleaved within a repeat so scheduler
    noise hits all of them equally.  The first (warm-up) pass builds
    numpy's cached column views, mirroring how each partition's kept
    decode amortises them across the outer partitions of a real probe.
    """
    outer, inner = _figure8_pair(cardinality)
    calls = _kernel_calls(outer, inner, COARSE_K)
    candidates = sum(
        o.length * sum(i.length for i in runs) for o, runs in calls
    )
    concatenate = DecodedRun.concatenate
    for kernel in KERNELS:  # warm-up, untimed
        for outer_run, inner_runs in calls:
            KERNEL_FUNCS[kernel](outer_run, concatenate(inner_runs))
    best = {kernel: float("inf") for kernel in KERNELS}
    for _ in range(repeats):
        for kernel in KERNELS:
            fn = KERNEL_FUNCS[kernel]
            started = time.perf_counter()
            for outer_run, inner_runs in calls:
                fn(outer_run, concatenate(inner_runs))
            best[kernel] = min(
                best[kernel], time.perf_counter() - started
            )
    return {
        "cardinality": cardinality,
        "k": COARSE_K,
        "kernel_calls": len(calls),
        "partition_pairs": sum(len(runs) for _, runs in calls),
        "candidates": candidates,
        "times_ms": {k: v * 1e3 for k, v in best.items()},
        "numpy_over_sweep": best["sweep"] / best["numpy"],
        "sweep_over_naive": best["naive"] / best["sweep"],
    }


def _one_join(kernel: str, outer, inner, regime_kwargs: Dict) -> float:
    join = OIPJoin(kernel=kernel, **regime_kwargs)
    started = time.perf_counter()
    join.join(outer, inner)
    return time.perf_counter() - started


def run_join_sweep(cardinality: int, repeats: int = 3) -> List[Dict]:
    """End-to-end OIPJoin wall clock per kernel x regime (context rows
    and the measured basis of the AUTO_NUMPY_CANDIDATES threshold)."""
    outer, inner = _figure8_pair(cardinality)
    estimated = kernels.estimate_candidates(outer, inner)
    rows: List[Dict] = []
    for regime, regime_kwargs in REGIMES.items():
        for kernel in KERNELS:  # warm-up, untimed
            _one_join(kernel, outer, inner, regime_kwargs)
        best = {kernel: float("inf") for kernel in KERNELS}
        for _ in range(repeats):
            for kernel in KERNELS:
                best[kernel] = min(
                    best[kernel],
                    _one_join(kernel, outer, inner, regime_kwargs),
                )
        rows.append(
            {
                "workload": "long-lived",
                "cardinality": cardinality,
                "regime": regime,
                "k": regime_kwargs.get("k_outer"),
                "estimated_candidates": estimated,
                "times_ms": {k: v * 1e3 for k, v in best.items()},
                "numpy_over_sweep": best["sweep"] / best["numpy"],
            }
        )
    return rows


def _report(cardinality: int, kernel_row: Dict, join_rows: List[Dict]) -> None:
    heading(
        "numpy kernel — vectorized match step vs sweep "
        f"(n = {cardinality:,} per relation, Figure 8 mixture)"
    )
    emit(
        f"kernel-level, k={COARSE_K} "
        f"({kernel_row['kernel_calls']} calls over "
        f"{kernel_row['partition_pairs']} partition pairs, "
        f"{kernel_row['candidates']:,} candidates):"
    )
    table(
        ["kernel", "match ms", "vs sweep"],
        [
            [
                kernel,
                f"{kernel_row['times_ms'][kernel]:.2f}",
                f"{kernel_row['times_ms']['sweep'] / kernel_row['times_ms'][kernel]:.2f}x",
            ]
            for kernel in KERNELS
        ],
    )
    emit()
    emit("end-to-end OIPJoin wall clock (IO + partitioning included):")
    table(
        ["regime", "naive ms", "sweep ms", "numpy ms", "numpy/sweep"],
        [
            [
                row["regime"] if row["k"] is None else f"k={row['k']}",
                f"{row['times_ms']['naive']:.1f}",
                f"{row['times_ms']['sweep']:.1f}",
                f"{row['times_ms']['numpy']:.1f}",
                f"{row['numpy_over_sweep']:.2f}x",
            ]
            for row in join_rows
        ],
    )
    emit(
        "(All kernels emit identical pairs and charge identical model "
        "costs.  The gate is kernel-level: the match step is what the "
        f"numpy tier replaces; floor >= {SPEEDUP_BUDGET:.1f}x over "
        "sweep on the coarse-k pairs.  End-to-end rows show numpy never "
        "losing where AUTO_NUMPY_CANDIDATES would select it.)"
    )


def _write_results(
    cardinality: int, kernel_row: Dict, join_rows: List[Dict]
) -> None:
    document = {
        "benchmark": "numpy_kernel",
        "cardinality": cardinality,
        "cpu_count": os.cpu_count(),
        "budget_speedup": SPEEDUP_BUDGET,
        "gate": "kernel-level numpy over sweep, coarse-k Figure 8",
        "gate_speedup": kernel_row["numpy_over_sweep"],
        "auto_numpy_candidates": kernels.AUTO_NUMPY_CANDIDATES,
        "kernel_level": kernel_row,
        "end_to_end": join_rows,
    }
    with open(RESULTS_FILE, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2)
        handle.write("\n")
    emit(f"(results written to {RESULTS_FILE})")


def _enforce_budget_with_retries(
    cardinality: int, repeats: int, floor: float, attempts: int = 3
) -> float:
    """Assert the kernel-level speedup floor, re-measuring on a miss.

    The measured margin is ~4x against a 2x floor, so a miss is
    overwhelmingly a scheduler artefact; fresh sweeps (up to
    ``attempts`` total) assert on the *best* gate speedup seen.  A
    genuine regression stays below the floor in every attempt and still
    fails.
    """
    best = 0.0
    for attempt in range(attempts):
        row = run_kernel_sweep(cardinality, repeats=repeats)
        best = max(best, row["numpy_over_sweep"])
        if best >= floor:
            return best
        emit(
            f"(speedup {row['numpy_over_sweep']:.2f}x below the "
            f"{floor:.1f}x floor on attempt {attempt + 1}/{attempts}; "
            "re-measuring)"
        )
    assert best >= floor, (
        f"numpy kernel speedup {best:.2f}x is below the "
        f"{floor:.1f}x floor on the coarse-k long-lived workload"
    )
    return best


def test_numpy_kernel_speedup(benchmark):
    if not numpy_available():
        import pytest

        pytest.skip("numpy is not installed; the tier falls back to sweep")
    cardinality = scaled(SMOKE_N)
    kernel_row = benchmark.pedantic(
        lambda: run_kernel_sweep(cardinality, repeats=3),
        rounds=1,
        iterations=1,
    )
    _report(cardinality, kernel_row, run_join_sweep(cardinality, repeats=1))
    # Lenient CI floor; the documented gate is 2x and --smoke enforces
    # it with best-of-attempts retries.
    if kernel_row["numpy_over_sweep"] < 1.5:
        _enforce_budget_with_retries(cardinality, repeats=3, floor=1.5)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="numpy join-kernel benchmark (vectorized match vs sweep)"
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help=(
            "kernel-level measurement only, and assert the "
            f">= {SPEEDUP_BUDGET:.0f}x gate"
        ),
    )
    parser.add_argument("--cardinality", type=int, default=None)
    parser.add_argument("--repeats", type=int, default=None)
    parser.add_argument(
        "--no-write",
        action="store_true",
        help="skip writing BENCH_numpy.json",
    )
    args = parser.parse_args(argv)

    if not numpy_available():
        emit(
            "numpy is not installed: the numpy kernel tier falls back to "
            "sweep (nothing to measure); see BENCH_kernels.json for the "
            "sweep-vs-naive numbers"
        )
        return 0

    if args.smoke:
        cardinality = args.cardinality or SMOKE_N
        repeats = args.repeats or 5
    else:
        cardinality = args.cardinality or scaled(N)
        repeats = args.repeats or 5

    kernel_row = run_kernel_sweep(cardinality, repeats=repeats)
    join_rows = run_join_sweep(
        cardinality, repeats=max(1, (args.repeats or 3) // 2 + 1)
    )
    _report(cardinality, kernel_row, join_rows)
    if args.smoke:
        gate = kernel_row["numpy_over_sweep"]
        if gate < SPEEDUP_BUDGET:
            gate = _enforce_budget_with_retries(
                cardinality, repeats, floor=SPEEDUP_BUDGET
            )
        emit(
            f"numpy kernel {gate:.2f}x over sweep — meets the "
            f"{SPEEDUP_BUDGET:.1f}x floor"
        )
    elif not args.no_write:
        _write_results(cardinality, kernel_row, join_rows)
    return 0


if __name__ == "__main__":
    sys.exit(main())
