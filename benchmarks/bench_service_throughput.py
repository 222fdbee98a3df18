"""What the serving layer buys — and what it costs.

A stateless deployment pays the full snapshot pipeline on **every**
query: read the file, parse and checksum the sections, reconstruct the
source relations, restore both partition lists, then join.  The
:class:`~repro.service.JoinService` pays the file-side work once per
*generation* and keeps it pinned in memory; each query restores from
the pinned parsed sections and goes straight to the probe.  In exchange
the service adds real machinery per query: admission control, budget
plumbing, ``service.*`` metrics, and the response
fingerprint.

This benchmark separates those two claims and gates both:

* **Amortization** — per-query load phase, stateless
  (``ServingGeneration.load`` + restore) vs pinned (restore from parsed
  sections only).  Gate: **pinned >= 2x faster** at the gate
  cardinality (measured ~5x).
* **Overhead** — end-to-end query latency through the full service
  stack vs the stateless :func:`~repro.service.offline_query` oracle.
  Gate: **service <= 1.35x stateless** (measured ~1.05x) — robustness
  must not tax the hot path.

It also records hot-swap latency (``refresh(force=True)`` while
serving) and multi-client throughput for the record.  The standalone
run writes ``BENCH_service.json`` at the repository root; ``--smoke``
(the CI ``service-smoke`` job) asserts both gates with best-of-attempts
retries.

    PYTHONPATH=src python benchmarks/bench_service_throughput.py
    PYTHONPATH=src python benchmarks/bench_service_throughput.py --smoke
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import threading
import time
from typing import Dict, List, Sequence

if __package__:
    from .common import emit, heading, scaled, table
else:  # run as a script: the harness sits next to this file
    _SRC = os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"
    )
    if _SRC not in sys.path:
        sys.path.insert(0, _SRC)
    from common import emit, heading, scaled, table

from repro.core.interval import Interval
from repro.service import JoinService, offline_query
from repro.service.snapshots import ServingGeneration
from repro.storage import StorageManager, save_index
from repro.workloads import long_lived_mixture

CARDINALITIES = (400, 1200, 3600)
GATE_CARDINALITY = 3600
AMORTIZATION_FLOOR = 2.0
OVERHEAD_CEILING = 1.35
REPEATS = 3
CLIENT_THREADS = 4
CLIENT_QUERIES = 8


def _best(fn, repeats: int = REPEATS) -> float:
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best * 1e3


def bench_cardinality(cardinality: int) -> Dict[str, float]:
    outer = long_lived_mixture(
        cardinality, 0.3, Interval(1, 20_000), seed=51, name="outer"
    )
    inner = long_lived_mixture(
        cardinality, 0.3, Interval(1, 20_000), seed=52, name="inner"
    )
    tmpdir = tempfile.mkdtemp(prefix="bench_service_")
    path = os.path.join(tmpdir, "bench.oip")
    save_index(path, outer, inner)

    # -- amortization: per-query load phase ------------------------------
    def stateless_load():
        generation = ServingGeneration.load(path)
        generation(
            generation.outer, generation.inner, storage=StorageManager()
        )

    pinned_generation = ServingGeneration.load(path)

    def pinned_restore():
        pinned_generation(
            pinned_generation.outer,
            pinned_generation.inner,
            storage=StorageManager(),
        )

    stateless_load_ms = _best(stateless_load, repeats=REPEATS + 2)
    pinned_restore_ms = _best(pinned_restore, repeats=REPEATS + 2)

    # -- overhead: end-to-end query latency ------------------------------
    stateless_query_ms = _best(lambda: offline_query(path))
    service = JoinService(path, max_active=CLIENT_THREADS, max_queued=32)
    service.start()
    service.query("join")  # warm-up
    service_query_ms = _best(lambda: service.query("join"))

    # -- swap latency while serving --------------------------------------
    swap_ms = _best(lambda: service.refresh(force=True))

    # -- concurrent-client throughput (for the record) -------------------
    def client():
        for _ in range(CLIENT_QUERIES // CLIENT_THREADS):
            service.query("join")

    threads = [
        threading.Thread(target=client) for _ in range(CLIENT_THREADS)
    ]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - started
    throughput_qps = CLIENT_QUERIES / elapsed
    service.drain(timeout_s=10.0)

    return {
        "cardinality": cardinality,
        "stateless_load_ms": stateless_load_ms,
        "pinned_restore_ms": pinned_restore_ms,
        "amortization": stateless_load_ms / pinned_restore_ms,
        "stateless_query_ms": stateless_query_ms,
        "service_query_ms": service_query_ms,
        "overhead": service_query_ms / stateless_query_ms,
        "swap_ms": swap_ms,
        "throughput_qps": throughput_qps,
    }


def run(smoke: bool) -> int:
    heading("Service throughput: pinned generations vs stateless loads")
    gate = scaled(GATE_CARDINALITY)
    cardinalities = (
        (gate,) if smoke else tuple(scaled(c) for c in CARDINALITIES)
    )
    rows: List[Dict[str, float]] = []
    for cardinality in cardinalities:
        attempts = 3 if smoke else 1
        row = None
        for attempt in range(attempts):
            row = bench_cardinality(cardinality)
            if (
                row["amortization"] >= AMORTIZATION_FLOOR
                and row["overhead"] <= OVERHEAD_CEILING
            ):
                break
            if smoke and attempt < attempts - 1:
                emit(
                    f"  retrying n={cardinality}: amortization "
                    f"{row['amortization']:.2f}x, overhead "
                    f"{row['overhead']:.2f}x"
                )
        rows.append(row)
    table(
        [
            "n", "load/query (stateless)", "restore (pinned)",
            "amortize", "stateless q", "service q", "overhead",
            "swap ms", "qps x4",
        ],
        [
            [
                row["cardinality"],
                f"{row['stateless_load_ms']:.2f} ms",
                f"{row['pinned_restore_ms']:.2f} ms",
                f"{row['amortization']:.2f}x",
                f"{row['stateless_query_ms']:.1f} ms",
                f"{row['service_query_ms']:.1f} ms",
                f"{row['overhead']:.2f}x",
                f"{row['swap_ms']:.1f}",
                f"{row['throughput_qps']:.1f}",
            ]
            for row in rows
        ],
    )
    gate_row = next(
        (row for row in rows if row["cardinality"] == gate), rows[-1]
    )
    emit()
    emit(
        f"gate @ n={gate_row['cardinality']}: amortization "
        f"{gate_row['amortization']:.2f}x (floor {AMORTIZATION_FLOOR}x), "
        f"overhead {gate_row['overhead']:.2f}x "
        f"(ceiling {OVERHEAD_CEILING}x)"
    )
    if not smoke:
        out = os.path.join(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
            "BENCH_service.json",
        )
        with open(out, "w") as handle:
            json.dump(
                {
                    "benchmark": "service_throughput",
                    "amortization_floor": AMORTIZATION_FLOOR,
                    "overhead_ceiling": OVERHEAD_CEILING,
                    "gate_cardinality": gate_row["cardinality"],
                    "gate_amortization": gate_row["amortization"],
                    "gate_overhead": gate_row["overhead"],
                    "rows": rows,
                },
                handle,
                indent=1,
            )
            handle.write("\n")
        emit(f"wrote {out}")
    failed = []
    if gate_row["amortization"] < AMORTIZATION_FLOOR:
        failed.append(
            f"amortization {gate_row['amortization']:.2f}x < "
            f"{AMORTIZATION_FLOOR}x"
        )
    if gate_row["overhead"] > OVERHEAD_CEILING:
        failed.append(
            f"overhead {gate_row['overhead']:.2f}x > {OVERHEAD_CEILING}x"
        )
    if failed and smoke:
        emit(f"SMOKE GATE FAILED: {'; '.join(failed)}")
        return 1
    return 0


def main(argv: Sequence[str] = ()) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="gate cardinality only; exit 1 if a gate fails",
    )
    args = parser.parse_args(argv or sys.argv[1:])
    return run(smoke=args.smoke)


if __name__ == "__main__":
    sys.exit(main())
