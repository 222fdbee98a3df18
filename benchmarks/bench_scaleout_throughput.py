"""What the scale-out tier buys: cores and cache hits.

The single-process service is GIL-bound — N handler threads still
execute roughly one core of probe work.  The scale-out tier attacks the
ceiling twice, and this benchmark measures both on the Figure 8
workload (long-lived mixture):

* **Multi-worker throughput** — a fixed batch of end-to-end TCP
  queries driven by concurrent clients against a pre-fork pool
  (``serve --workers N``) at 1, 2, and 4 workers.  Speedup is
  min-of-repeats elapsed at 1 worker over min-of-repeats at N.
  Gate: **>= 2x at 4 workers** — enforced only where the hardware can
  possibly deliver it (``os.cpu_count() >= 4``); a 1-core container
  records honest numbers with the gate marked unenforced rather than
  pretending forked processes conjure cores.
* **Warm cache hits** — per-query latency with the result cache cold
  (invalidated before every sample) vs warm (same fingerprint, same
  generation).  A hit skips admission, snapshot pin, and the entire
  join, so the floor is steep.  Gate: **>= 5x**, enforced everywhere.

Bit-identity is asserted throughout — pooled and cached answers are
compared against the offline oracle fingerprint — so the smoke run is
meaningful even on hardware where the worker gate cannot be enforced.
The standalone run writes ``BENCH_scaleout.json`` at the repository
root; ``--smoke`` (the CI ``scaleout-smoke`` job) asserts the gates
with best-of-attempts retries.

    PYTHONPATH=src python benchmarks/bench_scaleout_throughput.py
    PYTHONPATH=src python benchmarks/bench_scaleout_throughput.py --smoke
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import threading
import time
from typing import Any, Dict, List, Sequence

if __package__:
    from .common import emit, heading, scaled, table
else:  # run as a script: the harness sits next to this file
    _SRC = os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"
    )
    if _SRC not in sys.path:
        sys.path.insert(0, _SRC)
    from common import emit, heading, scaled, table

import tempfile

from repro.core.interval import Interval
from repro.service import (
    JoinService,
    ServiceClient,
    WorkerSupervisor,
    offline_query,
)
from repro.storage import save_index
from repro.workloads import long_lived_mixture

CARDINALITY = 1_200  # the Figure 8 scale
WORKER_COUNTS = (1, 2, 4)
GATE_WORKERS = 4
WORKER_SPEEDUP_FLOOR = 2.0
CACHE_SPEEDUP_FLOOR = 5.0
QUERIES = 16
CLIENT_THREADS = 8
REPEATS = 2
CACHE_SAMPLES = 5


def _make_snapshot(cardinality: int) -> str:
    outer = long_lived_mixture(
        cardinality, 0.3, Interval(1, 20_000), seed=61, name="outer"
    )
    inner = long_lived_mixture(
        cardinality, 0.3, Interval(1, 20_000), seed=62, name="inner"
    )
    tmpdir = tempfile.mkdtemp(prefix="bench_scaleout_")
    path = os.path.join(tmpdir, "bench.oip")
    save_index(path, outer, inner)
    return path


def _drive_pool(
    port: int, queries: int, threads: int, expected_fingerprint: int
) -> Dict[str, Any]:
    """Drive a fixed query batch through *threads* concurrent TCP
    clients; returns elapsed seconds and the mismatch count."""
    per_thread = queries // threads
    mismatches = [0] * threads
    barrier = threading.Barrier(threads + 1)

    def client(slot: int) -> None:
        with ServiceClient("127.0.0.1", port, retries=2) as conn:
            barrier.wait()
            for _ in range(per_thread):
                body = conn.join()
                if body["fingerprint"] != expected_fingerprint:
                    mismatches[slot] += 1

    pool = [
        threading.Thread(target=client, args=(slot,))
        for slot in range(threads)
    ]
    for thread in pool:
        thread.start()
    barrier.wait()
    started = time.perf_counter()
    for thread in pool:
        thread.join()
    elapsed = time.perf_counter() - started
    return {"elapsed_s": elapsed, "mismatches": sum(mismatches)}


def bench_workers(path: str, expected_fingerprint: int) -> List[Dict[str, Any]]:
    rows: List[Dict[str, Any]] = []
    for workers in WORKER_COUNTS:
        supervisor = WorkerSupervisor(path, workers=workers)
        supervisor.start()
        runner = threading.Thread(target=supervisor.run, daemon=True)
        runner.start()
        try:
            best, mismatches = float("inf"), 0
            for _ in range(REPEATS):
                outcome = _drive_pool(
                    supervisor.port,
                    QUERIES,
                    CLIENT_THREADS,
                    expected_fingerprint,
                )
                best = min(best, outcome["elapsed_s"])
                mismatches += outcome["mismatches"]
            rows.append(
                {
                    "workers": workers,
                    "queries": QUERIES,
                    "elapsed_s": best,
                    "throughput_qps": QUERIES / best,
                    "mismatches": mismatches,
                }
            )
        finally:
            supervisor.initiate_shutdown()
            supervisor.shutdown()
            runner.join(timeout=10.0)
    base = rows[0]["throughput_qps"]
    for row in rows:
        row["speedup"] = row["throughput_qps"] / base
    return rows


def bench_cache(path: str, expected_fingerprint: int) -> Dict[str, Any]:
    service = JoinService(path, result_cache_size=8)
    service.start()
    mismatches = 0
    miss_ms = float("inf")
    for _ in range(CACHE_SAMPLES):
        service.result_cache.invalidate()
        started = time.perf_counter()
        body = service.query("join")
        miss_ms = min(miss_ms, (time.perf_counter() - started) * 1e3)
        if body["fingerprint"] != expected_fingerprint:
            mismatches += 1
    hit_ms = float("inf")
    for _ in range(CACHE_SAMPLES):
        started = time.perf_counter()
        body = service.query("join")
        hit_ms = min(hit_ms, (time.perf_counter() - started) * 1e3)
        if not body["cached"] or body["fingerprint"] != expected_fingerprint:
            mismatches += 1
    service.drain(timeout_s=5.0)
    return {
        "miss_ms": miss_ms,
        "hit_ms": hit_ms,
        "speedup": miss_ms / hit_ms if hit_ms > 0 else float("inf"),
        "mismatches": mismatches,
    }


def run(smoke: bool) -> int:
    heading("Scale-out serving: workers and result cache")
    cardinality = scaled(CARDINALITY)
    cpu_count = os.cpu_count() or 1
    workers_gate_enforced = cpu_count >= GATE_WORKERS
    path = _make_snapshot(cardinality)
    expected = offline_query(path)["fingerprint"]
    emit(
        f"n={cardinality}, cores={cpu_count}, "
        f"{QUERIES} queries x {CLIENT_THREADS} clients, "
        f"min of {REPEATS} repeats"
    )

    attempts = 3 if smoke else 1
    worker_rows: List[Dict[str, Any]] = []
    cache_row: Dict[str, Any] = {}
    for attempt in range(attempts):
        worker_rows = bench_workers(path, expected)
        cache_row = bench_cache(path, expected)
        gate_row = next(
            row for row in worker_rows if row["workers"] == GATE_WORKERS
        )
        workers_ok = (
            not workers_gate_enforced
            or gate_row["speedup"] >= WORKER_SPEEDUP_FLOOR
        )
        cache_ok = cache_row["speedup"] >= CACHE_SPEEDUP_FLOOR
        if workers_ok and cache_ok:
            break
        if smoke and attempt < attempts - 1:
            emit(
                f"  retrying: workers {gate_row['speedup']:.2f}x, "
                f"cache {cache_row['speedup']:.2f}x"
            )

    table(
        ["workers", "elapsed", "qps", "speedup", "mismatches"],
        [
            [
                row["workers"],
                f"{row['elapsed_s'] * 1e3:.0f} ms",
                f"{row['throughput_qps']:.1f}",
                f"{row['speedup']:.2f}x",
                row["mismatches"],
            ]
            for row in worker_rows
        ],
    )
    emit()
    emit(
        f"cache: miss {cache_row['miss_ms']:.2f} ms, hit "
        f"{cache_row['hit_ms']:.3f} ms -> {cache_row['speedup']:.1f}x "
        f"(floor {CACHE_SPEEDUP_FLOOR}x)"
    )
    gate_row = next(
        row for row in worker_rows if row["workers"] == GATE_WORKERS
    )
    emit(
        f"workers gate @ {GATE_WORKERS}: {gate_row['speedup']:.2f}x "
        f"(floor {WORKER_SPEEDUP_FLOOR}x, "
        f"{'enforced' if workers_gate_enforced else f'not enforced on {cpu_count} core(s)'})"
    )
    mismatches = (
        sum(row["mismatches"] for row in worker_rows) + cache_row["mismatches"]
    )
    emit(f"bit-identity mismatches: {mismatches}")

    if not smoke:
        out = os.path.join(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
            "BENCH_scaleout.json",
        )
        with open(out, "w") as handle:
            json.dump(
                {
                    "benchmark": "scaleout_throughput",
                    "cardinality": cardinality,
                    "cpu_count": cpu_count,
                    "queries": QUERIES,
                    "client_threads": CLIENT_THREADS,
                    "repeats": REPEATS,
                    "worker_speedup_floor": WORKER_SPEEDUP_FLOOR,
                    "workers_gate_enforced": workers_gate_enforced,
                    "gate_workers": GATE_WORKERS,
                    "gate_worker_speedup": gate_row["speedup"],
                    "cache_speedup_floor": CACHE_SPEEDUP_FLOOR,
                    "cache_speedup": cache_row["speedup"],
                    "mismatches": mismatches,
                    "workers": worker_rows,
                    "cache": cache_row,
                },
                handle,
                indent=1,
            )
            handle.write("\n")
        emit(f"wrote {out}")

    failed = []
    if mismatches:
        failed.append(f"{mismatches} bit-identity mismatch(es)")
    if (
        workers_gate_enforced
        and gate_row["speedup"] < WORKER_SPEEDUP_FLOOR
    ):
        failed.append(
            f"worker speedup {gate_row['speedup']:.2f}x < "
            f"{WORKER_SPEEDUP_FLOOR}x at {GATE_WORKERS} workers"
        )
    if cache_row["speedup"] < CACHE_SPEEDUP_FLOOR:
        failed.append(
            f"cache speedup {cache_row['speedup']:.2f}x < "
            f"{CACHE_SPEEDUP_FLOOR}x"
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
        help="assert the gates; exit 1 on failure",
    )
    args = parser.parse_args(argv or sys.argv[1:])
    return run(smoke=args.smoke)


if __name__ == "__main__":
    sys.exit(main())
