"""What full telemetry costs on the serving hot path.

ISSUE 9's budget: wire-propagated tracing, the structured query log,
and latency-histogram accounting together may tax a served query by at
most **3%**.  This benchmark measures exactly that delta:

* **Baseline** — a :class:`~repro.service.JoinService` with telemetry
  off (the null tracer and :data:`~repro.obs.log.NULL_QUERY_LOG`:
  one truthiness check per call site).
* **Instrumented** — the same snapshot served with ``tracing=True``
  (span tree per query into the :class:`~repro.obs.trace.TraceBuffer`)
  plus a :class:`~repro.obs.log.QueryLog` appending NDJSON to a real
  temp file with a slow-query threshold armed.

Both services run over one snapshot and the measurement interleaves
the two sides' batches, so CPU frequency drift hits both equally: each
of :data:`BATCHES` rounds times one batch per side, the side that goes
first alternating from round to round, each batch after a
``gc.collect()`` (so no batch pays for the garbage of the one before),
and each side keeps its fastest batch.  Gate: **instrumented <= 1.03x
baseline** at the gate cardinality.  The standalone run writes
``BENCH_telemetry.json`` at the repository root; ``--smoke`` (the CI
``telemetry-smoke`` job) asserts the gate with best-of-attempts
retries.

    PYTHONPATH=src python benchmarks/bench_telemetry_overhead.py
    PYTHONPATH=src python benchmarks/bench_telemetry_overhead.py --smoke
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
import tempfile
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
from repro.obs.log import QueryLog
from repro.service import JoinService
from repro.storage import save_index
from repro.workloads import long_lived_mixture

CARDINALITIES = (400, 1200, 3600)
GATE_CARDINALITY = 3600
OVERHEAD_CEILING = 1.03
#: Interleaved rounds; each side keeps its fastest batch.
BATCHES = 15
QUERIES_PER_BATCH = 4


def _batch_ms(fn, queries: int) -> float:
    """Per-query latency (ms) of one batch of *queries* calls, timed
    after a collection."""
    gc.collect()
    started = time.perf_counter()
    for _ in range(queries):
        fn()
    return (time.perf_counter() - started) / queries * 1e3


def bench_cardinality(cardinality: int) -> Dict[str, float]:
    outer = long_lived_mixture(
        cardinality, 0.3, Interval(1, 20_000), seed=51, name="outer"
    )
    inner = long_lived_mixture(
        cardinality, 0.3, Interval(1, 20_000), seed=52, name="inner"
    )
    tmpdir = tempfile.mkdtemp(prefix="bench_telemetry_")
    path = os.path.join(tmpdir, "bench.oip")
    save_index(path, outer, inner)

    log_path = os.path.join(tmpdir, "queries.ndjson")
    query_log = QueryLog(path=log_path, slow_query_ms=10_000.0)
    baseline = JoinService(path)
    instrumented = JoinService(
        path, tracing=True, query_log=query_log
    )
    baseline.start()
    instrumented.start()
    # Warm up both services before timing.
    baseline.query("join")
    instrumented.query("join")

    # Interleave the measurement batches so machine drift is shared,
    # alternating which side goes first.
    sides = [
        ("baseline", lambda: baseline.query("join")),
        ("telemetry", lambda: instrumented.query("join")),
    ]
    best = {name: float("inf") for name, _ in sides}
    for round_index in range(BATCHES):
        order = sides if round_index % 2 == 0 else sides[::-1]
        for name, query in order:
            best[name] = min(best[name], _batch_ms(query, QUERIES_PER_BATCH))
    baseline_ms, telemetry_ms = best["baseline"], best["telemetry"]
    log_lines = query_log.emitted
    traces = len(instrumented.traces)
    baseline.drain(timeout_s=10.0)
    instrumented.drain(timeout_s=10.0)
    query_log.close()

    return {
        "cardinality": cardinality,
        "baseline_ms": baseline_ms,
        "telemetry_ms": telemetry_ms,
        "overhead": telemetry_ms / baseline_ms,
        "log_lines": log_lines,
        "traces_captured": traces,
    }


def run(smoke: bool) -> int:
    heading("Telemetry overhead: traced + logged service vs telemetry off")
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
            if row["overhead"] <= OVERHEAD_CEILING:
                break
            if smoke and attempt < attempts - 1:
                emit(
                    f"  retrying n={cardinality}: overhead "
                    f"{row['overhead']:.3f}x"
                )
        rows.append(row)
    table(
        [
            "n", "telemetry off", "telemetry on", "overhead",
            "log lines", "traces",
        ],
        [
            [
                row["cardinality"],
                f"{row['baseline_ms']:.2f} ms",
                f"{row['telemetry_ms']:.2f} ms",
                f"{row['overhead']:.3f}x",
                int(row["log_lines"]),
                int(row["traces_captured"]),
            ]
            for row in rows
        ],
    )
    gate_row = next(
        (row for row in rows if row["cardinality"] == gate), rows[-1]
    )
    emit()
    emit(
        f"gate @ n={gate_row['cardinality']}: overhead "
        f"{gate_row['overhead']:.3f}x (ceiling {OVERHEAD_CEILING}x)"
    )
    if not smoke:
        out = os.path.join(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
            "BENCH_telemetry.json",
        )
        with open(out, "w") as handle:
            json.dump(
                {
                    "benchmark": "telemetry_overhead",
                    "overhead_ceiling": OVERHEAD_CEILING,
                    "gate_cardinality": gate_row["cardinality"],
                    "gate_overhead": gate_row["overhead"],
                    "rows": rows,
                },
                handle,
                indent=1,
            )
            handle.write("\n")
        emit(f"wrote {out}")
    if gate_row["overhead"] > OVERHEAD_CEILING and smoke:
        emit(
            f"SMOKE GATE FAILED: overhead {gate_row['overhead']:.3f}x > "
            f"{OVERHEAD_CEILING}x"
        )
        return 1
    return 0


def main(argv: Sequence[str] = ()) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="gate cardinality only; exit 1 if the gate fails",
    )
    args = parser.parse_args(argv or sys.argv[1:])
    return run(smoke=args.smoke)


if __name__ == "__main__":
    sys.exit(main())
