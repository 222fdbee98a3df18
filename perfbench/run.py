"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload adhoc-longlived --seed 1 \\
        --seconds 10 --trace 0

``--trace 0`` sets the workload up several times, measures its load for
``--seconds`` with no instrumentation and prints every end-to-end
metric.  ``--trace 1`` sets it up once and replays a seeded sample of
its ops twice, first plain and then with spans around each layer's
public entry points, and prints the per-layer metrics and the tracing
overhead.  Both modes check the program's answers; the last line of
standard output is one JSON object, and the exit code is 1 when an
answer was wrong.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import sys
import time
from typing import Any, Dict, List, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 5


def _pin_to_one_cpu() -> Any:
    """Pin this process, and so every thread it starts, to one CPU.

    The program's work is bound by the interpreter lock, so one CPU is
    all it can use; without pinning, the server, client, reader and
    writer threads migrate between CPUs and every lock hand-off can wait
    for a cross-CPU wake-up, which made the run-to-run spread of the
    threaded workloads about three times wider.  Returns the CPU, or
    ``None`` where affinity cannot be set."""
    try:
        cpu = max(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
    except (AttributeError, OSError):
        return None
    return cpu


def _parse(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _metric_specs() -> Dict[str, List[Dict[str, str]]]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def _untraced(workload: Any, seconds: float) -> Tuple[Dict[str, Tuple[float, str]], Any, Dict]:
    from harness import median, peak_rss_mb, tail

    setups = []
    for _ in range(SETUP_REPEATS):
        workload.close()
        gc.collect()
        started = time.perf_counter()
        workload.setup()
        setups.append(time.perf_counter() - started)
    contract = workload.contract()
    measured = workload.measure(seconds)
    workload.verify(measured)
    reads = measured.reads
    read_tail = tail(reads, workload.tail_percentile)
    metrics = {
        "query_p50_ms": (median(reads), "ms"),
        "query_tail_ms": (read_tail["value"], "ms"),
        "queries_per_s": (len(reads) / measured.wall_s, "1/s"),
        "error_rate": (measured.failed / max(1, measured.attempted), "ratio"),
        "setup_s": (median(setups), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    metrics.update(measured.extra)
    measured.notes["query_tail"] = read_tail
    measured.notes["setup_s_samples"] = setups
    return metrics, measured, contract


def _layers(recorder: Any, traced: Any, untraced: Any) -> Dict[str, Tuple[float, str]]:
    """Per-layer metrics from the traced replay's spans and the values
    the program returned inside each op."""
    from harness import median
    from spans import kernel_totals, layer_value, per_op_times

    table = per_op_times(recorder)

    def ms(name: str, field: str = "total") -> Tuple[float, str]:
        return (layer_value(table, name, field), "ms")

    def count(values: List[float]) -> Tuple[float, str]:
        return (median(values), "count")

    joins = [j for op in recorder.ops for j in op.attrs.get("join_results", [])]
    kernels = kernel_totals(recorder).values()
    candidates = sum(row["candidates"] for row in kernels)
    matched = sum(row["results"] for row in kernels)
    schedules = [
        span.attrs["partition_pairs"]
        for span in recorder.spans
        if span.name == "parallel.schedule"
    ]
    wire_ops = [row for row in table.values() if "protocol.encode" in row]
    hits = [
        op.duration_ms
        for op in recorder.ops
        if any(body.get("cached") for body in op.attrs.get("service_bodies", []))
    ]
    frames = [n for op in recorder.ops for n in op.attrs.get("response_bytes", [])]
    untraced_p50 = median(untraced.reads)
    return {
        "granules.derive_k_ms": ms("granules.derive_k"),
        "granules.k": count([j["k"] for j in joins]),
        "lazy_list.oip_create_ms": ms("lazy_list.oip_create"),
        "lazy_list.partitions": count([j["partitions"] for j in joins]),
        "parallel.schedule_ms": ms("parallel.schedule"),
        "parallel.partition_pairs": count(schedules),
        "kernels.decode_ms": ms("kernels.decode"),
        "kernels.match_ms": ms("kernels.match"),
        "kernels.calls": count([row["calls"] for row in kernels]),
        "kernels.candidates": count([row["candidates"] for row in kernels]),
        "kernels.match_ratio": (matched / candidates if candidates else 0.0, "ratio"),
        "storage.read_run_ms": ms("storage.read_run"),
        "storage.block_reads": count([j["block_reads"] for j in joins]),
        "join.ms": ms("join"),
        "join.unattributed_ms": ms("join", "self"),
        "join.cpu_comparisons": count([j["cpu_comparisons"] for j in joins]),
        "join.partition_accesses": count([j["partition_accesses"] for j in joins]),
        "join.false_hits": count([j["false_hits"] for j in joins]),
        "join.pairs": count([j["pairs"] for j in joins]),
        "snapshot.restore_ms": ms("snapshot.restore"),
        "snapshot.load_ms": ms("snapshot.load"),
        "snapshot.save_ms": ms("snapshot.save"),
        "snapshot.journal_append_ms": ms("snapshot.journal_append"),
        "snapshot.bytes_written": (traced.notes.get("bytes_per_compaction_p50", 0.0), "B"),
        "service.summarize_ms": ms("service.summarize"),
        "service.query_ms": ms("service.query"),
        "service.unattributed_ms": ms("service.query", "self"),
        "service.refresh_ms": ms("service.refresh"),
        "cache.hit_ratio": (traced.notes.get("cache_hit_ratio", 0.0), "ratio"),
        "cache.hit_ms": (median(hits), "ms"),
        "protocol.encode_ms": ms("protocol.encode"),
        "protocol.decode_ms": ms("protocol.decode"),
        "wire.ms": (median([row["op.lookup"]["self"] for row in wire_ops]), "ms"),
        "wire.response_bytes": (median(frames), "B"),
        "trace.overhead_ratio": (
            median(traced.reads) / untraced_p50 if untraced_p50 else 0.0,
            "ratio",
        ),
    }


def _traced(workload: Any, seed: int) -> Tuple[Dict[str, Tuple[float, str]], Any, Dict]:
    from harness import write_json
    from spans import SpanRecorder, install

    workload.setup()
    contract = workload.contract()
    untraced = workload.replay(None)
    recorder = SpanRecorder()
    with install(recorder):
        traced = workload.replay(recorder)
    workload.verify(traced)
    traced.attempted += untraced.attempted
    traced.failed += untraced.failed
    traced.errors += untraced.errors
    metrics = _layers(recorder, traced, untraced)
    traced.notes["spans_file"] = write_json(
        ROOT, f"spans-{workload.name}-seed{seed}.json", recorder.dump()
    )
    traced.notes["span_table"] = _span_table(recorder)
    return metrics, traced, contract


def _span_table(recorder: Any) -> Dict[str, Dict[str, float]]:
    """Per span name: the ops it ran in and the median per-op self and
    total time.  An ``op.*`` row's self time is the op's unattributed
    time, which no layer span covers (benchmark bookkeeping, and for TCP
    lookups the socket round trip)."""
    from harness import median
    from spans import per_op_times

    rows: Dict[str, List[Dict[str, float]]] = {}
    for op_rows in per_op_times(recorder).values():
        for name, row in op_rows.items():
            rows.setdefault(name, []).append(row)
    return {
        name: {
            "ops": len(found),
            "self_ms": median([row["self"] for row in found]),
            "total_ms": median([row["total"] for row in found]),
        }
        for name, found in sorted(rows.items())
    }


def _print_metrics(title: str, metrics: Dict[str, Tuple[float, str]]) -> None:
    print(title)
    for name, (value, unit) in metrics.items():
        print(f"  {name:<28} {value:>14.4f} {unit}")


def main(argv: List[str]) -> int:
    args = _parse(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(
            f"perfbench: no program source at {os.path.join(ROOT, 'src')}; "
            "run from the root of a repository checkout",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from harness import RUNS_DIR, environment, guard_contract, write_json
    from scenarios import WORKLOADS

    if args.workload not in WORKLOADS:
        print(
            f"perfbench: unknown workload {args.workload!r}; "
            f"choose from {', '.join(WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    specs = _metric_specs()
    cpu = _pin_to_one_cpu()
    workdir = os.path.join(
        ROOT, RUNS_DIR, f"work-{args.workload}-{args.seed}-{os.getpid()}"
    )
    os.makedirs(workdir)
    workload = WORKLOADS[args.workload](args.seed, workdir)
    try:
        if args.trace:
            metrics, measured, contract = _traced(workload, args.seed)
            wanted = specs["per_layer"]
        else:
            metrics, measured, contract = _untraced(workload, args.seconds)
            wanted = specs["end_to_end"]
    finally:
        workload.close()
        shutil.rmtree(workdir, ignore_errors=True)

    guard = guard_contract(ROOT, args.workload, args.seed, contract)
    correct = measured.failed == 0
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": dict(environment(ROOT), pinned_cpu=cpu),
        "params": workload.params(),
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
        "attempted": measured.attempted,
        "failed": measured.failed,
        "errors": measured.errors,
        "notes": measured.notes,
        "contract": guard,
        "contract_counters": contract,
    }
    report_file = write_json(
        ROOT, f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json", report
    )

    mode = "traced replay, per layer" if args.trace else "untraced, end to end"
    _print_metrics(f"{args.workload} seed={args.seed} ({mode})", metrics)
    if args.trace:
        print(f"  {'span (median per op)':<28} {'ops':>5} {'self ms':>12} {'total ms':>12}")
        for name, row in measured.notes["span_table"].items():
            label = f"{name} (unattributed)" if name.startswith("op.") else name
            print(
                f"  {label:<28} {row['ops']:>5} "
                f"{row['self_ms']:>12.4f} {row['total_ms']:>12.4f}"
            )
    else:
        read_tail = measured.notes["query_tail"]
        print(
            f"  query_tail_ms is p{read_tail['percentile']:g} of "
            f"{read_tail['samples']} reads ({read_tail['beyond']} beyond)"
        )
    print(f"  ops attempted {measured.attempted}, failed {measured.failed}")
    for error in measured.errors:
        print(f"  error: {error}")
    if guard["changed"]:
        print("  CONTRACT CHANGED since the last run of this seed:")
        for line in guard["differences"]:
            print(f"    {line}")
    print(f"  report: {os.path.relpath(report_file, ROOT)}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": measured.attempted,
                "failed": measured.failed,
                "metrics": {
                    spec["name"]: {
                        "value": metrics[spec["name"]][0],
                        "unit": spec["unit"],
                    }
                    for spec in wanted
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
