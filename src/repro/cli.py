"""Command-line interface: run joins, compare algorithms, derive k and
inspect datasets without writing code.

::

    python -m repro join --workload mixture --cardinality 2000 \\
        --long-fraction 0.5 --algorithm oip
    python -m repro join --algorithm oip --trace run.trace.jsonl \\
        --metrics-out run.metrics.json --report run.report.json
    python -m repro compare --workload uniform --cardinality 1500 \\
        --algorithms oip,lqt,smj
    python -m repro compare base.report.json other.report.json
    python -m repro derive-k --outer 10000000 --inner 100000000 \\
        --lambda-outer 0.0001 --lambda-inner 0.0005
    python -m repro datasets
    python -m repro save-index --workload mixture --cardinality 2000 \\
        --long-fraction 0.5 --out run.oip
    python -m repro fsck run.oip
    python -m repro join --workload mixture --cardinality 2000 \\
        --long-fraction 0.5 --index run.oip
"""

from __future__ import annotations

import argparse
import signal
import sys
import time
from typing import List, Optional, Sequence

from .baselines import ALGORITHMS
from .core.granules import JoinCostModel, derive_k
from .core.interval import Interval
from .core.relation import TemporalRelation
from .engine.governor import (
    BudgetExceededError,
    CancellationToken,
    QueryBudget,
)
from .storage.faults import FAULT_PROFILES, StorageFaultError, fault_profile
from .storage.metrics import CostWeights
from .workloads import (
    DATASET_GENERATORS,
    PAPER_DATASET_PROPERTIES,
    clustered_relation,
    dataset_properties,
    long_lived_mixture,
    point_relation,
    uniform_relation,
)

__all__ = ["main", "build_parser"]

_WORKLOADS = ("uniform", "mixture", "points", "clustered")


def _make_relation(args: argparse.Namespace, seed: int, name: str) -> TemporalRelation:
    if args.workload in DATASET_GENERATORS:
        return DATASET_GENERATORS[args.workload](
            cardinality=args.cardinality, seed=seed, name=name
        )
    time_range = Interval(1, args.time_range)
    if args.workload == "uniform":
        return uniform_relation(
            args.cardinality,
            time_range,
            args.max_duration,
            seed=seed,
            name=name,
        )
    if args.workload == "mixture":
        return long_lived_mixture(
            args.cardinality,
            args.long_fraction,
            time_range,
            seed=seed,
            name=name,
        )
    if args.workload == "points":
        return point_relation(args.cardinality, time_range, seed=seed, name=name)
    if args.workload == "clustered":
        return clustered_relation(
            args.cardinality, time_range, seed=seed, name=name
        )
    raise SystemExit(f"unknown workload {args.workload!r}")


def _add_workload_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--workload",
        default="uniform",
        choices=_WORKLOADS + tuple(DATASET_GENERATORS),
        help="synthetic family or real-dataset stand-in",
    )
    parser.add_argument(
        "--cardinality", type=int, default=1_000, help="tuples per relation"
    )
    parser.add_argument(
        "--time-range",
        type=int,
        default=2**20,
        help="number of time points (synthetic workloads)",
    )
    parser.add_argument(
        "--max-duration",
        type=float,
        default=0.001,
        help="max tuple duration as a fraction of the range (uniform)",
    )
    parser.add_argument(
        "--long-fraction",
        type=float,
        default=0.25,
        help="share of long-lived tuples (mixture)",
    )
    parser.add_argument("--seed", type=int, default=0)


def _add_kernel_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--kernel",
        default="auto",
        choices=("auto", "naive", "sweep", "numpy"),
        help=(
            "partition-pair join kernel for the oip algorithm: 'naive' "
            "compares every candidate pair, 'sweep' forward-scans "
            "start-sorted columns, 'numpy' vectorizes the match step "
            "(falls back to 'sweep' when numpy is not installed; "
            "identical pairs and cost counters at one k); 'auto' "
            "picks numpy for large joins when it is installed, else sweep"
        ),
    )


def _add_resilience_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--fault-profile",
        default="none",
        choices=("none",) + tuple(sorted(FAULT_PROFILES)),
        help=(
            "inject seeded storage faults (chaos testing); results are "
            "identical to a fault-free run as long as retries succeed"
        ),
    )
    parser.add_argument(
        "--fault-seed",
        type=int,
        default=0,
        help="seed of the deterministic fault schedule",
    )
    parser.add_argument(
        "--max-retries",
        type=int,
        default=3,
        help="block-read retries before a read is abandoned",
    )


def _add_obs_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="write a JSONL span/event trace of the run to PATH",
    )
    parser.add_argument(
        "--metrics-out",
        default=None,
        metavar="PATH",
        help="write the metrics-registry snapshot to PATH after the run",
    )
    parser.add_argument(
        "--metrics-format",
        default="json",
        choices=("json", "prometheus"),
        help="exposition format of --metrics-out (default json)",
    )
    parser.add_argument(
        "--report",
        default=None,
        metavar="PATH",
        help="write the machine-readable run report (JSON) to PATH",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help=(
            "print the run report JSON to stdout instead of the text "
            "summary (same serialization as --report)"
        ),
    )


def _obs_kwargs(args: argparse.Namespace) -> dict:
    """Observability keyword arguments from the ``--trace`` /
    ``--metrics-out`` / ``--report`` / ``--json`` flags.

    The trace sink and metrics registry are stashed on *args* so
    :func:`_run_single` can flush the artifacts after the run.  With none
    of the flags given this attaches nothing — the join runs the exact
    pre-observability code paths.
    """
    kwargs: dict = {}
    trace_path = getattr(args, "trace", None)
    metrics_out = getattr(args, "metrics_out", None)
    collect = (
        getattr(args, "report", None) is not None
        or getattr(args, "json", False)
    )
    if trace_path is not None:
        from .obs import JsonlSink, Tracer

        args._trace_sink = JsonlSink(trace_path)
        kwargs["tracer"] = Tracer(sink=args._trace_sink)
    if metrics_out is not None or collect:
        # A report is richer with a metrics section, so --report/--json
        # attach a registry even without --metrics-out.
        from .obs import MetricsRegistry

        args._metrics = MetricsRegistry()
        kwargs["metrics"] = args._metrics
    if collect:
        kwargs["collect_report"] = True
    return kwargs


def _write_metrics(args: argparse.Namespace) -> None:
    """Write the ``--metrics-out`` file from the run's registry."""
    metrics = getattr(args, "_metrics", None)
    metrics_out = getattr(args, "metrics_out", None)
    if metrics is None or metrics_out is None:
        return
    if getattr(args, "metrics_format", "json") == "prometheus":
        text = metrics.to_prometheus_text()
    else:
        text = metrics.to_json()
    if not text.endswith("\n"):
        text += "\n"
    with open(metrics_out, "w", encoding="utf-8") as handle:
        handle.write(text)


def _write_obs_artifacts(args: argparse.Namespace, result) -> None:
    """Write the ``--metrics-out`` and ``--report`` files for a finished
    (completed or cancelled) run."""
    _write_metrics(args)
    report_path = getattr(args, "report", None)
    if report_path is not None and result.report is not None:
        from .obs.report import write_report

        write_report(result.report, report_path)


def _add_lifecycle_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--deadline-ms",
        type=float,
        default=None,
        help=(
            "wall-clock budget for the join; exceeded at a cooperative "
            "boundary the run aborts with its partial counters (exit 75)"
        ),
    )
    parser.add_argument(
        "--max-comparisons",
        type=int,
        default=None,
        help="logical budget: abort past this many CPU comparisons",
    )
    parser.add_argument(
        "--max-block-reads",
        type=int,
        default=None,
        help="logical budget: abort past this many block reads",
    )
    parser.add_argument(
        "--checkpoint",
        default=None,
        metavar="PATH",
        help=(
            "write a resumable JSON checkpoint here periodically and at "
            "any cancellation/budget stop (oip only)"
        ),
    )
    parser.add_argument(
        "--checkpoint-every",
        type=int,
        default=None,
        metavar="N",
        help="outer partitions between checkpoints (default 8)",
    )
    parser.add_argument(
        "--resume-from",
        default=None,
        metavar="PATH",
        help="resume an interrupted oip join from a checkpoint file",
    )


def _budget_from(args: argparse.Namespace) -> Optional[QueryBudget]:
    deadline = getattr(args, "deadline_ms", None)
    max_comparisons = getattr(args, "max_comparisons", None)
    max_block_reads = getattr(args, "max_block_reads", None)
    if deadline is None and max_comparisons is None and max_block_reads is None:
        return None
    try:
        return QueryBudget(
            deadline_ms=deadline,
            max_comparisons=max_comparisons,
            max_block_reads=max_block_reads,
        )
    except ValueError as error:
        raise SystemExit(str(error))


def _lifecycle_kwargs(name: str, args: argparse.Namespace) -> dict:
    """Governor keyword arguments for algorithm *name*.

    Cancellation (the SIGINT/SIGTERM token) applies to every algorithm;
    budgets and checkpoint/resume need the OIPJOIN's partition
    boundaries and are rejected for the baselines.
    """
    kwargs: dict = {}
    budget = _budget_from(args)
    checkpoint = getattr(args, "checkpoint", None)
    checkpoint_every = getattr(args, "checkpoint_every", None)
    resume_from = getattr(args, "resume_from", None)
    oip_only = [
        flag
        for flag, value in (
            ("--deadline-ms/--max-comparisons/--max-block-reads", budget),
            ("--checkpoint", checkpoint),
            ("--checkpoint-every", checkpoint_every),
            ("--resume-from", resume_from),
        )
        if value is not None
    ]
    if name != "oip":
        if oip_only:
            raise SystemExit(
                f"{', '.join(oip_only)} are only supported by the oip "
                f"algorithm, not {name!r}"
            )
        return kwargs
    if budget is not None:
        kwargs["budget"] = budget
    if checkpoint is not None:
        kwargs["checkpoint_path"] = checkpoint
    if checkpoint_every is not None:
        kwargs["checkpoint_every"] = checkpoint_every
    if resume_from is not None:
        kwargs["resume_from"] = resume_from
    return kwargs


def _resilience_kwargs(args: argparse.Namespace) -> dict:
    """Fault-injection keyword arguments shared by every algorithm."""
    kwargs: dict = {}
    profile = getattr(args, "fault_profile", "none")
    policy = fault_profile(profile, seed=getattr(args, "fault_seed", 0))
    if policy is not None:
        kwargs["fault_policy"] = policy
    max_retries = getattr(args, "max_retries", None)
    if max_retries is not None:
        if max_retries < 0:
            raise SystemExit(f"--max-retries must be >= 0, got {max_retries}")
        kwargs["max_read_retries"] = max_retries
    return kwargs


def _algorithm_kwargs(
    name: str, args: argparse.Namespace, skip_oip_only: bool = False
) -> dict:
    """Constructor keywords of algorithm *name*, honouring the oip-only
    ``--kernel`` and ``--index`` flags, the ``--fault-profile``
    resilience flags for every algorithm, and the lifecycle flags
    (budget / checkpoint / cancellation).  With *skip_oip_only* (the
    non-oip contenders of ``compare``), oip-only flags are skipped
    instead of rejected."""
    kwargs = _resilience_kwargs(args)
    kwargs.update(_lifecycle_kwargs(name, args))
    kwargs.update(_obs_kwargs(args))
    token = getattr(args, "_cancellation", None)
    if token is not None:
        kwargs["cancellation"] = token
    kernel = getattr(args, "kernel", None)
    if kernel is not None and kernel != "auto":
        if name == "oip":
            kwargs["kernel"] = kernel
        elif not skip_oip_only:
            raise SystemExit(
                f"--kernel is only supported by the oip algorithm, "
                f"not {name!r}"
            )
    index = getattr(args, "index", None)
    if index is not None:
        if name == "oip":
            kwargs["index_path"] = index
        elif not skip_oip_only:
            raise SystemExit(
                f"--index is only supported by the oip algorithm, "
                f"not {name!r}"
            )
    return kwargs


def _make_algorithm(
    name: str, args: argparse.Namespace, skip_oip_only: bool = False
):
    """Instantiate algorithm *name* with :func:`_algorithm_kwargs`."""
    kwargs = _algorithm_kwargs(name, args, skip_oip_only)
    try:
        return ALGORITHMS[name](**kwargs)
    except TypeError:
        # An algorithm whose constructor predates a lifecycle or
        # observability keyword.
        raise SystemExit(
            f"algorithm {name!r} does not support the given lifecycle "
            "or observability options"
        )


def _print_counters(counters, indent: str = "  ", partial: bool = False) -> None:
    """Print a counter snapshot; the single formatting path shared by the
    completed, cancelled and budget-abort outcomes."""
    if partial:
        print(f"{indent}partial counters:")
    for key, value in sorted(counters.snapshot().items()):
        print(f"{indent}{key:>20}: {value:,}")


def _install_cancel_handlers(token: CancellationToken) -> dict:
    """Route SIGINT/SIGTERM into the cancellation token so an
    interrupted join unwinds at a cooperative boundary into a partial
    result (and checkpoint) instead of a traceback.  Returns the
    previous handlers for restoration; silently does nothing off the
    main thread (tests call the CLI in-process)."""
    previous: dict = {}
    def cancel(_signum, _frame):
        token.cancel()

    for sig in (signal.SIGINT, signal.SIGTERM):
        try:
            previous[sig] = signal.signal(sig, cancel)
        except (ValueError, OSError):  # pragma: no cover - non-main thread
            pass
    return previous


def _restore_handlers(previous: dict) -> None:
    for sig, handler in previous.items():
        try:
            signal.signal(sig, handler)
        except (ValueError, OSError):  # pragma: no cover
            pass


def _batch_report_path(path: str, index: int) -> str:
    """Per-query report path: ``run.report.json`` → ``run.report.q0.json``."""
    import os

    base, ext = os.path.splitext(path)
    return f"{base}.q{index}{ext}" if ext else f"{path}.q{index}"


def _run_batch(args: argparse.Namespace) -> int:
    """The ``join --batch N`` path: N windowed queries, one partitioning."""
    if args.algorithm != "oip":
        raise SystemExit(
            f"--batch is only supported by the oip algorithm, "
            f"not {args.algorithm!r}"
        )
    if args.batch < 1:
        raise SystemExit(f"--batch must be >= 1, got {args.batch}")
    unsupported = [
        flag
        for flag, value in (
            ("--checkpoint", getattr(args, "checkpoint", None)),
            ("--checkpoint-every", getattr(args, "checkpoint_every", None)),
            ("--resume-from", getattr(args, "resume_from", None)),
            ("--index", getattr(args, "index", None)),
        )
        if value is not None
    ]
    if unsupported:
        raise SystemExit(
            f"{', '.join(unsupported)} are not supported with --batch "
            "(batched queries run sequentially and are not checkpointed)"
        )
    from .engine.batch import BatchJoin, equal_windows

    outer = _make_relation(args, args.seed, "outer")
    inner = _make_relation(args, args.seed + 1, "inner")
    token = CancellationToken()
    args._cancellation = token
    batch = BatchJoin(**_algorithm_kwargs("oip", args))
    try:
        windows = equal_windows(outer.time_range, args.batch)
    except ValueError as error:
        raise SystemExit(str(error))
    previous = _install_cancel_handlers(token)
    try:
        result = batch.run(outer, inner, windows)
    except StorageFaultError as error:
        raise SystemExit(f"batch join failed after retries: {error}")
    except BudgetExceededError as error:
        print(
            f"oip.batch: per-query budget exceeded ({error.reason}) after "
            f"{error.partitions_completed} outer partition(s)"
        )
        _print_counters(error.counters, indent="  ", partial=True)
        return 75
    finally:
        _restore_handlers(previous)
        sink = getattr(args, "_trace_sink", None)
        if sink is not None:
            sink.close()
    _write_metrics(args)
    report_path = getattr(args, "report", None)
    if report_path is not None:
        from .obs.report import write_report

        for query in result.queries:
            if query.report is not None:
                write_report(
                    query.report,
                    _batch_report_path(report_path, query.details["query_index"]),
                )
    if getattr(args, "json", False):
        import json as json_module

        reports = [query.report for query in result.queries]
        sys.stdout.write(
            json_module.dumps(reports, indent=2, sort_keys=True) + "\n"
        )
        return 0 if result.completed else 130
    for query in result.queries:
        window = query.details["window"]
        status = "" if query.completed else " (cancelled, partial)"
        print(
            f"query {query.details['query_index']} "
            f"[{window[0]:,}, {window[1]:,}]: "
            f"{query.cardinality:,} pairs in {query.elapsed_ms:.1f} ms"
            f"{status}"
        )
    print(
        f"oip.batch: {result.total_pairs:,} result pairs over "
        f"{len(result.queries)}/{len(result.windows)} quer"
        f"{'y' if len(result.windows) == 1 else 'ies'} in "
        f"{result.elapsed_ms:.1f} ms (one shared partitioning)"
    )
    _print_counters(result.combined_counters())
    for key, value in sorted(result.details.items()):
        print(f"  {key:>20}: {value}")
    return 0 if result.completed else 130


def _index_preflight(args: argparse.Namespace) -> Optional[int]:
    """The strict ``join --index`` contract: without ``--index-fallback``
    an unusable snapshot is an error, not a silent rebuild.  Returns the
    exit code — 66 (EX_NOINPUT) when the snapshot is missing, 65
    (EX_DATAERR) when it exists but cannot load — or ``None`` when the
    snapshot parsed cleanly (config mismatches surface after the join)."""
    if getattr(args, "index", None) is None or getattr(
        args, "index_fallback", False
    ):
        return None
    # Usage errors outrank file-state errors: non-oip algorithms and
    # --batch reject --index with a SystemExit of their own.
    if getattr(args, "algorithm", "oip") != "oip":
        return None
    if getattr(args, "batch", None) is not None:
        return None
    from .storage.snapshot import ParsedSnapshot, SnapshotError

    try:
        ParsedSnapshot.read(args.index)
    except SnapshotError as error:
        code = 66 if error.reason == "missing" else 65
        print(
            f"join: index snapshot {args.index}: {error} "
            f"[reason={error.reason}]; pass --index-fallback to rebuild "
            "in memory instead",
            file=sys.stderr,
        )
        return code
    return None


def _run_single(args: argparse.Namespace) -> int:
    if args.algorithm not in ALGORITHMS:
        raise SystemExit(
            f"unknown algorithm {args.algorithm!r}; "
            f"choose from {', '.join(sorted(ALGORITHMS))}"
        )
    strict_index = _index_preflight(args)
    if strict_index is not None:
        return strict_index
    if getattr(args, "batch", None) is not None:
        return _run_batch(args)
    outer = _make_relation(args, args.seed, "outer")
    inner = _make_relation(args, args.seed + 1, "inner")
    token = CancellationToken()
    args._cancellation = token
    join = _make_algorithm(args.algorithm, args)
    previous = _install_cancel_handlers(token)
    started = time.perf_counter()
    try:
        result = join.join(outer, inner)
    except StorageFaultError as error:
        raise SystemExit(f"join failed after retries: {error}")
    except BudgetExceededError as error:
        # No JoinResult exists here, so the partial elapsed time is the
        # CLI's own measurement (completed runs report the base class's
        # JoinResult.elapsed_ms instead).
        elapsed = time.perf_counter() - started
        print(
            f"{args.algorithm}: budget exceeded ({error.reason}) after "
            f"{elapsed * 1e3:.1f} ms and "
            f"{error.partitions_completed} outer partition(s)"
        )
        _print_counters(error.counters, indent="  ", partial=True)
        if error.checkpoint_path:
            print(f"  checkpoint written to: {error.checkpoint_path}")
        return 75  # EX_TEMPFAIL: retry with a bigger budget or resume
    except KeyboardInterrupt:
        # An interrupt that outran the cooperative machinery (e.g. a
        # second Ctrl-C, or a platform without signal rerouting).
        print(f"\n{args.algorithm}: interrupted; no partial result")
        return 130
    finally:
        _restore_handlers(previous)
        sink = getattr(args, "_trace_sink", None)
        if sink is not None:
            sink.close()
    _write_obs_artifacts(args, result)
    if (
        getattr(args, "index", None) is not None
        and not getattr(args, "index_fallback", False)
        and not (result.details.get("index") or {}).get("loaded", False)
    ):
        # The snapshot parsed in preflight but was rejected at load time
        # (fingerprint or configuration mismatch) and the join fell back
        # to an in-memory rebuild — strict mode makes that an error.
        detail = (result.details.get("index") or {}).get("reason", "mismatch")
        print(
            f"join: index snapshot {args.index} was not used: {detail}; "
            "pass --index-fallback to accept the in-memory rebuild",
            file=sys.stderr,
        )
        return 65  # EX_DATAERR
    if getattr(args, "json", False):
        from .obs.report import dumps_report

        sys.stdout.write(dumps_report(result.report))
        return 0 if result.completed else 130
    if not result.completed:
        print(
            f"{args.algorithm}: cancelled after {result.elapsed_ms:.1f} ms "
            f"with {result.cardinality:,} partial result pairs"
        )
        _print_counters(result.counters, partial=True)
        checkpoint = result.details.get("checkpoint")
        if checkpoint:
            print(f"  checkpoint written to: {checkpoint}")
            print(f"  resume with: --resume-from {checkpoint}")
        return 130
    print(
        f"{args.algorithm}: {result.cardinality:,} result pairs in "
        f"{result.elapsed_ms:.1f} ms"
    )
    _print_counters(result.counters)
    if result.resilience.faults_observed or args.fault_profile != "none":
        for key, value in sorted(result.resilience.snapshot().items()):
            print(f"  {key:>20}: {value:,}")
    for key, value in sorted(result.details.items()):
        print(f"  {key:>20}: {value}")
    return 0


def _run_compare(args: argparse.Namespace) -> int:
    reports = getattr(args, "reports", None) or []
    if reports:
        if len(reports) != 2:
            raise SystemExit(
                "comparing run reports takes exactly two paths "
                f"(base other), got {len(reports)}"
            )
        from .obs.compare import main as compare_main

        forwarded = list(reports)
        forwarded += ["--threshold", str(args.threshold)]
        if getattr(args, "json", False):
            forwarded.append("--json")
        return compare_main(forwarded)
    if getattr(args, "json", False):
        raise SystemExit(
            "compare --json requires two REPORT paths (report-diff mode)"
        )
    names = [name.strip() for name in args.algorithms.split(",") if name.strip()]
    unknown = [name for name in names if name not in ALGORITHMS]
    if unknown:
        raise SystemExit(
            f"unknown algorithm(s): {', '.join(unknown)}; "
            f"choose from {', '.join(sorted(ALGORITHMS))}"
        )
    outer = _make_relation(args, args.seed, "outer")
    inner = _make_relation(args, args.seed + 1, "inner")
    print(
        f"{'algorithm':>10} {'runtime':>10} {'results':>9} "
        f"{'false hits':>11} {'block IO':>9} {'cpu ops':>10}"
    )
    reference: Optional[List] = None
    for name in names:
        join = _make_algorithm(name, args, skip_oip_only=(name != "oip"))
        started = time.perf_counter()
        try:
            result = join.join(outer, inner)
        except StorageFaultError as error:
            print(f"{name:>10} FAILED: {error}")
            continue
        elapsed = time.perf_counter() - started
        keys = result.pair_keys()
        if reference is None:
            reference = keys
        elif keys != reference:
            print(f"WARNING: {name} returned a different result set!")
        print(
            f"{name:>10} {elapsed * 1e3:>8.1f}ms {result.cardinality:>9,} "
            f"{result.counters.false_hits:>11,} "
            f"{result.counters.total_ios:>9,} "
            f"{result.counters.cpu_comparisons:>10,}"
        )
    return 0


def _run_derive_k(args: argparse.Namespace) -> int:
    model = JoinCostModel(
        outer_cardinality=args.outer,
        inner_cardinality=args.inner,
        outer_duration_fraction=args.lambda_outer,
        inner_duration_fraction=args.lambda_inner,
        tuples_per_block=args.tuples_per_block,
        weights=CostWeights(cpu=args.cpu_cost, io=args.io_cost),
    )
    derivation = derive_k(model)
    print(f"{'n':>3} {'k_n':>10} {'|p_r|_n':>12} {'tau_n':>10}")
    for index, step in enumerate(derivation.trace):
        print(
            f"{index:>3} {step.k:>10,} {step.outer_partitions:>12,} "
            f"{step.tau:>10.5f}"
        )
    print(
        f"k = {derivation.k:,} (converged: {derivation.converged}, "
        f"oscillated: {derivation.oscillated})"
    )
    return 0


def _run_datasets(args: argparse.Namespace) -> int:
    print(
        f"{'dataset':>10} {'n (paper n)':>22} {'range':>16} "
        f"{'avg dur (paper)':>22}"
    )
    for name, generator in sorted(DATASET_GENERATORS.items()):
        paper = PAPER_DATASET_PROPERTIES[name]
        props = dataset_properties(
            generator(cardinality=args.cardinality, seed=args.seed)
        )
        print(
            f"{name:>10} "
            f"{props.cardinality:>9,} ({paper.cardinality:>10,}) "
            f"{props.time_range:>16,} "
            f"{props.avg_duration:>10,.0f} ({paper.avg_duration:>8,})"
        )
    return 0


def _run_save_index(args: argparse.Namespace) -> int:
    """The ``save-index`` path: build both OIP partitionings for a
    workload pair and persist them as an atomic snapshot."""
    from .engine.governor import QueryCancelledError
    from .storage.snapshot import save_index

    outer = _make_relation(args, args.seed, "outer")
    inner = _make_relation(args, args.seed + 1, "inner")
    token = CancellationToken()
    previous = _install_cancel_handlers(token)
    started = time.perf_counter()
    try:
        info = save_index(
            args.out,
            outer,
            inner,
            k=args.k,
            k_outer=args.k_outer,
            k_inner=args.k_inner,
            store_payloads=not args.no_payloads,
            cancellation=token,
            pre_rename_delay_s=(args.write_delay_ms or 0.0) / 1000.0,
        )
    except QueryCancelledError:
        # atomic_commit removed the temp file on the way out — an
        # interrupted save leaves no *.tmp litter.
        print("save-index: interrupted; no snapshot written")
        return 130
    except ValueError as error:
        raise SystemExit(str(error))
    finally:
        _restore_handlers(previous)
    elapsed = (time.perf_counter() - started) * 1e3
    print(
        f"saved {info['path']}: {info['bytes']:,} bytes, "
        f"generation {info['generation']}, "
        f"k_outer={info['k_outer']}, k_inner={info['k_inner']} "
        f"({info['outer_partitions']}+{info['inner_partitions']} "
        f"partitions) in {elapsed:.1f} ms"
    )
    if not info["payloads_stored"]:
        print(
            "  note: payloads not stored (unstable types or "
            "--no-payloads); journaled maintenance is unavailable"
        )
    return 0


def _run_fsck(args: argparse.Namespace) -> int:
    """The ``fsck`` path: validate a snapshot (and its journal), repair
    what is safely repairable, and report a machine-readable verdict.

    Exit codes: 0 the index is loadable (after any repairs), 1 it is
    corrupt beyond repair (a join would degrade to a rebuild), 2 there
    is no snapshot at the path.
    """
    from .storage.snapshot import fsck_index

    verdict = fsck_index(
        args.path, repair=not args.no_repair, deep=not args.no_deep
    )
    exit_code = 2 if not verdict["exists"] else (0 if verdict["ok"] else 1)
    if args.json:
        import json

        verdict = dict(verdict, exit_code=exit_code)
        sys.stdout.write(json.dumps(verdict, indent=2, sort_keys=True) + "\n")
    else:
        state = (
            "missing"
            if not verdict["exists"]
            else "ok"
            if verdict["ok"]
            else "corrupt"
        )
        print(f"{args.path}: {state}")
        if verdict["generation"] is not None:
            print(f"  generation: {verdict['generation']}")
        for problem in verdict["problems"]:
            print(f"  problem: {problem}")
        for repair in verdict["repairs"]:
            print(f"  repaired: {repair}")
    return exit_code


def _run_serve(args: argparse.Namespace) -> int:
    """The ``serve`` path: a long-lived query service over one snapshot.

    Speaks the line-delimited JSON protocol over TCP (default; an
    ephemeral port is announced in the ``ready`` event) or over
    stdin/stdout with ``--stdio``.  SIGTERM/SIGINT drain gracefully;
    SIGHUP triggers a hot snapshot refresh.  Exit codes: 0 clean stop,
    66 the snapshot is missing, 65 it exists but cannot serve.
    """
    import json
    import os

    from .obs.log import QueryLog
    from .service import JoinService, ServiceServer, serve_stdio
    from .service.errors import ScaleOutConfigError
    from .service.protocol import encode_message
    from .storage.snapshot import SnapshotError

    try:
        _check_scaleout_config(args)
    except ScaleOutConfigError as error:
        # Exit-code convention (PR 8): 64 = EX_USAGE, a configuration
        # the operator must fix; the structured detail goes to stderr
        # so supervisors can distinguish it from snapshot failures.
        print(
            json.dumps(
                {"event": "config_error", **error.to_wire()},
                sort_keys=True,
            ),
            file=sys.stderr,
        )
        return 64
    service_kwargs = dict(
        max_active=args.max_active,
        max_queued=args.max_queued,
        admit_timeout_s=args.admit_timeout_ms / 1e3,
        default_deadline_ms=args.default_deadline_ms,
        kernel=args.kernel,
        tracing=args.tracing,
        result_cache_size=args.result_cache_size,
    )
    if args.workers > 1:
        return _run_serve_workers(args, service_kwargs)
    query_log = None
    if args.query_log:
        query_log = QueryLog(
            path=args.query_log,
            sample_rate=args.log_sample_rate,
            slow_query_ms=args.slow_query_ms,
        )
    service = JoinService(
        args.index,
        query_log=query_log,
        **service_kwargs,
    )
    try:
        generation = service.start()
    except SnapshotError as error:
        print(
            f"serve: cannot load snapshot {args.index}: {error} "
            f"[reason={error.reason}]",
            file=sys.stderr,
        )
        return 66 if error.reason == "missing" else 65
    ready = {
        "event": "ready",
        "pid": os.getpid(),
        "generation": generation,
        "path": args.index,
    }
    if args.stdio:
        sys.stdout.buffer.write(encode_message(ready))
        sys.stdout.buffer.flush()
        serve_stdio(service, sys.stdin.buffer, sys.stdout.buffer)
        if service.status != "stopped":
            service.drain(
                timeout_s=args.drain_timeout_s,
                hard_stop_timeout_s=args.hard_stop_timeout_s,
            )
        if query_log is not None:
            query_log.close()
        return 0
    server = ServiceServer(
        service,
        host=args.host,
        port=args.port,
        drain_timeout_s=args.drain_timeout_s,
        hard_stop_timeout_s=args.hard_stop_timeout_s,
        metrics_port=args.metrics_port,
    ).start()
    ready["host"] = server.host
    ready["port"] = server.port
    if server.metrics_exporter is not None:
        ready["metrics_port"] = server.metrics_exporter.port
    print(json.dumps(ready, sort_keys=True), flush=True)

    def _drain(_signum, _frame):
        server.initiate_shutdown()

    def _refresh(_signum, _frame):
        import threading

        threading.Thread(
            target=lambda: _swallow_refresh(service), daemon=True
        ).start()

    previous: dict = {}
    for sig in (signal.SIGTERM, signal.SIGINT):
        try:
            previous[sig] = signal.signal(sig, _drain)
        except (ValueError, OSError):  # pragma: no cover - non-main thread
            pass
    hup = getattr(signal, "SIGHUP", None)
    if hup is not None:
        try:
            previous[hup] = signal.signal(hup, _refresh)
        except (ValueError, OSError):  # pragma: no cover
            pass
    try:
        while not server.wait(timeout=0.5):
            pass
    finally:
        _restore_handlers(previous)
        if query_log is not None:
            query_log.close()
    return 0


def _swallow_refresh(service) -> None:
    """SIGHUP refresh: a rejected swap must never kill the server."""
    from .service.errors import ServiceError

    try:
        service.refresh()
    except ServiceError:
        pass


def _check_scaleout_config(args: argparse.Namespace) -> None:
    """Validate the scale-out flags before any fork or snapshot load;
    raises :class:`~repro.service.errors.ScaleOutConfigError` (exit 64)
    on anything a retry cannot fix."""
    from .service.errors import ScaleOutConfigError
    from .service.workers import MAX_WORKERS

    if not 1 <= args.workers <= MAX_WORKERS:
        raise ScaleOutConfigError(
            f"--workers must be in [1, {MAX_WORKERS}], got {args.workers}",
            detail={"workers": args.workers},
        )
    if args.workers > 1 and args.stdio:
        raise ScaleOutConfigError(
            "--workers > 1 requires TCP mode; --stdio is one process "
            "by construction"
        )
    if args.workers > 1 and args.metrics_port is not None:
        raise ScaleOutConfigError(
            "--metrics-port is not supported with --workers > 1 (each "
            "worker owns its own registry; scrape per-worker control "
            "ports or use the aggregated stats op)"
        )
    if args.result_cache_size < 0:
        raise ScaleOutConfigError(
            f"--result-cache-size must be >= 0, got "
            f"{args.result_cache_size}",
            detail={"result_cache_size": args.result_cache_size},
        )


def _run_serve_workers(
    args: argparse.Namespace, service_kwargs: dict
) -> int:
    """The ``serve --workers N`` path: fork a pre-fork pool and
    supervise it; the parent never serves a request."""
    import json
    import os

    from .service.workers import WorkerStartupError, WorkerSupervisor

    supervisor = WorkerSupervisor(
        args.index,
        workers=args.workers,
        host=args.host,
        port=args.port,
        service_kwargs=service_kwargs,
        drain_timeout_s=args.drain_timeout_s,
        hard_stop_timeout_s=args.hard_stop_timeout_s,
        query_log_path=args.query_log,
        log_sample_rate=args.log_sample_rate,
        slow_query_ms=args.slow_query_ms,
    )
    try:
        info = supervisor.start()
    except WorkerStartupError as error:
        print(f"serve: {error}", file=sys.stderr)
        supervisor.shutdown()
        return error.exit_code
    ready = {
        "event": "ready",
        "pid": os.getpid(),
        "generation": info["generation"],
        "path": args.index,
        "host": info["host"],
        "port": info["port"],
        "workers": info["workers"],
        "pids": info["pids"],
    }
    print(json.dumps(ready, sort_keys=True), flush=True)

    def _stop(_signum, _frame):
        supervisor.initiate_shutdown()

    def _refresh(_signum, _frame):
        supervisor.refresh()

    previous: dict = {}
    for sig in (signal.SIGTERM, signal.SIGINT):
        try:
            previous[sig] = signal.signal(sig, _stop)
        except (ValueError, OSError):  # pragma: no cover - non-main thread
            pass
    hup = getattr(signal, "SIGHUP", None)
    if hup is not None:
        try:
            previous[hup] = signal.signal(hup, _refresh)
        except (ValueError, OSError):  # pragma: no cover
            pass
    try:
        supervisor.run()
    finally:
        supervisor.shutdown()
        _restore_handlers(previous)
    return 0


def _run_stats(args: argparse.Namespace) -> int:
    """The ``stats`` path: fetch a running service's latency quantiles.

    ``--json`` captures the raw ``service_stats`` document — the format
    ``repro compare`` diffs against a second capture.
    """
    import json

    from .service import ServiceClient

    with ServiceClient(args.host, args.port, timeout_s=args.timeout_s) as c:
        stats = c.stats()
    if args.json:
        sys.stdout.write(json.dumps(stats, indent=2, sort_keys=True) + "\n")
        return 0
    print(
        f"service: {stats.get('status')} generation={stats.get('generation')} "
        f"uptime={stats.get('uptime_s', 0.0):.1f}s "
        f"queries={stats.get('queries_served', 0):,}"
    )
    for section in ("endpoints", "phases"):
        rows = stats.get(section) or {}
        if not rows:
            continue
        print(f"{section}:")
        print(
            f"  {'name':>24} {'count':>8} {'mean':>9} "
            f"{'p50':>9} {'p95':>9} {'p99':>9}"
        )
        for name in sorted(rows):
            row = rows[name]
            print(
                f"  {name:>24} {row['count']:>8,} {row['mean_ms']:>7.2f}ms "
                f"{row['p50_ms']:>7.2f}ms {row['p95_ms']:>7.2f}ms "
                f"{row['p99_ms']:>7.2f}ms"
            )
    counters = stats.get("counters") or {}
    if counters:
        print("counters:")
        for name in sorted(counters):
            print(f"  {name:>32}: {counters[name]:,}")
    tracing = stats.get("tracing")
    if tracing is not None:
        traces = stats.get("traces") or {}
        print(
            f"tracing: {'on' if tracing else 'off'}"
            + (
                f" (buffered={traces.get('buffered', 0)}, "
                f"dropped={traces.get('dropped', 0)})"
                if tracing
                else ""
            )
        )
    log = stats.get("log")
    if log:
        print(
            f"query log: emitted={log.get('emitted', 0):,} "
            f"dropped={log.get('dropped', 0):,}"
        )
    return 0


def _run_calibrate(args: argparse.Namespace) -> int:
    """The ``calibrate`` path: fit Equation 2 cost constants from run
    reports (``join --report``) — delegates to ``repro.obs.calibrate``."""
    from .obs.calibrate import main as calibrate_main

    forwarded = list(args.reports)
    if args.out:
        forwarded += ["--out", args.out]
    if args.json:
        forwarded.append("--json")
    return calibrate_main(forwarded)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Overlap Interval Partition Join (SIGMOD 2014) reproduction "
            "command line"
        ),
    )
    commands = parser.add_subparsers(dest="command", required=True)

    join_parser = commands.add_parser(
        "join", help="run one overlap join and print its cost counters"
    )
    _add_workload_arguments(join_parser)
    join_parser.add_argument(
        "--algorithm", default="oip", help="short algorithm name"
    )
    join_parser.add_argument(
        "--batch",
        type=int,
        default=None,
        metavar="N",
        help=(
            "batched execution (oip only): split the time range into N "
            "equal windows and run one windowed overlap query per window "
            "against a single shared OIP partitioning (one OIPCREATE, "
            "each partition decoded once); prints one summary line per "
            "query, and "
            "--report PATH writes per-query reports to PATH.qN"
        ),
    )
    join_parser.add_argument(
        "--index",
        default=None,
        metavar="PATH",
        help=(
            "load the OIP partitionings from a persisted snapshot "
            "(written by save-index) instead of re-partitioning (oip "
            "only); an unusable snapshot is an error with a distinct "
            "exit code: 66 when the snapshot is missing, 65 when it is "
            "corrupt or does not match the requested configuration"
        ),
    )
    join_parser.add_argument(
        "--index-fallback",
        action="store_true",
        help=(
            "with --index: degrade a missing/corrupt/mismatched "
            "snapshot to an in-memory rebuild with identical results "
            "(exit 0) instead of failing with exit 66/65"
        ),
    )
    _add_kernel_arguments(join_parser)
    _add_resilience_arguments(join_parser)
    _add_lifecycle_arguments(join_parser)
    _add_obs_arguments(join_parser)
    join_parser.set_defaults(handler=_run_single)

    compare_parser = commands.add_parser(
        "compare",
        help=(
            "run several algorithms on the same input, or diff two run "
            "reports (repro compare base.json other.json)"
        ),
    )
    compare_parser.add_argument(
        "reports",
        nargs="*",
        metavar="REPORT",
        help=(
            "two JSON paths to diff — either run reports (written by "
            "join --report) or service stats captures (written by "
            "stats --json); with no paths, runs the algorithm "
            "comparison instead"
        ),
    )
    compare_parser.add_argument(
        "--threshold",
        type=float,
        default=0.10,
        help=(
            "relative phase slow-down flagged as a regression in "
            "report-diff mode (default %(default)s)"
        ),
    )
    compare_parser.add_argument(
        "--json",
        action="store_true",
        help="emit the report diff as JSON (report-diff mode only)",
    )
    _add_workload_arguments(compare_parser)
    compare_parser.add_argument(
        "--algorithms",
        default="oip,lqt,rit,sgt,smj",
        help="comma-separated short names",
    )
    _add_kernel_arguments(compare_parser)
    _add_resilience_arguments(compare_parser)
    compare_parser.set_defaults(handler=_run_compare)

    derive_parser = commands.add_parser(
        "derive-k", help="run the Section 6.2 fixed-point iteration"
    )
    derive_parser.add_argument("--outer", type=int, required=True)
    derive_parser.add_argument("--inner", type=int, required=True)
    derive_parser.add_argument("--lambda-outer", type=float, default=0.0001)
    derive_parser.add_argument("--lambda-inner", type=float, default=0.0005)
    derive_parser.add_argument("--tuples-per-block", type=int, default=14)
    derive_parser.add_argument("--cpu-cost", type=float, default=0.5)
    derive_parser.add_argument("--io-cost", type=float, default=10.0)
    derive_parser.set_defaults(handler=_run_derive_k)

    datasets_parser = commands.add_parser(
        "datasets", help="print the Table 2 stand-in properties"
    )
    datasets_parser.add_argument("--cardinality", type=int, default=2_000)
    datasets_parser.add_argument("--seed", type=int, default=0)
    datasets_parser.set_defaults(handler=_run_datasets)

    save_parser = commands.add_parser(
        "save-index",
        help=(
            "build both OIP partitionings for a workload pair and "
            "persist them as an atomic, checksummed snapshot"
        ),
    )
    _add_workload_arguments(save_parser)
    save_parser.add_argument(
        "--out", required=True, metavar="PATH", help="snapshot destination"
    )
    save_parser.add_argument(
        "--k", type=int, default=None, help="pin one k for both relations"
    )
    save_parser.add_argument(
        "--k-outer", type=int, default=None, help="pin the outer relation's k"
    )
    save_parser.add_argument(
        "--k-inner", type=int, default=None, help="pin the inner relation's k"
    )
    save_parser.add_argument(
        "--no-payloads",
        action="store_true",
        help=(
            "omit tuple payloads from the snapshot (smaller file; "
            "journaled maintenance becomes unavailable)"
        ),
    )
    save_parser.add_argument(
        "--write-delay-ms",
        type=float,
        default=None,
        help=argparse.SUPPRESS,  # crash-window hook for recovery tests
    )
    save_parser.set_defaults(handler=_run_save_index)

    fsck_parser = commands.add_parser(
        "fsck",
        help=(
            "validate an index snapshot and its maintenance journal, "
            "repairing what is safely repairable"
        ),
    )
    fsck_parser.add_argument("path", help="snapshot path to check")
    fsck_parser.add_argument(
        "--json", action="store_true", help="emit the verdict as JSON"
    )
    fsck_parser.add_argument(
        "--no-repair",
        action="store_true",
        help="report only; leave stale temp files and torn journal tails",
    )
    fsck_parser.add_argument(
        "--no-deep",
        action="store_true",
        help="skip the per-tuple grid-position validation pass",
    )
    fsck_parser.set_defaults(handler=_run_fsck)

    serve_parser = commands.add_parser(
        "serve",
        help=(
            "run a long-lived, fault-tolerant query service over a "
            "persisted snapshot (line-delimited JSON over TCP or stdio)"
        ),
    )
    serve_parser.add_argument(
        "--index",
        required=True,
        metavar="PATH",
        help="snapshot to serve (written by save-index, with payloads)",
    )
    serve_parser.add_argument(
        "--host", default="127.0.0.1", help="bind address (default %(default)s)"
    )
    serve_parser.add_argument(
        "--port",
        type=int,
        default=0,
        help="TCP port; 0 picks an ephemeral port announced in the ready event",
    )
    serve_parser.add_argument(
        "--stdio",
        action="store_true",
        help="speak the protocol over stdin/stdout instead of TCP",
    )
    serve_parser.add_argument(
        "--max-active",
        type=int,
        default=4,
        help="concurrent query slots (default %(default)s)",
    )
    serve_parser.add_argument(
        "--max-queued",
        type=int,
        default=16,
        help="admission queue depth before shedding (default %(default)s)",
    )
    serve_parser.add_argument(
        "--admit-timeout-ms",
        type=float,
        default=5000.0,
        help="max queue wait before a query is shed (default %(default)s)",
    )
    serve_parser.add_argument(
        "--default-deadline-ms",
        type=float,
        default=None,
        help="per-query deadline applied when a request sets none",
    )
    serve_parser.add_argument(
        "--drain-timeout-s",
        type=float,
        default=30.0,
        help=(
            "graceful-drain window on SIGTERM/shutdown before in-flight "
            "queries are hard-stopped (default %(default)s)"
        ),
    )
    serve_parser.add_argument(
        "--hard-stop-timeout-s",
        type=float,
        default=5.0,
        help="wait after cancelling stragglers (default %(default)s)",
    )
    serve_parser.add_argument(
        "--kernel",
        default="auto",
        help="partition-pair join kernel for served queries",
    )
    serve_parser.add_argument(
        "--tracing",
        action="store_true",
        help=(
            "record per-query span trees (admission wait, snapshot pin, "
            "join phases) in a ring buffer served by the tracedump op"
        ),
    )
    serve_parser.add_argument(
        "--query-log",
        default=None,
        metavar="PATH",
        help=(
            "append one NDJSON event per query (and lifecycle event) to "
            "PATH; lines are written atomically under concurrency"
        ),
    )
    serve_parser.add_argument(
        "--slow-query-ms",
        type=float,
        default=None,
        help=(
            "queries at or above this latency are re-logged at warning "
            "level with slow=true, bypassing sampling"
        ),
    )
    serve_parser.add_argument(
        "--log-sample-rate",
        type=float,
        default=1.0,
        help=(
            "deterministic per-trace sampling rate for info-level query "
            "events (default %(default)s; warnings always pass)"
        ),
    )
    serve_parser.add_argument(
        "--metrics-port",
        type=int,
        default=None,
        help=(
            "also serve Prometheus text exposition on GET /metrics at "
            "this port (0 picks an ephemeral port announced in the "
            "ready event); TCP mode only"
        ),
    )
    serve_parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help=(
            "worker processes accepting on the shared listener; >1 "
            "forks a pre-fork pool so probe work scales past one core "
            "(default %(default)s; TCP mode only)"
        ),
    )
    serve_parser.add_argument(
        "--result-cache-size",
        type=int,
        default=0,
        help=(
            "per-worker LRU capacity for finished response bodies, "
            "keyed by (generation, request fingerprint); 0 disables "
            "(default %(default)s)"
        ),
    )
    serve_parser.set_defaults(handler=_run_serve)

    stats_parser = commands.add_parser(
        "stats",
        help=(
            "fetch a running service's latency quantiles (p50/p95/p99 "
            "per endpoint and join phase) over the wire"
        ),
    )
    stats_parser.add_argument(
        "--host", default="127.0.0.1", help="service host (default %(default)s)"
    )
    stats_parser.add_argument(
        "--port", type=int, required=True, help="service TCP port"
    )
    stats_parser.add_argument(
        "--timeout-s",
        type=float,
        default=30.0,
        help="connection/request timeout (default %(default)s)",
    )
    stats_parser.add_argument(
        "--json",
        action="store_true",
        help=(
            "emit the raw service_stats document (the format "
            "'repro compare' diffs against a second capture)"
        ),
    )
    stats_parser.set_defaults(handler=_run_stats)

    calibrate_parser = commands.add_parser(
        "calibrate",
        help=(
            "fit the Equation 2 cost constants (c_cpu, c_io in ms/op) "
            "from run reports via least squares"
        ),
    )
    calibrate_parser.add_argument(
        "reports",
        nargs="+",
        metavar="REPORT",
        help="run-report JSON paths written by join --report",
    )
    calibrate_parser.add_argument(
        "--out",
        default=None,
        metavar="PATH",
        help="write the calibration JSON (consumed by JoinPlanner)",
    )
    calibrate_parser.add_argument(
        "--json", action="store_true", help="print the calibration as JSON"
    )
    calibrate_parser.set_defaults(handler=_run_calibrate)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
