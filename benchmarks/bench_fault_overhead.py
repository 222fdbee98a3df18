"""Overhead of the resilience layer with fault injection disabled.

The checksum/retry substrate (PR: fault-injection and resilient
execution) sits on the hot read path of every algorithm, so this
benchmark documents what it costs when nothing goes wrong — the
deployment configuration.  It runs the Figure 8 workload (long-lived
mixture, 50% long-lived tuples) through the OIPJOIN and the sort-merge
baseline in three configurations:

* ``off``      — ``verify_checksums=False``, no fault policy: the read
  path of the pre-resilience code (reference),
* ``verify``   — the default: checksums verified on every read, no
  fault policy attached,
* ``chaos``    — the ``chaos`` fault profile, for context: what seeded
  transient faults, corruption re-reads and latency spikes add.

The figure to watch is the ``verify`` column's overhead over ``off``.
Measured with ``off`` and ``verify`` runs interleaved, min of 40
repeats at n=250 and of 8 at n=1200, on a 2-core VM: the OIPJOIN pays
+8–15 % (n=250) and +16–17 % (n=1200) — each block's CRC is computed on
its first read and remembered; the sort-merge baseline, which verifies
each ``Block`` through ``Block.reread`` on every read, pays +9–12 % and
+12–14 %.  The standalone script prints the overhead of one run; the
pytest entry holds a 25 % ceiling so CI noise cannot flake it.

    PYTHONPATH=src python benchmarks/bench_fault_overhead.py
    PYTHONPATH=src python benchmarks/bench_fault_overhead.py --smoke
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from typing import Dict, List, Optional, Sequence

if __package__:
    from .common import emit, heading, scaled, table
else:  # run as a script: the harness sits next to this file
    _SRC = os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"
    )
    if _SRC not in sys.path:
        sys.path.insert(0, _SRC)
    from common import emit, heading, scaled, table

from repro.baselines import ALGORITHMS
from repro.core.interval import Interval
from repro.storage.faults import fault_profile
from repro.workloads import long_lived_mixture

N = 1_200  # the Figure 8 scale
SMOKE_N = 250
TIME_RANGE = Interval(1, 2**20)
LONG_SHARE = 0.5
CONTENDERS = ("oip", "smj")

#: Constructor kwargs per configuration.
CONFIGURATIONS = ("off", "verify", "chaos")


def _config_kwargs(config: str) -> Dict:
    if config == "off":
        return {"verify_checksums": False}
    if config == "verify":
        return {}
    if config == "chaos":
        return {"fault_policy": fault_profile("chaos", seed=0)}
    raise ValueError(f"unknown configuration {config!r}")


def _relations(cardinality: int):
    outer = long_lived_mixture(
        cardinality, LONG_SHARE, TIME_RANGE, seed=1, name="r"
    )
    inner = long_lived_mixture(
        cardinality, LONG_SHARE, TIME_RANGE, seed=2, name="s"
    )
    return outer, inner


def _best_time(factory, kwargs, outer, inner, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        join = factory(**kwargs)
        started = time.perf_counter()
        join.join(outer, inner)
        best = min(best, time.perf_counter() - started)
    return best


def run_overhead_sweep(cardinality: int, repeats: int = 5) -> Dict:
    """Time every contender in every configuration.

    Returns ``{"rows": table rows, "overheads": {algorithm: fractional
    verify-over-off overhead}}``.
    """
    outer, inner = _relations(cardinality)
    rows: List[List[object]] = []
    overheads: Dict[str, float] = {}
    for name in CONTENDERS:
        times = {
            config: _best_time(
                ALGORITHMS[name],
                _config_kwargs(config),
                outer,
                inner,
                repeats,
            )
            for config in CONFIGURATIONS
        }
        overhead = times["verify"] / times["off"] - 1.0
        overheads[name] = overhead
        rows.append(
            [
                name,
                f"{times['off'] * 1e3:.1f}",
                f"{times['verify'] * 1e3:.1f}",
                f"{overhead * 100:+.1f}%",
                f"{times['chaos'] * 1e3:.1f}",
            ]
        )
    return {"rows": rows, "overheads": overheads}


def _report(cardinality: int, sweep: Dict) -> None:
    heading(
        "Resilience-layer overhead — Figure 8 workload "
        f"(n = {cardinality:,} per relation, {LONG_SHARE:.0%} long-lived)"
    )
    table(
        ["algorithm", "off ms", "verify ms", "verify overhead", "chaos ms"],
        sweep["rows"],
    )
    emit(
        "('verify' is the shipped default: checksums on, no fault "
        "policy; the CI ceiling is 25% over 'off'.  'chaos' adds the "
        "seeded chaos profile's retries and re-reads for context.)"
    )


def test_fault_overhead(benchmark):
    sweep = benchmark.pedantic(
        lambda: run_overhead_sweep(scaled(N)), rounds=1, iterations=1
    )
    _report(scaled(N), sweep)
    # Lenient CI ceiling over the documented +8-17%.
    for name, overhead in sweep["overheads"].items():
        assert overhead < 0.25, (
            f"{name}: verification overhead {overhead:.1%} exceeds the "
            "25% CI ceiling"
        )


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Resilience-layer overhead benchmark"
    )
    parser.add_argument("--smoke", action="store_true", help="tiny input")
    parser.add_argument("--cardinality", type=int, default=None)
    parser.add_argument("--repeats", type=int, default=None)
    args = parser.parse_args(argv)

    if args.smoke:
        cardinality = args.cardinality or SMOKE_N
        repeats = args.repeats or 1
    else:
        cardinality = args.cardinality or scaled(N)
        repeats = args.repeats or 5

    sweep = run_overhead_sweep(cardinality, repeats=repeats)
    _report(cardinality, sweep)
    return 0


if __name__ == "__main__":
    sys.exit(main())
