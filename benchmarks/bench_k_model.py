"""Runtime against ``k`` per kernel, beside the cost model's
prediction, and the engine weights fitted to it.

The paper's self-adjusting ``k`` (Section 6.2) minimises Equation 1,
``cost(k) = x * APA + y * AFR``, which prices every candidate pair.
That is what the naive kernel executes; the ``sweep`` and ``numpy``
kernels never touch a false hit, so more granules only add partition
accesses, block IOs and inner-tuple visits, and under weights that
price that work (the engine's) the granule policy runs them at
``k = 1``.  This script measures where the runtime minimum really lies
on this engine and fits the weights of both kinds of work:

* **sweep** — for each of perfbench's three relation sets (generated
  here exactly as ``perfbench/scenarios.py`` does for seed 1) and each
  kernel, ``OIPJoin(k=k)`` is timed over :data:`K_GRID` (the naive
  kernel over the coarser :data:`NAIVE_K_GRID`, where a join takes
  milliseconds, not seconds): min over interleaved rounds of the mean
  over the set's relation pairs.  Each point records its counters, its
  inner-tuple visits and Equation 1's predicted cost under the paper's
  and the fitted weights wherever Equation 1 chooses that kernel's
  ``k`` (else ``null``).
* **fit** — each point becomes one run report (its ``elapsed_ms`` the
  timed minimum), and :func:`repro.obs.calibrate.fit_observations` —
  the fit ``python -m repro calibrate`` runs — fits ``c_cpu``,
  ``c_io``, ``c_access`` and ``c_visit`` per kernel and over all of
  them (a fast kernel's rows count no comparison, so ``c_cpu`` comes
  from the naive rows).  ``--reports DIR`` writes the reports, so
  ``python -m repro calibrate DIR/*.json`` repeats it.
* **check** — per relation set and kernel: the ``k`` each weight set
  derives for that kernel, the measured optimum, and the runtime at the
  derived ``k``.
* **unequal** — uniform pairs of unequal sizes (:data:`UNEQUAL_SETS`),
  where granules could keep a small side's partitions away from most
  of a large side: the fast kernels over :data:`UNEQUAL_K_GRID`, with
  the ``k`` the engine's weights derive (not part of the fit).

The checked-in :meth:`CostWeights.engine
<repro.storage.metrics.CostWeights.engine>` constants are the
``fit.engine`` weights of a full run, recorded in ``BENCH_k.json`` with
``cpu_count`` and the Python and numpy versions.

    PYTHONPATH=src python benchmarks/bench_k_model.py            # BENCH_k.json
    PYTHONPATH=src python benchmarks/bench_k_model.py --smoke    # quick look
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import random
import subprocess
import sys
import time
from dataclasses import replace
from typing import Any, Dict, List, Optional, Sequence, Tuple

if not __package__:  # run as a script: put src/ on the path
    _SRC = os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"
    )
    if _SRC not in sys.path:
        sys.path.insert(0, _SRC)

from repro.core.granules import GranulePolicy
from repro.core.interval import Interval
from repro.core.join import OIPJoin
from repro.core.kernels import numpy_available
from repro.obs.calibrate import (
    Observation,
    excess_over_fastest,
    fit_observations,
    observation_from_report,
)
from repro.obs.report import write_report
from repro.storage.device import DeviceProfile
from repro.storage.metrics import CostWeights
from repro.workloads.synthetic import long_lived_mixture, uniform_relation

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RESULTS_FILE = os.path.join(ROOT, "BENCH_k.json")

K_GRID = (1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64, 108)
SMOKE_K_GRID = (1, 4, 16)
NAIVE_K_GRID = (8, 16, 32, 64, 108)
SMOKE_NAIVE_K_GRID = (16, 64)
#: Per-side granule counts; every unequal pair is timed for the fit.
SIDE_GRID = (1, 4, 16, 64)
SMOKE_SIDE_GRID = (1, 16)
ROUNDS = 7
SMOKE_ROUNDS = 2
#: The Figure 8(a) domain perfbench's long-lived workloads use.
FIGURE8_DOMAIN = Interval(1, 20_000)
#: ``adhoc-longlived`` joins 16 pairs in rotation; the first few suffice
#: for a runtime-against-k curve.
ADHOC_PAIRS = 4
#: ``(n_outer, n_inner, max duration fraction)`` of the unequal-size
#: uniform pairs the fast kernels are checked on.
UNEQUAL_SETS = (
    (200, 20_000, 0.001),
    (20_000, 200, 0.001),
    (500, 30_000, 0.0001),
    (1_000, 30_000, 0.01),
)
SMOKE_UNEQUAL_SETS = UNEQUAL_SETS[:1]
UNEQUAL_K_GRID = (1, 2, 4, 8, 16, 32, 64)
SMOKE_UNEQUAL_K_GRID = (1, 16)

Pair = Tuple[Any, Any]


def _long_lived(rng: random.Random, name: str):
    return long_lived_mixture(
        1200, 0.3, time_range=FIGURE8_DOMAIN, seed=rng.getrandbits(32), name=name
    )


def relation_sets(seed: int = 1) -> Dict[str, List[Pair]]:
    """perfbench's three relation sets for *seed*, as its scenarios
    generate them."""
    adhoc = random.Random(f"adhoc:{seed}")
    serve = random.Random(f"serve:{seed}")
    maintain = random.Random(f"maintain:{seed}")
    return {
        "adhoc-longlived": [
            (_long_lived(adhoc, "outer"), _long_lived(adhoc, "inner"))
            for _ in range(ADHOC_PAIRS)
        ],
        "serve-lookup-uniform": [
            tuple(
                uniform_relation(
                    6000,
                    max_duration_fraction=0.001,
                    seed=serve.getrandbits(32),
                    name=name,
                )
                for name in ("outer", "inner")
            )
        ],
        "maintain-longlived": [
            (_long_lived(maintain, "outer"), _long_lived(maintain, "inner"))
        ],
    }


def unequal_sets(
    shapes: Sequence[Tuple[int, int, float]], seed: int = 1
) -> Dict[str, List[Pair]]:
    """One uniform pair per ``(n_outer, n_inner, lambda)`` of *shapes*."""
    rng = random.Random(f"unequal:{seed}")
    return {
        f"uniform {n_outer}x{n_inner} lambda={fraction}": [
            tuple(
                uniform_relation(
                    n,
                    max_duration_fraction=fraction,
                    seed=rng.getrandbits(32),
                    name=name,
                )
                for n, name in ((n_outer, "outer"), (n_inner, "inner"))
            )
        ]
        for n_outer, n_inner, fraction in shapes
    }


DEVICE = DeviceProfile.main_memory()


def derived_k(pairs: Sequence[Pair], weights: CostWeights, kernel: str) -> int:
    """The (inner) ``k`` a join on *kernel* derives under *weights*, for
    the first pair (a set's pairs share their generator)."""
    outer, inner = pairs[0]
    policy = GranulePolicy(weights=weights)
    derivation = policy.derive(outer, inner, DEVICE, kernel)
    return policy.counts(outer, inner, derivation)[1]


def predicted_cost(
    pairs: Sequence[Pair], weights: CostWeights, k: int, kernel: str
) -> Optional[float]:
    """Equation 1's cost at *k*, mean over the pairs, when it is what a
    join on *kernel* derives ``k`` from under *weights*; else ``None``
    (a fast kernel under weights that price per-partition work runs at
    ``k = 1``)."""
    policy = GranulePolicy(weights=weights)
    models = [
        policy.cost_model(outer, inner, DEVICE, kernel) for outer, inner in pairs
    ]
    if not models[0].prices_candidates:
        return None
    return sum(model.overhead_cost(k) for model in models) / len(models)


def grid_minimiser(rows: Dict[int, Dict[str, Any]], label: str) -> Optional[int]:
    """The grid ``k`` at which *label*'s predicted cost is least, or
    ``None`` when that cost does not choose ``k``."""
    priced = [k for k, row in rows.items() if row["predicted_cost"][label] is not None]
    if not priced:
        return None
    return min(priced, key=lambda k: rows[k]["predicted_cost"][label])


def configurations(
    grid: Sequence[int], sides: Sequence[int]
) -> List[Tuple[int, int]]:
    """The ``(k_outer, k_inner)`` points timed on one set for the fit: a
    shared ``k`` over *grid* and every unequal pair over *sides*.
    Unequal pairs vary the blocks read per partition access (few inner
    partitions are large), which the shared-``k`` curve alone ties to
    the access count, so the fit can tell ``c_io`` from ``c_access``."""
    points = [(k, k) for k in grid]
    points += [(ko, ki) for ko in sides for ki in sides if ko != ki]
    return points


def sweep(
    pairs: Sequence[Pair],
    points: Dict[str, Sequence[Tuple[int, int]]],
    rounds: int,
) -> Dict[Tuple[str, int, int], Dict[str, Any]]:
    """Time every ``(kernel, k_outer, k_inner)`` point of *points* (per
    kernel): ``rounds`` interleaved rounds, each the mean join time over
    *pairs*; keeps every round and the run report of one join per
    pair."""
    timed: Dict[Tuple[str, int, int], Dict[str, Any]] = {}
    for kernel, grid in points.items():
        for ko, ki in grid:
            reports = [
                OIPJoin(
                    k_outer=ko, k_inner=ki, kernel=kernel, collect_report=True
                ).join(outer, inner).report
                for outer, inner in pairs
            ]
            timed[(kernel, ko, ki)] = {"reports": reports, "times": []}
    for _ in range(rounds):
        for kernel, grid in points.items():
            for ko, ki in grid:
                elapsed = 0.0
                for outer, inner in pairs:
                    join = OIPJoin(k_outer=ko, k_inner=ki, kernel=kernel)
                    gc.collect()
                    started = time.perf_counter()
                    join.join(outer, inner)
                    elapsed += time.perf_counter() - started
                timed[(kernel, ko, ki)]["times"].append(
                    elapsed / len(pairs) * 1e3
                )
    return timed


def point_record(point: Dict[str, Any]) -> Dict[str, Any]:
    """One point's timing and mean counters."""
    reports = point["reports"]
    times = sorted(point["times"])

    def mean(key: str) -> float:
        return sum(r["counters"][key] for r in reports) / len(reports)

    return {
        "ms_min": round(times[0], 3),
        "ms_median": round(times[len(times) // 2], 3),
        "cpu_comparisons": mean("cpu_comparisons"),
        "block_ios": mean("block_reads") + mean("block_writes"),
        "partition_accesses": mean("partition_accesses"),
        "inner_visits": sum(
            r["config"]["details"]["inner_visits"] for r in reports
        )
        / len(reports),
    }


def mean_observation(point: Dict[str, Any]) -> Observation:
    """The point's work, mean over its pairs' run reports, and its
    timed minimum."""
    rows = [observation_from_report(r) for r in point["reports"]]
    return Observation(
        cpu=sum(o.cpu for o in rows) / len(rows),
        io=sum(o.io for o in rows) / len(rows),
        elapsed_ms=min(point["times"]),
        accesses=sum(o.accesses for o in rows) / len(rows),
        visits=sum(o.visits for o in rows) / len(rows),
    )


def reports_for(point: Dict[str, Any]) -> List[Dict[str, Any]]:
    """The point's run reports, each timed at the point's minimum."""
    best = min(point["times"])
    return [dict(report, elapsed_ms=best) for report in point["reports"]]


def weights_record(weights: CostWeights) -> Dict[str, float]:
    return {
        "cpu": weights.cpu,
        "io": weights.io,
        "access": weights.access,
        "visit": weights.visit,
    }


def environment() -> Dict[str, Any]:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = None
    numpy_version = None
    if numpy_available():
        import numpy

        numpy_version = numpy.__version__
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "commit": commit,
    }


def check_unequal(
    shapes: Sequence[Tuple[int, int, float]],
    grid: Sequence[int],
    kernels: Sequence[str],
    rounds: int,
) -> Dict[str, Any]:
    """Per unequal-size pair and fast kernel: runtime over *grid*, the
    measured optimum and the ``k`` the engine's weights derive."""
    checked: Dict[str, Any] = {}
    for name, pairs in unequal_sets(shapes).items():
        timed = sweep(pairs, {kernel: [(k, k) for k in grid] for kernel in kernels}, rounds)
        entry: Dict[str, Any] = {}
        for kernel in kernels:
            ms = {k: min(timed[(kernel, k, k)]["times"]) for k in grid}
            best_k = min(grid, key=lambda k: ms[k])
            times = sorted(timed[(kernel, best_k, best_k)]["times"])
            entry[kernel] = {
                "derived_k": derived_k(pairs, CostWeights.engine(), kernel),
                "measured_optimum_k": best_k,
                "measured_optimum_ms": round(ms[best_k], 3),
                "noise": round(times[len(times) // 2] / times[0] - 1.0, 4),
                "ms_min": {str(k): round(v, 3) for k, v in ms.items()},
            }
        checked[name] = entry
    return checked


def run(
    grid: Sequence[int],
    sides: Sequence[int],
    naive_grid: Sequence[int],
    rounds: int,
    reports_dir: Optional[str] = None,
    unequal: Sequence[Tuple[int, int, float]] = UNEQUAL_SETS,
    unequal_grid: Sequence[int] = UNEQUAL_K_GRID,
) -> Dict[str, Any]:
    fast = ("sweep", "numpy") if numpy_available() else ("sweep",)
    kernels = ("naive",) + fast
    points = {kernel: configurations(grid, sides) for kernel in fast}
    points["naive"] = [(k, k) for k in naive_grid]
    sets = relation_sets()
    measured = {name: sweep(pairs, points, rounds) for name, pairs in sets.items()}

    reports: Dict[str, List[Dict[str, Any]]] = {kernel: [] for kernel in kernels}
    for timed in measured.values():
        for (kernel, _, _), point in timed.items():
            reports[kernel].extend(reports_for(point))
    if reports_dir is not None:
        os.makedirs(reports_dir, exist_ok=True)
        for kernel, documents in reports.items():
            for index, report in enumerate(documents):
                write_report(
                    report, os.path.join(reports_dir, f"{kernel}-{index:03d}.json")
                )
    # Per set and kernel: each point's excess over the fastest point.
    excess: Dict[str, List[Observation]] = {kernel: [] for kernel in kernels}
    for timed in measured.values():
        for kernel in kernels:
            excess[kernel] += excess_over_fastest(
                [
                    mean_observation(point)
                    for (kern, _, _), point in timed.items()
                    if kern == kernel
                ]
            )
    fits = {kernel: fit_observations(rows) for kernel, rows in excess.items()}
    fits["fast"] = fit_observations([o for kernel in fast for o in excess[kernel]])
    # The engine's weights: the naive kernel's comparison price, and the
    # fast kernels' prices of everything else.
    fast_weights = fits["fast"].to_weights()
    pooled = replace(fast_weights, cpu=fits["naive"].cpu_ms)
    # Time the k each weight set derives wherever the grid missed it.
    candidates = {
        "paper": CostWeights.main_memory(),
        **{f"fit.{kernel}": fit.to_weights() for kernel, fit in fits.items()},
        "fit.engine": pooled,
    }
    checked = ("paper", "fit.engine")
    derived_ks = {
        name: {
            label: {kernel: derived_k(pairs, candidates[label], kernel) for kernel in kernels}
            for label in checked
        }
        for name, pairs in sets.items()
    }
    for name, pairs in sets.items():
        missing = {
            kernel: sorted(
                {
                    ks[kernel]
                    for ks in derived_ks[name].values()
                    if (kernel, ks[kernel], ks[kernel]) not in measured[name]
                }
            )
            for kernel in kernels
        }
        extra = {kernel: [(k, k) for k in ks] for kernel, ks in missing.items() if ks}
        if extra:
            measured[name].update(sweep(pairs, extra, rounds))

    document: Dict[str, Any] = {
        "benchmark": "bench_k_model",
        "what": (
            "OIPJoin runtime against pinned k per kernel (min over "
            "interleaved rounds of the mean over a set's pairs), beside "
            "Equation 1's predicted cost where it chooses that kernel's k "
            "(naive, or any kernel under the paper's weights; sweep and "
            "numpy run at k=1 under weights that price per-partition "
            "work, null here); c_cpu/c_io/c_access/c_visit fitted "
            "through the origin by repro.obs.calibrate to every point's "
            "excess over the fastest point of its set and kernel, "
            "unequal (k_outer, k_inner) pairs included"
        ),
        **environment(),
        "rounds": rounds,
        "k_grid": list(grid),
        "naive_k_grid": list(naive_grid),
        "per_side_grid": list(sides),
        "weights": {
            **{
                label: weights_record(weights)
                for label, weights in candidates.items()
            },
            # CostWeights.engine() when this ran: the fit.engine weights
            # of the run that set them.
            "engine_in_force": weights_record(CostWeights.engine()),
        },
        "fit": {
            kernel: {
                "weights": weights_record(fit.to_weights()),
                "r_squared": round(fit.r_squared, 4),
                "residual_rms_ms": round(fit.residual_rms_ms, 3),
                "samples": fit.samples,
            }
            for kernel, fit in fits.items()
        },
        "sets": {},
    }
    for name, pairs in sets.items():
        timed = measured[name]
        entry: Dict[str, Any] = {
            "pairs": len(pairs),
            "n_per_side": pairs[0][0].cardinality,
            "kernels": {},
        }
        for kernel in kernels:
            shared = sorted(ko for (kern, ko, ki) in timed if kern == kernel and ko == ki)
            rows = {k: point_record(timed[(kernel, k, k)]) for k in shared}
            for k, row in rows.items():
                row["predicted_cost"] = {
                    label: predicted_cost(pairs, candidates[label], k, kernel)
                    for label in checked
                }
            best_k = min(shared, key=lambda k: rows[k]["ms_min"])
            best = rows[best_k]
            entry["kernels"][kernel] = {
                "derived_k": {
                    label: derived_ks[name][label][kernel] for label in checked
                },
                "measured_optimum_k": best_k,
                "measured_optimum_ms": best["ms_min"],
                # Round-to-round spread at the optimum: the noise a
                # derived k's runtime is judged against.
                "noise": round(best["ms_median"] / best["ms_min"] - 1.0, 4),
                "paper_minimiser_k": grid_minimiser(rows, "paper"),
                "fit_engine_minimiser_k": grid_minimiser(rows, "fit.engine"),
                "points": {str(k): row for k, row in rows.items()},
                "per_side_ms": {
                    f"{ko},{ki}": round(min(point["times"]), 3)
                    for (kern, ko, ki), point in timed.items()
                    if kern == kernel and ko != ki
                },
            }
        document["sets"][name] = entry
    document["unequal"] = check_unequal(unequal, unequal_grid, fast, rounds)
    return document


def summary(document: Dict[str, Any]) -> List[str]:
    lines = []
    for kernel, fit in document["fit"].items():
        w = fit["weights"]
        lines.append(
            f"fit {kernel:6s}: c_cpu={w['cpu']:.3e} c_io={w['io']:.3e} "
            f"c_access={w['access']:.3e} c_visit={w['visit']:.3e} ms  "
            f"(r^2={fit['r_squared']})"
        )
    for name, entry in document["sets"].items():
        lines.append(f"{name}:")
        for kernel, row in entry["kernels"].items():
            points = row["points"]
            derived = row["derived_k"]
            at = {label: points[str(k)]["ms_min"] for label, k in derived.items()}
            lines.append(
                f"  {kernel:6s} optimum k={row['measured_optimum_k']} "
                f"{row['measured_optimum_ms']:.1f} ms (noise "
                f"{row['noise']:.0%}); derived: paper k={derived['paper']} "
                f"{at['paper']:.1f} ms, fit.engine k={derived['fit.engine']} "
                f"{at['fit.engine']:.1f} ms; grid minimiser: paper "
                f"k={row['paper_minimiser_k']}, fit.engine "
                f"k={row['fit_engine_minimiser_k']}"
            )
    for name, entry in document["unequal"].items():
        lines.append(f"{name}:")
        for kernel, row in entry.items():
            lines.append(
                f"  {kernel:6s} optimum k={row['measured_optimum_k']} "
                f"{row['measured_optimum_ms']:.1f} ms (noise "
                f"{row['noise']:.0%}); k=1 {row['ms_min']['1']:.1f} ms; "
                f"engine derives k={row['derived_k']}"
            )
    return lines


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--smoke", action="store_true", help="a small grid, not recorded"
    )
    parser.add_argument("--out", default=None, help="JSON output path")
    parser.add_argument(
        "--reports", default=None, help="also write each point's run reports here"
    )
    args = parser.parse_args(argv)
    grid = SMOKE_K_GRID if args.smoke else K_GRID
    sides = SMOKE_SIDE_GRID if args.smoke else SIDE_GRID
    naive_grid = SMOKE_NAIVE_K_GRID if args.smoke else NAIVE_K_GRID
    rounds = SMOKE_ROUNDS if args.smoke else ROUNDS
    document = run(
        grid,
        sides,
        naive_grid,
        rounds,
        reports_dir=args.reports,
        unequal=SMOKE_UNEQUAL_SETS if args.smoke else UNEQUAL_SETS,
        unequal_grid=SMOKE_UNEQUAL_K_GRID if args.smoke else UNEQUAL_K_GRID,
    )
    for line in summary(document):
        print(line)
    out = args.out if args.out is not None else (None if args.smoke else RESULTS_FILE)
    if out is not None:
        with open(out, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
