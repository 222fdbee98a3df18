"""Runtime against ``k``, beside Equation 1's prediction, and the
engine weights fitted to it.

The paper's self-adjusting ``k`` (Section 6.2) minimises Equation 1,
``cost(k) = x * APA + y * AFR``, whose ``x`` prices a partition access
as one block IO plus two comparisons.  This script measures where the
runtime minimum really lies on this engine and fits the weights that
put Equation 1's minimiser there:

* **sweep** — for each of perfbench's three relation sets (generated
  here exactly as ``perfbench/scenarios.py`` does for seed 1) and each
  kernel (``sweep``, ``numpy``), ``OIPJoin(k=k)`` is timed over
  :data:`K_GRID`: min over interleaved rounds of the mean over the set's
  relation pairs.  Each point records its counters and Equation 1's
  predicted overhead cost under the paper's and the fitted weights.
* **fit** — each point becomes one run report (its ``elapsed_ms`` the
  timed minimum), and :func:`repro.obs.calibrate.fit_observations` —
  the fit ``python -m repro calibrate`` runs — fits ``c_cpu``, ``c_io``
  and ``c_access`` per kernel and over both.  ``--reports DIR`` writes
  the reports, so ``python -m repro calibrate DIR/*.json`` repeats it.
* **check** — per relation set and kernel: the ``k`` each weight set
  derives, the measured optimum, and the runtime at the derived ``k``.

The checked-in :meth:`CostWeights.engine
<repro.storage.metrics.CostWeights.engine>` constants are the
``fit.pooled`` weights of a full run, recorded in ``BENCH_k.json`` with
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
from repro.obs.calibrate import fit_observations, observation_from_report
from repro.obs.report import write_report
from repro.storage.device import DeviceProfile
from repro.storage.metrics import CostWeights
from repro.workloads.synthetic import long_lived_mixture, uniform_relation

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RESULTS_FILE = os.path.join(ROOT, "BENCH_k.json")

K_GRID = (1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64, 108)
SMOKE_K_GRID = (1, 4, 16)
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


DEVICE = DeviceProfile.main_memory()


def derived_k(pairs: Sequence[Pair], weights: CostWeights) -> int:
    """The (inner) ``k`` a join derives under *weights*, for the first
    pair (a set's pairs share their generator)."""
    outer, inner = pairs[0]
    policy = GranulePolicy(weights=weights)
    return policy.counts(outer, inner, policy.derive(outer, inner, DEVICE))[1]


def predicted_cost(pairs: Sequence[Pair], weights: CostWeights, k: int) -> float:
    """Equation 1's overhead cost at *k*, mean over the pairs."""
    policy = GranulePolicy(weights=weights)
    return sum(
        policy.cost_model(outer, inner, DEVICE).overhead_cost(k)
        for outer, inner in pairs
    ) / len(pairs)


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
    kernels: Sequence[str],
    points: Sequence[Tuple[int, int]],
    rounds: int,
) -> Dict[Tuple[str, int, int], Dict[str, Any]]:
    """Time every ``(kernel, k_outer, k_inner)`` point: ``rounds``
    interleaved rounds, each the mean join time over *pairs*; keeps
    every round and the run report of one join per pair."""
    timed: Dict[Tuple[str, int, int], Dict[str, Any]] = {}
    for kernel in kernels:
        for ko, ki in points:
            reports = [
                OIPJoin(
                    k_outer=ko, k_inner=ki, kernel=kernel, collect_report=True
                ).join(outer, inner).report
                for outer, inner in pairs
            ]
            timed[(kernel, ko, ki)] = {"reports": reports, "times": []}
    for _ in range(rounds):
        for kernel in kernels:
            for ko, ki in points:
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
    }


def reports_for(point: Dict[str, Any]) -> List[Dict[str, Any]]:
    """The point's run reports, each timed at the point's minimum."""
    best = min(point["times"])
    return [dict(report, elapsed_ms=best) for report in point["reports"]]


def weights_record(weights: CostWeights) -> Dict[str, float]:
    return {"cpu": weights.cpu, "io": weights.io, "access": weights.access}


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


def run(
    grid: Sequence[int],
    sides: Sequence[int],
    rounds: int,
    reports_dir: Optional[str] = None,
) -> Dict[str, Any]:
    kernels = ("sweep", "numpy") if numpy_available() else ("sweep",)
    sets = relation_sets()
    measured = {
        name: sweep(pairs, kernels, configurations(grid, sides), rounds)
        for name, pairs in sets.items()
    }

    reports: Dict[str, List[Dict[str, Any]]] = {kernel: [] for kernel in kernels}
    for points in measured.values():
        for (kernel, _, _), point in points.items():
            reports[kernel].extend(reports_for(point))
    if reports_dir is not None:
        os.makedirs(reports_dir, exist_ok=True)
        for kernel, documents in reports.items():
            for index, report in enumerate(documents):
                write_report(
                    report, os.path.join(reports_dir, f"{kernel}-{index:03d}.json")
                )
    fits = {
        kernel: fit_observations([observation_from_report(r) for r in documents])
        for kernel, documents in reports.items()
    }
    fits["pooled"] = fit_observations(
        [observation_from_report(r) for documents in reports.values() for r in documents]
    )
    # Time the k each weight set derives wherever the grid missed it.
    paper = CostWeights.main_memory()
    candidates = {
        "paper": paper,
        **{f"fit.{kernel}": fit.to_weights() for kernel, fit in fits.items()},
    }
    derived_ks = {
        name: {label: derived_k(pairs, w) for label, w in candidates.items()}
        for name, pairs in sets.items()
    }
    for name, pairs in sets.items():
        missing = sorted(
            {k for k in derived_ks[name].values() if (kernels[0], k, k) not in measured[name]}
        )
        if missing:
            measured[name].update(
                sweep(pairs, kernels, [(k, k) for k in missing], rounds)
            )

    document: Dict[str, Any] = {
        "benchmark": "bench_k_model",
        "what": (
            "OIPJoin runtime against pinned k per kernel (min over "
            "interleaved rounds of the mean over a set's pairs), beside "
            "Equation 1's predicted overhead cost; c_cpu/c_io/c_access "
            "fitted through the origin by repro.obs.calibrate over every "
            "point, unequal (k_outer, k_inner) pairs included"
        ),
        **environment(),
        "rounds": rounds,
        "k_grid": list(grid),
        "per_side_grid": list(sides),
        "weights": {
            **{
                label: weights_record(weights)
                for label, weights in candidates.items()
            },
            # CostWeights.engine() when this ran: the fit.pooled weights
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
        points = measured[name]
        derived = derived_ks[name]
        entry: Dict[str, Any] = {
            "pairs": len(pairs),
            "n_per_side": pairs[0][0].cardinality,
            "derived_k": derived,
            "kernels": {},
        }
        shared = sorted(ko for (_, ko, ki) in points if ko == ki)
        for kernel in kernels:
            rows = {k: point_record(points[(kernel, k, k)]) for k in shared}
            for k, row in rows.items():
                row["predicted_cost"] = {
                    label: predicted_cost(pairs, weights, k)
                    for label, weights in candidates.items()
                    if label in ("paper", "fit.pooled")
                }
            best_k = min(shared, key=lambda k: rows[k]["ms_min"])
            best = rows[best_k]
            entry["kernels"][kernel] = {
                "measured_optimum_k": best_k,
                "measured_optimum_ms": best["ms_min"],
                # Round-to-round spread at the optimum: the noise a
                # derived k's runtime is judged against.
                "noise": round(best["ms_median"] / best["ms_min"] - 1.0, 4),
                "paper_minimiser_k": min(
                    shared, key=lambda k: rows[k]["predicted_cost"]["paper"]
                ),
                "fit_pooled_minimiser_k": min(
                    shared,
                    key=lambda k: rows[k]["predicted_cost"]["fit.pooled"],
                ),
                "points": {str(k): row for k, row in rows.items()},
                "per_side_ms": {
                    f"{ko},{ki}": round(min(point["times"]), 3)
                    for (kern, ko, ki), point in points.items()
                    if kern == kernel and ko != ki
                },
            }
        document["sets"][name] = entry
    return document


def summary(document: Dict[str, Any]) -> List[str]:
    lines = []
    for kernel, fit in document["fit"].items():
        w = fit["weights"]
        lines.append(
            f"fit {kernel:6s}: c_cpu={w['cpu']:.3e} c_io={w['io']:.3e} "
            f"c_access={w['access']:.3e} ms  (r^2={fit['r_squared']})"
        )
    for name, entry in document["sets"].items():
        derived = entry["derived_k"]
        lines.append(f"{name}: derived k {derived}")
        for kernel, row in entry["kernels"].items():
            points = row["points"]
            at = {
                label: points[str(derived[label])]["ms_min"]
                for label in ("paper", "fit.pooled")
            }
            lines.append(
                f"  {kernel:6s} optimum k={row['measured_optimum_k']} "
                f"{row['measured_optimum_ms']:.1f} ms (noise "
                f"{row['noise']:.0%}); at derived k: paper "
                f"{at['paper']:.1f}, fit.pooled {at['fit.pooled']:.1f} ms; "
                f"grid minimiser of Equation 1: paper "
                f"k={row['paper_minimiser_k']}, fit.pooled "
                f"k={row['fit_pooled_minimiser_k']}"
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
    rounds = SMOKE_ROUNDS if args.smoke else ROUNDS
    document = run(grid, sides, rounds, reports_dir=args.reports)
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
