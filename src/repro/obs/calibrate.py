"""Fit the paper's cost constants to this machine from run reports.

Section 6.2 of the paper models a join as ``cost = #cpu * c_cpu +
#io * c_io`` (Equation 2) and *assumes* constants for the two unit
costs (0.5 ns per comparison, 10 ns per 512-byte block in the
main-memory setting).  Figure 7 then shows the model tracking measured
runtime.  This module closes that loop for the reproduction: every
:func:`~repro.obs.report.build_report` artifact already records both
sides of the equation — the ``counters`` snapshot (``cpu_comparisons``,
``block_reads`` + ``block_writes``, ``partition_accesses``) and the
measured ``elapsed_ms`` — so a corpus of reports is a regression
dataset, and the constants can be *measured* per machine instead of
guessed.  Two more constants price what the paper's model leaves out:
``c_access`` the fixed work of one partition access
(:attr:`CostWeights.access <repro.storage.metrics.CostWeights.access>`)
and ``c_visit`` one inner tuple handed to a kernel call
(:attr:`CostWeights.visit <repro.storage.metrics.CostWeights.visit>`,
read from the join's ``inner_visits`` detail).

A row holds the work the join *executed*.  The naive kernel compares
every candidate, so its row counts ``cpu_comparisons``; the ``sweep``
and ``numpy`` kernels never touch a false hit, so their rows count no
comparison, and ``c_cpu`` is fitted from naive rows alone.

The fit is ordinary least squares through the origin (the model has no
constant term: zero work costs zero):

    minimize  sum_i (cpu_i * c_cpu + io_i * c_io + accesses_i * c_access
                     + visits_i * c_visit - elapsed_i)^2

solved from the normal equations.  Degenerate corpora are handled
explicitly:

* if the predictors are collinear (or one never varies), the fit drops
  the predictor with the least signal until the rest are independent;
* a negative fitted constant (possible when predictors correlate and
  noise dominates) is clamped to zero and the other constants refit —
  ``CostWeights`` requires non-negative weights.

Fitted constants are in **milliseconds per operation**; only their
ratio matters for the paper's ``k`` derivation, and their absolute
scale is exactly what turns the planner's modelled cost into a
predicted latency.  ``Calibration.to_weights()`` yields a
:class:`~repro.storage.metrics.CostWeights` that
:class:`~repro.engine.planner.JoinPlanner` and
:class:`~repro.core.join.OIPJoin` accept directly.

CLI:

    python -m repro calibrate report1.json report2.json ... \
        [--out calibration.json]
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..storage.metrics import CostWeights
from .report import load_report

__all__ = [
    "CALIBRATION_VERSION",
    "Observation",
    "Calibration",
    "CalibrationError",
    "observation_from_report",
    "excess_over_fastest",
    "fit_observations",
    "calibrate_reports",
    "load_calibration",
    "save_calibration",
    "main",
]

#: Version 2 added ``access_ms`` and version 3 ``visit_ms``; an older
#: file loads with 0 for each.
CALIBRATION_VERSION = 3

#: A normalised Gram determinant (1 for orthogonal predictors, 0 for
#: collinear ones) below this is treated as collinear and triggers the
#: fallback to fewer predictors.
_SINGULAR_EPS = 1e-12


class CalibrationError(ValueError):
    """Raised when a corpus cannot support a fit (empty, all-zero, ...)."""


@dataclass(frozen=True)
class Observation:
    """One report reduced to the cost model's regression row."""

    cpu: float
    io: float
    elapsed_ms: float
    source: str = ""
    accesses: float = 0.0
    visits: float = 0.0

    @property
    def predictors(self) -> Tuple[float, float, float, float]:
        """``(cpu, io, accesses, visits)``: the order of the fitted
        constants ``(cpu_ms, io_ms, access_ms, visit_ms)``."""
        return (self.cpu, self.io, self.accesses, self.visits)


def observation_from_report(
    report: Dict[str, object], source: str = ""
) -> Observation:
    """Extract the predictors and response from a run report: the
    counters, and the ``inner_visits`` and ``kernel`` of its details (a
    ``sweep`` or ``numpy`` join executes no candidate comparison)."""
    counters = report.get("counters")
    if not isinstance(counters, dict):
        raise CalibrationError(f"report {source or '<dict>'} has no counters")
    elapsed = report.get("elapsed_ms")
    if not isinstance(elapsed, (int, float)):
        raise CalibrationError(
            f"report {source or '<dict>'} has no elapsed_ms"
        )
    config = report.get("config")
    details = config.get("details") if isinstance(config, dict) else None
    if not isinstance(details, dict):
        details = {}
    cpu = float(counters.get("cpu_comparisons", 0))
    if details.get("kernel") in ("sweep", "numpy"):
        cpu = 0.0
    io = float(counters.get("block_reads", 0)) + float(
        counters.get("block_writes", 0)
    )
    return Observation(
        cpu=cpu,
        io=io,
        elapsed_ms=float(elapsed),
        source=source,
        accesses=float(counters.get("partition_accesses", 0)),
        visits=float(details.get("inner_visits", 0)),
    )


@dataclass(frozen=True)
class Calibration:
    """Fitted per-machine cost constants, in milliseconds per operation."""

    cpu_ms: float
    io_ms: float
    r_squared: float
    samples: int
    residual_rms_ms: float
    access_ms: float = 0.0
    visit_ms: float = 0.0

    def predict_ms(
        self, cpu: float, io: float, accesses: float = 0.0, visits: float = 0.0
    ) -> float:
        """Predicted latency for a (cpu, io, accesses, visits) workload —
        Equation 2 plus the partition-access and visit terms."""
        return (
            cpu * self.cpu_ms
            + io * self.io_ms
            + accesses * self.access_ms
            + visits * self.visit_ms
        )

    def to_weights(self) -> CostWeights:
        """The fitted constants as planner/join-ready cost weights."""
        if max(self.cpu_ms, self.io_ms, self.access_ms, self.visit_ms) <= 0.0:
            raise CalibrationError(
                "calibration fitted every constant to zero; corpus carries "
                "no cost signal"
            )
        return CostWeights(
            cpu=self.cpu_ms,
            io=self.io_ms,
            access=self.access_ms,
            visit=self.visit_ms,
        )

    def as_dict(self) -> Dict[str, object]:
        return {
            "kind": "cost_calibration",
            "version": CALIBRATION_VERSION,
            "cpu_ms": self.cpu_ms,
            "io_ms": self.io_ms,
            "access_ms": self.access_ms,
            "visit_ms": self.visit_ms,
            "r_squared": self.r_squared,
            "samples": self.samples,
            "residual_rms_ms": self.residual_rms_ms,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "Calibration":
        if data.get("kind") != "cost_calibration":
            raise CalibrationError(
                f"not a calibration document (kind={data.get('kind')!r})"
            )
        return cls(
            cpu_ms=float(data["cpu_ms"]),  # type: ignore[arg-type]
            io_ms=float(data["io_ms"]),  # type: ignore[arg-type]
            r_squared=float(data.get("r_squared", 0.0)),  # type: ignore[arg-type]
            samples=int(data.get("samples", 0)),  # type: ignore[arg-type]
            residual_rms_ms=float(data.get("residual_rms_ms", 0.0)),  # type: ignore[arg-type]
            access_ms=float(data.get("access_ms", 0.0)),  # type: ignore[arg-type]
            visit_ms=float(data.get("visit_ms", 0.0)),  # type: ignore[arg-type]
        )


def _solve(gram: List[List[float]], rhs: List[float]) -> Optional[List[float]]:
    """The normal equations ``gram @ c = rhs`` by Gaussian elimination
    with partial pivoting, or ``None`` when *gram* is (near-)singular
    relative to its diagonal."""
    size = len(rhs)
    scale = 1.0
    for index in range(size):
        scale *= gram[index][index]
    rows = [list(row) + [value] for row, value in zip(gram, rhs)]
    det = 1.0
    for col in range(size):
        pivot = max(range(col, size), key=lambda row: abs(rows[row][col]))
        if rows[pivot][col] == 0.0:
            return None
        rows[col], rows[pivot] = rows[pivot], rows[col]
        det *= rows[col][col]
        for row in range(col + 1, size):
            factor = rows[row][col] / rows[col][col]
            for index in range(col, size + 1):
                rows[row][index] -= factor * rows[col][index]
    if abs(det) <= _SINGULAR_EPS * scale:
        return None
    solution = [0.0] * size
    for row in reversed(range(size)):
        tail = sum(
            rows[row][index] * solution[index]
            for index in range(row + 1, size)
        )
        solution[row] = (rows[row][size] - tail) / rows[row][row]
    return solution


def _fit(columns: List[List[float]], ts: List[float]) -> Dict[int, float]:
    """Non-negative through-origin fit: predictor index -> constant.

    Collinear predictors are dropped, least signal (sum of squares)
    first; negative constants are clamped to zero and the rest refit.
    """
    active = [index for index, column in enumerate(columns) if any(column)]
    while active:
        gram = [
            [
                sum(a * b for a, b in zip(columns[i], columns[j]))
                for j in active
            ]
            for i in active
        ]
        rhs = [sum(x * t for x, t in zip(columns[i], ts)) for i in active]
        solution = _solve(gram, rhs)
        if solution is None:
            weakest = min(
                range(len(active)), key=lambda at: gram[at][at]
            )
            del active[weakest]
            continue
        if all(value >= 0.0 for value in solution):
            return dict(zip(active, solution))
        active = [
            index for index, value in zip(active, solution) if value >= 0.0
        ]
    return {}


def excess_over_fastest(
    observations: Sequence[Observation],
) -> List[Observation]:
    """Each of *observations* — runs of one join under different
    configurations (granule counts) — minus the fastest of them: the
    work it adds and the time that work costs.

    A through-origin fit of absolute runtimes has to explain a join's
    fixed cost (decoding, result pairs) with whichever predictor never
    drops to zero.  A ``k`` derivation only ranks configurations of one
    join, so it is fitted to excesses, in which that fixed cost cancels
    (the response stays ``>= 0``; predictors may go negative)."""
    fastest = min(observations, key=lambda o: o.elapsed_ms)
    return [
        Observation(
            cpu=o.cpu - fastest.cpu,
            io=o.io - fastest.io,
            elapsed_ms=o.elapsed_ms - fastest.elapsed_ms,
            source=o.source,
            accesses=o.accesses - fastest.accesses,
            visits=o.visits - fastest.visits,
        )
        for o in observations
    ]


def fit_observations(observations: Sequence[Observation]) -> Calibration:
    """Solve the through-origin least-squares fit with degenerate fallbacks."""
    rows = [o for o in observations if o.elapsed_ms >= 0.0]
    if not rows:
        raise CalibrationError("no usable observations (need elapsed_ms >= 0)")
    columns = [list(column) for column in zip(*(o.predictors for o in rows))]
    ts = [o.elapsed_ms for o in rows]
    if not any(value > 0.0 for column in columns for value in column):
        raise CalibrationError(
            "no usable observations (all counters are zero)"
        )
    fitted = _fit(columns, ts)
    constants = [fitted.get(index, 0.0) for index in range(len(columns))]

    residuals = [
        t - sum(c * x for c, x in zip(constants, o.predictors))
        for o, t in zip(rows, ts)
    ]
    ss_res = sum(r * r for r in residuals)
    mean_t = sum(ts) / len(ts)
    ss_tot = sum((t - mean_t) ** 2 for t in ts)
    r_squared = 1.0 - ss_res / ss_tot if ss_tot > 0.0 else (
        1.0 if ss_res == 0.0 else 0.0
    )
    rms = (ss_res / len(rows)) ** 0.5
    cpu_ms, io_ms, access_ms, visit_ms = constants
    return Calibration(
        cpu_ms=cpu_ms,
        io_ms=io_ms,
        r_squared=r_squared,
        samples=len(rows),
        residual_rms_ms=rms,
        access_ms=access_ms,
        visit_ms=visit_ms,
    )


def calibrate_reports(paths: Iterable[str]) -> Calibration:
    """Load + validate each run report and fit the corpus."""
    observations = []
    for path in paths:
        observations.append(observation_from_report(load_report(path), path))
    return fit_observations(observations)


def save_calibration(path: str, calibration: Calibration) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(calibration.as_dict(), handle, indent=2, sort_keys=True)
        handle.write("\n")


def load_calibration(path: str) -> Calibration:
    with open(path, "r", encoding="utf-8") as handle:
        return Calibration.from_dict(json.load(handle))


def format_calibration(calibration: Calibration) -> str:
    defaults = CostWeights.main_memory()
    lines = [
        f"samples          : {calibration.samples}",
        f"c_cpu            : {calibration.cpu_ms:.3e} ms/comparison",
        f"c_io             : {calibration.io_ms:.3e} ms/block",
        f"c_access         : {calibration.access_ms:.3e} ms/partition access",
        f"c_visit          : {calibration.visit_ms:.3e} ms/inner tuple visit",
        f"r^2              : {calibration.r_squared:.4f}",
        f"residual rms     : {calibration.residual_rms_ms:.3f} ms",
    ]
    if calibration.io_ms > 0.0:
        lines.append(
            f"cpu/io ratio     : {calibration.cpu_ms / calibration.io_ms:.4f}"
            f" (paper default {defaults.ratio:.4f})"
        )
    return "\n".join(lines)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-calibrate",
        description=(
            "Fit cost-model CPU, IO, partition-access and visit "
            "constants (Equation 2) from run reports"
        ),
    )
    parser.add_argument("reports", nargs="+", help="run-report JSON files")
    parser.add_argument(
        "--out", help="write the fitted calibration JSON here"
    )
    parser.add_argument(
        "--json", action="store_true", help="print the calibration as JSON"
    )
    args = parser.parse_args(argv)
    try:
        calibration = calibrate_reports(args.reports)
    except (CalibrationError, OSError, ValueError) as error:
        print(f"calibration failed: {error}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(calibration.as_dict(), indent=2, sort_keys=True))
    else:
        print(format_calibration(calibration))
    if args.out:
        save_calibration(args.out, calibration)
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
