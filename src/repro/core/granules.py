"""Cost model and derivation of the optimal granule count ``k``
(paper Section 6.2).

The OIPJOIN is *self-adjusting*: before partitioning, it derives the
number of granules ``k`` that minimises the overhead cost

    cost(k) = x * APA + y * AFR                      (Equation 1)

where

    x = |p_r| * (c_io + 2 * c_cpu + c_access)
    y = |p_r| * n_s * (c_io / b  +  2 * (n_r / |p_r|) * 2 * c_cpu)

``x`` prices partition accesses (one extra block IO per accessed inner
partition plus two index comparisons) and ``y`` prices false hits (extra
block transfers at ``b`` tuples per block plus two endpoint comparisons per
false hit on either side).  ``c_access`` is not in the paper: it prices
the fixed work this engine does per accessed partition (navigation, the
run read, charging, the kernel call), and is ``0`` under the paper's
weights.  Substituting the analytical
``APA <= tau * (k^2 + k + 1) / 3`` (Theorem 2) and ``AFR < 1/k``
(Theorem 1) and setting the derivative to zero yields a cubic in ``k``
whose positive real root the paper states in closed form, with the compact
approximation ``k ~ cbrt(3y / (2 x tau))``.

Because ``|p_r|`` and ``tau`` themselves depend on ``k`` (Lemma 3), the
paper determines ``k`` by the fixed-point iteration of Equation (2),
starting from ``k_0 = 1`` and recomputing ``|p_r|_n`` and ``tau_n`` from
``k_n`` until convergence; if the integer rounding makes the sequence
oscillate between two values, the final ``k`` is their average.  Example 8
and Figure 5 show the iteration; :func:`derive_k` reproduces it and records
the trace.

:class:`GranulePolicy` is the one place a join, a batch or a snapshot
decides ``k``: pinned or derived, with which inputs, capped per side,
and recorded in (and checked against) a snapshot's meta.  A derived
``k`` uses the caller's weights, else :meth:`CostWeights.engine
<repro.storage.metrics.CostWeights.engine>` (fitted to this engine);
the paper's reproductions pass the paper's weights
(``CostWeights.main_memory()``, or a device's ``weights``).

Equation 1 prices the *naive* kernel, which compares every candidate
pair.  The ``sweep`` and ``numpy`` kernels are output-sensitive sweeps
that never touch a false hit, so for them more granules only add work:
partition accesses, block reads and inner tuples revisited by one more
outer partition.  Under weights that price this engine's per-partition
work (:attr:`CostWeights.prices_partitions
<repro.storage.metrics.CostWeights.prices_partitions>`, as the engine's
do) a join on those kernels therefore runs at ``k = 1``, which
``BENCH_k.json`` measures fastest or within noise on every relation set
it times; the paper's weights price no such work, so under them
Equation 2 decides for every kernel, as printed.  A join resolves its
kernel first (:func:`choose_kernel`) and derives ``k`` for it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace
from typing import Any, Dict, List, Optional, Tuple

from ..storage.device import DeviceProfile
from ..storage.metrics import CostWeights
from .kernels import KERNELS, numpy_available
from .oip import tightening_factor, used_partition_bound
from .relation import TemporalRelation

__all__ = [
    "NUMPY_FROM_CANDIDATES",
    "GranulePolicy",
    "choose_kernel",
    "estimated_candidates",
    "JoinCostModel",
    "KDerivation",
    "derive_k",
    "cost_model_for",
    "approximate_k",
    "exact_k",
    "weights_label",
]


#: Estimated candidates (:func:`estimated_candidates`) from which an
#: unpinned kernel is ``numpy`` (when numpy is importable); below it,
#: ``sweep``.  numpy is as fast as the sweep or faster at every size
#: measured (EXPERIMENTS.md), but importing it adds ~14 MB to the
#: resident memory of a process that otherwise never loads it — a cost
#: only joins of this size repay.
NUMPY_FROM_CANDIDATES = 150_000.0


def estimated_candidates(
    outer_cardinality: int,
    inner_cardinality: int,
    outer_duration_fraction: float,
    inner_duration_fraction: float,
) -> float:
    """Probe-phase candidate pairs, estimated pessimistically: two
    random intervals with duration fractions ``lambda_r`` and
    ``lambda_s`` overlap with probability about ``lambda_r +
    lambda_s``, applied to the nested-loop bound ``n_r * n_s``."""
    coverage = min(1.0, outer_duration_fraction + inner_duration_fraction)
    return outer_cardinality * inner_cardinality * coverage


def choose_kernel(
    outer: TemporalRelation,
    inner: TemporalRelation,
    requested: str = "auto",
) -> str:
    """The kernel a join of *outer* and *inner* runs for the *requested*
    one (``"auto"`` or a name in :data:`~repro.core.kernels.KERNELS`).

    ``"auto"`` is ``numpy`` from :data:`NUMPY_FROM_CANDIDATES` estimated
    candidates up when numpy is importable, ``sweep`` otherwise; a
    requested ``"numpy"`` without numpy runs ``sweep`` (bit-identically:
    every kernel finds the same matches).  numpy is imported only to
    answer whether it is importable, so a join below the threshold never
    loads it."""
    if requested == "auto":
        estimated = estimated_candidates(
            outer.cardinality,
            inner.cardinality,
            outer.duration_fraction if not outer.is_empty else 0.0,
            inner.duration_fraction if not inner.is_empty else 0.0,
        )
        if estimated >= NUMPY_FROM_CANDIDATES and numpy_available():
            return "numpy"
        return "sweep"
    if requested not in KERNELS:
        raise ValueError(
            f"unknown join kernel {requested!r}; choose from "
            f"{('auto',) + KERNELS}"
        )
    if requested == "numpy" and not numpy_available():
        return "sweep"
    return requested


@dataclass(frozen=True)
class JoinCostModel:
    """All inputs of the Section 6.2 cost model for one join.

    ``outer_*``/``inner_*`` describe the relations (``n_r``/``n_s`` and the
    duration fractions ``lambda_r``/``lambda_s``); ``tuples_per_block`` is
    ``b``; ``weights`` carries ``c_cpu``/``c_io`` (and ``c_access``);
    ``kernel`` is the kernel the join runs
    (:attr:`prices_candidates`).
    """

    outer_cardinality: int
    inner_cardinality: int
    outer_duration_fraction: float
    inner_duration_fraction: float
    tuples_per_block: int = 14
    weights: CostWeights = CostWeights.main_memory()
    kernel: str = "naive"

    def __post_init__(self) -> None:
        if self.outer_cardinality < 0 or self.inner_cardinality < 0:
            raise ValueError("cardinalities must be non-negative")
        if self.tuples_per_block < 1:
            raise ValueError(
                f"tuples per block must be >= 1, got {self.tuples_per_block}"
            )
        for frac in (self.outer_duration_fraction, self.inner_duration_fraction):
            if not 0.0 <= frac <= 1.0:
                raise ValueError(
                    f"duration fractions must be within [0, 1], got {frac}"
                )

    # -- Lemma 3 quantities for a candidate k -------------------------------

    def outer_partitions(self, k: int) -> int:
        """``|p_r|_n``: bound on non-empty outer partitions (Lemma 3)."""
        return max(
            used_partition_bound(
                k, self.outer_duration_fraction, self.outer_cardinality
            ),
            1,
        )

    def tightening(self, k: int) -> float:
        """``tau_n``: inner used/possible partition ratio."""
        return tightening_factor(
            k, self.inner_duration_fraction, self.inner_cardinality
        )

    # -- Equation (1) ---------------------------------------------------------

    def x_term(self, outer_partitions: int) -> float:
        """``x = |p_r| * (c_io + 2 c_cpu + c_access)``."""
        weights = self.weights
        return outer_partitions * (
            weights.io + 2 * weights.cpu + weights.access
        )

    def y_term(self, outer_partitions: int) -> float:
        """``y = |p_r| * n_s * (c_io/b + 4 * n_r * c_cpu / |p_r|)``."""
        per_false_hit = (
            self.weights.io / self.tuples_per_block
            + 2 * (self.outer_cardinality / outer_partitions)
            * 2
            * self.weights.cpu
        )
        return outer_partitions * self.inner_cardinality * per_false_hit

    def overhead_cost(self, k: int) -> float:
        """``cost(k) = x * APA + y * AFR`` with the analytical APA/AFR.

        This is the curve of Figure 7(a); its minimiser is the derived k.
        """
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        outer_parts = self.outer_partitions(k)
        tau = self.tightening(k)
        apa = min(
            tau * (k * k + k + 1) / 3.0,
            float(self.inner_cardinality),
        )
        afr = 1.0 / k
        return self.x_term(outer_parts) * apa + self.y_term(outer_parts) * afr

    @property
    def prices_candidates(self) -> bool:
        """Whether Equation 1 prices this join: on the naive kernel, and
        on any kernel under weights that price no per-partition work
        (the paper's, :attr:`CostWeights.prices_partitions`).  Otherwise
        the kernel never touches a false hit and :func:`derive_k` gives
        ``k = 1``."""
        return self.kernel == "naive" or not self.weights.prices_partitions


def approximate_k(x: float, y: float, tau: float) -> float:
    """The paper's compact approximation ``k ~ cbrt(3y / (2 x tau))``."""
    if x <= 0 or tau <= 0:
        raise ValueError("x and tau must be positive")
    if y <= 0:
        return 1.0
    return (3.0 * y / (2.0 * x * tau)) ** (1.0 / 3.0)


def exact_k(x: float, y: float, tau: float) -> float:
    """Positive real root of ``d/dk [x tau (k^2+k+1)/3 + y/k] = 0``.

    The stationarity condition is ``x tau (2k/3 + 1/3) = y / k^2``, i.e.
    the depressed-cubic problem ``2 x tau k^3 + x tau k^2 - 3 y = 0`` whose
    closed form the paper prints.  We evaluate the same root via the stated
    radical expression, falling back to the approximation when the inner
    square root would go negative (tiny ``y``).
    """
    if x <= 0 or tau <= 0:
        raise ValueError("x and tau must be positive")
    if y <= 0:
        return 1.0
    xt = x * tau
    discriminant = y * (81.0 * y - xt)
    if discriminant < 0:
        return approximate_k(x, y, tau)
    radical = (162.0 * y - xt + 18.0 * math.sqrt(discriminant)) * xt * xt
    if radical <= 0:
        return approximate_k(x, y, tau)
    cube_root = radical ** (1.0 / 3.0)
    return cube_root / (6.0 * xt) + xt / (3.0 * cube_root) - 1.0 / 6.0


@dataclass
class KDerivation:
    """Result of the Equation (2) fixed-point iteration.

    ``trace`` holds one row per step — ``(k_n, |p_r|_n, tau_n)`` exactly as
    the table in Example 8 lists them — so Figure 5 can be regenerated from
    the derivation object directly.
    """

    k: int
    converged: bool
    oscillated: bool
    trace: List["KStep"] = field(default_factory=list)
    #: The model the iteration ran on, for Equation 1's cost at a
    #: chosen ``k`` (:meth:`JoinCostModel.overhead_cost`).
    model: Optional[JoinCostModel] = field(
        default=None, repr=False, compare=False
    )

    @property
    def steps(self) -> int:
        return len(self.trace)


@dataclass(frozen=True)
class KStep:
    """One iteration row: the candidate ``k_n`` and the derived
    ``|p_r|_n`` and ``tau_n`` it implies."""

    k: int
    outer_partitions: int
    tau: float


def derive_k(
    model: JoinCostModel,
    max_steps: int = 64,
    use_exact_root: bool = True,
) -> KDerivation:
    """Equation (2): iterate ``k_{n+1} = f(|p_r|_n, tau_n)`` from ``k_0 = 1``.

    Convergence: stop when ``k_{n+1} == k_n``.  Oscillation: when the
    sequence alternates between two values (the paper notes this can happen
    because of the ceiling functions and integer calculus), the final ``k``
    is the average of the two.
    """
    if model.inner_cardinality == 0 or model.outer_cardinality == 0:
        return KDerivation(
            k=1, converged=True, oscillated=False, trace=[], model=model
        )
    if not model.prices_candidates:
        # Nothing the kernel executes falls as k grows (see the module
        # docstring), so one granule per side is the minimum.
        return KDerivation(
            k=1, converged=True, oscillated=False, trace=[], model=model
        )

    solver = exact_k if use_exact_root else approximate_k
    k = 1
    trace: List[KStep] = []
    seen: List[int] = [k]

    for _ in range(max_steps):
        outer_parts = model.outer_partitions(k)
        tau = model.tightening(k)
        trace.append(KStep(k=k, outer_partitions=outer_parts, tau=tau))
        x = model.x_term(outer_parts)
        y = model.y_term(outer_parts)
        next_k = max(1, round(solver(x, y, tau)))
        if next_k == k:
            return KDerivation(
                k=k, converged=True, oscillated=False, trace=trace,
                model=model,
            )
        if len(seen) >= 2 and next_k == seen[-2]:
            # Two-cycle: the paper takes the average of the two values.
            final = max(1, round((next_k + k) / 2))
            trace.append(
                KStep(
                    k=final,
                    outer_partitions=model.outer_partitions(final),
                    tau=model.tightening(final),
                )
            )
            return KDerivation(
                k=final, converged=True, oscillated=True, trace=trace,
                model=model,
            )
        seen.append(next_k)
        k = next_k

    return KDerivation(
        k=k, converged=False, oscillated=False, trace=trace, model=model
    )


def cost_model_for(
    outer: TemporalRelation,
    inner: TemporalRelation,
    device: Optional[DeviceProfile] = None,
    weights: Optional[CostWeights] = None,
) -> JoinCostModel:
    """Build the cost model from two relations and a device profile.

    ``weights`` overrides the device's cost weights when the experiment
    sweeps the ``c_cpu / c_io`` ratio independently of the block size
    (Figure 6).
    """
    if device is None:
        device = DeviceProfile.main_memory()
    return JoinCostModel(
        outer_cardinality=outer.cardinality,
        inner_cardinality=inner.cardinality,
        outer_duration_fraction=(
            outer.duration_fraction if not outer.is_empty else 0.0
        ),
        inner_duration_fraction=(
            inner.duration_fraction if not inner.is_empty else 0.0
        ),
        tuples_per_block=device.tuples_per_block,
        weights=weights if weights is not None else device.weights,
    )


def weights_label(weights: CostWeights) -> str:
    """Which cost model a weight set is: ``"engine"``
    (:meth:`CostWeights.engine`), ``"paper"`` (no per-partition term,
    Equation 1 as printed) or ``"fitted"`` (any other)."""
    if weights == CostWeights.engine():
        return "engine"
    return "fitted" if weights.prices_partitions else "paper"


# The policy calls these names, bound at import, not the public ones: a
# profiler that wraps both the public functions and a caller of the
# policy (perfbench wraps ``OIPJoin._derive_k``) then times each
# derivation once.
_cost_model_for = cost_model_for
_derive_k = derive_k

#: The meta keys a snapshot must match besides ``tuples_per_block``,
#: per mode (see ``GranulePolicy.mismatch``).
_MATCHED_META = {
    "fixed": ("k_mode", "pinned_k"),
    "per_side": ("k_mode", "pinned_k_outer", "pinned_k_inner"),
    "derived": (
        "k_mode", "use_exact_root", "use_histogram_statistics", "weights"
    ),
}


@dataclass(frozen=True)
class GranulePolicy:
    """How a join chooses its granule counts (Section 6.2).

    ``k`` is either *derived* for the join's kernel
    (:func:`choose_kernel`) — from ``weights`` (else
    :meth:`CostWeights.engine`), by the Equation (2) fixed point (the
    exact root or the approximation) over Lemma-3 or duration-histogram
    statistics, or ``1`` for the fast kernels under weights that price
    per-partition work — or *pinned*: one ``k`` (Figure 7's sweep) or a
    ``k_outer``/``k_inner`` pair (the shared-``k`` ablation).  Either way
    :meth:`counts` caps it to each relation's time range.  A snapshot
    records the policy in its meta (:meth:`meta`, :meth:`from_meta`),
    and loads only into a join whose policy it matches
    (:meth:`mismatch`); a derived snapshot is priced for the ``"auto"``
    kernel, and so is every join that uses one, whatever kernel it
    runs.
    """

    k: Optional[int] = None
    k_outer: Optional[int] = None
    k_inner: Optional[int] = None
    weights: Optional[CostWeights] = None
    use_exact_root: bool = True
    use_histogram_statistics: bool = False

    def __post_init__(self) -> None:
        if self.k is not None and self.k < 1:
            raise ValueError(f"k must be >= 1 when pinned, got {self.k}")
        if (self.k_outer is None) != (self.k_inner is None):
            raise ValueError("k_outer and k_inner must be given together")
        if self.k_outer is not None:
            if self.k is not None:
                raise ValueError("pass either k or (k_outer, k_inner)")
            if self.k_outer < 1 or self.k_inner < 1:
                raise ValueError(
                    f"per-side granule counts must be >= 1, got "
                    f"({self.k_outer}, {self.k_inner})"
                )

    @property
    def mode(self) -> str:
        """``"fixed"``, ``"per_side"`` or ``"derived"``."""
        if self.k is not None:
            return "fixed"
        return "per_side" if self.k_outer is not None else "derived"

    def resolved(self) -> "GranulePolicy":
        """This policy with :meth:`CostWeights.engine` when it has no
        weights."""
        if self.weights is not None:
            return self
        return replace(self, weights=CostWeights.engine())

    def keywords(self) -> Dict[str, Any]:
        """The fields as ``OIPJoin``/``save_index`` keywords."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def derive(
        self,
        outer: TemporalRelation,
        inner: TemporalRelation,
        device: DeviceProfile,
        kernel: str = "auto",
    ) -> Optional[KDerivation]:
        """The derivation of ``k`` for a join on *kernel* (resolved by
        :func:`choose_kernel` when ``"auto"``), or ``None`` when ``k``
        is pinned."""
        if self.mode != "derived":
            return None
        return _derive_k(
            self.cost_model(outer, inner, device, kernel),
            use_exact_root=self.use_exact_root,
        )

    def cost_model(
        self,
        outer: TemporalRelation,
        inner: TemporalRelation,
        device: DeviceProfile,
        kernel: str = "auto",
    ) -> JoinCostModel:
        """The Section 6.2 model this policy derives ``k`` from for a
        join on *kernel*."""
        weights = self.resolved().weights
        if kernel == "auto":
            kernel = choose_kernel(outer, inner)
        if self.use_histogram_statistics:
            from .statistics import histogram_cost_model

            return histogram_cost_model(
                outer,
                inner,
                tuples_per_block=device.tuples_per_block,
                weights=weights,
                kernel=kernel,
            )
        model = _cost_model_for(outer, inner, device=device, weights=weights)
        return replace(model, kernel=kernel)

    def counts(
        self,
        outer: TemporalRelation,
        inner: TemporalRelation,
        derivation: Optional[KDerivation],
    ) -> Tuple[int, int]:
        """``(k_outer, k_inner)``, derived or pinned, each capped to its
        relation's time range: more granules than time points cannot
        reduce false hits further (``d`` is already 1)."""
        if derivation is not None:
            k_outer = k_inner = derivation.k
        elif self.k is not None:
            k_outer = k_inner = self.k
        else:
            k_outer, k_inner = self.k_outer, self.k_inner
        return (
            max(1, min(k_outer, outer.time_range_duration)),
            max(1, min(k_inner, inner.time_range_duration)),
        )

    def meta(self) -> Dict[str, Any]:
        """The snapshot meta keys recording this policy."""
        weights = self.weights
        return {
            "weights": None if weights is None else weights.as_dict(),
            "use_exact_root": self.use_exact_root,
            "use_histogram_statistics": self.use_histogram_statistics,
            "k_mode": self.mode,
            "pinned_k": self.k,
            "pinned_k_outer": self.k_outer,
            "pinned_k_inner": self.k_inner,
        }

    @classmethod
    def from_meta(cls, meta: Dict[str, Any]) -> "GranulePolicy":
        """The policy a snapshot's *meta* was saved under."""
        weights = meta.get("weights")
        return cls(
            k=meta.get("pinned_k"),
            k_outer=meta.get("pinned_k_outer"),
            k_inner=meta.get("pinned_k_inner"),
            weights=CostWeights(**weights) if weights is not None else None,
            use_exact_root=bool(meta.get("use_exact_root", True)),
            use_histogram_statistics=bool(
                meta.get("use_histogram_statistics", False)
            ),
        )

    def mismatch(
        self, meta: Dict[str, Any], tuples_per_block: int
    ) -> Optional[Tuple[str, Any, Any]]:
        """The first meta key on which a snapshot differs from this
        (resolved) policy on a device of *tuples_per_block*, as ``(key,
        stored, wanted)``, or ``None`` when the snapshot holds the
        partitioning this policy would build.  The block size, mode and
        pinned values must match; the derivation inputs only when ``k``
        is derived."""
        wanted = dict(self.meta(), tuples_per_block=tuples_per_block)
        for key in ("tuples_per_block",) + _MATCHED_META[self.mode]:
            if meta.get(key) != wanted[key]:
                return key, meta.get(key), wanted[key]
        return None
