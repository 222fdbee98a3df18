"""The Overlap Interval Partition Join — OIPJOIN (paper Section 6.1,
Algorithm 2).

The join partitions both inputs on the fly with :func:`~repro.core
.lazy_list.oip_create`, using one shared granule count ``k`` (the cost
analysis shows both ``O(k_r^2 k_s^2)`` partition accesses and the false-hit
term are minimised at ``k_r = k_s``).  ``k`` is derived by the Section 6.2
fixed-point iteration unless the caller pins it (Figure 7 sweeps a fixed
``k``; the self-adjustment ablation compares both modes).

For every outer partition node the algorithm issues an overlap query with
the *partition interval* as query interval (Lemma 1), walks the inner lazy
partition list down while ``j >= s`` and right while ``i <= e``, fetches
each relevant inner partition (one partition access + its block IOs) and
compares its tuples pairwise with the outer partition's tuples (two
endpoint comparisons per pair; failing pairs are false hits).

The probe is one core: :func:`build_probe_schedule` navigates (one task
per outer partition, via
:meth:`~repro.core.lazy_list.LazyPartitionList.relevant`) and
:func:`run_probe_task` is the pair loop.  The join runs the schedule in
this thread (:func:`probe_inline`), and :mod:`repro.engine.batch`, an
``OIPJoin`` subclass sharing :meth:`OIPJoin._build`, runs one windowed
schedule per query through the same loop.

Algorithm 2 emits ``r o s`` for every kernel hit.  The emission step
(:func:`pair_emitter`) keeps each task's hits as they come out of the
kernel, one chunk per task, in a :class:`PairChunks` — the join's
``JoinResult.pairs``.  A pair tuple is built only when a consumer
iterates or indexes the result; :func:`repro.service.service
.summarize_result` counts, window-filters and fingerprints the chunks
without building any.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections.abc import Sequence as SequenceABC
from dataclasses import dataclass
from itertools import chain
from operator import index as as_index
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from ..storage.buffer import BufferPool
from ..storage.device import DeviceProfile
from ..storage.faults import FaultPolicy
from ..storage.manager import StorageManager
from ..storage.metrics import CostCounters, CostWeights
from .base import JoinResult, OverlapJoinAlgorithm
from .granules import GranulePolicy, KDerivation, choose_kernel, weights_label
from .kernels import KERNELS, DecodedRun, kernel_function
from .interval import Interval
from .lazy_list import LazyPartitionList, PartitionNode, oip_create
from .oip import OIPConfiguration
from .relation import TemporalRelation

__all__ = [
    "OIPJoin",
    "PairChunks",
    "ProbeSchedule",
    "ProbeTask",
    "RunReader",
    "build_probe_schedule",
    "hits_in_window",
    "pair_emitter",
    "probe_inline",
    "run_probe_task",
]

#: Outer partitions between periodic checkpoints when ``checkpoint_path``
#: is set but ``checkpoint_every`` is not.
DEFAULT_CHECKPOINT_EVERY = 8

#: One :class:`PairChunks` chunk: ``(outer tuples, inner tuples, n_outer,
#: hits)``, hit ``e`` standing for ``(outer[e % n_outer], inner[e //
#: n_outer])``.
PairChunk = Tuple[Sequence, Sequence, int, List[int]]


class PairChunks(SequenceABC):
    """The result pairs of an OIPJOIN, kept as the kernel's hit chunks.

    One chunk per probe task with hits (see :data:`PairChunk`), in
    emission order.  The hits use the kernels' encoding ``inner_pos *
    n_outer + outer_pos`` over the chunk's tuple sequences, so a chunk
    costs its hit list and no pair tuple until one is asked for.

    A read-only sequence of ``(outer, inner)`` tuple pairs: ``len()`` is
    O(1); iteration, indexing (negative indices, slices — a slice is a
    list) yield the pairs in emission order; it compares equal to a list
    (or another ``PairChunks``) of the same pairs, and is unhashable like
    a list.  Consumers that only count, filter or fingerprint read
    :attr:`chunks` directly.

    A chunk may also carry the relation positions of its tuples (see
    :func:`chunk_positions`); :meth:`positions` then encodes every pair
    as ``(outer position, inner position)`` — what a checkpoint stores.

    A kernel's hits are ascending; a chunk whose hits are not (a
    resumed run's prefix, in emission order) is listed in
    :attr:`unordered`, so a consumer that relies on the order
    (:func:`hits_in_window`) can tell.
    """

    __slots__ = ("chunks", "unordered", "_ends", "_positions")
    __hash__ = None  # type: ignore[assignment]

    def __init__(self) -> None:
        self.chunks: List[PairChunk] = []
        #: Indices of the chunks whose hits are not ascending.
        self.unordered: set = set()
        #: Pairs up to and including each chunk, for indexing.
        self._ends: List[int] = []
        #: Chunk index -> ``(outer positions, [inner positions, ...])``,
        #: for the chunks that carry positions.
        self._positions: Dict[int, Tuple[Sequence[int], List]] = {}

    def append(
        self,
        outer_tuples: Sequence,
        inner_tuples: Sequence,
        n_outer: int,
        hits: List[int],
        positions: Optional[Tuple[Sequence[int], List]] = None,
        ascending: bool = True,
    ) -> None:
        """Add one chunk; a chunk without hits adds nothing."""
        if hits:
            if positions is not None:
                self._positions[len(self.chunks)] = positions
            if not ascending:
                self.unordered.add(len(self.chunks))
            self.chunks.append((outer_tuples, inner_tuples, n_outer, hits))
            self._ends.append(len(self) + len(hits))

    def positions(self) -> List[Tuple[int, int]]:
        """Every pair as ``(outer position, inner position)`` in its
        relations, in emission order."""
        encoded: List[Tuple[int, int]] = []
        for index, (_, _, n_outer, hits) in enumerate(self.chunks):
            if index not in self._positions:
                raise ValueError("these pairs carry no relation positions")
            outer, inner_runs = self._positions[index]
            inner = list(chain.from_iterable(inner_runs))
            encoded.extend(
                [(outer[e % n_outer], inner[e // n_outer]) for e in hits]
            )
        return encoded

    def __len__(self) -> int:
        return self._ends[-1] if self._ends else 0

    def __iter__(self):
        for outer, inner, n_outer, hits in self.chunks:
            yield from [(outer[e % n_outer], inner[e // n_outer]) for e in hits]

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        position = as_index(index)
        length = len(self)
        if position < 0:
            position += length
        if not 0 <= position < length:
            raise IndexError("pair index out of range")
        chunk = bisect_right(self._ends, position)
        if chunk:
            position -= self._ends[chunk - 1]
        outer, inner, n_outer, hits = self.chunks[chunk]
        encoded = hits[position]
        return outer[encoded % n_outer], inner[encoded // n_outer]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, (list, PairChunks)):
            return NotImplemented
        return len(self) == len(other) and all(
            mine == theirs for mine, theirs in zip(self, other)
        )

    def __repr__(self) -> str:
        return f"PairChunks({len(self)} pairs in {len(self.chunks)} chunks)"


class OIPJoin(OverlapJoinAlgorithm):
    """Self-adjusting overlap join based on Overlap Interval Partitioning.

    Parameters
    ----------
    device, buffer_pool:
        Storage environment; see :class:`OverlapJoinAlgorithm`.
    k:
        Pin the granule count instead of deriving it (ablations, Figure 7).
    k_outer, k_inner:
        Pin *different* granule counts per side.  Section 6.2 proves both
        cost terms are minimised at ``k_r = k_s``; these parameters exist
        for the ablation that verifies that claim and are mutually
        exclusive with ``k``.
    weights:
        The cost weights ``k`` is derived from, and that price the
        counters (budgets, run reports).  By default ``k`` is derived
        from :meth:`CostWeights.engine`, fitted to this engine, and the
        device's weights price the counters; pass
        ``CostWeights.main_memory()`` (or a device's ``weights``) for
        the paper's Equation 1, or any other set (the Figure 6
        ``c_cpu / c_io`` sweep).
    use_exact_root:
        Derive ``k`` from the exact cubic root (default) or the paper's
        compact approximation.
    use_histogram_statistics:
        Derive the partition estimates from duration histograms
        (:mod:`repro.core.statistics`) instead of Lemma 3's
        maximum-duration bound — the paper's future-work refinement for
        skewed data.
    kernel:
        Partition-pair join kernel (:mod:`repro.core.kernels`):
        ``"naive"`` compares every candidate pair (the extracted
        original loop), ``"sweep"`` joins both runs with a forward-scan
        sweep over start-sorted columns so only result pairs are touched
        in Python, ``"numpy"`` vectorizes the match step (broadcasted
        comparisons for small pairs, ``searchsorted`` range pruning for
        large ones; silently substituted by ``"sweep"`` — recorded in
        the result details — when numpy is not importable), and
        ``"auto"`` (default) picks ``"numpy"`` for large joins when numpy
        is importable and ``"sweep"`` otherwise
        (:func:`~repro.core.granules.choose_kernel`).  The kernel is
        decided first and a derived ``k`` is derived for it, so under
        the engine's weights the naive kernel (Equation 1) and the fast
        kernels (``k = 1``) partition differently.  At the same ``k``
        all kernels emit
        identical pairs in the identical order and charge the identical
        paper-model costs (two CPU comparisons per candidate, one false
        hit per failing candidate — accounted analytically per outer
        partition, which joins all of its relevant inner runs in one
        kernel call), so results, counters and checkpoints are
        kernel-independent.
    fault_policy, max_read_retries, verify_checksums:
        Resilience configuration; see :class:`OverlapJoinAlgorithm`.  The
        fault schedule is deterministic per ``(block, attempt)``, so
        every run of the same join observes the identical faults and
        produces the identical match set and retry counters.
    budget:
        A :class:`~repro.engine.governor.QueryBudget` enforced
        cooperatively at the outer-partition boundaries of the probe
        loop and once after its last partition; a violated budget
        raises :class:`~repro.engine.governor.BudgetExceededError` with
        the partial counters, and an
        already-exhausted budget (zero limit / non-positive deadline)
        fails fast before any partition work.
    cancellation:
        A :class:`~repro.engine.governor.CancellationToken`; a cancel
        observed at a boundary returns a partial :class:`JoinResult`
        with ``completed=False`` (see :class:`OverlapJoinAlgorithm`).
    checkpoint_path, checkpoint_every:
        Write a JSON checkpoint of ``(outer partitions completed,
        counters, resilience, matched pair positions)`` to
        *checkpoint_path* every *checkpoint_every* outer partitions
        (default 8), and unconditionally at a
        cancellation or budget stop.
    resume_from:
        Path of a checkpoint written by a previous (interrupted) run of
        the *same* join; the completed outer partitions are skipped and
        the final pairs/counters are bit-identical to an uninterrupted
        run.  A checkpoint from a different query is rejected with
        :class:`~repro.engine.governor.CheckpointMismatchError`.
    index_path:
        Path of a persisted OIP index written by
        :func:`repro.storage.snapshot.save_index` (CLI:
        ``save-index``).  When the snapshot is valid *and* matches this
        join's relations and configuration, both partition lists are
        restored from it — bit-identical to an in-memory build, pairs
        and counters included — and the ``derive_k``/``oipcreate``
        phases are skipped.  A missing, corrupt, version-mismatched or
        foreign snapshot **degrades gracefully**: an
        ``index.recovery.degraded`` metric and tracing event record the
        structured reason, and the join falls back to the normal
        OIPCREATE rebuild.  Either way the result is the same; only the
        build cost differs.  ``details["index"]`` reports what
        happened.  A derived ``k`` is priced for the ``"auto"`` kernel,
        as ``save_index`` prices it, whatever *kernel* the join runs:
        a naive join over an index partitions as the index does,
        loaded or rebuilt.
    tracer, metrics, collect_report:
        Observability configuration; see :class:`OverlapJoinAlgorithm`.
        Spans cover ``derive_k``, both ``oipcreate`` sides, the
        ``probe`` phase and each outer partition.
    """

    name = "oip"

    # The OIPJOIN polls its cancellation token at outer-partition
    # boundaries (where partial state is well-defined and resumable),
    # not on every block read.
    cancellation_via_storage = False

    def __init__(
        self,
        device: Optional[DeviceProfile] = None,
        buffer_pool: Optional[BufferPool] = None,
        k: Optional[int] = None,
        weights: Optional[CostWeights] = None,
        use_exact_root: bool = True,
        use_histogram_statistics: bool = False,
        k_outer: Optional[int] = None,
        k_inner: Optional[int] = None,
        kernel: str = "auto",
        fault_policy: Optional[FaultPolicy] = None,
        max_read_retries: int = 3,
        verify_checksums: bool = True,
        budget: Optional[Any] = None,
        cancellation: Optional[Any] = None,
        checkpoint_path: Optional[str] = None,
        checkpoint_every: Optional[int] = None,
        resume_from: Optional[str] = None,
        index_path: Optional[str] = None,
        index_provider: Optional[Any] = None,
        tracer: Optional[Any] = None,
        metrics: Optional[Any] = None,
        collect_report: bool = False,
    ) -> None:
        super().__init__(
            device=device,
            buffer_pool=buffer_pool,
            fault_policy=fault_policy,
            max_read_retries=max_read_retries,
            verify_checksums=verify_checksums,
            cancellation=cancellation,
            tracer=tracer,
            metrics=metrics,
            collect_report=collect_report,
        )
        #: How this join chooses ``k``: the caller's weights, else the
        #: engine's (:meth:`CostWeights.engine`).
        self.granules = GranulePolicy(
            k=k,
            k_outer=k_outer,
            k_inner=k_inner,
            weights=weights,
            use_exact_root=use_exact_root,
            use_histogram_statistics=use_histogram_statistics,
        ).resolved()
        self._weights = weights
        if kernel not in ("auto",) + KERNELS:
            raise ValueError(
                f"unknown join kernel {kernel!r}; choose from "
                f"{('auto',) + KERNELS}"
            )
        self._validate_lifecycle_keywords(
            buffer_pool=buffer_pool,
            checkpoint_path=checkpoint_path,
            checkpoint_every=checkpoint_every,
            resume_from=resume_from,
        )
        self.kernel = kernel
        self.budget = budget
        self.checkpoint_path = checkpoint_path
        self.checkpoint_every = (
            DEFAULT_CHECKPOINT_EVERY
            if checkpoint_every is None
            else checkpoint_every
        )
        self.resume_from = resume_from
        if index_path is not None and index_provider is not None:
            raise ValueError(
                "pass either index_path (restore from a file) or "
                "index_provider (restore from pinned sections), not both"
            )
        if index_provider is not None and not callable(index_provider):
            raise ValueError(
                "index_provider must be callable as "
                "provider(outer, inner, storage=..., expected=...)"
            )
        self.index_path = index_path
        #: A callable ``(outer, inner, *, storage, expected) ->
        #: LoadedIndex`` restoring from already-parsed snapshot sections
        #: (see :class:`repro.storage.snapshot.ParsedSnapshot`); the
        #: serving layer uses it to pin a generation in memory while the
        #: file on disk moves on.  Failures degrade to a rebuild exactly
        #: like a failed ``index_path`` load.
        self.index_provider = index_provider

    @staticmethod
    def _validate_lifecycle_keywords(
        buffer_pool: Optional[BufferPool],
        checkpoint_path: Optional[str],
        checkpoint_every: Optional[int],
        resume_from: Optional[str],
    ) -> None:
        """Checkpoint/resume keyword interaction rules, in one place."""
        if checkpoint_every is not None:
            if checkpoint_every < 1:
                raise ValueError(
                    f"checkpoint_every must be >= 1, got {checkpoint_every}"
                )
            if checkpoint_path is None:
                raise ValueError(
                    "checkpoint_every has no effect without "
                    "checkpoint_path"
                )
        if buffer_pool is not None and (
            checkpoint_path is not None or resume_from is not None
        ):
            # Buffer-hit accounting depends on the pool's (transient)
            # content, which a checkpoint cannot capture — a resumed run
            # could not reproduce the uninterrupted counters.
            raise ValueError(
                "checkpoint/resume is not supported with a buffer pool "
                "(pool-hit counters are not reproducible across runs)"
            )

    # ------------------------------------------------------------------

    def _begin_pairs(self) -> PairChunks:
        """The join's pair sink: hit chunks (see :class:`PairChunks`).
        A cancel stops the probe at a governor boundary and returns
        them, so no partial result needs registering."""
        return PairChunks()

    @property
    def weights(self) -> CostWeights:
        """The weights that price this join's counters (budgets, run
        reports): the caller's, else the device's."""
        if self._weights is not None:
            return self._weights
        return self.device.weights

    def _k_model_details(
        self,
        outer: TemporalRelation,
        inner: TemporalRelation,
        derivation: Optional[KDerivation],
        k: int,
        kernel: str,
    ) -> Dict[str, Any]:
        """Which weights chose a derived *k* and, when Equation 1 chose
        it, Equation 1's cost at it (empty when ``k`` is pinned).
        Without a *derivation* (a restored snapshot) the model is
        rebuilt."""
        if self.granules.mode != "derived":
            return {}
        model = (
            derivation.model
            if derivation is not None
            else self.granules.cost_model(outer, inner, self.device, kernel)
        )
        details: Dict[str, Any] = {
            "k_weights": weights_label(self.granules.weights)
        }
        if model.prices_candidates:
            details["k_predicted_cost"] = model.overhead_cost(k)
        return details

    def _derive_k(
        self,
        outer: TemporalRelation,
        inner: TemporalRelation,
        kernel: str,
    ) -> Optional[KDerivation]:
        """The join's ``derive_k`` phase for a join on *kernel*, a
        method so that a profiler (``perfbench/spans.py``) can wrap
        it."""
        return self.granules.derive(outer, inner, self.device, kernel)

    @property
    def _uses_index(self) -> bool:
        return self.index_path is not None or self.index_provider is not None

    def _load_index(self, outer, inner, storage, tracer):
        """Try to restore both partition lists from ``index_path`` (or
        the pinned-section ``index_provider``).

        Returns ``(LoadedIndex | None, details)``.  Every failure mode —
        missing file, corrupt container, version or configuration
        mismatch, foreign relations — degrades to ``None`` with an
        ``index.recovery.degraded`` metric and a structured reason; the
        caller rebuilds in memory and the run is bit-identical either
        way.  Validation happens before any block is materialised, so a
        degrade leaves *storage* (and the counters) untouched.
        """
        from ..storage import snapshot

        expected = snapshot.IndexExpectation(
            self.device.tuples_per_block, self.granules
        )
        provider = self.index_provider
        path = (
            self.index_path
            if provider is None
            else getattr(provider, "path", "<provider>")
        )
        with tracer.span("index.load", path=path) as span:
            try:
                if provider is not None:
                    loaded = provider(
                        outer,
                        inner,
                        storage=storage,
                        expected=expected,
                    )
                else:
                    loaded = snapshot.load_index(
                        path,
                        outer,
                        inner,
                        storage=storage,
                        expected=expected,
                    )
            except snapshot.SnapshotError as error:
                reason = error.reason
            except OSError as error:  # pragma: no cover - racing unlink
                reason = "unreadable"
            else:
                span.set("loaded", True)
                span.set("generation", loaded.generation)
                if self.metrics is not None:
                    self.metrics.counter("index.recovery.loaded").inc(1)
                return loaded, {
                    "path": path,
                    "loaded": True,
                    "generation": loaded.generation,
                }
            span.set("loaded", False)
            span.set("reason", reason)
        tracer.event("index.degraded", path=path, reason=reason)
        if self.metrics is not None:
            self.metrics.counter("index.recovery.degraded").inc(1)
            self.metrics.counter(
                f"index.recovery.degraded.{reason}"
            ).inc(1)
        return None, {"path": path, "loaded": False, "reason": reason}

    def _governed_run(self):
        """The per-run governor (None when no lifecycle feature is on)."""
        if (
            self.budget is None
            and self.cancellation is None
            and self.checkpoint_path is None
        ):
            return None
        from ..engine.governor import GovernedRun

        return GovernedRun(
            budget=self.budget,
            cancellation=self.cancellation,
            weights=self.weights,
            tracer=self._run_tracer,
        )

    def _build(
        self,
        outer: TemporalRelation,
        inner: TemporalRelation,
        storage: StorageManager,
        tracer: Any,
        kernel: str,
    ) -> Tuple[Optional[KDerivation], LazyPartitionList, LazyPartitionList]:
        """Algorithm 2's build: choose ``k`` for a join on *kernel* (the
        ``derive_k`` span), then OIPCREATE each side once into *storage*
        (one ``oipcreate`` span per side).  ``oip_create`` is looked up
        through this module at call time, so a wrapper installed on it
        (a profiler) sees both builds.  Returns ``(derivation or None
        when k is pinned, outer list, inner list)``; each list's
        configuration carries its granule count."""
        with tracer.span("derive_k") as k_span:
            derivation = self._derive_k(outer, inner, kernel)
            k_outer, k_inner = self.granules.counts(outer, inner, derivation)
            k_span.set("k_outer", k_outer)
            k_span.set("k_inner", k_inner)
            k_span.set("self_adjusting", derivation is not None)
        config_r = OIPConfiguration.for_relation(outer, k_outer)
        config_s = OIPConfiguration.for_relation(inner, k_inner)
        with tracer.span("oipcreate", side="outer") as create_span:
            outer_list = oip_create(outer, config_r, storage)
            create_span.set("partitions", outer_list.partition_count)
        with tracer.span("oipcreate", side="inner") as create_span:
            inner_list = oip_create(inner, config_s, storage)
            create_span.set("partitions", inner_list.partition_count)
        return derivation, outer_list, inner_list

    def _execute(
        self,
        outer: TemporalRelation,
        inner: TemporalRelation,
        counters: CostCounters,
    ) -> JoinResult:
        # Imported lazily so repro.core keeps no import-time dependency
        # on repro.engine (the planner imports this module).
        from ..engine.governor import (
            CheckpointWriter,
            QueryCheckpoint,
            make_fingerprint,
        )

        tracer = self._run_tracer
        governor = self._governed_run()
        if governor is not None:
            # Fail fast on an already-exhausted budget: no k derivation,
            # no partitioning, no partition work.
            governor.preflight()
        checkpoint = (
            QueryCheckpoint.load(self.resume_from)
            if self.resume_from is not None
            else None
        )

        # The kernel is decided first: a derived k is priced for it —
        # for "auto" when the join uses an index, as save_index prices
        # it.  Every kernel is bit-identical in pairs and counters at
        # the same k, so beyond k the choice only decides speed.
        kernel = choose_kernel(outer, inner, self.kernel)
        priced = choose_kernel(outer, inner) if self._uses_index else kernel
        # Storage precedes the (optional) snapshot load: construction
        # makes no charges, so a degraded load hands the rebuild an
        # untouched manager and the counters stay bit-identical.
        storage = self._storage(counters)
        loaded = None
        index_details = None
        if self._uses_index:
            loaded, index_details = self._load_index(
                outer, inner, storage, tracer
            )

        if loaded is not None:
            # The snapshot recorded the same derivation this join would
            # run (the load validated that), caps included.
            outer_list, inner_list = loaded.outer_list, loaded.inner_list
            derivation = None
            self_adjusting = self.granules.mode == "derived"
            k_steps = loaded.meta.get("k_steps")
            k_oscillated = loaded.meta.get("k_oscillated")
        else:
            derivation, outer_list, inner_list = self._build(
                outer, inner, storage, tracer, priced
            )
            self_adjusting = derivation is not None
            k_steps = derivation.steps if derivation is not None else None
            k_oscillated = (
                derivation.oscillated if derivation is not None else None
            )
        config_r, config_s = outer_list.config, inner_list.config
        k_outer, k_inner = config_r.k, config_s.k

        candidate_histogram = (
            self.metrics.histogram("join.kernel.candidates")
            if self.metrics is not None
            else None
        )
        if self.metrics is not None:
            # Deterministic distribution of partition sizes (in blocks):
            # same input and k ⇒ identical exported histogram.
            histogram = self.metrics.histogram("oip.partition_blocks")
            for partition_list in (outer_list, inner_list):
                for node in partition_list.iter_nodes():
                    histogram.observe(len(node.run))

        pairs = self._begin_pairs()
        start_at = 0
        fingerprint = None
        if checkpoint is not None or self.checkpoint_path is not None:
            fingerprint = make_fingerprint(
                self.name, k_outer, k_inner, outer, inner
            )
        if checkpoint is not None:
            checkpoint.validate(fingerprint, outer_list.partition_count)
            # The build phase above re-ran deterministically and re-made
            # the exact charges the original run made; the checkpoint
            # snapshot already contains them plus the completed probe
            # work, so overwriting keeps the final totals bit-identical
            # to an uninterrupted run.
            checkpoint.restore_into(counters, self._resilience)
            # The checkpointed prefix is one chunk over the relations'
            # tuples, its hits encoded from the stored positions in
            # emission order — not ascending.
            n_outer = outer.cardinality
            pairs.append(
                outer.tuples,
                inner.tuples,
                n_outer,
                [i * n_outer + o for o, i in checkpoint.pairs],
                (range(n_outer), [range(inner.cardinality)]),
                ascending=False,
            )
            start_at = checkpoint.partitions_completed
        if governor is not None and self.checkpoint_path is not None:
            governor.attach_writer(
                CheckpointWriter(
                    self.checkpoint_path,
                    self.checkpoint_every,
                    fingerprint,
                    outer_list.partition_count,
                )
            )

        schedule = build_probe_schedule(outer_list, inner_list)
        with tracer.span("probe"):
            cancelled, partitions_done = probe_inline(
                schedule,
                RunReader(storage),
                counters,
                pairs,
                pair_emitter(
                    pairs,
                    candidate_histogram.observe
                    if candidate_histogram is not None
                    else None,
                    positions=self.checkpoint_path is not None,
                ),
                kernel,
                governor=governor,
                start_at=start_at,
                tracer=tracer,
            )

        details = {
            # The inner side's count is the one the probe navigates.
            "k": k_inner,
            "k_outer": k_outer,
            "k_inner": k_inner,
            "granule_duration_outer": config_r.d,
            "granule_duration_inner": config_s.d,
            "outer_partitions": outer_list.partition_count,
            "inner_partitions": inner_list.partition_count,
            "inner_visits": schedule.inner_visits,
            "self_adjusting": self_adjusting,
            "kernel": kernel,
            **self._k_model_details(outer, inner, derivation, k_inner, priced),
        }
        if index_details is not None:
            details["index"] = index_details
        if self.kernel not in ("auto", kernel):
            # An explicitly pinned kernel that could not run here (the
            # numpy tier without numpy) — record the substitution.
            details["kernel_requested"] = self.kernel
        if k_steps is not None:
            details["k_derivation_steps"] = k_steps
            details["k_oscillated"] = k_oscillated
        if governor is not None:
            details["partitions_completed"] = partitions_done
            if start_at:
                details["resumed_from_partition"] = start_at
            if cancelled:
                details["cancelled"] = True
            if governor.last_checkpoint is not None:
                details["checkpoint"] = governor.last_checkpoint
        elif start_at:
            details["resumed_from_partition"] = start_at
        return JoinResult(
            algorithm=self.name,
            pairs=pairs,
            counters=counters,
            details=details,
            completed=not cancelled,
        )


# ----------------------------------------------------------------------
# The Algorithm 2 probe core: Lemma-1 navigation (build_probe_schedule)
# and the one pair loop (run_probe_task) behind the join and the batch
# executor (repro.engine.batch).
# ----------------------------------------------------------------------


class ProbeTask(NamedTuple):
    """One outer partition's probe work, found by Lemma-1 navigation.

    ``inner`` holds the relevant inner partition nodes in the walk order
    of the sequential join.  ``nav_cpu`` is the CPU comparisons charged
    for finding them: the two of Algorithm 2's range-overlap guard plus
    the walk's ``j >= s`` / ``i <= e`` index tests.  ``walk_cpu`` is the
    share of a windowed *outer* walk's index tests made to reach this
    partition (0 without a window); it is charged before the partition's
    governor boundary, exactly when the walk would have made it.
    """

    index: int
    outer: PartitionNode
    inner: List[PartitionNode]
    nav_cpu: int
    walk_cpu: int = 0


@dataclass
class ProbeSchedule:
    """The navigated probe work of one OIPJOIN probe phase, one task per
    outer partition in the sequential join's order.  ``walk_tail`` holds
    the windowed outer walk's terminating index tests, charged after the
    last task.  ``inner_visits`` counts the inner tuples the tasks hand
    to the kernel: each relevant inner partition's tuples, once per
    outer partition that visits it."""

    tasks: List[ProbeTask]
    pair_count: int
    walk_tail: int = 0
    inner_visits: int = 0

    @property
    def task_count(self) -> int:
        return len(self.tasks)


def build_probe_schedule(
    outer_list: LazyPartitionList,
    inner_list: LazyPartitionList,
    k_inner: Optional[int] = None,
    counters: Optional[CostCounters] = None,
    *,
    window: Optional[Interval] = None,
) -> ProbeSchedule:
    """Lemma-1 navigation of ``outer JOIN inner``: for every outer
    partition, the relevant inner partitions and the index tests
    charged for finding them.  Navigation only — nothing is read or
    charged here; :func:`run_probe_task` charges each task's
    navigation when it runs the task.

    Every outer partition queries the inner list with its partition
    interval.  With a *window*, only the outer partitions Lemma 1 finds
    for the window are visited, and each query interval is clamped to
    the window (a tighter interval than Algorithm 2's that never misses
    a windowed result, because every such pair overlaps inside the
    window).

    *k_inner* and *counters* are accepted but unused: the inner list's
    configuration carries its granule count, and the runner charges.
    """
    config_r, config_s = outer_list.config, inner_list.config
    walk: Optional[List[int]] = None
    if window is None:
        outer_nodes = list(outer_list.iter_nodes())
    else:
        outer_span = config_r.clamped_query_indices(window)
        if outer_span is None:
            return ProbeSchedule(tasks=[], pair_count=0)
        outer_nodes, walk = outer_list.relevant(*outer_span)
    partition_interval = config_r.partition_interval
    query_indices = config_s.clamped_query_indices
    tasks: List[ProbeTask] = []
    pair_count = visits = 0
    walked = 0
    for index, outer_node in enumerate(outer_nodes):
        query = partition_interval(outer_node.i, outer_node.j)
        if window is not None:
            query = Interval(
                max(query.start, window.start), min(query.end, window.end)
            )
        inner_span = query_indices(query)
        if inner_span is None:
            inner: List[PartitionNode] = []
            nav_cpu = 2  # the range-overlap guard alone
        else:
            inner, tests = inner_list.relevant(*inner_span)
            nav_cpu = 2 + tests[-1]
            visits += sum([node.run.count for node in inner])
        walk_cpu = 0
        if walk is not None:
            walk_cpu = walk[index] - walked
            walked = walk[index]
        tasks.append(ProbeTask(index, outer_node, inner, nav_cpu, walk_cpu))
        pair_count += len(inner)
    return ProbeSchedule(
        tasks=tasks,
        pair_count=pair_count,
        walk_tail=walk[-1] - walked if walk is not None else 0,
        inner_visits=visits,
    )


class RunReader:
    """The probe's one reader.  Every read goes through the storage
    manager's ``read_run``, so block IO, checksum verification, injected
    faults and the buffer pool all apply on every visit.

    A read returns the node's columnar decode, memoised on the node
    (:attr:`~repro.core.lazy_list.PartitionNode.decoded`).  The run is
    decoded on the node's first read — from the run's stored columns,
    through ``DecodedRun.from_tuples`` — and again after a read that
    detected a corruption or a buffer-pool invalidation on its blocks,
    so a corrupt read is never answered from a stale decode.
    ``decode=False`` reads without decoding a node that has no decode
    yet.  ``StorageManager.read_run`` and ``DecodedRun.from_tuples`` are
    looked up at call time, so a wrapper installed on either (a
    profiler) sees every read and every decode.
    """

    __slots__ = ("storage", "resilience")

    def __init__(self, storage: StorageManager) -> None:
        self.storage = storage
        #: The run's resilience sink, also handed to governor boundaries.
        self.resilience = storage.resilience

    def read(
        self,
        node: PartitionNode,
        side: str,
        trace: Optional[Any] = None,
        decode: bool = True,
    ) -> Optional[DecodedRun]:
        resilience = self.resilience
        detected = (
            resilience.corruptions_detected + resilience.pool_invalidations
        )
        run = node.run
        tuples = self.storage.read_run(run, context=(side, (node.i, node.j)))
        if (
            resilience.corruptions_detected + resilience.pool_invalidations
            != detected
        ):
            node.decoded = None
        if decode and node.decoded is None:
            if trace is not None:
                with trace.span("kernel.decode", tuples=run.count):
                    node.decoded = DecodedRun.from_tuples(tuples, *run.slices())
            else:
                node.decoded = DecodedRun.from_tuples(tuples, *run.slices())
        return node.decoded


def run_probe_task(
    outer: PartitionNode,
    inner: Sequence[PartitionNode],
    nav_cpu: int,
    reader: RunReader,
    counters: CostCounters,
    kernel_fn: Callable[[DecodedRun, DecodedRun], List[int]],
    trace: Optional[Any] = None,
    kernel: str = "naive",
) -> Tuple[Optional[DecodedRun], List[DecodedRun], List[int]]:
    """Algorithm 2's pair loop for one outer partition — the one copy.

    Charges the task's navigation (*nav_cpu* comparisons and one
    partition access per relevant inner partition), reads the outer
    run, then reads each inner run in turn (see :class:`RunReader`).
    The decoded inner runs are appended in walk order into one run
    (:meth:`~repro.core.kernels.DecodedRun.concatenate`) and joined
    against the outer run with **one** *kernel_fn* call.  The paper's
    model costs are charged analytically for the task — ``2 *
    candidates`` CPU comparisons and ``candidates - hits`` false hits,
    the sums of the per-pair charges — so counters are identical for
    every kernel.  The outer run is decoded only when a relevant inner
    run exists.

    Returns ``(outer run, [inner run, ...], hits)``; the outer run is
    ``None`` when it was not needed, and each hit is encoded as
    ``inner_pos * n_outer + outer_pos`` over the inner runs'
    concatenation, in ascending order — pair by pair in walk order,
    inner-major within a pair: the sequential emission order.
    """
    charge_cpu = counters.charge_cpu
    charge_cpu(nav_cpu)
    if inner:
        counters.charge_partition_access(len(inner))
    read = reader.read
    outer_run = read(outer, "outer partition", trace, decode=bool(inner))
    runs = [read(part, "inner partition", trace) for part in inner]
    if not runs:
        return None, runs, []
    inner_run = DecodedRun.concatenate(runs)
    candidates = outer_run.length * inner_run.length
    charge_cpu(2 * candidates)
    if trace is not None:
        with trace.span("kernel." + kernel, candidates=candidates):
            hits = kernel_fn(outer_run, inner_run)
    else:
        hits = kernel_fn(outer_run, inner_run)
    counters.charge_false_hit(candidates - len(hits))
    return outer_run, runs, hits


def joined_tuples(inner_runs: Sequence[DecodedRun], hits: List[int]) -> Sequence:
    """*inner_runs*' tuples as one sequence indexed like the task's
    concatenated run (:meth:`~repro.core.kernels.DecodedRun.concatenate`),
    for decoding ``hits``; nothing is copied when there are no hits or
    only one run."""
    if not hits:
        return ()
    if len(inner_runs) == 1:
        return inner_runs[0].tuples
    return list(chain.from_iterable(run.tuples for run in inner_runs))


def chunk_positions(
    outer: DecodedRun, inner_runs: Sequence[DecodedRun], hits: List[int]
) -> Optional[Tuple[Sequence[int], List[Sequence[int]]]]:
    """The relation positions of a chunk's tuples: the outer run's, and
    the inner runs' in :func:`joined_tuples` order, left unjoined until
    :meth:`PairChunks.positions` needs them (``None`` for runs without
    positions)."""
    if not hits or outer.positions is None:
        return None
    return outer.positions, [run.positions for run in inner_runs]


def hits_in_window(
    outer_tuples: Sequence,
    inner_tuples: Sequence,
    n_outer: int,
    hits: List[int],
    start: int,
    end: int,
    ascending: bool = True,
) -> List[int]:
    """The *hits* (encoded as in :data:`PairChunk`) whose pair meets the
    window ``[start, end]``: all three intervals share a point, in the
    order of *hits*.

    A hit's two tuples overlap, so that holds iff each tuple meets the
    window (Helly's theorem in one dimension).  Hits in the kernels'
    ascending inner-major order hold each inner tuple's hits as one run,
    so one test per inner tuple picks the runs to keep, two bisections
    cut each out, and only their hits are tested against their outer
    tuples: beyond that one pass over the inner tuples, the work
    follows the hits kept, not the hits in the chunk.  *ascending*
    ``False`` (a resumed run's prefix chunk, in emission order) tests
    hit by hit."""
    if not hits:
        return []
    if not ascending:
        return [
            encoded
            for encoded in hits
            if (outer := outer_tuples[encoded % n_outer]).start <= end
            and start <= outer.end
            and (inner := inner_tuples[encoded // n_outer]).start <= end
            and start <= inner.end
        ]
    runs: List[List[int]] = []
    lo = 0
    size = len(hits)
    for position, inner in enumerate(inner_tuples):
        if inner.start <= end and start <= inner.end:
            base = position * n_outer
            lo = bisect_left(hits, base, lo)
            if lo == size:
                break
            hi = bisect_left(hits, base + n_outer, lo)
            if hi > lo:
                runs.append(hits[lo:hi])
                lo = hi
    return [
        encoded
        for encoded in chain.from_iterable(runs)
        if (outer := outer_tuples[encoded % n_outer]).start <= end
        and start <= outer.end
    ]


#: An emission step: ``emit(outer run, [inner run, ...], hits)``.
Emitter = Callable[[DecodedRun, Sequence[DecodedRun], List[int]], None]


def pair_emitter(
    pairs: PairChunks,
    observe: Optional[Callable[[int], Any]] = None,
    positions: bool = False,
) -> Emitter:
    """The emission step of one outer partition: append the runner's hits
    to *pairs* as one chunk over the outer run's tuples and the
    concatenated inner runs' tuples (no pair tuple is built), observing
    each partition pair's candidate count with *observe* (a histogram
    hook).  With *positions* each chunk also keeps its tuples' relation
    positions (:func:`chunk_positions`), which a checkpoint needs."""

    def emit(outer, inner_runs, hits) -> None:
        n_outer = outer.length
        if observe is not None:
            for run in inner_runs:
                observe(run.length * n_outer)
        pairs.append(
            outer.tuples,
            joined_tuples(inner_runs, hits),
            n_outer,
            hits,
            chunk_positions(outer, inner_runs, hits) if positions else None,
        )

    return emit


def probe_inline(
    schedule: ProbeSchedule,
    reader: RunReader,
    counters: CostCounters,
    pairs: Sequence,
    emit: Emitter,
    kernel: str,
    governor: Optional[Any] = None,
    start_at: int = 0,
    tracer: Optional[Any] = None,
) -> Tuple[bool, int]:
    """Run *schedule* in this thread — Algorithm 2's probe loop.

    Every outer partition is a cooperative boundary: the governor is
    consulted *before* the partition's work, so a cancel or budget stop
    leaves the counters exactly at the last completed partition, and
    once more after the last partition's work.  Tasks
    below *start_at* (completed by the run a checkpoint was restored
    from) are skipped without charges.  *emit* adds the hits of each
    task with relevant inner runs to *pairs* as a chunk (see
    :func:`pair_emitter`); *pairs* is what governor boundaries
    checkpoint.  Per-partition and kernel spans are opened
    only while *tracer* is live and not depth-capped.  Returns
    ``(cancelled, partitions_completed)``.
    """
    trace = (
        tracer
        if tracer is not None
        and tracer.enabled
        and not getattr(tracer, "saturated", False)
        else None
    )
    # kernel_function (not a raw KERNEL_FUNCS lookup) supplies the sweep
    # fallback when the numpy tier cannot run in this process.
    kernel_fn = kernel_function(kernel)
    charge_cpu = counters.charge_cpu
    resilience = reader.resilience
    for task in schedule.tasks[start_at:]:
        charge_cpu(task.walk_cpu)
        if governor is not None and governor.boundary(
            task.index, counters, resilience, pairs
        ):
            return True, task.index
        span = None
        if trace is not None:
            span = trace.span("probe.partition", partition=task.index)
        try:
            outer_run, inner_runs, hits = run_probe_task(
                task.outer,
                task.inner,
                task.nav_cpu,
                reader,
                counters,
                kernel_fn,
                trace=trace,
                kernel=kernel,
            )
            if inner_runs:
                emit(outer_run, inner_runs, hits)
        finally:
            if span is not None:
                span.__exit__(None, None, None)
    done = len(schedule.tasks)
    # The last stop point, before the walk's tail is charged (a resumed
    # run charges it): a cancel or a budget overrun during the last
    # partition's work — at k=1 the whole probe — is not a success.
    if governor is not None and governor.boundary(
        done, counters, resilience, pairs, final=True
    ):
        return True, done
    charge_cpu(schedule.walk_tail)
    return False, done
