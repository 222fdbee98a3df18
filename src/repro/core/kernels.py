"""Pluggable join kernels: columnar partition runs and sweep joins.

The OIPJOIN probe phase joins one *outer* partition against every
relevant *inner* partition (Lemma 1).  The paper's cost model counts two
CPU comparisons per **candidate pair** (every tuple of the outer
partition against every tuple of the inner partition) and one false hit
per candidate that fails the overlap test — and the original
reproduction also *paid* those comparisons: a pure-Python nested loop
with one ``_match`` call per candidate dominated wall-clock time on
every workload.  This module separates the two concerns:

* **model cost** — what Algorithm 2 charges — is accounted
  *analytically*: ``2 * |p_outer| * |p_inner|`` CPU comparisons and
  ``candidates - results`` false hits per partition pair, which is
  exactly what the per-candidate loop summed to (the probe charges an
  outer partition's pairs in one sum, as it runs them in one call);
* **physical cost** — what this Python process executes — is the
  kernel's business, and the three kernels make different tradeoffs:

  - :func:`naive_matches` is the extracted, micro-optimised original
    loop: every candidate pair is compared, but against flat ``array``
    columns instead of per-tuple attribute loads;
  - :func:`sweep_matches` is a forward-scan sweep in the spirit of
    cache-efficient sweeping-based interval joins (Piatov et al.) and
    HINT's comparison-free partition scans: both sides are processed in
    start order, and for the current tuple a single ``bisect`` finds
    the contiguous range of not-yet-consumed opposite tuples whose
    start does not exceed the current end — every one of those
    *overlaps by construction* (an interval that starts inside another
    interval overlaps it), so the inner loop only ever touches pairs
    that are in the result.  Non-overlapping candidates are pruned in
    C-speed ``bisect`` calls and never reach Python bytecode;
  - :func:`numpy_matches` is the vectorized tier: small calls are
    joined with one broadcasted start/end comparison matrix, larger
    ones with ``searchsorted`` range pruning over the start-sorted
    columns (the overlap set decomposes exactly into two disjoint
    searchsorted range families — see the function docstring), so per
    candidate work drops from Python bytecode to C loops.  The kernel
    is optional: when numpy is not importable,
    :func:`kernel_function` transparently substitutes the sweep kernel
    (``numpy_matches`` itself raises).

All kernels return the identical match set encoded in the identical
order — ``inner_pos * n_outer + outer_pos``, ascending, which is the
emission order of the sequential Algorithm 2 loop — so at the same
``k`` result pairs, :class:`~repro.storage.metrics.CostCounters` and
run reports are bit-identical regardless of the kernel (the
differential suite in ``tests/core/test_kernels.py`` and
``tests/core/test_numpy_kernel.py`` pins this down).

Which kernel a join runs, and the ``k`` it runs at, is decided by
:class:`~repro.core.granules.GranulePolicy` (``"auto"`` is ``numpy`` for
large joins when numpy is importable, ``sweep`` otherwise).

Decoding a partition run into columnar form (two ``array('q')``
endpoint columns plus, lazily, a start-sorted permutation) costs one
pass over the run's tuples.  An inner partition is visited by *many*
outer partitions (the APA analysis, Lemma 5), so the probe keeps each
run's decode on its partition node (:class:`~repro.core.join.RunReader`)
and decodes it again only after a read that detected a corruption.

The probe makes **one kernel call per outer partition**: the decoded
relevant inner runs are appended in Lemma-1 walk order into one run
(:meth:`DecodedRun.concatenate`) and joined against the outer run at
once, so the fixed cost of entering a kernel is paid a few dozen times
per join instead of once per partition pair.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "KERNELS",
    "KERNEL_FUNCS",
    "NUMPY_BROADCAST_CELLS",
    "DecodedRun",
    "decode_columns",
    "naive_matches",
    "sweep_matches",
    "numpy_matches",
    "numpy_available",
    "kernel_function",
]

#: The selectable kernel names (``"auto"`` resolves to one of these).
KERNELS = ("naive", "sweep", "numpy")

#: Candidate-count bound (``|outer run| * |inner run|``) up to which the
#: numpy kernel joins its two runs with one broadcasted comparison
#: matrix; larger calls use the searchsorted range decomposition, whose
#: work scales with ``n log n + results`` instead of the full candidate
#: grid.
NUMPY_BROADCAST_CELLS = 4096


def decode_columns(
    tuples: Sequence[Any],
) -> Tuple[array, array]:
    """Extract the endpoint columns of *tuples* as parallel ``array('q')``
    start/end columns (one pass, attribute loads paid once per tuple
    instead of once per candidate pair)."""
    return (
        array("q", [tup.start for tup in tuples]),
        array("q", [tup.end for tup in tuples]),
    )


class DecodedRun:
    """One partition run in columnar form.

    ``starts`` / ``ends`` are parallel ``array('q')`` columns in the
    run's storage order; ``tuples`` keeps the original tuple objects
    and ``positions`` their positions in the source relation when the
    run came from a partition list (both ``None`` for a run joined by
    :meth:`concatenate`).  The
    start-sorted permutation (``order``) and the starts in that order
    (``sorted_starts``) are computed lazily on first use and memoised —
    the naive kernel never needs them.
    """

    __slots__ = (
        "tuples",
        "starts",
        "ends",
        "positions",
        "length",
        "_order",
        "_sorted_starts",
        "_np_view",
    )

    def __init__(
        self,
        starts: array,
        ends: array,
        tuples: Optional[Tuple[Any, ...]] = None,
        positions: Optional[array] = None,
    ) -> None:
        self.starts = starts
        self.ends = ends
        self.tuples = tuples
        self.positions = positions
        self.length = len(starts)
        self._order: Optional[List[int]] = None
        self._sorted_starts: Optional[array] = None
        self._np_view: Optional[Tuple[Any, Any, Any, Any]] = None

    @classmethod
    def from_tuples(
        cls,
        tuples: Iterable[Any],
        starts: Optional[array] = None,
        ends: Optional[array] = None,
        positions: Optional[array] = None,
    ) -> "DecodedRun":
        """The run of *tuples*; a partition run passes its stored
        ``starts``/``ends``/``positions`` columns, which spares the
        per-tuple endpoint decode."""
        tuples = tuple(tuples)
        if starts is None or ends is None:
            starts, ends = decode_columns(tuples)
        return cls(starts, ends, tuples, positions)

    @classmethod
    def concatenate(cls, runs: Sequence["DecodedRun"]) -> "DecodedRun":
        """*runs* appended into one run: positions count on across the
        runs in the given order (run ``r``'s position ``p`` becomes
        ``p + sum of the lengths before r``).  A single run is returned
        as is.  The joined run keeps no tuples."""
        if len(runs) == 1:
            return runs[0]
        starts = array("q")
        ends = array("q")
        for run in runs:
            starts += run.starts
            ends += run.ends
        return cls(starts, ends)

    def __len__(self) -> int:
        return self.length

    def __repr__(self) -> str:
        return f"DecodedRun(n={self.length}, sorted={self._order is not None})"

    @property
    def order(self) -> List[int]:
        """Positions sorted by start (ties keep storage order — Python's
        sort is stable, so the permutation is deterministic)."""
        if self._order is None:
            starts = self.starts
            self._order = sorted(range(self.length), key=starts.__getitem__)
        return self._order

    @property
    def sorted_starts(self) -> array:
        """The start column permuted into ascending order (the bisect
        haystack of the sweep kernel)."""
        if self._sorted_starts is None:
            starts = self.starts
            self._sorted_starts = array(
                "q", [starts[pos] for pos in self.order]
            )
        return self._sorted_starts

    def numpy_view(self, np: Any) -> Tuple[Any, Any, Any, Any]:
        """``(starts, ends, order, sorted_starts)`` as numpy ``int64``
        arrays, memoised like :attr:`order` / :attr:`sorted_starts`.

        The endpoint views are zero-copy (see :meth:`numpy_columns`);
        the start-sorted permutation is a stable argsort, so ties keep
        storage order exactly like the pure-Python :attr:`order` — not
        that parity depends on it: the kernels' match *set* is
        permutation-independent and the final encoded sort fixes the
        emission order.
        """
        view = self._np_view
        if view is None:
            starts, ends = self.numpy_columns(np)
            order = np.argsort(starts, kind="stable")
            view = (starts, ends, order, starts[order])
            self._np_view = view
        return view

    def numpy_columns(self, np: Any) -> Tuple[Any, Any]:
        """``(starts, ends)`` as zero-copy numpy ``int64`` views over the
        ``array('q')`` buffers — no sort, unlike :meth:`numpy_view`."""
        return (
            np.frombuffer(self.starts, dtype=np.int64),
            np.frombuffer(self.ends, dtype=np.int64),
        )


# ----------------------------------------------------------------------
# The kernels.  Contract shared by all three: given the decoded outer
# run and an inner run, return the positions of all overlapping pairs
# encoded as ``inner_pos * n_outer + outer_pos`` in ascending order —
# the exact emission order of the sequential Algorithm 2 loop (inner
# tuples outermost, outer tuples innermost).  The inner run may be the
# concatenation of an outer partition's relevant inner runs in Lemma-1
# walk order (DecodedRun.concatenate); ``inner_pos`` then counts across
# the runs, so ascending order is still partition pair by partition
# pair, inner-major within each.  Kernels perform *no* cost charging;
# the caller charges the paper's model costs analytically (2 CPU per
# candidate, candidates - results false hits), which keeps the counters
# identical across kernels.
# ----------------------------------------------------------------------


def naive_matches(outer: DecodedRun, inner: DecodedRun) -> List[int]:
    """The extracted original loop: every candidate pair is compared.

    Micro-optimised relative to the historical per-tuple ``_match``
    path — endpoint columns are flat arrays, bound methods are hoisted —
    but still O(candidates) Python work per partition pair.
    """
    outer_starts = outer.starts
    outer_ends = outer.ends
    n_outer = outer.length
    inner_starts = inner.starts
    inner_ends = inner.ends
    outer_range = range(n_outer)
    hits: List[int] = []
    hits_append = hits.append
    base = 0
    for inner_pos in range(inner.length):
        inner_start = inner_starts[inner_pos]
        inner_end = inner_ends[inner_pos]
        for outer_pos in outer_range:
            if (
                outer_starts[outer_pos] <= inner_end
                and inner_start <= outer_ends[outer_pos]
            ):
                hits_append(base + outer_pos)
        base += n_outer
    return hits


def sweep_matches(outer: DecodedRun, inner: DecodedRun) -> List[int]:
    """Forward-scan sweep over both runs in start order.

    Merge both sides by start.  When a tuple ``x`` is the next event, a
    single :func:`bisect.bisect_right` locates the contiguous range of
    not-yet-consumed opposite tuples whose start is ``<= x.end`` — all
    of them overlap ``x``, because they start at or after ``x.start``
    (merge order) and at or before ``x.end`` (bisect bound), and an
    interval starting inside ``x`` necessarily intersects it.  Each
    result pair is therefore touched exactly once and non-overlapping
    candidates are never touched at all; the only super-linear work is
    the final C-speed integer sort that restores the sequential
    emission order.
    """
    n_outer = outer.length
    n_inner = inner.length
    if not n_outer or not n_inner:
        return []
    outer_order = outer.order
    outer_sorted_starts = outer.sorted_starts
    inner_order = inner.order
    inner_sorted_starts = inner.sorted_starts
    outer_ends = outer.ends
    inner_ends = inner.ends
    hits: List[int] = []
    a = b = 0
    while a < n_outer and b < n_inner:
        if outer_sorted_starts[a] <= inner_sorted_starts[b]:
            # The outer tuple starts first: it overlaps every pending
            # inner tuple that starts no later than it ends.
            outer_pos = outer_order[a]
            bound = bisect_right(inner_sorted_starts, outer_ends[outer_pos], b)
            if bound > b:
                hits += [
                    inner_pos * n_outer + outer_pos
                    for inner_pos in inner_order[b:bound]
                ]
            a += 1
        else:
            inner_pos = inner_order[b]
            bound = bisect_right(outer_sorted_starts, inner_ends[inner_pos], a)
            if bound > a:
                base = inner_pos * n_outer
                hits += [base + outer_pos for outer_pos in outer_order[a:bound]]
            b += 1
    hits.sort()
    return hits


# ----------------------------------------------------------------------
# The numpy tier.  numpy is an *optional* dependency: everything below
# degrades to the sweep kernel when it is absent, and the import is
# routed through one monkeypatchable hook so the kernel-absent tests can
# simulate an environment without numpy.
# ----------------------------------------------------------------------


def _import_numpy() -> Any:
    """Import hook of the numpy tier (the single point the kernel-absent
    tests monkeypatch to raise :class:`ImportError`)."""
    import numpy

    return numpy


def numpy_available() -> bool:
    """True when the numpy kernel can actually run in this process."""
    try:
        _import_numpy()
    except ImportError:
        return False
    return True


def numpy_matches(outer: DecodedRun, inner: DecodedRun) -> List[int]:
    """Vectorized overlap join of an outer run and an inner run.

    Small joins (``candidates <= NUMPY_BROADCAST_CELLS``) are done
    with one broadcasted comparison matrix ``(outer.start <= inner.end)
    & (inner.start <= outer.end)`` of shape ``(n_inner, n_outer)`` over
    zero-copy column views; ``flatnonzero`` of that matrix *is* the
    ascending ``inner_pos * n_outer + outer_pos`` encoding, so nothing
    is sorted, before or after.

    Larger joins use ``searchsorted`` range pruning.  The overlap pairs
    decompose exactly into two disjoint families, split on where the
    inner tuple starts relative to the outer tuple:

    1. ``outer.start <= inner.start <= outer.end`` — the inner tuple
       starts inside the outer one, so it overlaps by construction.
       Per outer tuple this is the contiguous start-sorted inner range
       ``[searchsorted(left, outer.start), searchsorted(right,
       outer.end))``.
    2. ``inner.start < outer.start <= inner.end`` — the outer tuple
       starts strictly inside the inner one.  Per inner tuple this is
       the contiguous start-sorted outer range ``[searchsorted(right,
       inner.start), searchsorted(right, inner.end))``.

    Every overlapping pair satisfies exactly one of the two (split on
    ``inner.start >= outer.start``), and every pair in either family
    overlaps, so concatenating the two expanded range families and
    sorting the encoded positions reproduces the sequential emission
    order exactly — same ints, same order, as ``naive`` and ``sweep``.

    Raises :class:`RuntimeError` when numpy is not importable; callers
    resolve through :func:`kernel_function`, which substitutes the sweep
    kernel instead of ever reaching this raise.
    """
    try:
        np = _import_numpy()
    except ImportError:
        raise RuntimeError(
            "the numpy kernel requires numpy; resolve kernels through "
            "kernel_function() for the sweep fallback"
        )
    n_outer = outer.length
    n_inner = inner.length
    if not n_outer or not n_inner:
        return []
    if n_outer * n_inner <= NUMPY_BROADCAST_CELLS:
        outer_starts, outer_ends = outer.numpy_columns(np)
        inner_starts, inner_ends = inner.numpy_columns(np)
        mask = (outer_starts[None, :] <= inner_ends[:, None]) & (
            inner_starts[:, None] <= outer_ends[None, :]
        )
        return np.flatnonzero(mask).tolist()
    outer_starts, outer_ends, outer_order, outer_sorted = outer.numpy_view(np)
    inner_starts, inner_ends, inner_order, inner_sorted = inner.numpy_view(np)

    # Family 1: inner starts inside [outer.start, outer.end].
    lo1 = np.searchsorted(inner_sorted, outer_starts, side="left")
    hi1 = np.searchsorted(inner_sorted, outer_ends, side="right")
    counts1 = hi1 - lo1
    total1 = int(counts1.sum())
    if total1:
        outer_pos = np.repeat(np.arange(n_outer), counts1)
        offsets = np.arange(total1) - np.repeat(
            np.cumsum(counts1) - counts1, counts1
        )
        inner_pos = inner_order[np.repeat(lo1, counts1) + offsets]
        encoded1 = inner_pos * n_outer + outer_pos
    else:
        encoded1 = None

    # Family 2: outer starts strictly inside (inner.start, inner.end].
    lo2 = np.searchsorted(outer_sorted, inner_starts, side="right")
    hi2 = np.searchsorted(outer_sorted, inner_ends, side="right")
    counts2 = hi2 - lo2
    total2 = int(counts2.sum())
    if total2:
        inner_pos = np.repeat(np.arange(n_inner), counts2)
        offsets = np.arange(total2) - np.repeat(
            np.cumsum(counts2) - counts2, counts2
        )
        outer_pos = outer_order[np.repeat(lo2, counts2) + offsets]
        encoded2 = inner_pos * n_outer + outer_pos
    else:
        encoded2 = None

    if encoded1 is None and encoded2 is None:
        return []
    if encoded1 is None:
        encoded = encoded2
    elif encoded2 is None:
        encoded = encoded1
    else:
        encoded = np.concatenate((encoded1, encoded2))
    encoded.sort()
    return encoded.tolist()


#: Kernel implementations by name.  ``"numpy"`` is registered whether or
#: not numpy is importable — resolve through :func:`kernel_function`
#: (not a raw dict lookup) to get the sweep fallback in numpy-less
#: environments.
KERNEL_FUNCS: Dict[str, Callable[[DecodedRun, DecodedRun], List[int]]] = {
    "naive": naive_matches,
    "sweep": sweep_matches,
    "numpy": numpy_matches,
}


def kernel_function(
    kernel: str,
) -> Callable[[DecodedRun, DecodedRun], List[int]]:
    """The callable implementing *kernel* **in this process**.

    This is the execution-time companion of :meth:`GranulePolicy.kernel
    <repro.core.granules.GranulePolicy.kernel>`: selection picks a
    name, this maps the name to code, substituting
    :func:`sweep_matches` for ``"numpy"`` when numpy is not importable
    here (bit-identically, since every kernel computes the same
    matches).
    """
    try:
        fn = KERNEL_FUNCS[kernel]
    except KeyError:
        raise ValueError(
            f"unknown join kernel {kernel!r}; choose from {KERNELS}"
        )
    if fn is numpy_matches and not numpy_available():
        return sweep_matches
    return fn
