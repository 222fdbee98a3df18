"""The lazy partition list (paper Section 4.2/4.3, Algorithm 1).

The set of possible OIP partitions forms a triangular grid graph with one
node per index pair ``(i, j)``, ``0 <= i <= j < k``.  The *lazy partition
list* is the compressed grid that materialises only non-empty partitions:

* the **main list** links nodes via ``down`` pointers in strictly
  *decreasing* ``j`` order, starting at the node with the largest ``j`` and
  smallest ``i``;
* each main-list node starts a **branch list** linking, via ``right``
  pointers, the nodes that share its ``j`` in strictly *increasing* ``i``
  order.

``OIPCREATE`` (:func:`oip_create`) builds the list in one pass after
sorting the relation by ``(j ASC, i DESC)``.  The sort guarantees every
tuple lands either in the current head node or in a brand-new node
prepended at the head, so insertion is O(1) and the total build cost is
O(n log n) — independent of ``k`` — while tuples of one partition are laid
out in contiguous storage blocks.

The list holds its tuples once, as creation-order columns
(:class:`~repro.storage.columns.RunColumns`); each node's run is a slice
of them plus the block ids it occupies
(:class:`~repro.storage.columns.ColumnRun`).
"""

from __future__ import annotations

from array import array
from itertools import groupby
from typing import Iterator, List, Optional, Tuple

from ..storage.columns import ColumnRun, RunColumns, block_bounds
from ..storage.manager import StorageManager
from .oip import OIPConfiguration
from .relation import TemporalRelation

__all__ = ["PartitionNode", "LazyPartitionList", "oip_create"]


class PartitionNode:
    """One non-empty partition ``p_{i,j}`` with its storage run.

    A node belongs to one join run; the probe's decode of its run lives
    on the run's columns (:attr:`~repro.storage.columns.RunColumns
    .decoded`), which a pinned snapshot generation shares across runs.
    """

    __slots__ = ("i", "j", "run", "down", "right")

    def __init__(self, i: int, j: int, run: ColumnRun) -> None:
        self.i = i
        self.j = j
        self.run = run
        self.down: Optional["PartitionNode"] = None
        self.right: Optional["PartitionNode"] = None

    def __repr__(self) -> str:
        return f"PartitionNode(i={self.i}, j={self.j}, n={self.run.tuple_count})"

    @property
    def tuple_count(self) -> int:
        return self.run.tuple_count


class LazyPartitionList:
    """The compressed triangular grid graph of non-empty partitions,
    over the creation-order *columns* its runs slice."""

    __slots__ = ("config", "head", "storage", "columns")

    def __init__(
        self,
        config: OIPConfiguration,
        storage: StorageManager,
        columns: RunColumns,
    ) -> None:
        self.config = config
        self.head: Optional[PartitionNode] = None
        self.storage = storage
        self.columns = columns

    def _prepend(self, i: int, j: int, run: ColumnRun) -> None:
        """Insert the partition created next — ``j`` ASC, ``i`` DESC — at
        the head: Algorithm 1's two O(1) head insertions."""
        node = PartitionNode(i, j, run)
        head = self.head
        if head is None or head.j < j:
            node.down = head
        else:  # same j, smaller i: the branch insert
            node.down = head.down
            node.right = head
        self.head = node

    def reallocated(self, storage: StorageManager) -> "LazyPartitionList":
        """The same partitions over the same columns, each run in blocks
        freshly allocated from *storage* in creation order — the block
        ids and write charges a build into *storage* makes."""
        copy = LazyPartitionList(self.config, storage, self.columns)
        for node in reversed(list(self.iter_nodes())):
            run = node.run
            copy._prepend(
                node.i,
                node.j,
                storage.column_run(
                    self.columns, run.offset, run.count, run.first_block
                ),
            )
        return copy

    # -- navigation ------------------------------------------------------------

    def iter_main(self) -> Iterator[PartitionNode]:
        """Main-list nodes in decreasing ``j`` order."""
        node = self.head
        while node is not None:
            yield node
            node = node.down

    def iter_nodes(self) -> Iterator[PartitionNode]:
        """Every node, branch lists expanded (grid order)."""
        for main in self.iter_main():
            node: Optional[PartitionNode] = main
            while node is not None:
                yield node
                node = node.right

    def relevant(
        self, s: int, e: int
    ) -> Tuple[List[PartitionNode], List[int]]:
        """Lemma 1 navigation: nodes with ``j >= s`` and ``i <= e``.

        Walks the main list while ``j >= s`` and each branch list while
        ``i <= e``; both lists are sorted, so the walk touches only the
        relevant nodes plus the terminating comparisons.  Returns
        ``(nodes, tests)`` in walk order, where ``tests[x]`` counts the
        index tests made up to and including the one that admitted
        ``nodes[x]`` and ``tests[-1]`` is the walk's total — the CPU
        comparisons Algorithm 2 charges for navigating.
        """
        nodes: List[PartitionNode] = []
        tests: List[int] = []
        made = 0
        main = self.head
        while main is not None:
            made += 1  # j >= s test
            if main.j < s:
                break
            node: Optional[PartitionNode] = main
            while node is not None:
                made += 1  # i <= e test
                if node.i > e:
                    break
                nodes.append(node)
                tests.append(made)
                node = node.right
            main = main.down
        tests.append(made)
        return nodes, tests

    def iter_relevant(self, s: int, e: int) -> Iterator[PartitionNode]:
        """The nodes of :meth:`relevant`, without the test counts."""
        return iter(self.relevant(s, e)[0])

    # -- statistics -----------------------------------------------------------

    def __len__(self) -> int:
        return sum(1 for _ in self.iter_nodes())

    @property
    def partition_count(self) -> int:
        """Number of materialised (non-empty) partitions."""
        return len(self)

    @property
    def tuple_count(self) -> int:
        return sum(node.tuple_count for node in self.iter_nodes())

    def index_pairs(self) -> List[Tuple[int, int]]:
        """All ``(i, j)`` pairs in grid order (tests and diagnostics)."""
        return [(node.i, node.j) for node in self.iter_nodes()]


def oip_create(
    relation: TemporalRelation,
    config: OIPConfiguration,
    storage: Optional[StorageManager] = None,
) -> LazyPartitionList:
    """Algorithm 1, ``OIPCREATE(r, (k, d, o))``.

    Sorts the relation by partition index ``(j ASC, i DESC)`` and builds
    the lazy partition list with O(1) head insertions.  Tuples of the same
    partition are consecutive in the sort, so each partition is one slice
    of the list's columns and occupies a contiguous block run on the
    storage manager, allocated as the partition is created.

    The keys come from the relation's endpoint columns.  When every
    tuple lies in one granule — at ``k = 1`` always, for a relation's own
    configuration — all keys are equal and the stable sort keeps the
    relation's order, so the keys and the sort are skipped: the list is
    one partition over the relation in insertion order.
    """
    if storage is None:
        storage = StorageManager()
    d, o = config.d, config.o
    tuples = relation.tuples
    starts, ends = relation.starts, relation.ends
    count = len(tuples)
    first = last = 0
    if count:
        span = relation.time_range
        first, last = (span.start - o) // d, (span.end - o) // d
    if first == last:
        sizes = [count] if count else []
        columns = RunColumns(
            list(tuples), starts[:], ends[:], array("q", range(count))
        )
    else:
        # One int per tuple orders (j ASC, i DESC): the relation's starts
        # span fewer than ``width`` granules, so ``j * width - i`` grows
        # with j first and falls with i among equal j.
        width = 1 + last - first
        keys = [(e - o) // d * width - (s - o) // d for s, e in zip(starts, ends)]
        order = sorted(range(count), key=keys.__getitem__)
        sizes = [len(list(run)) for _, run in groupby(map(keys.__getitem__, order))]
        del keys  # the largest temporary: free it before the columns exist
        columns = RunColumns(
            list(map(tuples.__getitem__, order)),
            array("q", map(starts.__getitem__, order)),
            array("q", map(ends.__getitem__, order)),
            array("q", order),
        )
    partition_list = LazyPartitionList(config, storage, columns)
    capacity = storage.device.tuples_per_block
    bounds: List[Tuple[int, int]] = []
    offset = 0
    for size in sizes:
        partition_list._prepend(
            (columns.starts[offset] - o) // d,
            (columns.ends[offset] - o) // d,
            storage.column_run(columns, offset, size, len(bounds)),
        )
        bounds.extend(block_bounds(offset, size, capacity))
        offset += size
    columns.seal(bounds)
    return partition_list
