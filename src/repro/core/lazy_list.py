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
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, List, Optional, Tuple

from ..storage.block import BlockRun
from ..storage.manager import StorageManager
from .oip import OIPConfiguration
from .relation import TemporalRelation, TemporalTuple

if TYPE_CHECKING:
    from .kernels import DecodedRun

__all__ = ["PartitionNode", "LazyPartitionList", "oip_create"]


class PartitionNode:
    """One non-empty partition ``p_{i,j}`` with its storage run.

    ``decoded`` memoises the run's columnar decode for the probe
    (:class:`~repro.core.join.RunReader`); it lives as long as the
    partition list, which belongs to one join run.
    """

    __slots__ = ("i", "j", "run", "down", "right", "decoded")

    def __init__(self, i: int, j: int, run: BlockRun) -> None:
        self.i = i
        self.j = j
        self.run = run
        self.down: Optional["PartitionNode"] = None
        self.right: Optional["PartitionNode"] = None
        self.decoded: Optional["DecodedRun"] = None

    def __repr__(self) -> str:
        return f"PartitionNode(i={self.i}, j={self.j}, n={self.run.tuple_count})"

    @property
    def tuple_count(self) -> int:
        return self.run.tuple_count


class LazyPartitionList:
    """The compressed triangular grid graph of non-empty partitions."""

    __slots__ = ("config", "head", "storage")

    def __init__(
        self,
        config: OIPConfiguration,
        storage: StorageManager,
    ) -> None:
        self.config = config
        self.head: Optional[PartitionNode] = None
        self.storage = storage

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
    partition are appended consecutively, so each partition occupies a
    contiguous block run on the storage manager.
    """
    if storage is None:
        storage = StorageManager()
    partition_list = LazyPartitionList(config, storage)

    d, o = config.d, config.o

    def sort_key(tup: TemporalTuple) -> Tuple[int, int]:
        return ((tup.end - o) // d, -((tup.start - o) // d))

    for tup in sorted(relation, key=sort_key):
        i = (tup.start - o) // d
        j = (tup.end - o) // d
        head = partition_list.head
        if head is None or head.j < j:
            node = PartitionNode(i, j, storage.new_run())
            node.down = head
            partition_list.head = node
        elif head.i > i:
            node = PartitionNode(i, j, storage.new_run())
            node.down = head.down
            node.right = head
            partition_list.head = node
        storage.append(partition_list.head.run, tup)

    return partition_list
