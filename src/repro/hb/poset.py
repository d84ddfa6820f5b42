"""A finite strict partial order with fast reachability queries.

The happens-before relation of Section 4 is "the irreflexive transitive
closure of program order and synchronization order".  This module
provides the closure machinery: nodes are indexed once, direct edges are
added, and the transitive closure is computed with per-node successor
bitsets (Python ints), giving O(V·E/word) closure and O(1) ``ordered``
queries — fast enough to check executions with thousands of operations.
"""

from __future__ import annotations

from typing import Dict, Generic, Hashable, Iterable, Iterator, List, Sequence, Set, Tuple, TypeVar

N = TypeVar("N", bound=Hashable)


class CycleError(ValueError):
    """The supplied edges contain a cycle, so no strict partial order exists."""

    def __init__(self, cycle: Sequence) -> None:
        super().__init__(f"relation contains a cycle: {list(cycle)}")
        self.cycle = list(cycle)


class PartialOrder(Generic[N]):
    """A strict partial order over a fixed, finite node universe.

    Build by adding directed edges (``a`` before ``b``), then query with
    :meth:`ordered`.  The closure is computed lazily on first query and
    invalidated by subsequent edge insertions.
    """

    def __init__(self, nodes: Iterable[N]) -> None:
        self._nodes: List[N] = list(nodes)
        self._index: Dict[N, int] = {n: i for i, n in enumerate(self._nodes)}
        if len(self._index) != len(self._nodes):
            raise ValueError("duplicate nodes in partial order universe")
        self._direct: List[int] = [0] * len(self._nodes)  # successor bitsets
        self._closure: List[int] = []
        self._closed = False

    # -- construction ------------------------------------------------------
    def add_edge(self, a: N, b: N) -> None:
        """Record ``a`` strictly before ``b``."""
        ia, ib = self._index[a], self._index[b]
        if ia == ib:
            raise CycleError([a])
        self._direct[ia] |= 1 << ib
        self._closed = False

    def add_chain(self, nodes: Sequence[N]) -> None:
        """Record ``nodes[0] < nodes[1] < ...`` via consecutive edges."""
        for a, b in zip(nodes, nodes[1:]):
            self.add_edge(a, b)

    # -- queries -------------------------------------------------------------
    def ordered(self, a: N, b: N) -> bool:
        """True iff ``a`` is strictly before ``b`` in the closure."""
        self._ensure_closed()
        return bool(self._closure[self._index[a]] >> self._index[b] & 1)

    def are_ordered(self, a: N, b: N) -> bool:
        """True iff ``a`` and ``b`` are comparable (either direction)."""
        return self.ordered(a, b) or self.ordered(b, a)

    def successors(self, a: N) -> Set[N]:
        """All nodes strictly after ``a``."""
        self._ensure_closed()
        bits = self._closure[self._index[a]]
        return {self._nodes[i] for i in _bit_indices(bits)}

    def predecessors(self, b: N) -> Set[N]:
        """All nodes strictly before ``b``."""
        self._ensure_closed()
        ib = self._index[b]
        return {
            self._nodes[ia]
            for ia in range(len(self._nodes))
            if self._closure[ia] >> ib & 1
        }

    def maximal_before(self, b: N, candidates: Iterable[N]) -> List[N]:
        """The maximal elements among ``candidates`` that precede ``b``."""
        before = [c for c in candidates if self.ordered(c, b)]
        return [
            c
            for c in before
            if not any(other is not c and self.ordered(c, other) for other in before)
        ]

    @property
    def nodes(self) -> Tuple[N, ...]:
        return tuple(self._nodes)

    def __contains__(self, node: N) -> bool:
        return node in self._index

    def __len__(self) -> int:
        return len(self._nodes)

    def edges(self) -> Iterator[Tuple[N, N]]:
        """Iterate the *direct* (non-closed) edges."""
        for ia, bits in enumerate(self._direct):
            for ib in _bit_indices(bits):
                yield self._nodes[ia], self._nodes[ib]

    # -- internals ----------------------------------------------------------
    def _ensure_closed(self) -> None:
        if self._closed:
            return
        order = self._toposort()
        closure = [0] * len(self._nodes)
        for ia in reversed(order):
            bits = self._direct[ia]
            acc = bits
            for ib in _bit_indices(bits):
                acc |= closure[ib]
            closure[ia] = acc
        self._closure = closure
        self._closed = True

    def _toposort(self) -> List[int]:
        n = len(self._nodes)
        indegree = [0] * n
        for bits in self._direct:
            for ib in _bit_indices(bits):
                indegree[ib] += 1
        ready = [i for i in range(n) if indegree[i] == 0]
        order: List[int] = []
        while ready:
            i = ready.pop()
            order.append(i)
            for j in _bit_indices(self._direct[i]):
                indegree[j] -= 1
                if indegree[j] == 0:
                    ready.append(j)
        if len(order) != n:
            cycle = [self._nodes[i] for i in range(n) if indegree[i] > 0]
            raise CycleError(cycle)
        return order


def _bit_indices(bits: int) -> Iterator[int]:
    """Indices of the set bits of ``bits``, ascending."""
    while bits:
        low = bits & -bits
        yield low.bit_length() - 1
        bits ^= low
