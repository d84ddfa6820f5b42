"""Program order, synchronization order, and happens-before (Section 4).

For an execution on the idealized architecture (all accesses atomic and
in program order) the paper defines:

* ``op1 -po-> op2`` iff op1 occurs before op2 in program order of some
  process;
* ``op1 -so-> op2`` iff op1 and op2 are synchronization operations on the
  same location and op1 completes before op2;
* ``hb = (po ∪ so)+``, the irreflexive transitive closure.

The synchronization-order *edge rule* is pluggable because Section 6
sketches a refinement in which a read-only synchronization operation
cannot be used to order a processor's previous accesses with respect to
other processors' subsequent synchronization: under that refinement only
writer->reader synchronization pairs create cross-processor ordering (the
release/acquire pairing that later became DRF1).
"""

from __future__ import annotations

from collections import defaultdict
from typing import Callable, Dict, Iterable, List, Tuple

from repro.core.execution import Execution
from repro.core.operation import MemoryOp
from repro.hb.poset import PartialOrder

#: Decides whether an earlier sync op creates an so edge to a later sync
#: op on the same location.  Receives ``(earlier, later)``.
#:
#: Contract: a rule reads only the two ops' kinds (:class:`~repro.core.
#: operation.OpKind`), never their processors, values or positions, so
#: any two ops of the same kinds get the same answer.  The incremental
#: race kernel of :mod:`repro.drf.drf0` relies on it: it keeps one
#: running join of sync clocks per location and kind, and asks the rule
#: once per pair of kinds.
SyncEdgeRule = Callable[[MemoryOp, MemoryOp], bool]


def drf0_sync_edge(earlier: MemoryOp, later: MemoryOp) -> bool:
    """DRF0's rule: any two synchronization ops on a location are ordered."""
    return True


def writer_to_reader_sync_edge(earlier: MemoryOp, later: MemoryOp) -> bool:
    """Section 6 refinement: only a *writing* sync op releases, and only a
    *reading* sync op acquires."""
    return earlier.writes_memory and later.reads_memory


class HappensBefore:
    """The hb relation of one execution, with its po and so components.

    The execution's trace order is taken as completion order, which is
    exact for idealized executions and matches the commit-time
    serialization guaranteed by conditions 2-3 of Section 5.1 for
    hardware executions.
    """

    def __init__(
        self,
        execution: Execution,
        sync_edge_rule: SyncEdgeRule = drf0_sync_edge,
    ) -> None:
        self.execution = execution
        self._order = PartialOrder(execution.ops)
        self._po_edges: List[Tuple[MemoryOp, MemoryOp]] = []
        self._so_edges: List[Tuple[MemoryOp, MemoryOp]] = []
        self._add_program_order(execution)
        self._add_sync_order(execution, sync_edge_rule)

    # -- construction ---------------------------------------------------
    def _add_program_order(self, execution: Execution) -> None:
        for ops in execution.program_order().values():
            # A chain of direct edges suffices; transitivity comes from
            # the closure.
            self._order.add_chain(ops)
            self._po_edges.extend(zip(ops, ops[1:]))

    def _add_sync_order(self, execution: Execution, rule: SyncEdgeRule) -> None:
        by_location: Dict[str, List[MemoryOp]] = defaultdict(list)
        for op in execution.ops:
            if op.is_sync:
                by_location[op.location].append(op)
        for ops in by_location.values():
            for i, earlier in enumerate(ops):
                for later in ops[i + 1 :]:
                    if rule(earlier, later):
                        self._order.add_edge(earlier, later)
                        self._so_edges.append((earlier, later))

    # -- queries ----------------------------------------------------------
    def ordered(self, a: MemoryOp, b: MemoryOp) -> bool:
        """True iff ``a -hb-> b``."""
        return self._order.ordered(a, b)

    def are_ordered(self, a: MemoryOp, b: MemoryOp) -> bool:
        """True iff ``a`` and ``b`` are hb-comparable in either direction."""
        return self._order.are_ordered(a, b)

    def last_write_before(self, read: MemoryOp) -> MemoryOp:
        """The unique hb-maximal write to ``read.location`` ordered before
        ``read`` (well-defined for DRF0 executions, Lemma 1).

        Raises ``LookupError`` if there is no hb-ordered prior write or if
        the maximal prior writes are not unique (which cannot happen for
        an execution that satisfies DRF0 on an augmented trace).
        """
        writes = [
            op
            for op in self.execution.ops
            if op.writes_memory and op.location == read.location and op is not read
        ]
        maximal = self._order.maximal_before(read, writes)
        if not maximal:
            raise LookupError(
                f"no write to {read.location!r} is hb-ordered before {read!r}"
            )
        if len(maximal) > 1:
            raise LookupError(
                f"ambiguous last write before {read!r}: {maximal} "
                "(execution is not data-race-free)"
            )
        return maximal[0]

    def po_edges(self) -> List[Tuple[MemoryOp, MemoryOp]]:
        return list(self._po_edges)

    def so_edges(self) -> List[Tuple[MemoryOp, MemoryOp]]:
        return list(self._so_edges)

    @property
    def order(self) -> PartialOrder:
        """The underlying closed partial order (hb itself)."""
        return self._order


def build_happens_before(
    execution: Execution,
    sync_edge_rule: SyncEdgeRule = drf0_sync_edge,
) -> HappensBefore:
    """Convenience constructor mirroring the paper's notation."""
    return HappensBefore(execution, sync_edge_rule)
