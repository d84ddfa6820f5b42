"""The relational vocabulary of axiomatic memory models: po, rf, co, fr.

The operational half of the library produces *executions* — totally
ordered traces out of a simulator.  Axiomatic models (herd-style) speak
about *candidate executions* instead: a set of memory operations plus a
handful of relations over them —

* ``po``  — program order (same processor, earlier-to-later pairs),
* ``rf``  — reads-from (each read names the write it observed, or the
  initial memory value),
* ``co``  — coherence order (a total order over the writes to each
  location),
* ``fr``  — from-reads, the derived relation ``rf⁻¹ ; co`` (a read is
  ordered before every write that coherence-follows the one it read).

:class:`Relations` packages exactly that, together with the
``fenced`` po-pairs (pairs separated by a :class:`~repro.core.
instructions.Fence`, which every core drains on regardless of policy).
It can be *derived* from an operational execution
(:func:`relations_from_execution`) or *chosen* freely by the candidate
enumerator (:mod:`repro.axiomatic.candidates`); the axioms in
:mod:`repro.axiomatic.model` consume either, and :func:`find_cycle`
names the labelled edges of a cycle that violates one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.core.execution import Execution
from repro.core.instructions import Fence
from repro.core.operation import INITIAL_VALUE, Location, MemoryOp, Value
from repro.core.program import Program

#: An ordered pair of operations — one edge of a relation.
Edge = Tuple[MemoryOp, MemoryOp]


#: One edge of a cycle, tagged with the relation it came from.
LabelledEdge = Tuple[MemoryOp, MemoryOp, str]


def find_cycle(
    relations: Mapping[str, Iterable[Edge]]
) -> Optional[List[LabelledEdge]]:
    """The first cycle in the union of some labelled relations, or None.

    ``relations`` maps a label (``"po"``, ``"rf"``, ...) to its edges.
    The cycle comes back as consecutive ``(src, dst, label)`` edges, each
    edge's ``dst`` the next one's ``src`` and the last closing on the
    first; an edge in several relations carries the first label given.
    Iterative three-colour depth-first search: the op graphs here are a
    few hundred nodes at most, so no cleverness is warranted.
    """
    adjacency: Dict[MemoryOp, Dict[MemoryOp, str]] = {}
    for label, edges in relations.items():
        for src, dst in edges:
            adjacency.setdefault(src, {}).setdefault(dst, label)
    GREY, BLACK = 1, 2
    colour: Dict[MemoryOp, int] = {}
    for root in adjacency:
        if root in colour:
            continue
        colour[root] = GREY
        path = [root]
        children = [iter(adjacency[root])]
        while path:
            for child in children[-1]:
                state = colour.get(child)
                if state == GREY:
                    loop = path[path.index(child):] + [child]
                    return [
                        (src, dst, adjacency[src][dst])
                        for src, dst in zip(loop, loop[1:])
                    ]
                if state is None:
                    colour[child] = GREY
                    path.append(child)
                    children.append(iter(adjacency.get(child, ())))
                    break
            else:
                colour[path.pop()] = BLACK
                children.pop()
    return None


@dataclass
class Relations:
    """A candidate execution: operations plus the relations over them.

    ``rf`` maps every read(-component) op to the write it reads from, or
    ``None`` for the initial memory value.  ``co`` gives, per location,
    the coherence order of that location's writes (initial write
    implicit, coherence-first).  ``po`` and ``fenced`` are *transitive*
    pair sets — more edges than the covering relation, identical cycles.

    ``drf0``/``drf0_r`` record whether the originating *program* obeys
    DRF0 / DRF0-R (``None`` when not computed); the conditional
    Definition-2 models consult them.
    """

    ops: Tuple[MemoryOp, ...]
    po: FrozenSet[Edge]
    fenced: FrozenSet[Edge]
    rf: Mapping[MemoryOp, Optional[MemoryOp]]
    co: Mapping[Location, Tuple[MemoryOp, ...]]
    drf0: Optional[bool] = None
    drf0_r: Optional[bool] = None
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    # -- derived edge sets ------------------------------------------------
    def rf_edges(self) -> FrozenSet[Edge]:
        """Write-to-read edges (initial-value reads contribute none)."""
        return self._derived(
            "rf",
            lambda: frozenset(
                (writer, read)
                for read, writer in self.rf.items()
                if writer is not None
            ),
        )

    def rfe_edges(self) -> FrozenSet[Edge]:
        """External reads-from: the writer is on another processor."""
        return self._derived(
            "rfe",
            lambda: frozenset(
                (w, r) for w, r in self.rf_edges() if w.proc != r.proc
            ),
        )

    def co_edges(self) -> FrozenSet[Edge]:
        """All earlier-to-later pairs of each location's coherence order."""

        def build() -> FrozenSet[Edge]:
            edges: Set[Edge] = set()
            for order in self.co.values():
                for i, earlier in enumerate(order):
                    for later in order[i + 1:]:
                        edges.add((earlier, later))
            return frozenset(edges)

        return self._derived("co", build)

    def fr_edges(self) -> FrozenSet[Edge]:
        """From-reads: read -> every write coherence-after its source."""

        def build() -> FrozenSet[Edge]:
            edges: Set[Edge] = set()
            for read, writer in self.rf.items():
                order = self.co.get(read.location, ())
                start = 0 if writer is None else order.index(writer) + 1
                for later in order[start:]:
                    if later is not read:
                        edges.add((read, later))
            return frozenset(edges)

        return self._derived("fr", build)

    def po_loc_edges(self) -> FrozenSet[Edge]:
        """Program-order pairs over the same location."""
        return self._derived(
            "po_loc",
            lambda: frozenset(
                (a, b) for a, b in self.po if a.location == b.location
            ),
        )

    def reads(self) -> Tuple[MemoryOp, ...]:
        return tuple(op for op in self.ops if op.reads_memory)

    def writes(self) -> Tuple[MemoryOp, ...]:
        return tuple(op for op in self.ops if op.writes_memory)

    def _derived(self, key: str, build):
        if key not in self._cache:
            self._cache[key] = build()
        return self._cache[key]


def program_order_pairs(
    ops_by_proc: Mapping[int, Sequence[MemoryOp]]
) -> FrozenSet[Edge]:
    """All transitive program-order pairs of per-processor op sequences."""
    edges: Set[Edge] = set()
    for ops in ops_by_proc.values():
        for i, earlier in enumerate(ops):
            for later in ops[i + 1:]:
                edges.add((earlier, later))
    return frozenset(edges)


def fence_separated_pairs(
    program: Program, ops_by_proc: Mapping[int, Sequence[MemoryOp]]
) -> FrozenSet[Edge]:
    """Po-pairs with a ``Fence`` instruction strictly between them.

    Positions come from ``thread_pos``, so the program handed in must be
    the one the operations were generated from (for litmus tests, the
    *executable* program — warm-up loads shift every position).
    """
    fence_positions: List[Tuple[int, ...]] = [
        tuple(
            pos
            for pos, instr in enumerate(thread.instructions)
            if isinstance(instr, Fence)
        )
        for thread in program.threads
    ]
    edges: Set[Edge] = set()
    for proc, ops in ops_by_proc.items():
        fences = fence_positions[proc] if 0 <= proc < len(fence_positions) else ()
        if not fences:
            continue
        for i, earlier in enumerate(ops):
            for later in ops[i + 1:]:
                if any(
                    earlier.thread_pos < pos < later.thread_pos
                    for pos in fences
                ):
                    edges.add((earlier, later))
    return frozenset(edges)


def _trace_coherence(
    execution: Execution,
) -> Dict[Location, Tuple[MemoryOp, ...]]:
    """Each location's real writes, in trace (commit) order."""
    co: Dict[Location, List[MemoryOp]] = {}
    for op in execution.ops:
        if op.writes_memory and not op.is_hypothetical:
            co.setdefault(op.location, []).append(op)
    return {loc: tuple(writes) for loc, writes in co.items()}


class ThinAirError(ValueError):
    """Reads returned values that no write and no initial value explain."""

    def __init__(self, reads: Sequence[MemoryOp]) -> None:
        listed = ", ".join(repr(op) for op in reads)
        super().__init__(f"reads of values never written: {listed}")
        self.reads = list(reads)


def reads_from(
    execution: Execution, initial_memory: Mapping[Location, Value]
) -> Dict[MemoryOp, Optional[MemoryOp]]:
    """Bind every real read to the write it observed (None: initial value).

    Trace (commit) order is the serialization, so a read takes the last
    same-location write before it in trace order, if that write stored
    the value read.  Otherwise it takes the latest write of that value
    committed no later than the read, or else the initial value.  Raises
    :class:`ThinAirError` carrying the reads none of these explains.
    """
    writes = _trace_coherence(execution)
    rf: Dict[MemoryOp, Optional[MemoryOp]] = {}
    last_write: Dict[Location, MemoryOp] = {}
    thin_air: List[MemoryOp] = []
    for op in execution.ops:
        if op.is_hypothetical:
            continue
        if op.reads_memory:
            source = last_write.get(op.location)
            if source is None or source.value_written != op.value_read:
                source = None
                for write in writes.get(op.location, ()):
                    if write is op or write.value_written != op.value_read:
                        continue
                    if (
                        write.commit_time is None
                        or op.commit_time is None
                        or write.commit_time <= op.commit_time
                    ):
                        source = write  # trace order: keep the latest
            initial = initial_memory.get(op.location, INITIAL_VALUE)
            if source is not None or op.value_read == initial:
                rf[op] = source
            else:
                thin_air.append(op)
        if op.writes_memory:
            last_write[op.location] = op
    if thin_air:
        raise ThinAirError(thin_air)
    return rf


def relations_from_execution(
    execution: Execution,
    initial_memory: Mapping[Location, Value],
    program: Optional[Program] = None,
    drf0: Optional[bool] = None,
    drf0_r: Optional[bool] = None,
) -> Relations:
    """Derive the candidate relations an operational execution witnesses.

    The execution's trace order serves as the serialization: ``co`` is
    the trace order of each location's writes and ``rf`` follows
    :func:`reads_from`.  ``po`` is the execution's program order without
    the hypothetical augmentation ops.  ``fenced`` pairs need the
    program the trace came from; without one they are empty.
    """
    by_proc = execution.program_order()
    for proc in (MemoryOp.INIT_PROC, MemoryOp.FINAL_PROC):
        by_proc.pop(proc, None)
    fenced: FrozenSet[Edge] = frozenset()
    if program is not None:
        fenced = fence_separated_pairs(program, by_proc)

    return Relations(
        ops=tuple(op for op in execution.ops if not op.is_hypothetical),
        po=program_order_pairs(by_proc),
        fenced=fenced,
        rf=reads_from(execution, initial_memory),
        co=_trace_coherence(execution),
        drf0=drf0,
        drf0_r=drf0_r,
    )
