"""Shasha-Snir delay-set analysis [ShS88] (paper Section 2.1).

"Their scheme statically identifies a minimal set of pairs of accesses
within a process, such that delaying the issue of one of the elements in
each pair until the other is globally performed guarantees sequential
consistency."

The analysis operates on *straight-line* programs (the classic setting;
branchy programs need the conservative treatment the paper alludes to
when it notes the approach "may be quite pessimistic"):

* build the graph ``G = P ∪ C`` over static accesses, where ``P`` holds
  directed program-order edges within each thread and ``C`` holds
  conflict edges (both directions) between threads;
* a program-order pair ``(a, b)`` must be **delayed** iff it lies on a
  cycle of ``G`` — equivalently, iff ``b`` reaches ``a`` without using
  the ``(a, b)`` edge (any such path must leave the thread through a
  conflict edge and return through one, so the cycle is genuinely
  "mixed");
* Shasha & Snir prove the *minimal* delay set consists of the pairs on
  **critical cycles**: simple mixed cycles visiting at most two accesses
  per processor, adjacent in the cycle.  :func:`minimal_delay_pairs`
  implements that refinement by cycle enumeration (fine at litmus
  scale); :func:`delay_pairs` is the sound reachability-based superset
  that scales.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    TYPE_CHECKING, Dict, FrozenSet, Iterator, List, Optional, Set, Tuple,
)

from repro.core.instructions import MemInstruction
from repro.core.operation import OpKind
from repro.core.program import Program

if TYPE_CHECKING:  # pragma: no cover
    import networkx as nx


class NotStraightLineError(ValueError):
    """Delay-set analysis requires branch-free threads."""


@dataclass(frozen=True)
class StaticAccess:
    """A static memory access: (processor, instruction index)."""

    proc: int
    pos: int
    kind: OpKind
    location: str

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        tag = "W" if self.kind.writes_memory else "R"
        return f"{tag}(P{self.proc}@{self.pos},{self.location})"


#: A delay pair: the later access may not issue until the earlier one is
#: globally performed.
DelayPair = Tuple[StaticAccess, StaticAccess]


def static_accesses(program: Program) -> List[List[StaticAccess]]:
    """Per-thread lists of static accesses; rejects branchy programs."""
    from repro.core.instructions import Branch, Jump

    per_thread: List[List[StaticAccess]] = []
    for proc, thread in enumerate(program.threads):
        accesses = []
        for pos, instr in enumerate(thread.instructions):
            if isinstance(instr, (Branch, Jump)):
                raise NotStraightLineError(
                    f"thread {thread.name!r} has control flow at {pos}; "
                    "delay-set analysis handles straight-line programs"
                )
            if isinstance(instr, MemInstruction):
                accesses.append(
                    StaticAccess(proc, pos, instr.kind, instr.location)
                )
        per_thread.append(accesses)
    return per_thread


#: Static summary of one access: ``(location, writes_memory, is_sync)``.
AccessSummary = Tuple[str, bool, bool]

#: Access summaries reachable from one program point.
Footprint = FrozenSet[AccessSummary]


def static_footprints(program: Program) -> Tuple[Tuple[Footprint, ...], ...]:
    """Per-thread, per-pc sets of accesses reachable from that pc.

    ``result[proc][pc]`` over-approximates every memory access thread
    ``proc`` can still perform once control reaches ``pc`` — computed as
    a reachability fixpoint on the thread's control-flow graph, so it
    handles branches and loops that :func:`static_accesses` rejects.
    Registers are ignored (both branch arms are assumed reachable),
    which keeps the footprint sound for any data valuation; that is what
    lets the SC search use it to bound the future behaviour of a thread
    other threads cannot influence except through memory.

    Each tuple has ``len(instructions) + 1`` entries; the final entry is
    the empty footprint of the implicit halt past the last instruction.
    """
    from repro.core.instructions import Branch, Halt, Jump

    per_thread: List[Tuple[Footprint, ...]] = []
    for thread in program.threads:
        size = len(thread.instructions)
        successors: List[Tuple[int, ...]] = []
        generated: List[Optional[AccessSummary]] = []
        for pc, instr in enumerate(thread.instructions):
            if isinstance(instr, Halt):
                successors.append(())
            elif isinstance(instr, Jump):
                successors.append((thread.target_of(instr),))
            elif isinstance(instr, Branch):
                successors.append((thread.target_of(instr), pc + 1))
            else:
                successors.append((pc + 1,))
            if isinstance(instr, MemInstruction):
                generated.append(
                    (instr.location, instr.kind.writes_memory, instr.kind.is_sync)
                )
            else:
                generated.append(None)
        reachable: List[Set[AccessSummary]] = [set() for _ in range(size + 1)]
        changed = True
        while changed:
            changed = False
            for pc in range(size - 1, -1, -1):
                update: Set[AccessSummary] = set()
                if generated[pc] is not None:
                    update.add(generated[pc])
                for succ in successors[pc]:
                    if succ < size:
                        update |= reachable[succ]
                if not update <= reachable[pc]:
                    reachable[pc] |= update
                    changed = True
        per_thread.append(tuple(frozenset(fp) for fp in reachable))
    return tuple(per_thread)


def _conflicts(a: StaticAccess, b: StaticAccess) -> bool:
    if a.proc == b.proc or a.location != b.location:
        return False
    return a.kind.writes_memory or b.kind.writes_memory


def conflict_graph(program: Program) -> "nx.DiGraph":
    """``P ∪ C``: program edges directed, conflict edges both ways.

    networkx is imported here, not at package import: only the delay-set
    analyses need it.
    """
    import networkx as nx

    per_thread = static_accesses(program)
    graph = nx.DiGraph()
    for accesses in per_thread:
        graph.add_nodes_from(accesses)
        for earlier, later in zip(accesses, accesses[1:]):
            graph.add_edge(earlier, later, kind="program")
    flat = [a for accesses in per_thread for a in accesses]
    for i, a in enumerate(flat):
        for b in flat[i + 1 :]:
            if _conflicts(a, b):
                graph.add_edge(a, b, kind="conflict")
                graph.add_edge(b, a, kind="conflict")
    return graph


def _program_pairs(per_thread: List[List[StaticAccess]]) -> Iterator[DelayPair]:
    """All program-ordered pairs (not just adjacent ones)."""
    for accesses in per_thread:
        for i, a in enumerate(accesses):
            for b in accesses[i + 1 :]:
                yield (a, b)


def delay_pairs(program: Program) -> Set[DelayPair]:
    """The sound (cycle-membership) delay set.

    ``(a, b)`` is delayed iff some path leads from ``b`` back to ``a`` —
    i.e. the pair lies on a mixed cycle, so reordering it could be
    observed.  This is a superset of the minimal set but already far
    smaller than total order for typical programs.
    """
    import networkx as nx

    per_thread = static_accesses(program)
    graph = conflict_graph(program)
    delays: Set[DelayPair] = set()
    # Reachability restricted to each thread-exit: compute descendants of
    # every node once.
    descendants: Dict[StaticAccess, Set[StaticAccess]] = {
        node: nx.descendants(graph, node) for node in graph.nodes
    }
    for a, b in _program_pairs(per_thread):
        if a in descendants.get(b, set()):
            delays.add((a, b))
    return delays


def _is_critical_cycle(cycle: List[StaticAccess]) -> bool:
    """Shasha-Snir critical-cycle side conditions.

    At most two accesses per processor, and a processor's accesses must
    be adjacent in the cycle (they form the program-order chord being
    tested); at most three accesses per location.
    """
    n = len(cycle)
    by_proc: Dict[int, List[int]] = {}
    by_loc: Dict[str, int] = {}
    for idx, node in enumerate(cycle):
        by_proc.setdefault(node.proc, []).append(idx)
        by_loc[node.location] = by_loc.get(node.location, 0) + 1
    for indices in by_proc.values():
        if len(indices) > 2:
            return False
        if len(indices) == 2:
            i, j = indices
            if (j - i) % n != 1 and (i - j) % n != 1:
                return False
    return all(count <= 3 for count in by_loc.values())


def minimal_delay_pairs(
    program: Program, max_cycle_length: int = 12
) -> Set[DelayPair]:
    """The delay pairs lying on critical cycles (Shasha-Snir's minimal set).

    Enumerates simple cycles of the mixed graph (bounded by
    ``max_cycle_length``), keeps the critical ones, and collects their
    program-order chords.  Exponential in the worst case; intended for
    litmus/kernel-sized programs.
    """
    import networkx as nx

    graph = conflict_graph(program)
    per_thread = static_accesses(program)
    order: Dict[StaticAccess, int] = {}
    for accesses in per_thread:
        for idx, access in enumerate(accesses):
            order[access] = idx

    delays: Set[DelayPair] = set()
    for cycle in nx.simple_cycles(graph):
        if len(cycle) < 2 or len(cycle) > max_cycle_length:
            continue
        if not _is_critical_cycle(cycle):
            continue
        n = len(cycle)
        for idx, node in enumerate(cycle):
            nxt = cycle[(idx + 1) % n]
            if node.proc == nxt.proc:
                if order[node] < order[nxt]:
                    delays.add((node, nxt))
                else:
                    delays.add((nxt, node))
    return delays


def describe_delay_set(delays: Set[DelayPair]) -> str:
    """Human-readable, deterministic rendering of a delay set."""
    if not delays:
        return "delay set: empty (no mixed cycles — any issue order is SC)"
    lines = [f"delay set ({len(delays)} pair(s)):"]
    for a, b in sorted(delays, key=lambda p: (p[0].proc, p[0].pos, p[1].pos)):
        lines.append(f"  P{a.proc}: {a!r} must globally perform before {b!r} issues")
    return "\n".join(lines)
