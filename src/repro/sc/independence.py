"""Independence relation and persistent-set selection for the SC search.

Partial-order reduction, specialised to the idealized architecture.  Two
enabled steps *commute* — executing them in either order reaches the same
machine state with the same values read — iff their memory accesses are
independent.  The base relation is Section 4's conflict relation (same
location and not both reads), lifted to static access summaries by
:func:`repro.hb.conflict.accesses_conflict`; searches that must preserve
happens-before shapes (the DRF0 execution stream) use the coarser
:func:`repro.hb.conflict.accesses_dependent`, under which two
same-location synchronization reads remain ordered because DRF0's ``so``
relates every same-location sync pair.

The key structural facts that make the reduction a *proof* here:

* every non-halted thread is always enabled — no thread can block or be
  woken by another, so enabledness never changes out from under a
  persistent set;
* a thread's path to its next memory access is thread-locally
  deterministic (:meth:`IdealizedMachine.next_access` is exact), so a
  persistent-set member cannot halt without performing exactly that
  access;
* a thread's entire future access set is bounded by the CFG-reachability
  footprint of its current pc (:func:`repro.delayset.static_footprints`),
  which is valid for any data valuation.

A set ``P`` of runnable threads is *persistent* in a state when no
sequence of steps by threads outside ``P`` can perform an access
dependent with the next access of any member.  :func:`persistent_set`
computes the smallest such closure over the candidate seeds; exploring
only ``P`` from each state still reaches every terminal state (hence
every SC observable) and a representative of every Mazurkiewicz trace
class of complete executions (hence every happens-before shape).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.delayset.analysis import AccessSummary, Footprint
from repro.hb.conflict import accesses_conflict, accesses_dependent
from repro.sc.executor import IdealizedMachine

#: Dependence predicate over two static access summaries.
Dependence = Callable[[AccessSummary, AccessSummary], bool]


def conflict_dep(a: AccessSummary, b: AccessSummary) -> bool:
    """Dependence for observable-preserving reordering (the paper's
    conflict relation): same location and not both reads."""
    return accesses_conflict(a[0], a[1], b[0], b[1])


def hb_dep(a: AccessSummary, b: AccessSummary) -> bool:
    """Dependence for happens-before-preserving reordering: additionally
    keeps same-location sync-sync pairs ordered (``so`` edges)."""
    return accesses_dependent(a[0], a[1], a[2], b[0], b[1], b[2])


@dataclass
class SearchStats:
    """Counters describing one interleaving search.

    ``pruned_transitions`` counts enabled steps a persistent set excluded
    from expansion; ``sleep_skips`` counts steps additionally suppressed
    by sleep sets.  ``states`` is the number of distinct states expanded
    (for :func:`repro.sc.interleaving.enumerate_results`) or path nodes
    visited (for ``enumerate_executions``), the quantity benchmarks
    compare pruned-vs-unpruned.
    """

    states: int = 0
    transitions: int = 0
    terminals: int = 0
    pruned_transitions: int = 0
    sleep_skips: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "states": self.states,
            "transitions": self.transitions,
            "terminals": self.terminals,
            "pruned_transitions": self.pruned_transitions,
            "sleep_skips": self.sleep_skips,
        }


def _dependent_with_footprint(
    access: AccessSummary, footprint: Footprint, dep: Dependence
) -> bool:
    return any(dep(access, other) for other in footprint)


def persistent_set(
    machine: IdealizedMachine,
    runnable: Sequence[int],
    footprints: Tuple[Tuple[Footprint, ...], ...],
    dep: Dependence,
    next_cache: Optional[Dict[int, Optional[AccessSummary]]] = None,
    memo: Optional[Dict[tuple, List[int]]] = None,
) -> List[int]:
    """Smallest persistent set of runnable threads at the machine state.

    Closure condition: a thread ``q`` outside the set is pulled in iff
    its footprint from its current pc contains an access dependent with
    the *next* access of some member.  Threads outside the set can then
    never perform a dependent access before a member moves, which is
    exactly the persistence requirement.  A thread about to halt without
    another memory access commutes with everything, so it forms a
    singleton persistent set on its own.

    Every candidate seed is tried and the smallest resulting closure is
    returned (ties broken by lowest seed index, keeping the search
    deterministic).  ``next_cache``, when provided, carries each thread's
    next-access summary so callers expanding one state several times do
    not re-peek.

    ``memo``, when provided, maps ``(thread, pc, next access)`` of every
    runnable thread to the set chosen for them: those are all the answer
    reads, given one ``footprints`` and ``dep``.  The searches pass the
    memo that their program's :func:`~repro.core.memo.program_memo`
    keeps for ``dep``, so a memo never serves another program or
    another dependence relation.  The returned list is shared; callers
    must not mutate it.
    """
    if len(runnable) <= 1:
        return list(runnable)
    nexts: Dict[int, Optional[AccessSummary]] = (
        next_cache if next_cache is not None else {}
    )
    key = None
    if memo is not None:
        for proc in runnable:
            if proc not in nexts:
                nexts[proc] = machine.next_access(proc)
        key = tuple(
            [(p, machine.thread_pc(p), nexts[p]) for p in runnable]
        )
        best = memo.get(key)
        if best is not None:
            return best
    best = _closure(machine, runnable, footprints, dep, nexts)
    if memo is not None:
        memo[key] = best
    return best


def _closure(
    machine: IdealizedMachine,
    runnable: Sequence[int],
    footprints: Tuple[Tuple[Footprint, ...], ...],
    dep: Dependence,
    nexts: Dict[int, Optional[AccessSummary]],
) -> List[int]:
    """:func:`persistent_set` without its memo."""
    for proc in runnable:
        if proc not in nexts:
            nexts[proc] = machine.next_access(proc)
        if nexts[proc] is None:
            # Halting steps touch only the thread's own pc: independent
            # of every other step, so {proc} is trivially persistent.
            return [proc]
    best: Optional[List[int]] = None
    for seed in runnable:
        members = {seed}
        changed = True
        while changed:
            changed = False
            for q in runnable:
                if q in members:
                    continue
                fq = footprints[q][machine.thread_pc(q)]
                if any(
                    _dependent_with_footprint(nexts[p], fq, dep)
                    for p in members
                ):
                    members.add(q)
                    changed = True
        if best is None or len(members) < len(best):
            best = sorted(members)
            if len(best) == 1:
                break
    assert best is not None
    return best
