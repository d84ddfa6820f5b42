"""Exhaustive enumeration of sequentially consistent executions.

Sequential consistency admits exactly the executions of the idealized
architecture (all accesses atomic, per-processor program order
preserved), so enumerating idealized interleavings enumerates the SC
behaviours of a program.  Two searches are provided:

* :func:`enumerate_results` — the set of SC-*observables*.  States are
  memoized globally, so programs with spin loops and huge interleaving
  counts still explore each reachable machine state once.
* :func:`enumerate_executions` — complete SC *executions* (traces), used
  by the DRF0 checker and the Lemma-1 witness search, which need
  happens-before structure, not just outcomes.  Paths avoid revisiting a
  machine state they have already been in (re-entering an identical state
  can only replay identical suffixes, so no new hb shapes or results are
  reachable from the repeat).

Both searches apply conflict-aware partial-order reduction by default
(``prune=True``), built on :mod:`repro.sc.independence`:

* **persistent sets** — at each state only a provably sufficient subset
  of the runnable threads is expanded; steps excluded from the set
  commute with everything the other threads can still do, so exploring
  them would only permute already-covered interleavings.
  ``enumerate_results`` prunes with the paper's conflict relation;
  ``enumerate_executions`` uses the coarser hb-preserving dependence so
  every happens-before shape (hence every race verdict) keeps a
  representative.
* **sleep sets** — ``enumerate_results`` additionally remembers, per
  branch, which threads' steps were already explored from an equivalent
  position and skips them; the global memo table stores the sleep set a
  state was expanded with and re-expands only when a revisit arrives
  with strictly fewer suppressed threads (the standard sound refinement
  of sleep sets under state matching).  The execution stream does not
  use sleep sets: their interaction with the on-path cycle cut could
  drop trace-class representatives, and the DRF0 checker needs those.

Pruned searches remain proofs, not samples: every reachable terminal
state (so every SC observable) and a representative of every
Mazurkiewicz trace class of complete executions are still visited.
``prune=False`` restores the exhaustive walk — the equivalence test
suite compares the two over the full litmus catalog.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, FrozenSet, Iterator, List, Optional, Set, Tuple

from repro.core.execution import Execution, Observable
from repro.core.memo import program_memo
from repro.core.program import Program
from repro.delayset.analysis import AccessSummary, Footprint, static_footprints
from repro.obs import METRICS
from repro.sc.executor import IdealizedMachine, StateKey, _Code
from repro.sc.independence import (
    Dependence,
    SearchStats,
    conflict_dep,
    hb_dep,
    persistent_set,
)


class SearchBudgetExceeded(RuntimeError):
    """The interleaving search hit its configured state/path budget."""


#: Sleep-set sizes are small integers; buckets 1..32 plus overflow.
_SLEEP_BUCKETS = (1, 2, 4, 8, 16, 32)

_STAT_COUNTERS = (
    ("states", "repro_sc_states_total", "Machine states expanded"),
    ("transitions", "repro_sc_transitions_total", "Transitions taken"),
    ("terminals", "repro_sc_terminals_total", "Terminal states reached"),
    ("pruned_transitions", "repro_sc_pruned_transitions_total",
     "Transitions pruned by persistent sets"),
    ("sleep_skips", "repro_sc_sleep_skips_total",
     "Expansions skipped by sleep sets"),
)


def _search_obs(stats: Optional[SearchStats]):
    """``(stats, base)`` for an observed search; base marks prior work.

    When metrics are enabled a search always accounts its work in a
    :class:`SearchStats` — the caller's, snapshotted so only *this*
    search's delta is published, or a private one.
    """
    if not METRICS.enabled:
        return stats, None
    if stats is None:
        return SearchStats(), None
    return stats, dataclasses.replace(stats)


def _publish_search(
    kernel: str, stats: Optional[SearchStats], base: Optional[SearchStats]
) -> None:
    """Publish one search's SearchStats delta, labeled by kernel."""
    if not METRICS.enabled or stats is None:
        return
    for field, name, help_text in _STAT_COUNTERS:
        amount = getattr(stats, field)
        if base is not None:
            amount -= getattr(base, field)
        if amount:
            METRICS.inc(name, amount, help=help_text, kernel=kernel)
    METRICS.inc("repro_sc_searches_total", help="Search invocations",
                kernel=kernel)


class _Walks:
    """What every search of one program shares, kept in its
    :func:`program_memo`: the machine's code and root thread states
    (whose caches then hold every thread state a search reached), the
    static footprints, and one persistent-set memo per dependence
    relation.  Each entry is the same whoever fills it, so searches on
    other threads may share them; ``seen``/``on_path``, budgets and
    :class:`SearchStats` stay with each search."""

    def __init__(self, program: Program) -> None:
        self.code = _Code(program)
        self.footprints: Tuple[Tuple[Footprint, ...], ...] = (
            static_footprints(program)
        )
        self.chosen: Dict[Dependence, Dict[tuple, List[int]]] = {
            conflict_dep: {},
            hb_dep: {},
        }


def _walks(program: Program) -> _Walks:
    """The :class:`_Walks` of ``program``'s memo."""
    return program_memo(program).fact("idealized", _Walks)


def enumerate_results(
    program: Program,
    max_states: int = 2_000_000,
    prune: bool = True,
    stats: Optional[SearchStats] = None,
) -> Set[Observable]:
    """All observables of SC executions of ``program``.

    Performs a depth-first search over machine states with global
    memoization.  ``max_states`` bounds the number of distinct states
    explored; exceeding it raises :class:`SearchBudgetExceeded` rather
    than silently returning a partial answer.

    With ``prune=True`` (the default) the search expands a persistent
    set of threads per state and suppresses sleep-set members; the
    observable set is provably identical to the unpruned search, which
    ``prune=False`` restores.  Pass a :class:`SearchStats` to observe
    how much work the reduction saved.
    """
    stats, stats_base = _search_obs(stats)
    obs_on = METRICS.enabled  # hoisted: one local branch per state below
    results: Set[Observable] = set()
    walks = _walks(program)
    footprints = walks.footprints
    chosen = walks.chosen[conflict_dep]
    #: State -> sleep set it was (last) expanded with.  A revisit whose
    #: sleep set suppresses at least as much is fully covered; one that
    #: suppresses less re-expands with the intersection.
    seen: Dict[StateKey, FrozenSet[int]] = {}
    root = IdealizedMachine(program, walks.code)
    empty: FrozenSet[int] = frozenset()
    stack: List[Tuple[IdealizedMachine, FrozenSet[int]]] = [(root, empty)]
    seen[root.state_key()] = empty
    while stack:
        machine, sleep = stack.pop()
        if stats:
            stats.states += 1
        if obs_on and prune:
            METRICS.observe(
                "repro_sc_sleep_set_size", len(sleep),
                help="Sleep-set size at each expanded state",
                buckets=_SLEEP_BUCKETS, kernel="results",
            )
        runnable = machine.runnable_threads()
        if not runnable:
            results.add(machine.observable())
            if stats:
                stats.terminals += 1
            continue
        nexts: Dict[int, Optional[AccessSummary]] = {}
        if prune:
            expand = persistent_set(
                machine, runnable, footprints, conflict_dep, nexts, chosen
            )
            if stats:
                stats.pruned_transitions += len(runnable) - len(expand)
        else:
            expand = runnable

        def next_of(proc: int) -> Optional[AccessSummary]:
            if proc not in nexts:
                nexts[proc] = machine.next_access(proc)
            return nexts[proc]

        explored: List[int] = []
        for proc in expand:
            if proc in sleep:
                if stats:
                    stats.sleep_skips += 1
                continue
            op = next_of(proc)
            child = machine.fork()
            child.step(proc)
            if stats:
                stats.transitions += 1
            if prune:
                # Threads whose next step commutes with this one stay
                # asleep in the child: their interleavings are covered
                # by the sibling branches that run them first.
                child_sleep = frozenset(
                    q
                    for q in (*sleep, *explored)
                    if op is None
                    or next_of(q) is None
                    or not conflict_dep(next_of(q), op)
                )
                explored.append(proc)
            else:
                child_sleep = empty
            key = child.state_key()
            if key in seen:
                if child_sleep >= seen[key]:
                    continue
                child_sleep &= seen[key]
                seen[key] = child_sleep
            else:
                if len(seen) >= max_states:
                    raise SearchBudgetExceeded(
                        f"more than {max_states} distinct machine states"
                    )
                seen[key] = child_sleep
            stack.append((child, child_sleep))
    _publish_search("results", stats, stats_base)
    return results


def enumerate_executions(
    program: Program,
    max_executions: Optional[int] = None,
    max_depth: int = 100_000,
    prune: bool = True,
    stats: Optional[SearchStats] = None,
) -> Iterator[Execution]:
    """Yield complete SC executions (traces) of ``program``.

    Within a single path the search refuses to revisit a machine state,
    which makes spin loops terminate while preserving every distinct
    happens-before shape: a state repeat can only replay a suffix already
    reachable from its first visit.

    With ``prune=True`` (the default) each state expands only a
    persistent set computed under the hb-preserving dependence relation
    (same-location sync pairs stay ordered even when both read), so the
    stream keeps a representative of every Mazurkiewicz trace class —
    every happens-before shape and race verdict survives, while
    conflict-free interleavings of the same trace are emitted once
    instead of factorially often.  ``prune=False`` restores the full
    enumeration.

    ``max_executions`` truncates the stream (``None`` = unbounded);
    ``max_depth`` bounds the length of any single path.
    """
    stats, stats_base = _search_obs(stats)
    try:
        yield from _walk_executions(
            program, max_executions, max_depth, prune, stats
        )
    finally:
        # Publishes on normal exhaustion and on early generator close,
        # so an abandoned stream still reports the work it did.
        _publish_search("executions", stats, stats_base)


class _Frame:
    """One open node of the execution walk: the machine there, the
    threads it may step, the ones it steps first (its persistent set),
    how many steps it has tried, whether any led off the path, and the
    state key of the child being explored."""

    __slots__ = ("machine", "runnable", "first", "attempt", "tried",
                 "progressed", "child_key")

    def __init__(self, machine, runnable, first) -> None:
        self.machine: IdealizedMachine = machine
        self.runnable: List[int] = runnable
        self.first: List[int] = first
        self.attempt: Iterator[int] = iter(first)
        self.tried = 0
        self.progressed = False
        self.child_key: Optional[StateKey] = None


def _walk_executions(
    program: Program,
    max_executions: Optional[int],
    max_depth: int,
    prune: bool,
    stats: Optional[SearchStats],
) -> Iterator[Execution]:
    """:func:`enumerate_executions`' depth-first walk, on an explicit
    stack of :class:`_Frame` (children in the order a recursive walk
    would visit them)."""
    if max_executions is not None and max_executions <= 0:
        return
    walks = _walks(program)
    footprints = walks.footprints
    chosen = walks.chosen[hb_dep]
    yielded = 0
    root = IdealizedMachine(program, walks.code)
    on_path: Set[StateKey] = {root.state_key()}
    frames: List[_Frame] = []
    node: Optional[IdealizedMachine] = root
    while True:
        if node is not None:
            if len(frames) > max_depth:
                raise SearchBudgetExceeded(
                    f"execution longer than {max_depth} steps"
                )
            if stats:
                stats.states += 1
            runnable = node.runnable_threads()
            if runnable:
                if prune:
                    first = persistent_set(
                        node, runnable, footprints, hb_dep, None, chosen
                    )
                else:
                    first = runnable
                frames.append(_Frame(node, runnable, first))
            else:
                yielded += 1
                if stats:
                    stats.terminals += 1
                yield node.finish()
                if max_executions is not None and yielded >= max_executions:
                    return
                if not frames:
                    return
                on_path.remove(frames[-1].child_key)
            node = None
        frame = frames[-1]
        while node is None:
            for proc in frame.attempt:
                frame.tried += 1
                child = frame.machine.fork()
                child.step(proc)
                if stats:
                    stats.transitions += 1
                key = child.state_key()
                if key in on_path:
                    continue
                frame.progressed = True
                on_path.add(key)
                frame.child_key = key
                node = child
                break
            else:
                if frame.progressed or frame.tried == len(frame.runnable):
                    break
                # The persistent set only led back into states already
                # on this path.  A thread outside the set might still
                # make progress, so fall back to full expansion before
                # declaring livelock — keeps livelock detection
                # identical to the unpruned search.
                frame.attempt = iter(
                    [q for q in frame.runnable if q not in frame.first]
                )
        if node is not None:
            continue
        frames.pop()
        if stats:
            stats.pruned_transitions += len(frame.runnable) - frame.tried
        if not frame.progressed:
            # Every move re-enters a state already on this path: the
            # program can only spin here (e.g. all threads stuck on
            # locks that this path never releases).  Emit the partial
            # execution marked incomplete so callers can see livelock.
            execution = frame.machine.finish()
            execution.completed = False
            yielded += 1
            yield execution
            if max_executions is not None and yielded >= max_executions:
                return
        if not frames:
            return
        on_path.remove(frames[-1].child_key)


def count_reachable_states(program: Program, max_states: int = 2_000_000) -> int:
    """Number of distinct idealized machine states (a size diagnostic).

    Deliberately unpruned: the count is the size of the full state
    graph, the baseline pruned searches are measured against.
    """
    seen: Set[StateKey] = set()
    root = IdealizedMachine(program)
    stack = [root]
    seen.add(root.state_key())
    while stack:
        machine = stack.pop()
        for proc in machine.runnable_threads():
            child = machine.fork()
            child.step(proc)
            key = child.state_key()
            if key not in seen:
                if len(seen) >= max_states:
                    raise SearchBudgetExceeded(
                        f"more than {max_states} distinct machine states"
                    )
                seen.add(key)
                stack.append(child)
    return len(seen)
