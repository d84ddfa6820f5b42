"""The DRF0 program checker (Definition 3).

A program obeys DRF0 iff (1) its synchronization operations are hardware
recognizable and single-location — guaranteed structurally by the
instruction set — and (2) for *any* execution on the idealized system,
all conflicting accesses are ordered by the execution's happens-before.

Deciding (2) therefore quantifies over every idealized execution.  The
checker enumerates them (see :mod:`repro.sc.interleaving`) and judges
each, reporting the first witness execution that exhibits a race —
exactly the counterexample a programmer would want.

Consecutive executions of the depth-first enumeration share all but
their last few operations, as the very same :class:`MemoryOp` objects.
:class:`_PrefixRaceChecker` exploits that: it keeps vector clocks for
the current DFS path and, per execution, pops back to the shared prefix
and pushes only the new operations, each compared with the earlier
accesses to its own location.  The full race detector
(:func:`repro.drf.races.find_races`) stays the oracle: it is run on the
first racy execution and supplies the reported races.

The stream of executions does not depend on the synchronization model,
so one walk feeds one kernel per model and leaves, in the program's
memo, every verdict it settles; see :func:`check_program`.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.execution import Execution
from repro.core.memo import program_memo
from repro.core.operation import Location, MemoryOp, OpKind
from repro.core.program import Program
from repro.drf.models import DRF0, DRF0_R, SynchronizationModel
from repro.drf.races import Race, find_races
from repro.hb.augment import AugmentationError, _is_reserved_location
from repro.sc.interleaving import SearchBudgetExceeded, enumerate_executions

#: Execution budget of the Definition-2 contract checks (the conformance
#: grid and the axiomatic crosscheck); every catalog test needs at most 8.
CONTRACT_MAX_EXECUTIONS = 5_000


class RaceKernelMismatch(RuntimeError):
    """The incremental race kernel and the full race detector disagree."""


@dataclass
class DRFReport:
    """Outcome of checking a program against a synchronization model."""

    program: Program
    model: SynchronizationModel
    obeys: bool
    executions_checked: int
    #: Races of the first racy execution found (empty when ``obeys``).
    races: List[Race] = field(default_factory=list)
    #: The idealized execution witnessing the races, if any.
    witness: Optional[Execution] = None
    #: False when ``max_executions`` cut a clean search short.
    exhaustive: bool = True

    def describe(self) -> str:
        verdict = "obeys" if self.obeys else "VIOLATES"
        scope = "exhaustively" if self.exhaustive else "within search budget"
        lines = [
            f"program {self.program.name!r} {verdict} {self.model.name} "
            f"({self.executions_checked} idealized execution(s) checked {scope})"
        ]
        lines.extend(f"  - {race.describe()}" for race in self.races)
        return "\n".join(lines)


def check_program(
    program: Program,
    *,
    model: SynchronizationModel = DRF0,
    max_executions: Optional[int] = None,
    prune: bool = True,
) -> DRFReport:
    """Decide whether ``program`` obeys ``model`` (Definition 3).

    Judges the idealized executions in enumeration order and stops at
    the first racy one; a racy result is always definitive.  With
    ``max_executions`` set, at most that many executions are judged,
    and a clean result is exhaustive iff the enumeration has no
    execution beyond them.

    ``prune`` controls the hb-preserving partial-order reduction of the
    underlying enumeration (see
    :func:`repro.sc.interleaving.enumerate_executions`): with it on,
    every race verdict is still reachable, but clean programs need far
    fewer executions to prove it.

    The pruned stream does not depend on the model, so one walk serves
    both of Section 6's models: it feeds a race kernel for ``model``
    and one for each of :data:`DRF0` and :data:`DRF0_R`, and stops by
    ``model``'s rule alone.  Each verdict that is definitive under the
    same budget — the model raced, the budget cut the walk, or the tree
    ended — is kept in the program's
    :func:`~repro.core.memo.program_memo` under ``(model,
    max_executions)``, so asking the other model next reads its answer
    there.  A DRF0 race is a DRF0-R race at the same execution or an
    earlier one, so asking DRF0 first always leaves DRF0-R's answer.
    An unpruned walk is the oracle and is never memoised.

    The report is the caller's own: every call, served or not, runs
    :func:`~repro.drf.races.find_races` afresh on a racy verdict's
    witness (raising :class:`RaceKernelMismatch` if it finds nothing)
    and hands out a fresh copy of the witness execution.
    """
    budget = None if max_executions is None else max(max_executions, 0)
    if not prune:
        verdict = _walk(program, (model,), budget, prune=False)[model]
    else:
        answers = program_memo(program).fact("drf", lambda _: {})
        key = (model, budget)
        verdict = answers.get(key)
        if verdict is None:
            models = (model,) + tuple(m for m in (DRF0, DRF0_R) if m != model)
            for rider, found in _walk(program, models, budget, True).items():
                answers.setdefault((rider, budget), found)
            verdict = answers[key]
    checked, witness, exhaustive = verdict
    if witness is None:
        return DRFReport(
            program=program,
            model=model,
            obeys=True,
            executions_checked=checked,
            exhaustive=exhaustive,
        )
    races = find_races(
        witness, model=model, initial_memory=dict(program.initial_memory)
    )
    if not races:
        raise RaceKernelMismatch(
            f"the race kernel flags execution {checked} under "
            f"{model.name}, but find_races reports no race"
        )
    return DRFReport(
        program=program,
        model=model,
        obeys=False,
        executions_checked=checked,
        races=races,
        witness=Execution(
            ops=list(witness.ops),
            observable=witness.observable,
            completed=witness.completed,
        ),
    )


#: ``(executions checked, racy witness or None, exhaustive)``.
_Verdict = Tuple[int, Optional[Execution], bool]


def _walk(
    program: Program,
    models: Tuple[SynchronizationModel, ...],
    budget: Optional[int],
    prune: bool,
) -> Dict[SynchronizationModel, _Verdict]:
    """The verdict of each of ``models`` that one walk of the idealized
    executions decides, judging at most ``budget`` of them and stopping
    once ``models[0]`` has one."""
    # One execution past the budget tells a cut-short search from one
    # whose tree fits the budget exactly.
    executions = enumerate_executions(
        program,
        max_executions=None if budget is None else budget + 1,
        prune=prune,
    )
    undecided = {
        model: _PrefixRaceChecker(model, program.num_procs)
        for model in models
    }
    verdicts: Dict[SynchronizationModel, _Verdict] = {}
    checked = 0
    for execution in executions:
        if budget is not None and checked >= budget:
            for model in undecided:
                verdicts[model] = (checked, None, False)
            return verdicts
        checked += 1
        for model, kernel in list(undecided.items()):
            if kernel.racy(execution):
                verdicts[model] = (checked, execution, True)
                del undecided[model]
        if models[0] in verdicts:
            return verdicts
    for model in undecided:
        verdicts[model] = (checked, None, True)
    return verdicts


class _PrefixRaceChecker:
    """Race verdicts for a stream of executions sharing DFS prefixes.

    The stack holds the ops of the previous execution.  For each pushed
    op it keeps a vector clock of happens-before: the op's processor's
    previous clock, with the op's own epoch (its 1-based position in
    its processor's program order), joined — for a sync op — with the
    clock of every earlier same-location sync the model's
    ``sync_edge_rule`` orders before it.  An earlier access ``a`` is
    then hb-before the new op iff the new clock's entry for ``a.proc``
    has reached ``a``'s epoch.

    A sync-edge rule reads only the two ops' kinds (the contract of
    :data:`~repro.hb.relations.SyncEdgeRule`), so the earlier syncs a
    rule orders before an op are all the earlier syncs of some kinds.
    The checker therefore keeps, per location and sync kind, the
    running join of those syncs' clocks, pushed and popped with the
    stack: a sync op joins at most one clock per kind.

    Only the real ops are pushed.  Section 4's augmentation hb-orders
    each hypothetical op with every op it conflicts with, and no hb path
    leaves a real op through a hypothetical one and comes back, so the
    augmentation can neither add nor remove a race.
    """

    def __init__(self, model: SynchronizationModel, num_procs: int) -> None:
        #: Sync kind label -> the labels of the earlier sync kinds the
        #: model orders before it.
        self._sources = sources = _sync_sources(model)
        self._is_exempt = model.is_exempt
        self._zero = (0,) * num_procs
        self._ops: List[MemoryOp] = []
        #: Per stack entry: does the prefix ending there contain a race?
        self._racy: List[bool] = []
        #: Clocks of each processor's ops on the stack, in program order.
        self._proc_clocks: Dict[int, List[tuple]] = defaultdict(list)
        #: Per location: ``(proc, epoch, writes, op)`` of each access.
        self._accesses: Dict[Location, List[tuple]] = {}
        #: Per location and sync kind: the join of the clocks of that
        #: kind's syncs on the stack, one entry per such sync.  The
        #: factory closes over ``sources``, not ``self``, so a checker is
        #: no reference cycle and is freed when dropped.
        self._joins: Dict[Location, Dict[str, List[tuple]]] = defaultdict(
            lambda: {kind: [] for kind in sources}
        )

    def racy(self, execution: Execution) -> bool:
        """Whether ``execution`` has a race, i.e. ``bool(find_races(...))``."""
        ops = execution.ops
        stack = self._ops
        keep = 0
        limit = min(len(ops), len(stack))
        while keep < limit and ops[keep] is stack[keep]:
            keep += 1
        while len(stack) > keep:
            self._pop()
        for op in ops[keep:]:
            self._push(op)
        return bool(self._racy) and self._racy[-1]

    def _pop(self) -> None:
        op = self._ops.pop()
        self._racy.pop()
        self._proc_clocks[op.proc].pop()
        self._accesses[op.location].pop()
        if op.is_sync:
            self._joins[op.location][op.kind.label].pop()

    def _push(self, op: MemoryOp) -> None:
        proc = op.proc
        location = op.location
        mine = self._proc_clocks[proc]
        clock = list(mine[-1] if mine else self._zero)
        epoch = clock[proc] = len(mine) + 1
        accesses = self._accesses.get(location)
        if accesses is None:
            if _is_reserved_location(location):
                raise AugmentationError(
                    f"program location {location!r} is reserved for the "
                    "hypothetical operations of the augmented execution"
                )
            accesses = self._accesses[location] = []
        kind = op.kind
        joins = self._joins[location] if kind.is_sync else None
        if joins is not None:
            for source in self._sources[kind.label]:
                joined = joins[source]
                if joined:
                    clock = list(map(max, clock, joined[-1]))
        racy = bool(self._racy) and self._racy[-1]
        writes = kind.writes_memory
        if not racy:
            is_exempt = self._is_exempt
            for other, other_epoch, other_writes, earlier in accesses:
                if (
                    other != proc
                    and (writes or other_writes)
                    and clock[other] < other_epoch
                    and not is_exempt(earlier, op)
                ):
                    racy = True
                    break
        frozen = tuple(clock)
        if joins is not None:
            same = joins[kind.label]
            same.append(tuple(map(max, same[-1], frozen)) if same else frozen)
        mine.append(frozen)
        accesses.append((proc, epoch, writes, op))
        self._ops.append(op)
        self._racy.append(racy)


def _sync_sources(model: SynchronizationModel) -> Dict[str, Tuple[str, ...]]:
    """Sync kind -> the sync kinds whose earlier ops ``model``'s edge
    rule orders before an op of that kind, decided on fresh ops.  Kinds
    are given by their labels."""
    kinds = [kind for kind in OpKind if kind.is_sync]
    rule = model.sync_edge_rule
    return {
        later.label: tuple(
            earlier.label for earlier in kinds
            if rule(
                MemoryOp(proc=0, kind=earlier, location="_"),
                MemoryOp(proc=1, kind=later, location="_"),
            )
        )
        for later in kinds
    }


def contract_obeys(
    test_name: str, program: Program, model: SynchronizationModel
) -> bool:
    """``check_program(...).obeys`` as a proof for the Definition-2 contract.

    Runs within :data:`CONTRACT_MAX_EXECUTIONS` and raises
    :class:`SearchBudgetExceeded` if a clean search was cut short: a
    truncated search proves nothing, and counting it as "obeys" could
    turn a weakly ordered verdict into a broken one.
    """
    report = check_program(
        program, model=model, max_executions=CONTRACT_MAX_EXECUTIONS
    )
    if not report.exhaustive:
        raise SearchBudgetExceeded(
            f"{test_name}: the {model.name} check stopped at its budget of "
            f"{CONTRACT_MAX_EXECUTIONS} idealized executions without a "
            "verdict"
        )
    return report.obeys


def obeys_drf0(program: Program, max_executions: Optional[int] = None) -> bool:
    """Shorthand for ``check_program(program, model=DRF0).obeys``."""
    return check_program(
        program, model=DRF0, max_executions=max_executions
    ).obeys


def check_execution(
    execution: Execution,
    model: SynchronizationModel = DRF0,
    initial_memory: Optional[dict] = None,
) -> List[Race]:
    """Races of a single idealized execution (Figure-2-style checking)."""
    return find_races(execution, model=model, initial_memory=initial_memory)
