"""Candidate executions of a straight-line program, and the allowed-set kernel.

A herd-style checker does not interleave anything: it generates every
*candidate* execution — a free choice of reads-from and coherence order
— resolves the values that choice implies, and lets the model's axioms
reject the inconsistent ones.  The axioms live in
:mod:`repro.axiomatic.model`; this module produces what they judge.

Both entry points work on the program compiled into an int-indexed
table (:class:`_Table`):

* :func:`enumerate_candidates` is the **raw** enumerator: every rf
  choice × every co permutation, as :class:`Candidate` objects carrying
  full :class:`~repro.axiomatic.relations.Relations`.  Together with
  :meth:`AxiomaticModel.allows <repro.axiomatic.model.AxiomaticModel.allows>`
  it is the per-execution API and the oracle the kernel is tested
  against.  It compiles the program itself on every call and resolves
  values with the plain fixpoint :func:`_resolve`.
* :func:`allowed_outcomes` is the **kernel** (re-exported by
  :mod:`repro.axiomatic.crosscheck` and the package).  It prunes only
  what the model-independent ``sc-per-location`` axiom rejects under
  every model:

  - an rf choice where a read reads itself or a po-later write to its
    location;
  - the initial-value choice for a read whose thread has a po-earlier
    write to the location;
  - per location, every (rf, co) pair whose ``po_loc ∪ rf ∪ co ∪ fr``
    has a cycle or that breaks RMW atomicity.  Every coherence edge
    joins two accesses to one location, so the axiom holds for a
    candidate exactly when it holds at each location.

  Each surviving combination is checked against ``ghb`` once, as
  successor bitmasks of ``ppo ∪ rfe ∪ co ∪ fr``; ``ppo`` is the
  model's own :meth:`~repro.axiomatic.model.AxiomaticModel.ppo`.  Values
  are resolved only for rf choices that some allowed combination uses,
  by :class:`_Replayer`: the same rounds as :func:`_resolve`, with each
  thread's replay memoised.

  Only ppo depends on the model.  The table, each location's coherent
  configurations, the thread replays and the values of each resolved rf
  choice are the program's, so they live in its
  :func:`~repro.core.memo.program_memo` (:class:`_Derived`) and every
  model's call on that program shares them until another program is
  checked.  So does each finished allowed set, keyed by the ppo
  bitmasks it was computed under: two models with the same ppo over
  the program allow the same set, and the second is answered from the
  memo (``WO-DRF0`` is ``SC`` or ``RELAXED`` once its DRF flag is
  known, ``WO`` is ``RELAXED`` on a program without syncs, ``PSO`` is
  ``TSO`` on one without a store-store pair).

**Budget.**  The kernel compares ``max_candidates`` with the static size
of the candidate space — Π over locations of (writes to it)! times Π
over reads of (writes to the read's location + 1) — on every call before
it uses or resolves any configuration, and raises
:class:`CandidateBudgetExceeded` when the size is larger.  The raw
enumerator counts the candidates it generates instead, and raises once
the count passes the budget.

Both handle **straight-line** programs only (no ``Branch`` / ``Jump``):
with control flow fixed, each thread contributes one static sequence of
operations and the candidate space is finite.  Spinning litmus tests
are out of scope and reported as skipped by the cross-checker rather
than silently mis-modelled.

Value resolution is a fixpoint: register files are replayed per thread
with each read returning its chosen writer's value, until the values
stabilise.  A choice whose values never stabilise has no consistent
assignment and is discarded.  Read-modify-writes are kept atomic
structurally — the RMW's write must coherence-follow its reads-from
source immediately.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import (
    Dict,
    FrozenSet,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.core.execution import Observable
from repro.core.instructions import (
    Branch,
    Halt,
    Instruction,
    Jump,
    MemInstruction,
    RegInstruction,
)
from repro.core.memo import program_memo
from repro.core.operation import Location, MemoryOp
from repro.core.program import Program
from repro.core.registers import RegisterFile
from repro.axiomatic.model import AxiomaticModel
from repro.axiomatic.relations import (
    Edge,
    Relations,
    fence_separated_pairs,
    program_order_pairs,
)

#: Default ceiling on the candidate space.  The catalog's largest is
#: warm IRIW at 4,096; hitting this means the program is out of scope.
DEFAULT_MAX_CANDIDATES = 250_000

#: A thread-body step the resolver replays: the instruction, the index
#: of its op (-1 for a register instruction), and whether that op reads
#: and writes memory.
_Step = Tuple[Instruction, int, bool, bool]

#: Successor-bitmask edges ``(source op, mask of target ops)``.
_Edges = List[Tuple[int, int]]


class CandidateBudgetExceeded(RuntimeError):
    """The candidate space outgrew the caller's budget."""


class NotStraightLine(ValueError):
    """The program has control flow; candidates cannot be enumerated."""


def is_straightline(program: Program) -> bool:
    """Whether every thread is branch-free (``Halt`` is permitted)."""
    return not any(
        isinstance(instr, (Branch, Jump))
        for thread in program.threads
        for instr in thread.instructions
    )


@dataclass
class Candidate:
    """One candidate execution with its resolved observable outcome."""

    relations: Relations
    observable: Observable


@dataclass
class _Table:
    """A straight-line program compiled to int-indexed ops.

    Ops are numbered thread by thread in program order, so a po edge
    always goes from a lower index to a higher one.
    """

    ops: Tuple[MemoryOp, ...]
    po: FrozenSet[Edge]
    fenced: FrozenSet[Edge]
    #: Location index -> name, in order of first access.
    locations: Tuple[Location, ...]
    #: Op index -> location index, and the op's initial memory value.
    loc: Tuple[int, ...]
    init: Tuple[int, ...]
    #: Op index -> bitmask of the po-later ops of its thread.
    po_later: Tuple[int, ...]
    #: Indices of the ops with a read component, in op order.
    reads: Tuple[int, ...]
    #: Location index -> its reads, writes and RMWs, in op order.
    loc_reads: Tuple[Tuple[int, ...], ...]
    loc_writes: Tuple[Tuple[int, ...], ...]
    loc_rmws: Tuple[Tuple[int, ...], ...]
    #: Per-thread steps for the value resolver.
    steps: Tuple[Tuple[_Step, ...], ...]

    def space_size(self) -> int:
        """Candidate-space size: rf choices × co orders (see Budget)."""
        size = 1
        for writes in self.loc_writes:
            size *= math.factorial(len(writes))
        for read in self.reads:
            size *= len(self.loc_writes[self.loc[read]]) + 1
        return size


def _compile(program: Program) -> _Table:
    """Compile a straight-line program (truncated at each thread's Halt)."""
    if not is_straightline(program):
        raise NotStraightLine(
            f"program {program.name!r} has branches; candidate enumeration "
            f"handles straight-line programs only"
        )
    ops: List[MemoryOp] = []
    steps: List[Tuple[_Step, ...]] = []
    ops_by_proc: Dict[int, List[MemoryOp]] = {}
    for proc, thread in enumerate(program.threads):
        thread_steps: List[_Step] = []
        thread_ops = ops_by_proc[proc] = []
        for pos, instr in enumerate(thread.instructions):
            if isinstance(instr, Halt):
                break
            if isinstance(instr, MemInstruction):
                # Straight-line: each instruction runs once, in issue
                # slot ``pos``.
                op = MemoryOp(
                    proc=proc,
                    kind=instr.kind,
                    location=instr.location,
                    thread_pos=pos,
                    issue_index=pos,
                )
                thread_steps.append((
                    instr, len(ops),
                    instr.kind.reads_memory, instr.kind.writes_memory,
                ))
                ops.append(op)
                thread_ops.append(op)
            elif isinstance(instr, RegInstruction):
                thread_steps.append((instr, -1, False, False))
        steps.append(tuple(thread_steps))

    location_index: Dict[Location, int] = {}
    for op in ops:
        location_index.setdefault(op.location, len(location_index))
    loc = tuple(location_index[op.location] for op in ops)
    count = len(location_index)
    loc_reads: List[List[int]] = [[] for _ in range(count)]
    loc_writes: List[List[int]] = [[] for _ in range(count)]
    loc_rmws: List[List[int]] = [[] for _ in range(count)]
    po_later: List[int] = []
    for i, op in enumerate(ops):
        reads, writes = op.kind.reads_memory, op.kind.writes_memory
        if reads:
            loc_reads[loc[i]].append(i)
        if writes:
            loc_writes[loc[i]].append(i)
        if reads and writes:
            loc_rmws[loc[i]].append(i)
        later = 0
        for j in range(i + 1, len(ops)):
            if ops[j].proc != op.proc:
                break
            later |= 1 << j
        po_later.append(later)

    return _Table(
        ops=tuple(ops),
        po=program_order_pairs(ops_by_proc),
        fenced=fence_separated_pairs(program, ops_by_proc),
        locations=tuple(location_index),
        loc=loc,
        init=tuple(program.initial_value(op.location) for op in ops),
        po_later=tuple(po_later),
        reads=tuple(i for i, op in enumerate(ops) if op.kind.reads_memory),
        loc_reads=tuple(map(tuple, loc_reads)),
        loc_writes=tuple(map(tuple, loc_writes)),
        loc_rmws=tuple(map(tuple, loc_rmws)),
        steps=tuple(steps),
    )


def _resolve(
    table: _Table, rf: Sequence[int]
) -> Optional[Tuple[List[int], List[int], List[RegisterFile]]]:
    """Fixpoint value resolution for one reads-from choice.

    ``rf[i]`` is the index of the write read op ``i`` reads from, or -1
    for the initial value.  Returns ``(read_values, write_values,
    register_files)``, indexed like the ops, or ``None`` when the choice
    admits no stable value assignment (a value cycle).

    Bound: one round replays every thread once, reading writes at their
    latest values, so an op whose values depend on ``h`` rf hops is
    final after round ``h + 1``.  Without a value cycle a dependence
    chain visits each op at most once, so ``h < len(ops)``: every value
    is final after ``len(ops)`` rounds and round ``len(ops) + 1``
    confirms it.  A choice still changing then has a value cycle.
    """
    count = len(table.ops)
    init = table.init
    read_values = [0] * count
    write_values = [0] * count
    for _ in range(count + 1):
        changed = False
        files: List[RegisterFile] = []
        for steps in table.steps:
            regs = RegisterFile()
            for instr, i, reads, writes in steps:
                if i < 0:
                    instr.apply(regs)
                    continue
                if reads:
                    writer = rf[i]
                    value = init[i] if writer < 0 else write_values[writer]
                    if read_values[i] != value:
                        read_values[i] = value
                        changed = True
                    if instr.dest is not None:
                        regs.write(instr.dest, value)
                if writes:
                    value = instr.compute_write(regs, read_values[i])
                    if write_values[i] != value:
                        write_values[i] = value
                        changed = True
            files.append(regs)
        if not changed:
            return read_values, write_values, files
    return None


#: One thread replay: the values its reads return and its writes store,
#: each in op order, and its final register snapshot.
_Replay = Tuple[Tuple[int, ...], Tuple[int, ...], Tuple]


class _Replayer:
    """:func:`_resolve`'s rounds, with each thread's replay memoised.

    A thread's replay is a function of the values its reads return.  A
    read of the initial value or of a po-earlier write of its own thread
    is resolved inside the replay; any other read takes its writer's
    value as the thread starts, which is this round's value for a writer
    in an earlier thread and the last round's otherwise (Gauss–Seidel
    order).  So a thread's memo key is that in-thread choice plus the
    values of its other reads, and a thread none of whose writers has
    changed since its last replay would replay the same: a round skips
    it.  The rounds and their ``len(ops) + 1`` bound are
    :func:`_resolve`'s, so the same choices are discarded as value
    cycles.  One replayer serves one program: it lives in the program's
    :class:`_Derived`, its memos are keyed on that program's ops, and
    their entries are the same whoever fills them.
    """

    def __init__(self, table: _Table) -> None:
        self._table = table
        self._reads: List[Tuple[int, ...]] = []
        self._writes: List[Tuple[int, ...]] = []
        self._first: List[int] = []
        for steps in table.steps:
            ops = [i for _, i, _, _ in steps if i >= 0]
            kinds = [table.ops[i].kind for i in ops]
            self._reads.append(tuple(
                i for i, kind in zip(ops, kinds) if kind.reads_memory
            ))
            self._writes.append(tuple(
                i for i, kind in zip(ops, kinds) if kind.writes_memory
            ))
            self._first.append(ops[0] if ops else 0)
        #: Per thread: the rf choice of its reads -> its plan.
        self._plans: List[Dict[tuple, tuple]] = [{} for _ in table.steps]
        #: Per thread: memo key -> replay.
        self._memo: List[Dict[tuple, _Replay]] = [{} for _ in table.steps]
        #: Per thread: the all-zero state every resolution starts from.
        self._zero: List[_Replay] = [
            ((0,) * len(reads), (0,) * len(writes), ())
            for reads, writes in zip(self._reads, self._writes)
        ]

    def _plan(self, t: int, choice: Tuple[int, ...]) -> tuple:
        """``(in-thread choice, other writers, their threads)`` for
        thread ``t`` whose reads read from ``choice``."""
        first = self._first[t]
        inside = []
        outside = []
        for i, w in zip(self._reads[t], choice):
            if w < 0 or first <= w < i:
                inside.append(w)
            else:
                inside.append(-2)
                outside.append(w)
        sources = frozenset(self._table.ops[w].proc for w in outside)
        return tuple(inside), tuple(outside), sources

    def resolve(
        self, rf: Sequence[int]
    ) -> Optional[Tuple[List[int], Tuple[Tuple, ...]]]:
        """``(write_values, register snapshots)`` for one reads-from
        choice, or ``None`` for a value cycle (see :func:`_resolve`)."""
        plans = []
        for t, reads in enumerate(self._reads):
            choice = tuple([rf[i] for i in reads])
            plan = self._plans[t].get(choice)
            if plan is None:
                plan = self._plans[t][choice] = self._plan(t, choice)
            plans.append(plan)
        threads = range(len(plans))
        write_values = [0] * len(self._table.ops)
        now = list(self._zero)
        stale = [True] * len(plans)
        for _ in range(len(write_values) + 1):
            changed = False
            for t in threads:
                if not stale[t]:
                    continue
                stale[t] = False
                inside, outside, _ = plans[t]
                key = (inside, tuple([write_values[w] for w in outside]))
                memo = self._memo[t]
                replay = memo.get(key)
                if replay is None:
                    replay = memo[key] = self._replay(t, inside, key[1])
                last = now[t]
                if replay is last:
                    continue
                now[t] = replay
                if replay[0] != last[0]:
                    changed = True
                if replay[1] != last[1]:
                    changed = True
                    for i, value in zip(self._writes[t], replay[1]):
                        write_values[i] = value
                    for u in threads:
                        if t in plans[u][2]:
                            stale[u] = True
            if not changed:
                return write_values, tuple([replay[2] for replay in now])
        return None

    def _replay(
        self, t: int, inside: Tuple[int, ...], outside: Tuple[int, ...]
    ) -> _Replay:
        """Thread ``t`` run once: ``inside`` per read is its in-thread
        writer, -1 for the initial value, or -2 for the next value of
        ``outside``."""
        table = self._table
        choice = dict(zip(self._reads[t], inside))
        values = iter(outside)
        regs = RegisterFile()
        read_values: List[int] = []
        written: Dict[int, int] = {}
        for instr, i, reads, writes in table.steps[t]:
            if i < 0:
                instr.apply(regs)
                continue
            value = 0
            if reads:
                w = choice[i]
                if w == -1:
                    value = table.init[i]
                elif w >= 0:
                    value = written[w]
                else:
                    value = next(values)
                read_values.append(value)
                if instr.dest is not None:
                    regs.write(instr.dest, value)
            if writes:
                written[i] = instr.compute_write(regs, value)
        return (
            tuple(read_values),
            tuple(written[i] for i in self._writes[t]),
            regs.snapshot(),
        )


def _rmw_atomic(
    order: Sequence[int], rmws: Sequence[int], rf: Sequence[int]
) -> bool:
    """Architectural RMW atomicity at one location: each RMW's write
    coherence-follows its reads-from source immediately."""
    for rmw in rmws:
        position = order.index(rmw)
        writer = rf[rmw]
        if writer < 0:
            if position != 0:
                return False
        elif position == 0 or order[position - 1] != writer:
            return False
    return True


def _acyclic(succ: Sequence[int], sweep: Sequence[Tuple[int, int]]) -> bool:
    """Whether the graph over the ``sweep`` nodes has no cycle.

    ``succ[i]`` is the bitmask of node ``i``'s successors; ``sweep``
    lists ``(i, 1 << i)`` from the highest index down.  Each sweep peels
    every node with no successor left; po edges point to higher indices,
    so one sweep peels whole threads.  A sweep that peels nothing has
    found a cycle.
    """
    remaining = 0
    for _, bit in sweep:
        remaining |= bit
    while remaining:
        before = remaining
        for i, bit in sweep:
            if remaining & bit and not succ[i] & remaining:
                remaining ^= bit
        if remaining == before:
            return False
    return True


def enumerate_candidates(
    program: Program,
    max_candidates: int = DEFAULT_MAX_CANDIDATES,
    drf0: Optional[bool] = None,
    drf0_r: Optional[bool] = None,
) -> Iterator[Candidate]:
    """Yield every value-consistent candidate execution of ``program``.

    The yielded candidates are *raw*: no memory-model axiom has been
    applied yet (beyond value consistency and RMW atomicity, which are
    architectural).  ``drf0``/``drf0_r`` are threaded into every
    candidate's :class:`Relations` for the conditional models.

    Raises :class:`NotStraightLine` on programs with control flow and
    :class:`CandidateBudgetExceeded` once more than ``max_candidates``
    candidates have been generated.
    """
    table = _compile(program)
    ops = table.ops
    reads = table.reads
    rf_choices = [(-1,) + table.loc_writes[table.loc[r]] for r in reads]
    # Coherence orders per written location, by first write.
    written = sorted(
        (l for l, writes in enumerate(table.loc_writes) if writes),
        key=lambda l: table.loc_writes[l][0],
    )
    co_orders = [
        list(itertools.permutations(table.loc_writes[l])) for l in written
    ]
    initial_memory = {
        loc: program.initial_value(loc) for loc in program.locations()
    }

    rf = [-1] * len(ops)
    produced = 0
    for rf_pick in itertools.product(*rf_choices):
        for read, writer in zip(reads, rf_pick):
            rf[read] = writer
        resolved = _resolve(table, rf)
        if resolved is None:
            continue
        _, write_values, files = resolved
        final_registers = [regs.as_dict() for regs in files]
        rf_ops = {
            ops[read]: ops[writer] if writer >= 0 else None
            for read, writer in zip(reads, rf_pick)
        }
        for co_pick in itertools.product(*co_orders):
            produced += 1
            if produced > max_candidates:
                raise CandidateBudgetExceeded(
                    f"program {program.name!r} exceeds "
                    f"{max_candidates} candidate executions"
                )
            if not all(
                _rmw_atomic(order, table.loc_rmws[l], rf)
                for l, order in zip(written, co_pick)
            ):
                continue
            memory = dict(initial_memory)
            for l, order in zip(written, co_pick):
                memory[table.locations[l]] = write_values[order[-1]]
            yield Candidate(
                relations=Relations(
                    ops=ops,
                    po=table.po,
                    fenced=table.fenced,
                    rf=rf_ops,
                    co={
                        table.locations[l]: tuple(ops[w] for w in order)
                        for l, order in zip(written, co_pick)
                    },
                    drf0=drf0,
                    drf0_r=drf0_r,
                ),
                observable=Observable.create(final_registers, memory),
            )


#: ``(last write in co, or -1 if none; the co ∪ fr edges of every
#: coherence order ending there)``.
_Lasts = Tuple[int, List[_Edges]]

#: One coherent configuration of a location: the reads-from choice of
#: its reads, their rfe edges, its coherence orders grouped by last
#: write, and ``(last, edges)`` when exactly one order survives.
_LocationConfig = Tuple[
    Tuple[int, ...], _Edges, List[_Lasts], Optional[Tuple[int, _Edges]]
]


def _with_edges(base: Sequence[int], edge_sets) -> List[int]:
    """``base`` successor masks plus every edge of ``edge_sets``."""
    succ = list(base)
    for edges in edge_sets:
        for i, mask in edges:
            succ[i] |= mask
    return succ


def _location_configs(table: _Table, l: int) -> List[_LocationConfig]:
    """The (rf, co) pairs at location ``l`` that ``sc-per-location``
    and RMW atomicity accept."""
    reads = table.loc_reads[l]
    writes = table.loc_writes[l]
    rmws = table.loc_rmws[l]
    ops, po_later = table.ops, table.po_later
    nodes = sorted(set(reads) | set(writes), reverse=True)
    sweep = [(i, 1 << i) for i in nodes]
    here = sum(1 << i for i in nodes)
    write_mask = sum(1 << w for w in writes)

    # Per read: its options, each ``(writer, rfe edge or None)``.
    choices = []
    for r in reads:
        po_earlier_write = any(po_later[w] >> r & 1 for w in writes)
        options = [] if po_earlier_write else [(-1, None)]
        options.extend(
            (w, (w, 1 << r) if ops[w].proc != ops[r].proc else None)
            for w in writes if w != r and not po_later[r] >> w & 1
        )
        choices.append(options)

    # Each coherence order with the mask of writes co-after each write
    # (-1: the initial value, before them all) and its co edges.
    orders = []
    for order in itertools.permutations(writes):
        co_after: Dict[int, int] = {-1: write_mask}
        later = 0
        for w in reversed(order):
            co_after[w] = later
            later |= 1 << w
        co_edges = [(w, co_after[w]) for w in order if co_after[w]]
        orders.append((order, co_after, co_edges))

    po_loc = [0] * len(ops)
    for i in nodes:
        po_loc[i] = po_later[i] & here
    read_bits = [(r, 1 << r) for r in reads]
    rf = [-1] * len(ops)
    configs: List[_LocationConfig] = []
    for options in itertools.product(*choices):
        rf_pick = tuple([w for w, _ in options])
        rf_succ = list(po_loc)
        rfe: _Edges = []
        for (r, bit), (w, external) in zip(read_bits, options):
            rf[r] = w
            if w >= 0:
                rf_succ[w] |= bit
                if external is not None:
                    rfe.append(external)
        by_last: Dict[int, List[_Edges]] = {}
        for order, co_after, co_edges in orders:
            # Coherence implies atomicity (a write between an RMW and
            # its source closes fr;co), but this test is cheaper.
            if rmws and not _rmw_atomic(order, rmws, rf):
                continue
            edges = list(co_edges)
            for (r, bit), w in zip(read_bits, rf_pick):
                fr = co_after[w] & ~bit
                if fr:
                    edges.append((r, fr))
            if _acyclic(_with_edges(rf_succ, (edges,)), sweep):
                last = order[-1] if order else -1
                by_last.setdefault(last, []).append(edges)
        if not by_last:
            continue
        lasts = list(by_last.items())
        single = None
        if len(lasts) == 1 and len(lasts[0][1]) == 1:
            single = lasts[0][0], lasts[0][1][0]
        configs.append((rf_pick, rfe, lasts, single))
    return configs


def _finals(lasts, write_values: Sequence[int]) -> Tuple[Optional[int], ...]:
    """Final memory per location from each ``(last write, _)`` pair."""
    return tuple(
        write_values[last] if last >= 0 else None for last, _ in lasts
    )


class _Derived:
    """The model-independent facts :func:`allowed_outcomes` derives for
    one straight-line program, kept in its :func:`program_memo`.

    Every model asks for the same compiled table, the same coherent
    configurations per location and the same values per reads-from
    choice; only ppo, and so which combinations survive, differs.  The
    configurations, resolutions and allowed sets (keyed by the ppo
    successor bitmasks) are filled in on first use, with entries that
    are the same whoever fills them, so calls on other threads may share
    them.  Callers must not mutate what they return.
    """

    def __init__(self, program: Program) -> None:
        self.table = _compile(program)
        self._configs: Dict[int, List[_LocationConfig]] = {}
        self._replayer = _Replayer(self.table)
        #: The rf choice of every location -> :meth:`_Replayer.resolve`.
        self._resolved: Dict[tuple, Optional[Tuple[Tuple[int, ...], Tuple]]] = {}
        #: ppo successor bitmasks -> the observables they allow.
        self.allowed: Dict[Tuple[int, ...], FrozenSet[Observable]] = {}

    def location_configs(self, l: int) -> List[_LocationConfig]:
        """:func:`_location_configs` of location ``l``."""
        configs = self._configs.get(l)
        if configs is None:
            configs = self._configs.setdefault(
                l, _location_configs(self.table, l)
            )
        return configs

    def resolve(
        self, pick: Sequence[_LocationConfig], rf: List[int]
    ) -> Optional[Tuple[Tuple[int, ...], Tuple]]:
        """``(write_values, register snapshots)`` of the rf choice one
        configuration per location makes, or ``None`` for a value cycle.
        ``rf`` is the caller's scratch list, one slot per op."""
        key = tuple([rf_pick for rf_pick, _, _, _ in pick])
        if key in self._resolved:
            return self._resolved[key]
        for reads, rf_pick in zip(self.table.loc_reads, key):
            for r, w in zip(reads, rf_pick):
                rf[r] = w
        resolved = self._replayer.resolve(rf)
        if resolved is not None:
            resolved = tuple(resolved[0]), resolved[1]
        return self._resolved.setdefault(key, resolved)


def allowed_outcomes(
    program: Program,
    model: AxiomaticModel,
    max_candidates: int = DEFAULT_MAX_CANDIDATES,
    drf0: Optional[bool] = None,
    drf0_r: Optional[bool] = None,
) -> FrozenSet[Observable]:
    """The observables ``model`` allows for a straight-line program.

    Equal to the observables of the candidates :func:`enumerate_candidates`
    yields that ``model.allows``, computed by the pruned kernel the
    module docstring describes.  ``drf0``/``drf0_r`` say whether the
    program obeys DRF0 / DRF0-R, for the conditional models.

    Raises :class:`NotStraightLine` on programs with control flow, and
    :class:`CandidateBudgetExceeded` when the candidate space — Π over
    locations of (writes to it)! times Π over reads of (writes to the
    read's location + 1) — is larger than ``max_candidates``.  The size
    is checked before any value is resolved and before the program memo
    is asked for a set kept under the same ppo, which any model with
    that ppo over the program then gets (the very same object).
    """
    derived = program_memo(program).fact("axiomatic", _Derived)
    table = derived.table
    size = table.space_size()
    if size > max_candidates:
        raise CandidateBudgetExceeded(
            f"program {program.name!r} has {size} candidate executions, "
            f"over the budget of {max_candidates}"
        )
    ops = table.ops
    index = {op: i for i, op in enumerate(ops)}
    ppo = [0] * len(ops)
    skeleton = Relations(
        ops=ops, po=table.po, fenced=table.fenced, rf={}, co={},
        drf0=drf0, drf0_r=drf0_r,
    )
    for a, b in model.ppo(skeleton):
        ppo[index[a]] |= 1 << index[b]
    key = tuple(ppo)
    allowed = derived.allowed.get(key)
    if allowed is None:
        allowed = derived.allowed.setdefault(
            key, _allowed(program, derived, ppo)
        )
    return allowed


def _allowed(
    program: Program, derived: _Derived, ppo: List[int]
) -> FrozenSet[Observable]:
    """:func:`allowed_outcomes` under the ppo successor bitmasks ``ppo``."""
    table = derived.table
    ops = table.ops
    sweep = [(i, 1 << i) for i in reversed(range(len(ops)))]

    per_location = []
    for l in range(len(table.locations)):
        configs = derived.location_configs(l)
        if not configs:
            return frozenset()
        per_location.append(configs)

    rf = [-1] * len(ops)  # scratch for resolving a pick

    # Observable key: (register snapshots, final value per location,
    # None for a location nothing writes).
    allowed = set()
    for pick in itertools.product(*per_location):
        rfes = [rfe for _, rfe, _, _ in pick]
        singles = [single for _, _, _, single in pick]
        if None not in singles:
            # One coherence edge set per location: one test decides.
            edges = rfes + [edges for _, edges in singles]
            if _acyclic(_with_edges(ppo, edges), sweep):
                resolved = derived.resolve(pick, rf)
                if resolved is not None:
                    write_values, registers = resolved
                    allowed.add((registers, _finals(singles, write_values)))
            continue
        base = _with_edges(ppo, rfes)
        if not _acyclic(base, sweep):
            continue
        # Resolved lazily: only once some combination is allowed.
        registers = write_values = None
        for lasts in itertools.product(*(lasts for _, _, lasts, _ in pick)):
            if write_values is not None:
                key = (registers, _finals(lasts, write_values))
                if key in allowed:
                    continue
            if not any(
                _acyclic(_with_edges(base, edge_sets), sweep)
                for edge_sets in itertools.product(*(e for _, e in lasts))
            ):
                continue
            if write_values is None:
                resolved = derived.resolve(pick, rf)
                if resolved is None:
                    break
                write_values, registers = resolved
            allowed.add((registers, _finals(lasts, write_values)))

    # Canonical observables straight from the snapshots: each is sorted
    # with its zero registers dropped, as Observable.create would.
    initial = {loc: program.initial_value(loc) for loc in program.locations()}
    slot = {loc: l for l, loc in enumerate(table.locations)}
    memory_order = [
        (loc, initial[loc], slot.get(loc)) for loc in sorted(initial)
    ]
    observables = set()
    for registers, finals in allowed:
        memory = []
        for location, value, l in memory_order:
            if l is not None and finals[l] is not None:
                value = finals[l]
            if value != 0:
                memory.append((location, value))
        observables.add(Observable(registers=registers, memory=tuple(memory)))
    return frozenset(observables)
