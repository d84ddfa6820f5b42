"""The idealized architecture of Section 4.

DRF0 is defined over executions "on an abstract, idealized architecture
where all memory accesses are executed atomically and in program order".
:class:`IdealizedMachine` is that architecture: at every step one thread
is chosen and runs until it completes exactly one *memory* operation
(local register arithmetic and branches are not interleaving points —
they commute with every other thread's actions, so collapsing them loses
no observable behaviour and shrinks the interleaving space).

The machine is deliberately a small, forkable state machine so the
enumerator in :mod:`repro.sc.interleaving` can drive exhaustive searches.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.core.execution import Execution, Observable
from repro.core.instructions import (
    Branch,
    Fence,
    Halt,
    Jump,
    MemInstruction,
    RegInstruction,
)
from repro.core.operation import Location, MemoryOp, Value
from repro.core.program import Program
from repro.core.registers import RegisterFile


class LocalLoopError(RuntimeError):
    """A thread looped without touching memory for too many steps."""


#: Hashable machine-state key: each thread's ``(pc, register snapshot)``,
#: then the value of every program location in sorted location order.
StateKey = Tuple

#: Parent-linked trace: ``(newest op, rest of the chain)``, ``None`` empty.
_Trace = Optional[Tuple[MemoryOp, "_Trace"]]


class _ThreadState:
    """One thread's pc, registers and per-instruction occurrence counts.

    Its fields never change once built (only the ``advanced`` and
    ``successors`` caches are filled in later), so forks share it
    freely: a step replaces the stepped thread's state with a new one.
    ``snapshot`` (the canonical register view), ``ident`` (the thread's
    part of the state key) and ``halted`` are fixed at construction;
    ``advanced`` caches where the thread's local instructions lead, so
    peeking and stepping run them once per state, and ``successors``
    caches, per memory value the next access meets, the thread state
    and written value that access leads to.  The root states belong to
    the program's :class:`_Code`, so the caches grow into a graph of
    every state reached from them, shared by every machine built on
    that code: the searches of one program share one in its
    :func:`~repro.core.memo.program_memo`.  A cache entry is the same
    whoever fills it.
    """

    __slots__ = ("pc", "regs", "occurrences", "snapshot", "ident", "halted",
                 "advanced", "successors")

    def __init__(self, pc, regs, occurrences, snapshot, halted) -> None:
        self.pc: int = pc
        self.regs: RegisterFile = regs
        self.occurrences: Dict[int, int] = occurrences
        self.snapshot: Tuple = snapshot
        self.ident: Tuple[int, Tuple] = (pc, snapshot)
        self.halted: bool = halted
        self.advanced: Optional[Tuple[int, RegisterFile]] = None
        self.successors: Optional[
            Dict[Value, Tuple["_ThreadState", Optional[Value], int]]
        ] = None


class _Code:
    """Per-program tables shared by a machine and all its forks.

    ``halts[p][pc]`` says whether thread ``p`` is halted at ``pc``;
    ``accesses[p][pc]`` is the access summary of the memory instruction
    there (``None`` elsewhere); ``roots[p]`` is thread ``p``'s state at
    the start.  The roots' caches grow into every state reached from
    them, so the machines built on one ``_Code`` share all that work.
    """

    __slots__ = ("halts", "accesses", "roots")

    def __init__(self, program: Program) -> None:
        self.halts: List[Tuple[bool, ...]] = []
        self.accesses: List[Tuple[Optional[Tuple[Location, bool, bool]], ...]] = []
        for thread in program.threads:
            body = thread.instructions
            self.halts.append(
                tuple(isinstance(i, Halt) for i in body) + (True,)
            )
            self.accesses.append(tuple(
                (i.location, i.kind.writes_memory, i.kind.is_sync)
                if isinstance(i, MemInstruction) else None
                for i in body
            ) + (None,))
        empty = RegisterFile()
        self.roots: Tuple[_ThreadState, ...] = tuple(
            _ThreadState(0, empty, {}, (), halts[0]) for halts in self.halts
        )


class IdealizedMachine:
    """Executes a :class:`Program` atomically and in program order.

    The trace (:attr:`execution`) records every memory operation in the
    exact order it executed — which on this architecture is both a legal
    completion order and, per thread, program order.

    Forking is cheap: a fork shares the (immutable) thread states and the
    trace chain with its parent and copies only the memory dict; a step
    rebuilds only the stepped thread's state.
    """

    #: Bound on consecutive local (non-memory) instructions per step; a
    #: thread exceeding it is assumed stuck in a memory-free loop.
    MAX_LOCAL_STEPS = 10_000

    def __init__(self, program: Program, code: Optional[_Code] = None) -> None:
        """``code``, when given, is ``program``'s :class:`_Code`, shared
        with the other machines built on it; by default the machine
        builds its own."""
        self.program = program
        self._code = code if code is not None else _Code(program)
        self._threads = list(self._code.roots)
        #: Every program location, in sorted order, so the memory part of
        #: the state key is just the values.
        self._memory: Dict[Location, Value] = {
            loc: program.initial_value(loc) for loc in sorted(program.locations())
        }
        self._trace: _Trace = None
        self._trace_len = 0
        self._execution: Optional[Execution] = None

    # -- forking / state identity -----------------------------------------
    def fork(self) -> "IdealizedMachine":
        """An independent copy; stepping either never changes the other."""
        clone = IdealizedMachine.__new__(IdealizedMachine)
        clone.program = self.program
        clone._code = self._code
        clone._threads = list(self._threads)
        clone._memory = dict(self._memory)
        clone._trace = self._trace
        clone._trace_len = self._trace_len
        clone._execution = None
        return clone

    def state_key(self) -> StateKey:
        """Hashable identity of the *forward-relevant* machine state.

        Occurrence counters and the trace are excluded: they do not affect
        future behaviour, only bookkeeping of the past.  Every part is
        cached or kept in canonical order, so building the key sorts
        nothing.
        """
        return (*[t.ident for t in self._threads], *self._memory.values())

    # -- execution ----------------------------------------------------------
    def thread_halted(self, proc: int) -> bool:
        return self._threads[proc].halted

    def runnable_threads(self) -> List[int]:
        return [p for p, t in enumerate(self._threads) if not t.halted]

    def thread_pc(self, proc: int) -> int:
        """Current program counter of thread ``proc``."""
        return self._threads[proc].pc

    def _advance(self, proc: int, state: _ThreadState) -> Tuple[int, RegisterFile]:
        """``(pc, regs)`` once ``state``'s local instructions have run:
        ``pc`` is the thread's next memory instruction or its halt.

        Local instructions run on a register-file copy (the state's own
        file is shared by forks), and the answer is cached on the state.
        """
        if state.advanced is not None:
            return state.advanced
        thread = self.program.threads[proc]
        body = thread.instructions
        halts = self._code.halts[proc]
        pc = state.pc
        regs = state.regs
        for _ in range(self.MAX_LOCAL_STEPS):
            if halts[pc]:
                break
            instr = body[pc]
            if isinstance(instr, MemInstruction):
                break
            if isinstance(instr, RegInstruction):
                if regs is state.regs:
                    regs = regs.copy()
                instr.apply(regs)
                pc += 1
            elif isinstance(instr, Fence):
                # On the idealized architecture every access is already
                # atomic and globally performed in program order, so a
                # fence is a no-op.
                pc += 1
            elif isinstance(instr, Branch):
                pc = thread.target_of(instr) if instr.taken(regs) else pc + 1
            elif isinstance(instr, Jump):
                pc = thread.target_of(instr)
            else:  # pragma: no cover - defensive
                raise TypeError(f"unknown instruction {instr!r}")
        else:
            raise LocalLoopError(
                f"thread {thread.name!r} executed {self.MAX_LOCAL_STEPS} local "
                "instructions without a memory access"
            )
        state.advanced = (pc, regs)
        return state.advanced

    def next_access(self, proc: int) -> Optional[Tuple[Location, bool, bool]]:
        """``(location, writes_memory, is_sync)`` of the thread's next
        memory operation, or ``None`` if it halts without another one.

        A pure peek: the machine's state is unchanged.  Because registers
        are thread-private and local control flow is deterministic, the
        answer is *exact* — no other thread can steer ``proc`` onto a
        different path before its next memory access.  That exactness is
        what makes persistent-set pruning in :mod:`repro.sc.interleaving`
        a proof: a thread whose next access is known cannot halt, nor
        touch memory anywhere else, without first performing it.
        """
        state = self._threads[proc]
        if state.halted:
            return None
        pc, _ = self._advance(proc, state)
        return self._code.accesses[proc][pc]

    @property
    def halted(self) -> bool:
        return all(t.halted for t in self._threads)

    def step(self, proc: int) -> Optional[MemoryOp]:
        """Run thread ``proc`` up to and including its next memory op.

        Returns the memory operation performed, or ``None`` if the thread
        halted before reaching one.  Raises ``LocalLoopError`` on a
        memory-free infinite loop.
        """
        state = self._threads[proc]
        if state.halted:
            return None
        pc, regs = self._advance(proc, state)
        if self._code.halts[proc][pc]:
            snapshot = state.snapshot if regs is state.regs else regs.snapshot()
            self._threads[proc] = _ThreadState(
                pc, regs, state.occurrences, snapshot, True
            )
            return None
        instr = self.program.threads[proc].instructions[pc]
        kind = instr.kind
        location = instr.location
        memory = self._memory
        old = memory[location]
        successors = state.successors
        if successors is None:
            successors = state.successors = {}
        after = successors.get(old)
        if after is None:
            after = successors[old] = self._successor(
                proc, state, pc, regs, instr, old
            )
        thread, value_written, occurrence = after
        if kind.writes_memory:
            memory[location] = value_written
        # Positional, for speed: proc, kind, location, thread_pos,
        # occurrence, value_read, value_written, commit_time, and
        # issue_index (trace order is issue order on this architecture).
        op = MemoryOp(
            proc, kind, location, pc, occurrence,
            old if kind.reads_memory else None, value_written,
            None, self._trace_len,
        )
        self._trace = (op, self._trace)
        self._trace_len += 1
        self._execution = None
        self._threads[proc] = thread
        return op

    def _successor(
        self, proc: int, state: _ThreadState, pc: int, regs: RegisterFile,
        instr: MemInstruction, old: Value,
    ) -> Tuple[_ThreadState, Optional[Value], int]:
        """``(next thread state, value written, occurrence)`` of the
        memory instruction ``instr`` at ``pc`` when memory holds ``old``
        (``regs``: the registers once ``state``'s local code has run)."""
        kind = instr.kind
        snapshot = state.snapshot if regs is state.regs else None
        if kind.reads_memory and instr.dest is not None:
            regs = regs.copy()
            regs.write(instr.dest, old)
            snapshot = None
        value_written = None
        if kind.writes_memory:
            value_written = instr.compute_write(regs, old)
        occurrence = state.occurrences.get(pc, 0)
        occurrences = {**state.occurrences, pc: occurrence + 1}
        if snapshot is None:
            snapshot = regs.snapshot()
        thread = _ThreadState(
            pc + 1, regs, occurrences, snapshot, self._code.halts[proc][pc + 1]
        )
        return thread, value_written, occurrence

    # -- results -----------------------------------------------------------
    @property
    def execution(self) -> Execution:
        """The trace so far, materialised from the shared chain.

        Its ops are the chain's own :class:`MemoryOp` objects, so two
        executions sharing a search prefix share those ops by identity.
        """
        if self._execution is None:
            ops: List[MemoryOp] = []
            node = self._trace
            while node is not None:
                op, node = node
                ops.append(op)
            ops.reverse()
            self._execution = Execution(ops=ops)
        return self._execution

    def observable(self) -> Observable:
        return Observable(
            registers=tuple(t.snapshot for t in self._threads),
            memory=tuple((k, v) for k, v in self._memory.items() if v != 0),
        )

    def finish(self) -> Execution:
        """Mark the trace complete and attach the observable."""
        execution = self.execution
        execution.completed = self.halted
        execution.observable = self.observable()
        return execution

    def memory_value(self, location: Location) -> Value:
        return self._memory.get(location, self.program.initial_value(location))


def run_schedule(program: Program, schedule: List[int]) -> Execution:
    """Run the idealized machine under an explicit thread schedule.

    Each schedule entry picks the thread for one step; entries naming
    halted threads are skipped.  After the schedule is exhausted, the
    remaining threads run round-robin to completion, so the returned
    execution is always complete.
    """
    machine = IdealizedMachine(program)
    for proc in schedule:
        if not machine.thread_halted(proc):
            machine.step(proc)
    while not machine.halted:
        for proc in machine.runnable_threads():
            machine.step(proc)
    return machine.finish()
