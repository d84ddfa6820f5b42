"""Executions and their observable results.

The paper (Section 1) takes the *result* of an execution to be "the union
of the values returned by all the read operations in the execution and
the final state of memory".  Two executions of the same program with the
same result are indistinguishable to the programmer; this is the notion
of equivalence behind both Lamport's definition of sequential consistency
and the paper's Definition 2.

For mechanical comparison across execution layers (idealized enumerator
vs. hardware simulator) we use an :class:`Observable` — final register
state of every thread plus final shared memory.  Register state is a
function of read return values and control flow, so observable equality
is implied by result equality, and it is directly extractable from any
executor.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.core.operation import Location, MemoryOp, Value
from repro.core.registers import Register


@dataclass(frozen=True)
class Observable:
    """The programmer-visible outcome of one execution.

    Attributes:
        registers: per-thread sorted ``(register, value)`` tuples
            (zero-valued registers omitted, matching
            :meth:`repro.core.registers.RegisterFile.snapshot`).
        memory: sorted ``(location, value)`` tuples of final shared
            memory, zero values omitted so untouched locations are
            canonical.
    """

    registers: Tuple[Tuple[Tuple[Register, int], ...], ...]
    memory: Tuple[Tuple[Location, Value], ...]

    @staticmethod
    def create(
        registers: Sequence[Mapping[Register, int]],
        memory: Mapping[Location, Value],
    ) -> "Observable":
        regs = tuple(
            tuple(sorted((r, v) for r, v in regfile.items() if v != 0))
            for regfile in registers
        )
        mem = tuple(sorted((loc, v) for loc, v in memory.items() if v != 0))
        return Observable(registers=regs, memory=mem)

    def register(self, proc: int, reg: Register) -> int:
        """Value of ``reg`` in thread ``proc``'s final register file."""
        for name, value in self.registers[proc]:
            if name == reg:
                return value
        return 0

    def memory_value(self, location: Location) -> Value:
        for loc, value in self.memory:
            if loc == location:
                return value
        return 0

    def describe(self) -> str:
        """Human-readable one-line rendering, e.g. ``P0:{r1=0} mem:{x=1}``."""
        parts = []
        for proc, regs in enumerate(self.registers):
            inner = ",".join(f"{r}={v}" for r, v in regs)
            parts.append(f"P{proc}:{{{inner}}}")
        mem = ",".join(f"{loc}={v}" for loc, v in self.memory)
        parts.append(f"mem:{{{mem}}}")
        return " ".join(parts)


@dataclass
class Execution:
    """A completed execution: the operation trace plus its outcome.

    ``ops`` is ordered.  For executions on the *idealized architecture*
    (Section 4) this order is the atomic, program-order-respecting total
    order in which the operations executed, and it is the order the
    happens-before machinery consumes.  For hardware executions the order
    is by commit time, which condition 2/3 of Section 5.1 make a
    legitimate serialization of same-location writes and synchronization
    operations.
    """

    ops: List[MemoryOp] = field(default_factory=list)
    observable: Optional[Observable] = None
    #: True when the execution ran to completion (all threads halted).
    completed: bool = True

    def append(self, op: MemoryOp) -> None:
        self.ops.append(op)

    def ops_of_proc(self, proc: int) -> List[MemoryOp]:
        """The (program-ordered) real ops of one processor."""
        return [op for op in self.ops if op.proc == proc]

    def program_order(self) -> Dict[int, List[MemoryOp]]:
        """Each processor's ops in program order, keyed by processor.

        On the idealized architecture trace order restricted to one
        processor *is* its program order.  Hardware traces are
        commit-ordered, which can differ from issue order under relaxed
        policies; a processor whose ops all carry an ``issue_index`` is
        sorted by it.
        """
        by_proc: Dict[int, List[MemoryOp]] = {}
        for op in self.ops:
            by_proc.setdefault(op.proc, []).append(op)
        for ops in by_proc.values():
            if all(op.issue_index is not None for op in ops):
                ops.sort(key=lambda op: op.issue_index)
        return by_proc

    def reads(self) -> List[MemoryOp]:
        return [op for op in self.ops if op.reads_memory]

    def writes(self) -> List[MemoryOp]:
        return [op for op in self.ops if op.writes_memory]

    def sync_ops(self) -> List[MemoryOp]:
        return [op for op in self.ops if op.is_sync]

    def read_values(self) -> Dict[int, Value]:
        """Map ``op.uid -> value returned``, the first half of a result."""
        return {
            op.uid: op.value_read for op in self.ops if op.value_read is not None
        }

    def final_memory(self) -> Dict[Location, Value]:
        """Final state of memory replayed from the trace order.

        Only valid when trace order serializes same-location writes (true
        for both execution layers, see class docstring).
        """
        memory: Dict[Location, Value] = {}
        for op in self.ops:
            if op.writes_memory and op.value_written is not None:
                memory[op.location] = op.value_written
        return memory

    def __len__(self) -> int:
        return len(self.ops)

    def __iter__(self):
        return iter(self.ops)


def observable_set(executions: Iterable[Execution]) -> set:
    """Collect the distinct observables of a batch of executions."""
    out = set()
    for execution in executions:
        if execution.observable is not None:
            out.add(execution.observable)
    return out
