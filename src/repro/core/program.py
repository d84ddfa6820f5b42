"""Programs: named threads of instructions over shared memory.

A :class:`Program` is the static object every layer of the library
consumes — the idealized-architecture enumerator (Section 4), the DRF0
checker (Definition 3), and the hardware simulator (Section 5) all
execute the same :class:`Program`.

Use :class:`ThreadBuilder` for a fluent construction style::

    t0 = ThreadBuilder("P0").store("x", 1).sync_store("s", 0).build()
    t1 = (
        ThreadBuilder("P1")
        .label("spin")
        .test_and_set("r1", "s")
        .bne("r1", 0, "spin")
        .load("r2", "x")
        .build()
    )
    program = Program([t0, t1])
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence, Set, Tuple,
)

from repro.core.instructions import (
    Arith,
    BinOp,
    Branch,
    Condition,
    Fence,
    FetchAndAdd,
    Halt,
    Instruction,
    Jump,
    Load,
    MemInstruction,
    Mov,
    Nop,
    Operand,
    Store,
    Swap,
    SyncLoad,
    SyncStore,
    TestAndSet,
)
from repro.core.operation import Location, Value
from repro.core.registers import Register


class ProgramError(ValueError):
    """Raised when a program is structurally invalid."""


@dataclass(frozen=True)
class Thread:
    """A straight sequence of instructions plus branch-target labels.

    Labels map label names to instruction indices; a label at index
    ``len(instructions)`` is permitted and means "jump to halt".  The
    thread keeps its own copies (a tuple and a fresh dict), so a caller
    editing the sequence or mapping it passed in cannot change it.
    """

    name: str
    instructions: Tuple[Instruction, ...]
    labels: Mapping[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "instructions", tuple(self.instructions))
        object.__setattr__(self, "labels", dict(self.labels))
        for label, pos in self.labels.items():
            if not 0 <= pos <= len(self.instructions):
                raise ProgramError(
                    f"thread {self.name!r}: label {label!r} points outside the "
                    f"instruction range (index {pos})"
                )
        for idx, instr in enumerate(self.instructions):
            if isinstance(instr, (Branch, Jump)) and instr.target not in self.labels:
                raise ProgramError(
                    f"thread {self.name!r}: instruction {idx} targets undefined "
                    f"label {instr.target!r}"
                )

    def target_of(self, instr: Instruction) -> int:
        """Resolve the branch target index of a ``Branch`` or ``Jump``."""
        return self.labels[instr.target]  # type: ignore[union-attr]

    def memory_locations(self) -> Set[Location]:
        """The set of locations this thread's memory instructions touch."""
        return {
            instr.location
            for instr in self.instructions
            if isinstance(instr, MemInstruction)
        }

    def __len__(self) -> int:
        return len(self.instructions)


@dataclass(frozen=True)
class Program:
    """A parallel program: one thread per processor plus initial memory.

    Thread ``i`` runs on processor ``i`` throughout the library (process
    migration is out of scope; the paper only sketches the drain rule a
    migration would need).

    Immutable after construction; its fingerprint (see
    :func:`repro.campaign.spec.program_fingerprint`) and its
    :meth:`locations` are memoised on it.
    """

    threads: Tuple[Thread, ...]
    initial_memory: Mapping[Location, Value] = field(default_factory=dict)
    name: str = "program"

    def __init__(
        self,
        threads: Sequence[Thread],
        initial_memory: Optional[Mapping[Location, Value]] = None,
        name: str = "program",
    ) -> None:
        object.__setattr__(self, "threads", tuple(threads))
        object.__setattr__(self, "initial_memory", dict(initial_memory or {}))
        object.__setattr__(self, "name", name)
        if not self.threads:
            raise ProgramError("a program needs at least one thread")
        names = [t.name for t in self.threads]
        if len(set(names)) != len(names):
            raise ProgramError(f"duplicate thread names: {names}")

    @property
    def num_procs(self) -> int:
        return len(self.threads)

    def locations(self) -> FrozenSet[Location]:
        """Every shared location the program can touch (incl. initial
        memory); computed once per program (it is immutable) and
        memoised on it, like its campaign fingerprint."""
        locs = self.__dict__.get("_locations")
        if locs is None:
            found: Set[Location] = set(self.initial_memory)
            for thread in self.threads:
                found |= thread.memory_locations()
            locs = frozenset(found)
            object.__setattr__(self, "_locations", locs)
        return locs

    def initial_value(self, location: Location) -> Value:
        return self.initial_memory.get(location, 0)


class ThreadBuilder:
    """Fluent builder for :class:`Thread` bodies.

    Every mutator returns ``self`` so thread bodies read top-to-bottom
    like the assembly they denote.
    """

    def __init__(self, name: str) -> None:
        self._name = name
        self._instructions: List[Instruction] = []
        self._labels: Dict[str, int] = {}

    # -- memory ---------------------------------------------------------
    def load(self, dest: Register, location: Location) -> "ThreadBuilder":
        return self._push(Load(dest, location))

    def store(self, location: Location, src: Operand) -> "ThreadBuilder":
        return self._push(Store(location, src))

    def sync_load(self, dest: Register, location: Location) -> "ThreadBuilder":
        return self._push(SyncLoad(dest, location))

    def sync_store(self, location: Location, src: Operand) -> "ThreadBuilder":
        return self._push(SyncStore(location, src))

    def test_and_set(self, dest: Register, location: Location) -> "ThreadBuilder":
        return self._push(TestAndSet(dest, location))

    def swap(self, dest: Register, location: Location, src: Operand) -> "ThreadBuilder":
        return self._push(Swap(dest, location, src))

    def fetch_and_add(
        self, dest: Register, location: Location, src: Operand
    ) -> "ThreadBuilder":
        return self._push(FetchAndAdd(dest, location, src))

    # -- registers ------------------------------------------------------
    def mov(self, dest: Register, src: Operand) -> "ThreadBuilder":
        return self._push(Mov(dest, src))

    def add(self, dest: Register, a: Operand, b: Operand) -> "ThreadBuilder":
        return self._push(Arith(BinOp.ADD, dest, a, b))

    def sub(self, dest: Register, a: Operand, b: Operand) -> "ThreadBuilder":
        return self._push(Arith(BinOp.SUB, dest, a, b))

    def mul(self, dest: Register, a: Operand, b: Operand) -> "ThreadBuilder":
        return self._push(Arith(BinOp.MUL, dest, a, b))

    def arith(self, op: BinOp, dest: Register, a: Operand, b: Operand) -> "ThreadBuilder":
        return self._push(Arith(op, dest, a, b))

    def nop(self, count: int = 1) -> "ThreadBuilder":
        for _ in range(count):
            self._push(Nop())
        return self

    def fence(self) -> "ThreadBuilder":
        return self._push(Fence())

    # -- control flow ----------------------------------------------------
    def label(self, name: str) -> "ThreadBuilder":
        if name in self._labels:
            raise ProgramError(f"thread {self._name!r}: duplicate label {name!r}")
        self._labels[name] = len(self._instructions)
        return self

    def branch(
        self, cond: Condition, a: Operand, b: Operand, target: str
    ) -> "ThreadBuilder":
        return self._push(Branch(cond, a, b, target))

    def beq(self, a: Operand, b: Operand, target: str) -> "ThreadBuilder":
        return self.branch(Condition.EQ, a, b, target)

    def bne(self, a: Operand, b: Operand, target: str) -> "ThreadBuilder":
        return self.branch(Condition.NE, a, b, target)

    def blt(self, a: Operand, b: Operand, target: str) -> "ThreadBuilder":
        return self.branch(Condition.LT, a, b, target)

    def bge(self, a: Operand, b: Operand, target: str) -> "ThreadBuilder":
        return self.branch(Condition.GE, a, b, target)

    def jump(self, target: str) -> "ThreadBuilder":
        return self._push(Jump(target))

    def halt(self) -> "ThreadBuilder":
        return self._push(Halt())

    @property
    def position(self) -> int:
        """Index the next instruction will occupy (for unique labels)."""
        return len(self._instructions)

    # -- finish -----------------------------------------------------------
    def build(self) -> Thread:
        return Thread(self._name, self._instructions, self._labels)

    def _push(self, instr: Instruction) -> "ThreadBuilder":
        self._instructions.append(instr)
        return self


def straightline(name: str, instructions: Iterable[Instruction]) -> Thread:
    """Build a branch-free thread directly from instructions."""
    return Thread(name, instructions, {})
