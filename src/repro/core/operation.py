"""Memory operations — the vocabulary of the paper.

The paper's Section 1 interprets Lamport's definition with *operations*
meaning memory operations (reads and writes) and *result* meaning the
union of the values returned by all reads plus the final state of memory.

Section 4 (DRF0) splits operations into *data* operations and
*synchronization* operations, and Section 6 further distinguishes
synchronization operations that only read (``Test``), only write
(``Unset``), and both read and write (``TestAndSet``).  ``OpKind``
captures exactly this taxonomy.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Optional

Location = str
Value = int

#: The value every memory location holds before the (hypothetical)
#: initializing writes of Section 4's augmented execution.
INITIAL_VALUE: Value = 0


class OpKind(enum.Enum):
    """Kind of a memory operation.

    ``READ``/``WRITE`` are ordinary data operations; the ``SYNC_*`` kinds
    are hardware-recognizable synchronization operations as required by
    DRF0 condition (1).
    """

    READ = "read"
    WRITE = "write"
    SYNC_READ = "sync_read"
    SYNC_WRITE = "sync_write"
    SYNC_RMW = "sync_rmw"

    #: True for synchronization operations (DRF0's S ops).
    is_sync: bool
    #: True if the operation has a read component.
    reads_memory: bool
    #: True if the operation has a write component.
    writes_memory: bool
    #: The value again, as a dict key that hashes in C (an enum member
    #: hashes, and ``.value`` reads, through Python code).
    label: str

    #: Members are singletons and compare by identity, so they hash by
    #: identity too: in C, where ``Enum.__hash__`` hashes the name in
    #: Python.  Nothing may depend on the hash value (no digest hashes a
    #: member, and no output iterates a set of members unsorted).
    __hash__ = object.__hash__

    def __init__(self, value: str) -> None:
        # Plain attributes rather than properties: the searches and the
        # simulator ask these tens of thousands of times per check.
        self.label = value
        self.is_sync = value.startswith("sync_")
        self.reads_memory = value in ("read", "sync_read", "sync_rmw")
        self.writes_memory = value in ("write", "sync_write", "sync_rmw")


_uid_counter = itertools.count()


@dataclass(eq=False)
class MemoryOp:
    """A dynamic memory operation instance in some execution.

    Identity is by object (``eq=False``): two executions of the same
    static instruction produce distinct :class:`MemoryOp` instances.  The
    triple ``(proc, thread_pos, occurrence)`` identifies the *static*
    origin — the same static access may execute many times in a loop,
    disambiguated by ``occurrence``.

    Attributes:
        proc: index of the issuing processor (or the pseudo-processors
            ``INIT_PROC``/``FINAL_PROC`` for augmented executions).
        kind: the operation taxonomy entry.
        location: the single memory location accessed.  DRF0 requires
            synchronization operations to access exactly one location;
            this type enforces that for *all* operations.
        thread_pos: index of the originating instruction in its thread.
        occurrence: dynamic occurrence count of that instruction (0-based).
        value_read: value returned by the read component, if any.
        value_written: value stored by the write component, if any.
    """

    proc: int
    kind: OpKind
    location: Location
    thread_pos: int = -1
    occurrence: int = 0
    value_read: Optional[Value] = None
    value_written: Optional[Value] = None
    #: Commit timestamp for hardware-produced ops (None on the idealized
    #: architecture, where trace position is the serialization).
    commit_time: Optional[int] = None
    #: Per-processor issue sequence number: the authoritative program
    #: order of dynamic ops.  Necessary for hardware traces, whose trace
    #: (commit) order may differ from issue order under relaxed policies.
    issue_index: Optional[int] = None
    uid: int = field(default_factory=_uid_counter.__next__)

    #: Pseudo-processor ids used by augmented executions (Section 4).
    INIT_PROC = -1
    FINAL_PROC = -2

    @property
    def is_sync(self) -> bool:
        return self.kind.is_sync

    @property
    def reads_memory(self) -> bool:
        return self.kind.reads_memory

    @property
    def writes_memory(self) -> bool:
        return self.kind.writes_memory

    @property
    def is_hypothetical(self) -> bool:
        """True for the augmentation ops of Section 4 (init/final)."""
        return self.proc in (MemoryOp.INIT_PROC, MemoryOp.FINAL_PROC)

    def static_id(self) -> tuple:
        """Identity of the static instruction instance this op came from."""
        return (self.proc, self.thread_pos, self.occurrence)

    def __hash__(self) -> int:
        return hash(self.uid)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        tag = {
            OpKind.READ: "R",
            OpKind.WRITE: "W",
            OpKind.SYNC_READ: "Sr",
            OpKind.SYNC_WRITE: "Sw",
            OpKind.SYNC_RMW: "Srw",
        }[self.kind]
        parts = [f"{tag}(P{self.proc},{self.location}"]
        if self.value_read is not None:
            parts.append(f"=>{self.value_read}")
        if self.value_written is not None:
            parts.append(f"<={self.value_written}")
        return "".join(parts) + ")"


def conflict(op1: MemoryOp, op2: MemoryOp) -> bool:
    """Paper, Section 4: two accesses *conflict* iff they access the same
    location and they are not both reads.

    Note that a ``SYNC_READ`` *is* a read for this purpose: two sync reads
    of the same location do not conflict, but a sync read and a data
    write do.
    """
    if op1.location != op2.location:
        return False
    return op1.writes_memory or op2.writes_memory
