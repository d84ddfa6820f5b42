"""Memory accesses in flight: the processor <-> memory-system contract.

Section 5.1 gives every operation a lifecycle the sufficient conditions
are phrased in:

* *generated* — "when it first comes into existence" (the processor
  creates the :class:`MemoryAccess`);
* *committed* — a read commits when its return value is dispatched back
  towards the requesting processor; a write commits when its value could
  be dispatched for some read (here: when it modifies the local cache
  copy, per the implementation model of Section 5.2);
* *globally performed* — a write when its modification has propagated to
  all processors; a read when its value is bound and the write that
  wrote that value is globally performed.

The access object records the timestamp of each event and lets any
number of listeners (the processor, the ordering policy, stall
accounting, tests) subscribe to them.  A listener is data — a callable
plus extra arguments, called as ``listener(access, *args)`` — so the
machine components subscribe bound methods and an in-flight access can
be forked with the machine (see :mod:`repro.sim.fork`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional, Tuple

from repro.core.operation import Location, OpKind, Value
from repro.core.registers import RegisterFile
from repro.sim.fork import Fork, Forkable

Listener = Callable[..., None]
#: A subscription: the listener and the extra arguments it is called with.
Subscription = Tuple[Listener, Tuple[Any, ...]]


class IssuedWrite:
    """A write's value function, bound at issue: the instruction plus the
    register snapshot taken then.  Called with the old memory value like
    any ``compute_write``; immutable, so forks share it."""

    __slots__ = ("instr", "regs")

    def __init__(self, instr, regs: RegisterFile) -> None:
        self.instr = instr
        self.regs = regs

    def __call__(self, old: Value) -> Value:
        return self.instr.compute_write(self.regs, old)


@dataclass
class MemoryAccess(Forkable):
    """One dynamic memory access travelling through the memory system."""

    proc: int
    kind: OpKind
    location: Location
    #: Maps the atomically-read old value to the value written; ``None``
    #: for operations without a write component.
    compute_write: Optional[Callable[[Value], Value]] = None
    #: Whether the protocol treats this access as synchronization
    #: (reserve-bit rule, sync serialization).  Policies may clear this
    #: for read-only syncs (the Section 6 refinement).
    sync_protocol: bool = False
    #: Whether the access needs the line in exclusive state.  True for
    #: all writes; True for read-only syncs unless the policy treats
    #: them as data reads.
    needs_exclusive: bool = False
    #: Static origin, carried into the trace.
    thread_pos: int = -1
    occurrence: int = 0

    generate_time: int = -1
    #: Per-processor issue sequence number (program order of dynamic ops).
    issue_index: Optional[int] = None
    value: Optional[Value] = None
    value_written: Optional[Value] = None
    commit_time: Optional[int] = None
    gp_time: Optional[int] = None
    #: Number of NACK round-trips this access suffered (sync retries).
    nacks: int = 0

    _on_value: List[Subscription] = field(default_factory=list)
    _on_commit: List[Subscription] = field(default_factory=list)
    _on_gp: List[Subscription] = field(default_factory=list)

    # -- predicates ----------------------------------------------------------
    @property
    def committed(self) -> bool:
        return self.commit_time is not None

    @property
    def globally_performed(self) -> bool:
        return self.gp_time is not None

    @property
    def has_value(self) -> bool:
        return self.value is not None

    # -- subscriptions --------------------------------------------------------
    def on_value(self, listener: Listener, *args: Any) -> None:
        if self.value is not None:
            listener(self, *args)
        else:
            self._on_value.append((listener, args))

    def on_commit(self, listener: Listener, *args: Any) -> None:
        if self.committed:
            listener(self, *args)
        else:
            self._on_commit.append((listener, args))

    def on_globally_performed(self, listener: Listener, *args: Any) -> None:
        if self.globally_performed:
            listener(self, *args)
        else:
            self._on_gp.append((listener, args))

    # -- event delivery (called by the memory system) -------------------------
    def deliver_value(self, value: Value, now: int) -> None:
        assert self.value is None, f"value delivered twice to {self}"
        self.value = value
        listeners, self._on_value = self._on_value, []
        for listener, args in listeners:
            listener(self, *args)

    def mark_committed(self, now: int) -> None:
        assert self.commit_time is None, f"{self} committed twice"
        self.commit_time = now
        listeners, self._on_commit = self._on_commit, []
        for listener, args in listeners:
            listener(self, *args)

    def mark_globally_performed(self, now: int) -> None:
        assert self.gp_time is None, f"{self} globally performed twice"
        assert self.commit_time is not None, f"{self} gp before commit"
        self.gp_time = now
        listeners, self._on_gp = self._on_gp, []
        for listener, args in listeners:
            listener(self, *args)

    def _fork(self, fork: Fork) -> "MemoryAccess":
        new = fork.shell(self)
        calls = fork.calls
        new._on_value = calls(self._on_value) if self._on_value else []
        new._on_commit = calls(self._on_commit) if self._on_commit else []
        new._on_gp = calls(self._on_gp) if self._on_gp else []
        return new

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Access P{self.proc} {self.kind.value} {self.location} "
            f"v={self.value} c={self.commit_time} gp={self.gp_time}>"
        )
