"""The processor-core contract: fetch/issue/retire/stall/migration.

The paper locates reordering in the *memory system* — but PAPERS.md's
parallelized-sequential-composition line of work shows the core itself
is a second, independent source of reordering (store forwarding,
overlapping in-flight accesses).  This module is the seam between the
two: :class:`ProcessorCore` owns everything every core shape shares —
program-order fetch, the policy hooks (issue gate / block kind), access
generation, stall attribution, tracing, and drained context migration —
while the concrete cores decide *how far the front end may run ahead of
the memory system*:

* :class:`~repro.cpu.processor.SimpleCore` — the original model: at
  most one access per location outstanding, destination registers block
  immediately for their value.
* :class:`~repro.cpu.pipelined.PipelinedCore` — an in-order-issue
  pipeline with an issue window, register scoreboarding, and
  store-to-load forwarding from the core's own pending writes.

Cores register themselves by ``core_name`` (the same
``__init_subclass__`` pattern as the policy registry), so the campaign
layer can rebuild a core choice from its picklable spec string.

Intra-processor dependencies (condition 1 of Section 5.1) remain
enforced structurally by every core:

* no instruction may consume a register whose producing access has not
  delivered its value;
* write values are computed from the register file at issue time, after
  all producing reads have completed;
* same-location program order is preserved through the memory system —
  either by stalling (one open transaction per location) or, in the
  pipelined core, by forwarding the newest pending write's value.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Protocol, Tuple, Type

from repro.core.instructions import (
    Branch,
    Fence,
    Halt,
    Jump,
    MemInstruction,
    RegInstruction,
)
from repro.core.operation import MemoryOp, OpKind
from repro.core.program import Thread
from repro.core.registers import RegisterFile
from repro.cpu.access import IssuedWrite, MemoryAccess
from repro.models.base import BlockKind, OrderingPolicy
from repro.sim.engine import Component, Simulator
from repro.sim.fork import Fork
from repro.sim.stats import StallReason, Stats


class MemoryPort(Protocol):
    """Anything a processor can issue accesses to (cache or memory path)."""

    #: Whether stores reach memory in program order (a FIFO write buffer);
    #: a port without the attribute is assumed not to.
    in_order_stores: bool

    def submit(self, access: MemoryAccess) -> None:  # pragma: no cover
        ...


#: Core name -> core class, populated by ``__init_subclass__`` so the
#: campaign layer can rebuild a core from its picklable spec string, the
#: same pattern as the policy registry in :mod:`repro.models.base`.
_CORE_REGISTRY: Dict[str, Type["ProcessorCore"]] = {}


def core_class_by_name(name: str) -> Type["ProcessorCore"]:
    """The core class registered under a core name."""
    try:
        return _CORE_REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown core {name!r}; registered: {sorted(_CORE_REGISTRY)}"
        )


def core_names() -> Tuple[str, ...]:
    """The registered core names, sorted (CLI choices, capability checks)."""
    return tuple(sorted(_CORE_REGISTRY))


#: A hard block's stall reason, and the milestone it awaits.
_BLOCKS = {
    BlockKind.VALUE: (StallReason.READ_VALUE, "value"),
    BlockKind.COMMIT: (StallReason.DEF2_SYNC_COMMIT, "commit"),
    BlockKind.GP: (StallReason.SC_PREVIOUS_GP, "global perform"),
}


class ProcessorCore(Component):
    """Shared machinery of every in-order-fetch processor core.

    Subclasses implement :meth:`_try_memory` (when may a memory access
    generate, and what happens when it cannot) and
    :meth:`_complete_issue` (how the pipeline treats a freshly issued
    access); everything else — the fetch loop, local instructions, fence
    drains, access construction, stall accounting, tracing, migration —
    is identical across core shapes and lives here.
    """

    #: Identifier used by ``--core``/``PolicySpec.core``; subclasses that
    #: declare their own name are registered as constructible cores.
    core_name = "base"

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        # Register only classes that declare their own core name, so
        # ad-hoc subclasses (test doubles) never
        # shadow a real core.
        if "core_name" in cls.__dict__:
            _CORE_REGISTRY[cls.core_name] = cls

    def __init__(
        self,
        sim: Simulator,
        proc_id: int,
        thread: Thread,
        policy: OrderingPolicy,
        port: MemoryPort,
        stats: Stats,
        local_cycles: int = 1,
        cache=None,
    ) -> None:
        super().__init__(sim, f"proc{proc_id}")
        self.proc_id = proc_id
        #: The *thread* this processor currently runs.  Trace operations
        #: and observables are keyed by this, so a migrated thread keeps
        #: its identity while running on different physical processors.
        self.logical_proc = proc_id
        self.thread = thread
        self.policy = policy
        self.port = port
        self.stats = stats
        self.local_cycles = max(1, local_cycles)
        self.cache = cache

        self.regs = RegisterFile()
        self.pc = 0
        self.halted = False
        self.halt_time: Optional[int] = None
        #: Accesses generated but not yet globally performed.
        self.pending_accesses: List[MemoryAccess] = []
        #: Completed memory operations with commit timestamps, for traces.
        self.trace: List[MemoryOp] = []
        self._occurrences: dict = {}
        self._issue_counter = 0
        self._stall_reason: Optional[StallReason] = None
        self._busy = False  # mid-instruction delay in flight
        #: Set while a context switch is draining: no new issues.
        self._migrating = False
        self.tracer = sim.tracer
        #: Whether the memory port is a write buffer that can actually
        #: fill up (an unbounded one never is, so skip the check).
        self._port_is_bounded = (
            hasattr(port, "write_full")
            and getattr(port, "capacity", None) is not None
        )
        self.in_order_stores = getattr(port, "in_order_stores", False)
        #: Location of the sync access this processor is commit-blocked
        #: on, if any — the anchor for attributing remote reserve NACKs
        #: (condition 5's DEF2_RESERVED_REMOTE stall) to this processor.
        self._commit_wait_loc = None
        #: The access the pipeline is hard-blocked on (value/commit/gp)
        #: and which milestone it awaits — read by the deadlock
        #: diagnosis to draw processor wait-for edges.
        self.blocked_access: Optional[MemoryAccess] = None
        self.blocked_until: Optional[str] = None
        #: Per-kind issue plans, each made on its kind's first issue
        #: (see :meth:`_plan`); forks share them, as they share the
        #: policy they come from.
        self._plans: Dict[OpKind, Tuple[bool, bool, BlockKind, str]] = {}
        if cache is not None:
            cache.on_sync_nack.append(self._on_sync_nack)

    def _fork(self, fork: Fork) -> "ProcessorCore":
        """Copy the architectural and pipeline state; the thread, the
        policy and committed trace operations are shared, and the
        register file, which only this core holds, is copied as a
        leaf."""
        new = super()._fork(fork)
        memo = fork.memo
        new.stats = memo.get(id(self.stats)) or self.stats._fork(fork)
        new.tracer = new.sim.tracer
        new.port = memo.get(id(self.port)) or self.port._fork(fork)
        if self.cache is not None:
            new.cache = new.port if self.cache is self.port else fork(self.cache)
        new.regs = self.regs.copy()
        new.pending_accesses = [
            memo.get(id(access)) or access._fork(fork)
            for access in self.pending_accesses
        ]
        new.trace = list(self.trace)
        new._occurrences = dict(self._occurrences)
        if self.blocked_access is not None:
            new.blocked_access = fork(self.blocked_access)
        return new

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        self.sim.call_soon(self._advance)

    # The coalesced-wake facility itself lives on Component (anything
    # re-evaluating state after an event cascade can use it); the hooks
    # below bind it to the core's halt/busy flags.
    def wake_suppressed(self) -> bool:
        return self.halted

    def wake_ready(self) -> bool:
        return not self._busy

    def on_wake(self) -> None:
        self._advance()

    # ------------------------------------------------------------------
    # Core loop
    # ------------------------------------------------------------------
    def _advance(self) -> None:
        if self.halted or self._busy or self._migrating:
            return
        if self._stall_reason is not None:
            self._end_stall()
        instructions = self.thread.instructions
        pc = self.pc
        if pc >= len(instructions) or isinstance(instructions[pc], Halt):
            self._halt()
            return
        instr = instructions[pc]
        hazard = self._pre_execute(instr)
        if hazard is not None:
            self._begin_stall(hazard)
            return
        if isinstance(instr, MemInstruction):
            self._try_memory(instr)
        elif isinstance(instr, Fence):
            # The RP3 fence: wait until every previous access has
            # globally performed, regardless of the ordering policy.
            if self.pending_accesses:
                self._begin_stall(StallReason.FENCE_DRAIN)
                return
            self.pc += 1
            self._after_delay(self.local_cycles)
        elif isinstance(instr, RegInstruction):
            instr.apply(self.regs)
            self.pc += 1
            self._after_delay(self.local_cycles)
        elif isinstance(instr, Branch):
            self.pc = (
                self.thread.target_of(instr) if instr.taken(self.regs) else self.pc + 1
            )
            self._after_delay(self.local_cycles)
        elif isinstance(instr, Jump):
            self.pc = self.thread.target_of(instr)
            self._after_delay(self.local_cycles)
        else:  # pragma: no cover - defensive
            raise TypeError(f"unknown instruction {instr!r}")

    def _halt(self) -> None:
        self.halted = True
        self.halt_time = self.sim.now
        if self.tracer.enabled:
            self.tracer.emit("proc", "halt", track=f"P{self.logical_proc}")

    def _after_delay(self, cycles: int) -> None:
        self._busy = True
        self.sim.schedule(cycles, self._resume)

    def _resume(self) -> None:
        self._busy = False
        self._advance()

    # ------------------------------------------------------------------
    # Core-shape hooks
    # ------------------------------------------------------------------
    def _pre_execute(self, instr) -> Optional[StallReason]:
        """Core-specific hazard check before any instruction executes.

        Runs for *every* instruction kind (a register scoreboard must
        also hold back arithmetic and branches whose sources are still
        in flight).  Return a stall reason to hold the front end, or
        ``None`` to proceed.
        """
        return None

    def _try_memory(self, instr: MemInstruction) -> None:
        """Decide whether ``instr``'s access may generate now.

        Must either call :meth:`_issue` (possibly after core-specific
        resolution such as store forwarding) or record a stall via
        :meth:`_begin_stall` and return; a later :meth:`wake` re-runs
        the decision.
        """
        raise NotImplementedError

    def _complete_issue(
        self, access: MemoryAccess, instr: MemInstruction, block: BlockKind
    ) -> None:
        """Advance the pipeline past a freshly generated access.

        ``block`` is the policy's verdict; the core decides how to honor
        it (block the whole front end, scoreboard the destination, ...)
        and is responsible for advancing ``pc`` and submitting the
        access to the memory port.
        """
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Memory instructions — shared generation path
    # ------------------------------------------------------------------
    def _common_gate(self, instr: MemInstruction) -> Optional[StallReason]:
        """The policy's issue gate plus the bounded-write-buffer check,
        identical across core shapes (checked in this order so stall
        attribution is stable)."""
        gate = self.policy.issue_gate(self, instr.kind)
        if gate is not None:
            return gate
        # A bounded write buffer refuses new writes while full; the
        # processor stalls until a buffered write globally performs (its
        # MemWriteAck pops the buffer head and wakes us via retire).
        if (
            self._port_is_bounded
            and instr.kind.writes_memory
            and self.port.write_full
        ):
            return StallReason.WRITE_BUFFER_FULL
        return None

    def _plan(self, kind: OpKind) -> Tuple[bool, bool, BlockKind, str]:
        """What the policy decides for every access of ``kind``: its
        protocol sync treatment, its exclusive procurement, its block
        kind, and its issue counter's key.  Asked of the policy's own
        methods once per core and kind, so a subclass's overrides
        decide it; they must answer from the kind alone."""
        policy = self.policy
        plan = self._plans[kind] = (
            policy.sync_protocol(kind),
            policy.needs_exclusive(kind),
            policy.block_kind(kind),
            f"proc.{kind.label}",
        )
        return plan

    def _issue(self, instr: MemInstruction) -> None:
        pos = self.pc
        occurrence = self._occurrences.get(pos, 0)
        self._occurrences[pos] = occurrence + 1
        kind = instr.kind
        sync_protocol, needs_exclusive, block, counter = (
            self._plans.get(kind) or self._plan(kind)
        )

        compute_write = None
        if kind.writes_memory:
            # Snapshot the register file now: the write's operands are an
            # intra-processor dependency bound at issue, not at whatever
            # later cycle the memory system performs the write.
            compute_write = IssuedWrite(instr, self.regs.copy())

        access = MemoryAccess(
            proc=self.logical_proc,
            kind=kind,
            location=instr.location,
            compute_write=compute_write,
            sync_protocol=sync_protocol,
            needs_exclusive=needs_exclusive,
            thread_pos=pos,
            occurrence=occurrence,
            generate_time=self.sim._time,
            issue_index=self._issue_counter,
        )
        self._issue_counter += 1
        self.pending_accesses.append(access)
        self.stats.counters[counter] += 1
        if self.tracer.enabled and self.tracer.wants("proc"):
            self.tracer.emit(
                "proc",
                "issue",
                track=f"P{self.logical_proc}",
                args=(
                    ("kind", instr.kind.value),
                    ("location", instr.location),
                    ("pos", pos),
                    ("occurrence", occurrence),
                    ("issue_index", access.issue_index),
                ),
            )

        # A fresh access has reached no milestone: subscribe directly.
        dest = instr.dest
        if dest is not None:
            access._on_value.append((self._write_dest, (dest,)))
        access._on_commit += ((self._record_trace, ()), (self._wake_on, ()))
        access._on_gp.append((self._retire, ()))

        self._complete_issue(access, instr, block)

    def _block_on(self, access: MemoryAccess, block: BlockKind) -> None:
        if block is BlockKind.NONE:
            self._after_delay(self.local_cycles)
            return

        self._busy = True
        started = self.sim._time
        reason, self.blocked_until = _BLOCKS[block]
        self.stats.stall_begin(self.proc_id, reason, started)
        if block is BlockKind.COMMIT:
            self._commit_wait_loc = access.location
        self.blocked_access = access

        if block is BlockKind.VALUE:
            access.on_value(self._unblock, reason, block)
        elif block is BlockKind.COMMIT:
            access.on_commit(self._unblock, reason, block)
        else:
            access.on_globally_performed(self._unblock, reason, block)

    def _unblock(
        self, _access: MemoryAccess, reason: StallReason, block: BlockKind
    ) -> None:
        now = self.sim._time
        self.stats.stall_end(self.proc_id, reason, now)
        if block is BlockKind.COMMIT:
            self._commit_wait_loc = None
            # Close the remote-reserve overlay window, if a NACK
            # opened one while we waited for the commit.
            self.stats.stall_end(
                self.proc_id, StallReason.DEF2_RESERVED_REMOTE, now
            )
        self.blocked_access = None
        self.blocked_until = None
        self._busy = False
        self.sim.call_soon(self._advance)

    def _write_dest(self, access: MemoryAccess, dest) -> None:
        self.regs.write(dest, access.value)

    def _wake_on(self, _access: MemoryAccess) -> None:
        self.wake()

    def _record_trace(self, access: MemoryAccess) -> None:
        op = MemoryOp(
            proc=access.proc,
            kind=access.kind,
            location=access.location,
            thread_pos=access.thread_pos,
            occurrence=access.occurrence,
            value_read=access.value if access.kind.reads_memory else None,
            value_written=access.value_written,
        )
        op.commit_time = access.commit_time
        op.issue_index = access.issue_index
        self.trace.append(op)
        if self.tracer.enabled and self.tracer.wants("proc"):
            # Carries the op's full identity: the trace-based
            # happens-before cross-check rebuilds the execution from
            # exactly these events (see repro.trace.crosscheck).
            self.tracer.emit(
                "proc",
                "commit",
                track=f"P{op.proc}",
                args=(
                    ("proc", op.proc),
                    ("kind", op.kind.value),
                    ("location", op.location),
                    ("pos", op.thread_pos),
                    ("occurrence", op.occurrence),
                    ("issue_index", op.issue_index),
                    ("value_read", op.value_read),
                    ("value_written", op.value_written),
                ),
            )

    def _retire(self, access: MemoryAccess) -> None:
        self.pending_accesses.remove(access)
        if self.tracer.enabled and self.tracer.wants("proc"):
            self.tracer.emit(
                "proc",
                "gp",
                track=f"P{access.proc}",
                args=(
                    ("kind", access.kind.value),
                    ("location", access.location),
                    ("issue_index", access.issue_index),
                ),
            )
        self.wake()

    def _on_sync_nack(self, location) -> None:
        """Cache observer: our sync request was NACKed because the line is
        reserved at a remote owner — condition 5's distinct stall cause,
        accounted as an overlay on the enclosing commit wait."""
        if location == self._commit_wait_loc:
            self.stats.stall_begin(
                self.proc_id, StallReason.DEF2_RESERVED_REMOTE, self.sim.now
            )

    # ------------------------------------------------------------------
    # Stall accounting
    # ------------------------------------------------------------------
    def _begin_stall(self, reason: StallReason) -> None:
        current = self._stall_reason
        if current is reason:
            return
        now = self.sim._time
        if current is not None:
            self.stats.stall_end(self.proc_id, current, now)
        self._stall_reason = reason
        self.stats.stall_begin(self.proc_id, reason, now)

    def _end_stall(self) -> None:
        if self._stall_reason is not None:
            self.stats.stall_end(
                self.proc_id, self._stall_reason, self.sim._time
            )
            self._stall_reason = None

    @property
    def stalled(self) -> bool:
        return self._stall_reason is not None

    # ------------------------------------------------------------------
    # Process migration (Section 5.1's footnote)
    # ------------------------------------------------------------------
    @property
    def idle_for_adoption(self) -> bool:
        """True when this processor can take over another thread: its own
        thread is empty (a dedicated idle slot) or it has already
        migrated its thread away, and nothing is in flight."""
        if self.pending_accesses or self._busy:
            return False
        # An empty thread is idle whether or not its (trivial) halt has
        # been processed yet — early migrations may beat the start event.
        return len(self.thread.instructions) == 0

    def begin_migration(self) -> None:
        """Stop issuing; in-flight accesses continue to completion."""
        self._end_stall()
        self._migrating = True

    def export_context(self) -> dict:
        """The thread context a context switch transfers."""
        assert not self.pending_accesses, "export before drain completed"
        return {
            "logical_proc": self.logical_proc,
            "thread": self.thread,
            "regs": self.regs,
            "pc": self.pc,
            "occurrences": self._occurrences,
            "issue_counter": self._issue_counter,
        }

    def adopt_context(self, context: dict) -> dict:
        """Take over a thread; returns this processor's previous identity
        (for the source to assume, keeping the identity set intact)."""
        assert self.idle_for_adoption, f"{self.name} cannot adopt a thread"
        previous = {
            "logical_proc": self.logical_proc,
            "thread": self.thread,
            "regs": self.regs,
            "pc": self.pc,
            "occurrences": self._occurrences,
            "issue_counter": self._issue_counter,
        }
        self.logical_proc = context["logical_proc"]
        self.thread = context["thread"]
        self.regs = context["regs"]
        self.pc = context["pc"]
        self._occurrences = context["occurrences"]
        self._issue_counter = context["issue_counter"]
        self.halted = False
        self.halt_time = None
        self._migrating = False
        return previous

    def become_idle(self, identity: dict) -> None:
        """Assume the (already halted) identity handed back by the target."""
        self.logical_proc = identity["logical_proc"]
        self.thread = identity["thread"]
        self.regs = identity["regs"]
        self.pc = identity["pc"]
        self._occurrences = identity["occurrences"]
        self._issue_counter = identity["issue_counter"]
        self._migrating = False
        self.halted = True
        self.halt_time = self.sim.now
