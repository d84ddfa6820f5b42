"""A pipelined in-order-issue core with parallelized-sequential semantics.

PAPERS.md's "Parallelized sequential composition, pipelines, and
hardware weak memory models" observes that a pipelined core *is* a weak
memory model of its own: program order goes in, a parallelized
composition of the independent suffixes comes out.  This core realizes
that semantics on top of the unchanged memory system:

* **Issue window** — up to :attr:`~PipelinedCore.window` accesses may be
  in flight at once; the front end only stalls when the window is full
  or an ordering gate fires.
* **Register scoreboard** — a load does not block the front end for its
  value; instead its destination register is marked pending and only an
  instruction that *uses* the register (RAW) or overwrites it (WAW)
  stalls.  Independent accesses therefore overlap exactly as the
  parallelized-sequential-composition rule permits.
* **Store-to-load forwarding** — a data read that finds a pending
  uncommitted data write to the same location in the core's own window
  is satisfied from that write's value immediately (the newest one, so
  same-location program order is still respected), instead of stalling
  with ``SAME_LOCATION``.  Only plain data writes forward: sync
  accesses carry protocol obligations (reserve bits, exclusive
  procurement) and RMWs depend on the memory value, so both always go
  to the memory system.

The *policy* ordering gates still serialize where required: SC's
issue gate keeps the window at one access deep, DEF1/DEF2's conditions
hold syncs back exactly as on :class:`~repro.cpu.processor.SimpleCore`.
The observable difference is confined to data accesses that the policy
already allowed to overlap — which is why weakly-ordered policies keep
their Definition-2 promise to DRF0 programs on this core, while racy
programs can observe genuinely new (core-originated) reorderings.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.core.instructions import MemInstruction
from repro.core.operation import OpKind
from repro.core.registers import Register
from repro.cpu.access import MemoryAccess
from repro.cpu.core import ProcessorCore
from repro.models.base import BlockKind
from repro.sim.fork import Fork
from repro.sim.stats import StallReason

__all__ = ["PipelinedCore"]


class PipelinedCore(ProcessorCore):
    """In-order issue, out-of-order completion, store forwarding."""

    core_name = "pipelined"

    #: Maximum accesses in flight; chosen small so litmus tests exercise
    #: the window-full stall without needing long programs.
    window = 4

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        #: Destination registers awaiting an in-flight access's value.
        self._pending_regs: Dict[Register, MemoryAccess] = {}
        #: Pipeline-slot occupancy for trace spans (one Perfetto track
        #: per slot, so overlapping accesses render as parallel lanes).
        #: Maintained only while tracing: slot identity has no simulated
        #: behaviour.
        self._slots: List[Optional[MemoryAccess]] = [None] * self.window

    def _fork(self, fork: Fork) -> "PipelinedCore":
        new = super()._fork(fork)
        new._pending_regs = {
            reg: fork(access) for reg, access in self._pending_regs.items()
        }
        new._slots = [
            None if access is None else fork(access) for access in self._slots
        ]
        return new

    @property
    def pending_registers(self) -> Dict[Register, MemoryAccess]:
        """The scoreboard, for the sanitizer and deadlock diagnosis."""
        return dict(self._pending_regs)

    # ------------------------------------------------------------------
    # Scoreboard hazards (run for every instruction kind)
    # ------------------------------------------------------------------
    @staticmethod
    def _source_registers(instr) -> List[Register]:
        # Operands live under ``src`` (Store/Mov/Swap/FetchAndAdd),
        # ``a``/``b`` (Arith/Branch); register operands are plain strings
        # while immediates are ints (see repro.core.instructions).
        sources = []
        for attr in ("src", "a", "b"):
            operand = getattr(instr, attr, None)
            if isinstance(operand, str):
                sources.append(operand)
        return sources

    def _pre_execute(self, instr) -> Optional[StallReason]:
        if not self._pending_regs:
            return None
        for reg in self._source_registers(instr):
            if reg in self._pending_regs:
                # RAW: a source register's producing access is in flight.
                return StallReason.READ_VALUE
        dest = getattr(instr, "dest", None)
        if dest is not None and dest in self._pending_regs:
            # WAW: an in-flight access still targets this register; its
            # late value delivery would clobber the newer write.
            return StallReason.READ_VALUE
        return None

    # ------------------------------------------------------------------
    # Memory instructions
    # ------------------------------------------------------------------
    def _try_memory(self, instr: MemInstruction) -> None:
        gate = self._common_gate(instr)
        if gate is not None:
            self._begin_stall(gate)
            return
        if len(self.pending_accesses) >= self.window:
            self._begin_stall(StallReason.CORE_WINDOW_FULL)
            return
        conflicting = [
            a
            for a in self.pending_accesses
            if a.location == instr.location and not a.committed
        ]
        if conflicting:
            newest = conflicting[-1]
            if (
                instr.kind is OpKind.READ
                and self._forwardable(newest)
                and self.policy.allows_store_forwarding
            ):
                self._forward(instr, newest)
                return
            # Same rule as SimpleCore: one open transaction per location.
            self._begin_stall(StallReason.SAME_LOCATION)
            return
        self._issue(instr)

    @staticmethod
    def _forwardable(access: MemoryAccess) -> bool:
        # Plain data writes only: their value is fully determined by the
        # register snapshot taken at issue (``compute_write`` ignores the
        # old memory value), so the core can produce it locally.
        return access.kind is OpKind.WRITE and access.compute_write is not None

    def _forward(self, instr: MemInstruction, source: MemoryAccess) -> None:
        """Satisfy a data read from the newest pending same-location write.

        The read never enters the memory system: like a write-buffer
        forward (see ``WriteBufferPort._forward_from_buffer``), it is
        delivered, committed, and globally performed on the spot — the
        read's value is bound to a write that is itself still in flight,
        which is exactly the core-originated reordering this core models.
        """
        pos = self.pc
        occurrence = self._occurrences.get(pos, 0)
        self._occurrences[pos] = occurrence + 1

        access = MemoryAccess(
            proc=self.logical_proc,
            kind=instr.kind,
            location=instr.location,
            thread_pos=pos,
            occurrence=occurrence,
        )
        access.generate_time = self.sim._time
        access.issue_index = self._issue_counter
        self._issue_counter += 1
        self.stats.bump(f"proc.{instr.kind.value}")
        self.stats.bump("core.forwards")

        value = source.compute_write(0)
        if self.tracer.enabled:
            if self.tracer.wants("proc"):
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
            if self.tracer.wants("core"):
                self.tracer.emit(
                    "core",
                    "forward",
                    track=f"P{self.logical_proc}",
                    args=(
                        ("location", instr.location),
                        ("value", value),
                        ("from_issue_index", source.issue_index),
                        ("issue_index", access.issue_index),
                    ),
                )

        dest = instr.dest
        if dest is not None:
            access.on_value(self._write_dest, dest)
        access.on_commit(self._record_trace)
        access.deliver_value(value, self.sim._time)
        access.mark_committed(self.sim._time)
        access.mark_globally_performed(self.sim._time)

        self.pc += 1
        self._after_delay(self.local_cycles)

    def _complete_issue(
        self, access: MemoryAccess, instr: MemInstruction, block: BlockKind
    ) -> None:
        dest = instr.dest
        if dest is not None and block is BlockKind.NONE:
            # Scoreboard instead of blocking: the front end runs ahead
            # until something actually needs the register.
            self._pending_regs[dest] = access
            access.on_value(self._clear_scoreboard, dest)

        if self.tracer.enabled and self.tracer.wants("core"):
            self._open_slot_span(access)

        self.pc += 1
        self.port.submit(access)
        self._block_on(access, block)

    def _clear_scoreboard(self, access: MemoryAccess, dest: Register) -> None:
        if self._pending_regs.get(dest) is access:
            del self._pending_regs[dest]
        self.wake()

    def _retire(self, access: MemoryAccess) -> None:
        if getattr(access, "core_slot", None) is not None:
            self._close_slot_span(access)
        super()._retire(access)

    # ------------------------------------------------------------------
    # Pipeline-stage trace spans
    # ------------------------------------------------------------------
    def _open_slot_span(self, access: MemoryAccess) -> None:
        """Open a B span on the lowest free slot track (``P0.s2``), so a
        Perfetto timeline shows window occupancy as parallel lanes."""
        try:
            slot = self._slots.index(None)
        except ValueError:  # pragma: no cover - window bound prevents this
            return
        self._slots[slot] = access
        access.core_slot = slot
        access.core_span = f"{access.kind.value}@{access.location}"
        self.tracer.begin(
            "core",
            access.core_span,
            track=f"P{self.logical_proc}.s{slot}",
            args=(
                ("location", access.location),
                ("issue_index", access.issue_index),
            ),
        )

    def _close_slot_span(self, access: MemoryAccess) -> None:
        slot = access.core_slot
        access.core_slot = None
        if self._slots[slot] is access:
            self._slots[slot] = None
        if self.tracer.enabled and self.tracer.wants("core"):
            self.tracer.end(
                "core",
                access.core_span,
                track=f"P{self.logical_proc}.s{slot}",
            )
