"""The simple processor core — the paper's original processor model.

A :class:`SimpleCore` executes its thread's instructions in program
order.  Local instructions (arithmetic, branches) each take
``local_cycles``.  Memory instructions pass through two policy hooks
(see :mod:`repro.models.base`): an *issue gate* deciding when the access
may be generated at all, and a *block kind* deciding how far the access
must progress (value / commit / global perform) before the processor
moves past it.

Beyond the shared conditions in :mod:`repro.cpu.core`, this core adds
two structural rules:

* any instruction with a destination register blocks until its value
  arrives, so no later instruction can consume a stale register;
* at most one access per location may be outstanding, preserving
  same-location program order through the memory system.

Every stall is attributed to a :class:`StallReason`, which is the raw
data behind the Figure 3 and quantitative-comparison experiments.

Construct cores via :func:`repro.cpu.core.core_class_by_name` (or let
``System`` do it).
"""

from __future__ import annotations

from repro.core.instructions import MemInstruction
from repro.cpu.access import MemoryAccess
from repro.cpu.core import MemoryPort, ProcessorCore
from repro.models.base import BlockKind
from repro.sim.stats import StallReason

__all__ = ["MemoryPort", "SimpleCore"]


class SimpleCore(ProcessorCore):
    """An in-order-issue processor with policy-controlled overlap only.

    The core itself never reorders: every access with a destination
    register blocks the front end for its value, and a second access to
    a location with an open transaction stalls.  Whatever overlap the
    ordering policy permits (fire-and-forget writes under RELAXED,
    commit-only sync waits under DEF2) is the *only* overlap — which is
    exactly the processor model the paper's Section 5 hardware assumes.
    """

    core_name = "simple"

    # ------------------------------------------------------------------
    # Memory instructions
    # ------------------------------------------------------------------
    def _try_memory(self, instr: MemInstruction) -> None:
        gate = self._common_gate(instr)
        if gate is not None:
            self._begin_stall(gate)
            return
        # Same-location accesses stay ordered through the memory system:
        # a new access may not start until the previous one to the same
        # location has committed (its effect is in the local cache or
        # write buffer, so a subsequent hit observes it; an uncommitted
        # predecessor would mean two open transactions on one line).
        location = instr.location
        for access in self.pending_accesses:
            if access.commit_time is None and access.location == location:
                self._begin_stall(StallReason.SAME_LOCATION)
                return
        self._issue(instr)

    def _complete_issue(
        self, access: MemoryAccess, instr: MemInstruction, block: BlockKind
    ) -> None:
        if instr.dest is not None and block is BlockKind.NONE:
            # Destination registers are intra-processor dependencies: the
            # processor may not run ahead of the value.
            block = BlockKind.VALUE

        self.pc += 1
        self.port.submit(access)
        self._block_on(access, block)

