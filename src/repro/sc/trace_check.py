"""Direct sequential-consistency checking of hardware traces.

The result-set oracle (:mod:`repro.sc.verifier`) decides "appears SC" by
enumerating every idealized execution — exact, but exponential in
program size.  This module implements the classic alternative used by
trace checkers (TSOtool-style): derive one hardware trace's po/rf/co/fr
relations (:func:`~repro.axiomatic.relations.relations_from_execution`)
and check the ``SC`` model's axioms over them, i.e. that
``po ∪ rf ∪ co ∪ fr`` is acyclic; any total order extending it is a
legal SC execution producing these reads.  A violation comes back as a
cycle of labelled edges.

``co`` is commit order, which conditions 2-3 of Section 5.1 make the
authoritative write serialization on the cache-coherent machines, and
``rf`` follows commit order with value matching as the fallback
(:func:`~repro.axiomatic.relations.reads_from`).  The check is exact
where commit order is memory's serialization.  The no-cache machines
stamp a read's commit when its reply reaches the processor, so there it
can flag an SC trace.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Mapping, Optional

from repro.axiomatic.model import model_by_name
from repro.axiomatic.relations import (
    LabelledEdge,
    ThinAirError,
    relations_from_execution,
)
from repro.core.execution import Execution
from repro.core.operation import Location, MemoryOp, Value


@dataclass
class TraceCheckResult:
    """Outcome of the SC check."""

    is_sc: bool
    #: The offending cycle as consecutive ``(src, dst, label)`` edges
    #: (empty when ``is_sc``).
    cycle: List[LabelledEdge] = field(default_factory=list)
    #: Reads whose source write could not be inferred (thin air).
    unexplained_reads: List[MemoryOp] = field(default_factory=list)

    def describe(self) -> str:
        if self.is_sc:
            return "trace is explainable by a sequentially consistent order"
        if self.unexplained_reads:
            reads = ", ".join(repr(op) for op in self.unexplained_reads)
            return f"trace reads values never written: {reads}"
        arrows = "".join(f"{a!r} -{label}-> " for a, _, label in self.cycle)
        closing = self.cycle[0][0]
        return f"no SC order exists: constraint cycle {arrows}{closing!r}"


def check_trace_sc(
    execution: Execution,
    initial_memory: Optional[Mapping[Location, Value]] = None,
) -> TraceCheckResult:
    """Decide whether the trace admits a sequentially consistent order."""
    try:
        relations = relations_from_execution(execution, initial_memory or {})
    except ThinAirError as error:
        return TraceCheckResult(is_sc=False, unexplained_reads=error.reads)
    found = model_by_name("SC").witness(relations)
    if found is None:
        return TraceCheckResult(is_sc=True)
    return TraceCheckResult(is_sc=False, cycle=found[1])
