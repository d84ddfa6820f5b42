"""A shared bus: one transfer at a time, FIFO arbitration.

The bus grants transfers in request order and holds the medium for
``transfer_cycles`` per message, so deliveries are totally ordered and
point-to-point FIFO — the strong interconnect of Figure 1's left column.
SC violations on a bus therefore require processor-side relaxations
(out-of-order issue or read-bypassing write buffers), exactly as the
figure's caption argues.

Under fault injection (:class:`~repro.faults.FaultyInterconnect`) the
*entry* order into the bus may be perturbed across endpoint pairs —
modelling adversarial arbitration — but per-``(src, dst)`` FIFO entry is
preserved, so the total order and point-to-point FIFO guarantees above
still hold for every pair.  Duplicate injection never targets the bus.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Optional, Tuple

from repro.interconnect.base import Interconnect
from repro.sim.engine import Simulator
from repro.sim.fork import Fork
from repro.sim.stats import Stats


class Bus(Interconnect):
    """FIFO, serializing interconnect."""

    def __init__(
        self,
        sim: Simulator,
        stats: Stats,
        transfer_cycles: int = 4,
        name: str = "bus",
    ) -> None:
        super().__init__(sim, stats, name)
        if transfer_cycles < 1:
            raise ValueError("transfer_cycles must be >= 1")
        self.transfer_cycles = transfer_cycles
        self._queue: Deque[Tuple[str, str, Any, Optional[int]]] = deque()
        self._busy = False

    def _fork(self, fork: Fork) -> "Bus":
        new = super()._fork(fork)
        new._queue = deque(self._queue)
        return new

    def send(self, src: str, dst: str, payload: Any) -> None:
        self.stats.counters["bus.sent"] += 1
        flow_id = (
            self._trace_send(src, dst, payload)
            if self.sim.tracer.enabled else None
        )
        self._queue.append((src, dst, payload, flow_id))
        if not self._busy:
            self._grant()

    def _grant(self) -> None:
        if not self._queue:
            self._busy = False
            return
        self._busy = True
        self.sim.schedule(
            self.transfer_cycles, self._complete, *self._queue.popleft()
        )

    def _complete(
        self, src: str, dst: str, payload: Any, flow_id: Optional[int]
    ) -> None:
        self._deliver(src, dst, payload, flow_id=flow_id)
        self._grant()

    @property
    def queued(self) -> int:
        return len(self._queue)
