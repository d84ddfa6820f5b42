"""A general interconnection network (Figure 1's right column).

Every message travels independently with latency ``base + U[0, jitter]``,
so two messages between the same endpoints can arrive out of order —
Lamport's original observation of how program-order issue still violates
sequential consistency when accesses "reach memory modules in a different
order".  Set ``jitter=0`` for a deterministic (but still non-serializing)
network, or ``point_to_point_fifo=True`` to force per-(src,dst) ordering
while keeping cross-pair concurrency.
"""

from __future__ import annotations

from typing import Any, Dict, Tuple

from repro.interconnect.base import Interconnect, channel_key
from repro.sim.engine import Simulator
from repro.sim.fork import Fork
from repro.sim.rng import TimingRng
from repro.sim.stats import Stats


class Network(Interconnect):
    """Unordered, concurrent message transport."""

    def __init__(
        self,
        sim: Simulator,
        stats: Stats,
        rng: TimingRng,
        base_latency: int = 6,
        jitter: int = 8,
        point_to_point_fifo: bool = False,
        inval_virtual_channel: bool = False,
        name: str = "network",
    ) -> None:
        """``inval_virtual_channel`` puts invalidations on their own
        virtual network: they keep FIFO among themselves but race freely
        against data/grant traffic on the same (src, dst) pair — the
        general-interconnect behaviour the paper's Section 5 machinery
        (reserve bits, MemAck) exists to tolerate."""
        super().__init__(sim, stats, name)
        if base_latency < 1:
            raise ValueError("base_latency must be >= 1")
        self.rng = rng
        self.base_latency = base_latency
        self.jitter = jitter
        self.point_to_point_fifo = point_to_point_fifo
        self.inval_virtual_channel = inval_virtual_channel
        #: Earliest permissible delivery per channel when FIFO is on.
        self._last_delivery: Dict[Tuple, int] = {}

    def _fork(self, fork: Fork) -> "Network":
        new = super()._fork(fork)
        new.rng = fork(self.rng)
        new._last_delivery = dict(self._last_delivery)
        return new

    def send(self, src: str, dst: str, payload: Any) -> None:
        self.stats.counters["network.sent"] += 1
        sim = self.sim
        flow_id = (
            self._trace_send(src, dst, payload)
            if sim.tracer.enabled else None
        )
        latency = self.rng.latency(self.base_latency, self.jitter)
        if self.point_to_point_fifo:
            deliver_at = sim._time + latency
            channel = channel_key(
                src, dst, payload,
                inval_virtual_channel=self.inval_virtual_channel,
            )
            floor = self._last_delivery.get(channel, 0)
            if deliver_at <= floor:
                deliver_at = floor + 1
                latency = deliver_at - sim._time
            self._last_delivery[channel] = deliver_at
        sim.schedule(latency, self._deliver, src, dst, payload, flow_id)
