"""Interconnect abstraction.

Figure 1 distinguishes shared-*bus* systems from systems with *general
interconnection networks*: a bus serializes transfers (giving a total
order of message deliveries), while a general network delivers messages
with independent latencies and may reorder them even between the same
endpoints.  Both implement this one interface, so every other component
is interconnect-agnostic.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional, Tuple

from repro.sim.engine import Component, Simulator
from repro.sim.fork import Fork
from repro.sim.stats import Stats

#: A delivery handler: receives ``(payload, source_endpoint)``.
Handler = Callable[[Any, str], None]


def channel_key(
    src: str, dst: str, payload: Any, *, inval_virtual_channel: bool = False
) -> Tuple:
    """The virtual-channel identity of a message.

    The coherence protocols assume per-channel FIFO delivery; everything
    that perturbs timing (:class:`~repro.interconnect.network.Network`
    jitter, :class:`~repro.explore.oracle.ScheduledInterconnect`
    decisions, :class:`~repro.faults.FaultyInterconnect` injection) must
    agree on what "a channel" is, so the helper lives here.  With
    ``inval_virtual_channel`` invalidations form their own channel per
    ``(src, dst)`` pair — FIFO among themselves, racing everything else.
    """
    if inval_virtual_channel:
        from repro.coherence.protocol import Inval

        return (src, dst, type(payload) is Inval)
    return (src, dst)


class Interconnect(Component):
    """Named-endpoint message transport."""

    def __init__(self, sim: Simulator, stats: Stats, name: str = "interconnect") -> None:
        super().__init__(sim, name)
        self.stats = stats
        self._handlers: Dict[str, Handler] = {}

    def _fork(self, fork: Fork) -> "Interconnect":
        """Copy the transport with no handlers: each forked component
        registers its own on the copy through :meth:`register`."""
        new = super()._fork(fork)
        new.stats = fork.memo.get(id(self.stats)) or self.stats._fork(fork)
        new._handlers = {}
        return new

    def register(self, endpoint: str, handler: Handler) -> None:
        """Attach ``handler`` to ``endpoint`` (one handler per endpoint)."""
        if endpoint in self._handlers:
            raise ValueError(f"endpoint {endpoint!r} already registered")
        self._handlers[endpoint] = handler

    def send(self, src: str, dst: str, payload: Any) -> None:
        """Queue ``payload`` for delivery from ``src`` to ``dst``."""
        raise NotImplementedError

    def _trace_send(self, src: str, dst: str, payload: Any) -> Optional[int]:
        """Record a ``msg`` flow-start event; returns the flow id linking
        it to the eventual delivery (None when tracing is off — transports
        thread the id through their in-flight bookkeeping).  Call sites
        guard on ``sim.tracer.enabled`` so untraced sends pay one branch,
        not a method call."""
        tracer = self.sim.tracer
        if not tracer.wants("msg"):
            return None
        flow_id = tracer.next_flow_id()
        tracer.emit(
            "msg",
            type(payload).__name__,
            phase="S",
            track=src,
            args=(("src", src), ("dst", dst)),
            flow_id=flow_id,
        )
        return flow_id

    def _deliver(
        self, src: str, dst: str, payload: Any, flow_id: Optional[int] = None
    ) -> None:
        try:
            handler = self._handlers[dst]
        except KeyError:
            raise KeyError(
                f"no handler registered for endpoint {dst!r}"
            ) from None
        self.stats.counters["interconnect.delivered"] += 1
        tracer = self.sim.tracer
        if tracer.enabled:
            tracer.emit(
                "msg",
                type(payload).__name__,
                phase="F",
                track=dst,
                args=(("src", src), ("dst", dst)),
                flow_id=flow_id,
            )
        handler(payload, src)
