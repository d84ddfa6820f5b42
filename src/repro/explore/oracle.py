"""Schedule-controlled message delivery for systematic exploration.

Seed sampling (the litmus runner) covers timing behaviours statistically;
:class:`ScheduledInterconnect` makes them *enumerable*: every message
enters a pending pool and an oracle decides, at each delivery slot, which
pending message goes next.  With all other events deterministic, a run
is a pure function of the oracle's decision string — so the explorer in
:mod:`repro.explore.explorer` can walk the schedule tree, either by
re-execution or by forking the machine at a choice point: the oracle is
consulted before the delivery slot changes any state.

The oracle's default decision is 0 (FIFO).  A decision ``j`` at a choice
point delivers the ``j``-th oldest pending message, "delaying" the ``j``
messages ahead of it — the unit the delay bound counts.
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence, Tuple

from repro.interconnect.base import Interconnect, channel_key
from repro.sim.engine import Simulator
from repro.sim.fork import Fork, Forkable
from repro.sim.stats import Stats


class ReplayOracle(Forkable):
    """Replays a fixed decision prefix, then defaults to FIFO.

    Records the pending-pool size at every choice point so the explorer
    knows where alternative decisions exist, and (when the interconnect
    supplies them) the target location of each eligible message so the
    explorer's conflict-aware pruning can tell which alternative
    decisions merely permute independent deliveries.
    """

    def __init__(self, decisions: Sequence[int] = ()) -> None:
        self.decisions: Tuple[int, ...] = tuple(decisions)
        #: Pending-pool size observed at each choice point, in order.
        self.log: List[int] = []
        #: Per choice point: the eligible messages' target locations, in
        #: pool order (``None`` for a message without a known location).
        self.detail_log: List[Tuple[Optional[str], ...]] = []

    def choose(
        self, pending: int, details: Optional[Sequence[Optional[str]]] = None
    ) -> int:
        """Pick the index of the message to deliver (0 = oldest)."""
        assert pending > 0
        point = len(self.log)
        self.log.append(pending)
        self.detail_log.append(tuple(details) if details is not None else ())
        if point < len(self.decisions):
            return min(self.decisions[point], pending - 1)
        return 0

    @property
    def choice_points(self) -> int:
        return len(self.log)

    def _fork(self, fork: Fork) -> "ReplayOracle":
        new = fork.shell(self)
        new.log = list(self.log)
        new.detail_log = list(self.detail_log)
        return new


class ScheduledInterconnect(Interconnect):
    """Delivers exactly one pending message per delivery slot.

    Every ``send`` schedules one delivery slot one cycle later; the slot
    asks the oracle which pending message to release.  Latency is
    therefore uniform and all reordering comes from the oracle — the
    interconnect is as weak as the general network of Figure 1, but
    deterministically steerable.

    Per-channel FIFO is preserved: only the oldest pending message of
    each ``(src, dst)`` pair is eligible at a slot, matching the
    virtual-channel assumption the coherence protocol relies on while
    still exploring every cross-channel reordering.
    """

    def __init__(
        self,
        sim: Simulator,
        stats: Stats,
        oracle: ReplayOracle,
        name: str = "scheduled",
        relaxed_request_channels: bool = False,
        inval_virtual_channel: bool = False,
    ) -> None:
        """``relaxed_request_channels`` frees cache->directory traffic
        from per-channel FIFO (responses keep it — the grant/recall race
        needs it), modelling the paper's unrestricted interconnection
        network where a processor's requests may arrive out of order.
        ``inval_virtual_channel`` puts invalidations on their own channel
        so they race grants, the setting where condition 5's reserve bit
        carries the correctness burden.
        """
        super().__init__(sim, stats, name)
        self.oracle = oracle
        self.relaxed_request_channels = relaxed_request_channels
        self.inval_virtual_channel = inval_virtual_channel
        #: ``(src, dst, payload, flow id)`` per message in flight.
        self._pending: List[Tuple[str, str, Any, Optional[int]]] = []

    def _fork(self, fork: Fork) -> "ScheduledInterconnect":
        new = super()._fork(fork)
        new.oracle = fork(self.oracle)
        new._pending = list(self._pending)
        return new

    def send(self, src: str, dst: str, payload: Any) -> None:
        self.stats.bump("scheduled.sent")
        flow_id = (
            self._trace_send(src, dst, payload)
            if self.sim.tracer.enabled else None
        )
        self._pending.append((src, dst, payload, flow_id))
        self.sim.schedule(1, self._deliver_slot)

    def _eligible_indices(self) -> List[int]:
        """Index of the oldest pending message per (src, dst) channel
        (every pending message of relaxed request channels is eligible)."""
        seen = set()
        eligible = []
        for idx, (src, dst, payload, _) in enumerate(self._pending):
            if self.relaxed_request_channels and dst == "dir":
                eligible.append(idx)
                continue
            channel = channel_key(
                src, dst, payload,
                inval_virtual_channel=self.inval_virtual_channel,
            )
            if channel not in seen:
                seen.add(channel)
                eligible.append(idx)
        return eligible

    def _deliver_slot(self) -> None:
        # Nothing changes before the oracle decides: a machine forked
        # inside ``choose`` replays this slot from its start.
        eligible = self._eligible_indices()
        details = [
            getattr(self._pending[idx][2], "location", None) for idx in eligible
        ]
        pick = self.oracle.choose(len(eligible), details)
        src, dst, payload, flow_id = self._pending.pop(eligible[pick])
        self._deliver(src, dst, payload, flow_id=flow_id)
