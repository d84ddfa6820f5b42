"""Fault injection at the interconnect boundary.

:class:`FaultyInterconnect` wraps any :class:`Interconnect` and perturbs
*when* messages enter it: each ``send`` may be held back by extra jitter
or a bounded reorder delay, and (where legal) released twice.  The
wrapped interconnect still owns real transport — latency, arbitration,
FIFO floors — so injection composes with the bus and the network rather
than replacing them.

Two invariants make injected timings *legal* in the paper's sense:

* **Per-channel FIFO is never broken.**  Hold-backs are floored per
  virtual channel (same :func:`channel_key` the network uses), so two
  messages on one channel always enter the inner interconnect in their
  original order; only traffic on *other* endpoint pairs overtakes.
  This is exactly the envelope the Section 5 protocols are designed
  for: a general network with arbitrary cross-channel latencies.
* **Duplicates only where receivers deduplicate.**  The cache-less
  request/response protocol carries per-request tokens, and the memory
  module and write-buffer ports drop replays (at-least-once tolerance).
  The directory protocol assumes exactly-once virtual channels — as the
  paper does — so duplicate injection is suppressed on cached machines
  (counted in ``faults.duplicates_suppressed``).

The fault stream draws from a :class:`TimingRng` derived from the run
seed and the plan's salt, so a fault-injected run remains a pure
function of its :class:`~repro.campaign.spec.RunSpec`.
"""

from __future__ import annotations

from typing import Any, Dict, Tuple

from repro.faults.plan import FaultPlan
from repro.obs import METRICS
from repro.interconnect.base import Handler, Interconnect, channel_key
from repro.sim.engine import Simulator
from repro.sim.fork import Fork
from repro.sim.rng import TimingRng
from repro.sim.stats import Stats


class FaultyInterconnect(Interconnect):
    """Perturbs message hand-off into a wrapped interconnect."""

    def __init__(
        self,
        sim: Simulator,
        stats: Stats,
        inner: Interconnect,
        plan: FaultPlan,
        rng: TimingRng,
        allow_duplicates: bool = False,
        inval_virtual_channel: bool = False,
        name: str = "faulty",
    ) -> None:
        super().__init__(sim, stats, name)
        self.inner = inner
        self.plan = plan
        self.rng = rng
        self.allow_duplicates = allow_duplicates
        self.inval_virtual_channel = inval_virtual_channel
        #: Latest release time handed to the inner interconnect per
        #: channel — the FIFO floor that keeps injection legal.
        self._release_floor: Dict[Tuple, int] = {}

    def _fork(self, fork: Fork) -> "FaultyInterconnect":
        new = super()._fork(fork)
        new.inner = fork(self.inner)
        new.rng = fork(self.rng)
        new._release_floor = dict(self._release_floor)
        return new

    # Handlers live on the inner interconnect, which performs delivery.
    def register(self, endpoint: str, handler: Handler) -> None:
        self.inner.register(endpoint, handler)

    def _trace_fault(self, name: str, src: str, dst: str, payload: Any,
                     delay: int = 0) -> None:
        tracer = self.sim.tracer
        if tracer.wants("fault"):
            tracer.emit(
                "fault",
                name,
                track=self.name,
                args=(
                    ("payload", type(payload).__name__),
                    ("src", src),
                    ("dst", dst),
                    ("delay", delay),
                ),
            )

    def send(self, src: str, dst: str, payload: Any) -> None:
        plan = self.plan
        extra = 0
        if plan.delay_jitter:
            extra += self.rng.randint(0, plan.delay_jitter)
        if plan.reorder_pct and self.rng.randint(1, 100) <= plan.reorder_pct:
            reorder = self.rng.randint(1, plan.reorder_delay)
            extra += reorder
            self._bump_fault("reorders")
            self._trace_fault("reorder", src, dst, payload, delay=reorder)
        if extra:
            self._bump_fault("delayed")
            self._trace_fault("delayed", src, dst, payload, delay=extra)

        channel = channel_key(
            src, dst, payload,
            inval_virtual_channel=self.inval_virtual_channel,
        )
        release_at = max(
            self.sim.now + extra, self._release_floor.get(channel, 0)
        )
        self._release_floor[channel] = release_at
        self._schedule_handoff(release_at, src, dst, payload)

        if plan.duplicate_pct and self.rng.randint(1, 100) <= plan.duplicate_pct:
            if not self.allow_duplicates:
                self._bump_fault("duplicates_suppressed")
                self._trace_fault("duplicate_suppressed", src, dst, payload)
                return
            # The replay trails its original on the same channel.
            dup_at = release_at + 1 + self.rng.randint(0, plan.reorder_delay)
            self._release_floor[channel] = dup_at
            self._schedule_handoff(dup_at, src, dst, payload)
            self._bump_fault("duplicates")
            self._trace_fault(
                "duplicate", src, dst, payload, delay=dup_at - release_at
            )

    def _bump_fault(self, kind: str) -> None:
        self.stats.bump(f"faults.{kind}")
        if METRICS.enabled:
            METRICS.inc(
                "repro_fault_activations_total",
                help="Fault-injection activations by kind",
                kind=kind,
            )

    def _schedule_handoff(
        self, release_at: int, src: str, dst: str, payload: Any
    ) -> None:
        self.sim.schedule(
            release_at - self.sim.now, self.inner.send, src, dst, payload
        )

    def __getattr__(self, attr: str):
        # Transparent for introspection (``queued`` etc.); only called
        # for attributes not found on the wrapper itself.
        if attr == "inner":  # pre-__init__ access must not recurse
            raise AttributeError(attr)
        return getattr(self.inner, attr)
