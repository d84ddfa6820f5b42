"""A processor cache implementing the Section 5.2/5.3 machinery.

The cache realizes, literally, the example implementation of the paper:

* write-back, invalidation-based, driven by the blocking directory in
  :mod:`repro.coherence.directory`;
* a write *commits* "only when it modifies the copy of the line in its
  local cache" — i.e. on ``DataX`` receipt or on an exclusive hit;
* the per-processor outstanding-access **counter** is incremented on
  every miss and decremented on line receipt (read, or write to a line
  that was exclusive elsewhere/unowned) or on the directory's ``MemAck``
  for a write to a previously-shared line;
* the **reserve bit** is set on the line of a committing synchronization
  operation while the counter is positive, cleared when the counter
  reads zero, and while set: (a) incoming recalls for the line are
  stalled — NACKed back to the directory by default (footnote 2's
  "negative ack" option) or queued locally (``nack_mode=False``), and
  (b) the line is never chosen as an eviction victim.

The counter, the reserve bits, fill and eviction — and the flush stall
when capacity pressure meets a reserved line — live in
:class:`~repro.coherence.line.CacheController`, shared with the snooping
cache; this module adds the directory protocol.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.coherence.directory import DIRECTORY_ENDPOINT, cache_endpoint
from repro.coherence.line import CacheController, CacheLine, LineState
from repro.coherence.protocol import (
    DataS,
    DataX,
    GetS,
    GetX,
    Inval,
    InvalAck,
    MemAck,
    Recall,
    RecallAck,
    RecallNack,
    SyncNack,
    WriteBack,
    WriteBackAck,
)
from repro.core.operation import Location
from repro.cpu.access import MemoryAccess
from repro.interconnect.base import Interconnect
from repro.sim.engine import Simulator
from repro.sim.fork import Fork
from repro.sim.stats import Stats


class Cache(CacheController):
    """One processor's cache + directory-protocol controller."""

    STAT_RESERVES_SET = "cache.reserves_set"
    STAT_SYNC_NACKS = "cache.sync_nacks_received"
    STAT_EVICTIONS = "cache.evictions"
    STAT_FLUSH_STALLS = "cache.flush_stalls"
    WRITE_BACK = WriteBack

    def __init__(
        self,
        sim: Simulator,
        cache_id: int,
        interconnect: Interconnect,
        stats: Stats,
        capacity: Optional[int] = None,
        hit_latency: int = 1,
        reserve_enabled: bool = False,
        nack_mode: bool = True,
    ) -> None:
        super().__init__(
            sim, f"cache{cache_id}", cache_id, interconnect, stats,
            capacity, hit_latency, reserve_enabled,
        )
        self.nack_mode = nack_mode
        #: Reads that hit a line whose producing write awaits MemAck;
        #: their global perform is deferred to that ack.
        self._gp_waiters: Dict[Location, List[MemoryAccess]] = {}
        #: Recalls stalled on reserved lines (queue mode only).
        self._stalled_recalls: List[Recall] = []
        #: Locations whose invalidation overtook the data response on a
        #: separate invalidation network: the incoming line is used once
        #: (value delivered) and not retained.
        self._inval_while_outstanding: set = set()
        interconnect.register(cache_endpoint(cache_id), self._on_message)

    def _fork(self, fork: Fork) -> "Cache":
        new = super()._fork(fork)
        new._gp_waiters = {
            loc: [fork(access) for access in waiters]
            for loc, waiters in self._gp_waiters.items()
        } if self._gp_waiters else {}
        new._stalled_recalls = list(self._stalled_recalls)
        new._inval_while_outstanding = set(self._inval_while_outstanding)
        new.interconnect.register(cache_endpoint(new.cache_id), new._on_message)
        return new

    # ------------------------------------------------------------------
    # Processor-facing API
    # ------------------------------------------------------------------
    def submit(self, access: MemoryAccess) -> None:
        """Begin servicing ``access``; events fire on the access object.

        A hit may target a line whose previous write still awaits its
        MemAck (the access then rides that ack for global perform); a
        *miss* to a location with an open transaction is a processor
        protocol violation, asserted in the miss paths.
        """
        self.sim.schedule(self.hit_latency, self._start, access)

    # ------------------------------------------------------------------
    # Access servicing
    # ------------------------------------------------------------------
    def _start(self, access: MemoryAccess) -> None:
        line = self._lines.get(access.location)
        if not access.needs_exclusive and not access.kind.writes_memory:
            self._service_read(access, line)
        else:
            self._service_exclusive(access, line)

    def _service_read(self, access: MemoryAccess, line: Optional[CacheLine]) -> None:
        if line is not None and line.valid:
            self.stats.counters["cache.read_hits"] += 1
            self._touch(line)
            access.deliver_value(line.value, self.sim._time)
            access.mark_committed(self.sim._time)
            if line.gp_pending:
                # The hit returned a locally-committed value whose write
                # has not globally performed; the read's own global
                # perform is deferred to the MemAck (Section 5.1's
                # definition of a globally performed read).
                self._gp_waiters.setdefault(access.location, []).append(access)
            else:
                access.mark_globally_performed(self.sim._time)
            return
        self.stats.counters["cache.read_misses"] += 1
        if access.location in self._outstanding:
            self.protocol_error(
                "open-transaction",
                f"read miss on {access.location!r} while a transaction is "
                f"already open (processor must serialize per location)",
                location=access.location,
            )
        if not access.kind.is_sync:
            # In-flight *synchronization* misses never count — even the
            # read-only syncs that the Section 6 refinement routes through
            # GetS.  A read-only sync request can be stalled by a remote
            # reserve bit; counting it would let two processors' reserve
            # bits wait on each other's sync reads (deadlock).  Condition
            # 5 loses nothing: condition 4 already forbids a later sync
            # from committing before this one commits.
            self.counter.increment()
        self._outstanding[access.location] = access
        self._send(GetS(access.location, self.cache_id))

    def _service_exclusive(self, access: MemoryAccess, line: Optional[CacheLine]) -> None:
        if line is not None and line.state is LineState.EXCLUSIVE:
            self.stats.counters["cache.write_hits"] += 1
            self._touch(line)
            self._perform_on_line(access, line, gp_now=not line.gp_pending)
            if line.gp_pending:
                # A previous write on this line still awaits MemAck; this
                # access's effects ride on the same ack.
                self._gp_waiters.setdefault(access.location, []).append(access)
            self._after_sync_commit(access, line)
            return
        self.stats.counters[
            "cache.write_upgrades" if line and line.valid else "cache.write_misses"
        ] += 1
        if access.location in self._outstanding:
            self.protocol_error(
                "open-transaction",
                f"write miss on {access.location!r} while a transaction is "
                f"already open (processor must serialize per location)",
                location=access.location,
            )
        if not access.sync_protocol:
            # Data misses are outstanding accesses from the moment they
            # are sent.  A *synchronization* request, however, may be
            # stalled remotely by a reserve bit (condition 5); counting
            # it while in flight would let two processors' reserve bits
            # wait on each other's sync misses — a deadlock the paper's
            # liveness argument implicitly excludes.  The sync op is
            # counted from commit to MemAck instead (see _on_data_x),
            # which is all condition 5 needs: reserve bits protect the
            # accesses *before* the sync, never the sync itself.
            self.counter.increment()
        self._outstanding[access.location] = access
        self._send(GetX(access.location, self.cache_id, is_sync=access.sync_protocol))

    def _serve_stalled(self) -> None:
        """Queue mode: serve the recalls the reserve bits stalled, before
        the evict-down."""
        stalled, self._stalled_recalls = self._stalled_recalls, []
        for recall in stalled:
            self._handle_recall(recall)

    # ------------------------------------------------------------------
    # Message handling
    # ------------------------------------------------------------------
    def _send(self, payload: Any) -> None:
        self.interconnect.send(
            cache_endpoint(self.cache_id), DIRECTORY_ENDPOINT, payload
        )

    def _on_message(self, payload: Any, src: str) -> None:
        # Dispatch on the exact type: no message class has subclasses.
        kind = type(payload)
        if kind is DataS:
            self._on_data_s(payload)
        elif kind is DataX:
            self._on_data_x(payload)
        elif kind is MemAck:
            self._on_mem_ack(payload)
        elif kind is Inval:
            self._on_inval(payload)
        elif kind is Recall:
            self._handle_recall(payload)
        elif kind is SyncNack:
            self._on_sync_nack(payload.location)
        elif kind is WriteBackAck:
            self._victims.pop(payload.location, None)
        else:  # pragma: no cover - defensive
            raise TypeError(f"cache cannot handle {payload!r}")

    def _on_data_s(self, data: DataS) -> None:
        access = self._outstanding.pop(data.location)
        line = self._install(data.location, LineState.SHARED, data.value)
        access.deliver_value(data.value, self.sim._time)
        access.mark_committed(self.sim._time)
        access.mark_globally_performed(self.sim._time)
        if data.location in self._inval_while_outstanding:
            # Use-once fill: an invalidation already consumed this copy.
            self._inval_while_outstanding.discard(data.location)
            self._lines.pop(data.location, None)
        if not access.kind.is_sync:
            self.counter.decrement(context=access)

    def _on_data_x(self, data: DataX) -> None:
        access = self._outstanding[data.location]
        # A fresh exclusive grant supersedes any stale invalidation that
        # targeted the previous copy.
        self._inval_while_outstanding.discard(data.location)
        line = self._install(data.location, LineState.EXCLUSIVE, data.value)
        if data.pending_acks == 0:
            # The line was unowned or recalled from a single owner: the
            # write globally performs on receipt.
            self._perform_on_line(access, line, gp_now=True)
            del self._outstanding[data.location]
            if not access.sync_protocol:
                self.counter.decrement(context=access)
            self._after_sync_commit(access, line)
        else:
            # Parallel-forwarding path: commit now, global perform at
            # MemAck.  The access is outstanding from commit until the
            # ack, which is what makes the reserve bit stick until the
            # write is globally performed (conditions 3 and 5).
            if access.sync_protocol:
                self.counter.increment()
            line.gp_pending = True
            self._perform_on_line(access, line, gp_now=False)
            self._after_sync_commit(access, line)

    def _on_mem_ack(self, ack: MemAck) -> None:
        access = self._outstanding.pop(ack.location)
        line = self._lines.get(ack.location)
        if line is not None:
            line.gp_pending = False
        access.mark_globally_performed(self.sim._time)
        for waiter in self._gp_waiters.pop(ack.location, []):
            waiter.mark_globally_performed(self.sim._time)
        self.counter.decrement(context=access)

    def _on_inval(self, inval: Inval) -> None:
        line = self._lines.get(inval.location)
        if line is not None and line.valid:
            if line.state is not LineState.SHARED:
                self.protocol_error(
                    "inval-state",
                    f"Inval for {inval.location!r} hit a line in state "
                    f"{line.state.name} (only shared copies are "
                    f"invalidated; an exclusive owner gets a Recall)",
                    location=inval.location,
                )
            del self._lines[inval.location]
            if self.tracer.enabled:
                self.tracer.emit(
                    "cache", "inval", track=self.name,
                    args=(("location", inval.location),),
                )
        elif inval.location in self._outstanding:
            # On an invalidation virtual channel the Inval can overtake
            # the DataS it logically follows (the directory granted our
            # read, then processed the writer).  Mark the fill use-once:
            # the value is still the legal pre-write value, but the line
            # must not be retained as if it were current.
            self._inval_while_outstanding.add(inval.location)
        self._send(InvalAck(inval.location, self.cache_id))

    def _handle_recall(self, recall: Recall) -> None:
        line = self._lines.get(recall.location)
        if line is not None and line.valid:
            if line.reserved:
                # Section 5.3 condition 5: the line is reserved; the
                # request is stalled until the counter reads zero, or
                # NACKed back for retry.
                self.stats.bump("cache.recalls_stalled")
                if self.nack_mode:
                    self._send(RecallNack(recall.location, self.cache_id))
                else:
                    self._stalled_recalls.append(recall)
                return
            if line.state is not LineState.EXCLUSIVE or line.gp_pending:
                self.protocol_error(
                    "recall-state",
                    f"recall for {recall.location!r} hit a line in state "
                    f"{line.state.name}"
                    + (" with its MemAck pending" if line.gp_pending else "")
                    + " (the directory should only recall a settled "
                    "exclusive owner)",
                    location=recall.location,
                )
            value = line.value
            if recall.downgrade:
                line.state = LineState.SHARED
            else:
                del self._lines[recall.location]
            self._send(
                RecallAck(recall.location, value, self.cache_id, recall.downgrade)
            )
            return
        if recall.location in self._victims:
            # Our write-back is still in flight; answer from the victim
            # buffer (the directory will discard the stale write-back).
            value = self._victims[recall.location]
            self._send(
                RecallAck(recall.location, value, self.cache_id, recall.downgrade)
            )
            return
        self.protocol_error(
            "recall-state",
            f"recall for {recall.location!r}, but this cache holds no copy "
            f"and no write-back is in flight",
            location=recall.location,
        )
