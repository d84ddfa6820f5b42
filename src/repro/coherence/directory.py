"""The directory controller (Section 5.2).

One directory entry per location tracks who holds the line: UNOWNED
(memory current, no copies), SHARED (memory current, read copies), or
EXCLUSIVE (one owner, memory possibly stale).  The directory is
*blocking per location*: while a transaction is open on a location,
later requests for it queue in FIFO order — this serializes all writes
(condition 2 of Section 5.1) and all synchronization operations
(condition 3) to a location by their commit times.

The paper's key protocol relaxation is implemented in ``_handle_getx``:
for a write miss on a SHARED line, the line is forwarded to the
requester *in parallel* with the invalidations; the directory collects
the invalidation acks and only then sends the requester the ``MemAck``
that marks the write globally performed.

A ``RecallNack`` (owner refused because the line is reserved) aborts the
transaction and schedules a retry, so a stalled synchronization request
never blocks data traffic to the same location indefinitely — the
liveness discipline behind the paper's deadlock-freedom argument.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, Optional, Set, Union

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
from repro.core.operation import Location, Value
from repro.interconnect.base import Interconnect
from repro.sim.engine import Component, Simulator
from repro.sim.fork import Fork, copy_leaf
from repro.sim.stats import Stats


def cache_endpoint(cache_id: int) -> str:
    return f"cache:{cache_id}"


DIRECTORY_ENDPOINT = "dir"


class EntryState(enum.Enum):
    UNOWNED = "unowned"
    SHARED = "shared"
    EXCLUSIVE = "exclusive"


@dataclass
class DirectoryEntry:
    """A home-side line record; a fork copies it as a leaf."""

    state: EntryState = EntryState.UNOWNED
    sharers: Set[int] = field(default_factory=set)
    owner: Optional[int] = None
    value: Value = 0


@dataclass
class _OpenTransaction:
    """A per-location in-flight transaction; a fork copies it as a leaf."""

    request: Union[GetS, GetX]
    pending_acks: int = 0
    #: True when the requester has already been granted the line and is
    #: only waiting for MemAck (the parallel-forwarding path).
    granted: bool = False
    #: Cache ids this transaction is waiting on (recall target or
    #: un-acked invalidation recipients) — the wait-for edges the
    #: deadlock diagnosis walks.
    awaiting: Set[int] = field(default_factory=set)


class Directory(Component):
    """Directory + memory for the cache-coherent configurations."""

    def __init__(
        self,
        sim: Simulator,
        interconnect: Interconnect,
        stats: Stats,
        initial_memory: Optional[Dict[Location, Value]] = None,
        retry_delay: int = 8,
        name: str = "directory",
    ) -> None:
        super().__init__(sim, name)
        self.interconnect = interconnect
        self.stats = stats
        self.retry_delay = retry_delay
        self._entries: Dict[Location, DirectoryEntry] = {}
        for loc, value in (initial_memory or {}).items():
            self._entries[loc] = DirectoryEntry(value=value)
        self._open: Dict[Location, _OpenTransaction] = {}
        self._queues: Dict[Location, Deque[Union[GetS, GetX, WriteBack]]] = {}
        interconnect.register(DIRECTORY_ENDPOINT, self._on_message)

    def _fork(self, fork: Fork) -> "Directory":
        new = super()._fork(fork)
        memo = fork.memo
        new.interconnect = (
            memo.get(id(self.interconnect)) or self.interconnect._fork(fork)
        )
        new.stats = memo.get(id(self.stats)) or self.stats._fork(fork)
        new._entries = entries = {}
        for loc, entry in self._entries.items():
            copy = entries[loc] = copy_leaf(entry)
            copy.sharers = set(entry.sharers)
        new._open = opened = {}
        for loc, txn in self._open.items():
            copy = opened[loc] = copy_leaf(txn)
            copy.awaiting = set(txn.awaiting)
        new._queues = {loc: deque(q) for loc, q in self._queues.items()}
        new.interconnect.register(DIRECTORY_ENDPOINT, new._on_message)
        return new

    # -- plumbing ------------------------------------------------------------
    def entry(self, location: Location) -> DirectoryEntry:
        if location not in self._entries:
            self._entries[location] = DirectoryEntry()
        return self._entries[location]

    def memory_value(self, location: Location) -> Value:
        return self.entry(location).value

    def _send(self, cache_id: int, payload: Any) -> None:
        self.interconnect.send(DIRECTORY_ENDPOINT, cache_endpoint(cache_id), payload)

    def _on_message(self, payload: Any, src: str) -> None:
        # Dispatch on the exact type: no message class has subclasses.
        kind = type(payload)
        if kind is GetS or kind is GetX or kind is WriteBack:
            self._admit(payload.location, payload)
        elif kind is InvalAck:
            self._on_inval_ack(payload)
        elif kind is RecallAck:
            self._on_recall_ack(payload)
        elif kind is RecallNack:
            self._on_recall_nack(payload)
        else:  # pragma: no cover - defensive
            raise TypeError(f"directory cannot handle {payload!r}")

    # -- admission / per-location blocking -----------------------------------
    def _admit(self, location: Location, request) -> None:
        # Queue behind an open transaction — or behind an existing queue
        # (retries re-enter through here and must not jump the line).
        if location in self._open or self._queues.get(location):
            self._queues.setdefault(location, deque()).append(request)
            self.stats.bump("dir.queued")
            tracer = self.sim.tracer
            if tracer.enabled:
                tracer.emit(
                    "dir", "queued", track=self.name,
                    args=(
                        ("payload", type(request).__name__),
                        ("location", location),
                        ("depth", len(self._queues[location])),
                    ),
                )
            return
        self._dispatch(location, request)

    def _dispatch(self, location: Location, request) -> None:
        kind = type(request)
        if kind is GetS:
            self._handle_gets(request)
        elif kind is GetX:
            self._handle_getx(request)
        else:
            self._handle_writeback(request)

    def _complete(self, location: Location) -> None:
        """Close the open transaction and drain the queue.

        Dispatching continues until a queued request opens a new
        transaction (recall/invalidation in flight) or the queue empties:
        a dispatched request may be satisfiable immediately (a write-back,
        or a read of a now-shared line), in which case the next waiter
        must not be left stranded.
        """
        self._open.pop(location, None)
        queue = self._queues.get(location)
        while queue and location not in self._open:
            request = queue.popleft()
            self._dispatch(location, request)

    def _requeue_later(self, location: Location, request) -> None:
        """Re-inject a NACKed request after ``retry_delay`` cycles."""
        self.sim.schedule(self.retry_delay, self._admit, location, request)

    # -- request handling ------------------------------------------------------
    def _handle_gets(self, request: GetS) -> None:
        entry = self.entry(request.location)
        self.stats.counters["dir.gets"] += 1
        if entry.state is EntryState.EXCLUSIVE:
            # Recall-to-shared: the owner supplies the value and keeps a
            # shared copy.
            self._open[request.location] = _OpenTransaction(
                request=request, awaiting={entry.owner}
            )
            self._send(
                entry.owner,
                Recall(location=request.location, downgrade=True, for_sync=False),
            )
            return
        entry.sharers.add(request.requester)
        entry.state = EntryState.SHARED
        self._send(request.requester, DataS(request.location, entry.value))

    def _handle_getx(self, request: GetX) -> None:
        entry = self.entry(request.location)
        self.stats.counters["dir.getx"] += 1
        if entry.state is EntryState.EXCLUSIVE:
            if entry.owner == request.requester:
                self.protocol_error(
                    "dir-agreement",
                    f"cache {request.requester} sent a GetX for "
                    f"{request.location!r}, a line the directory already "
                    f"records it as owning exclusively",
                    location=request.location,
                )
            self._open[request.location] = _OpenTransaction(
                request=request, awaiting={entry.owner}
            )
            self._send(
                entry.owner,
                Recall(
                    location=request.location,
                    downgrade=False,
                    for_sync=request.is_sync,
                ),
            )
            return

        other_sharers = entry.sharers - {request.requester}
        if not other_sharers:
            # Unowned, or the requester is the lone sharer: grant
            # immediately; the write globally performs on receipt.
            entry.state = EntryState.EXCLUSIVE
            entry.owner = request.requester
            entry.sharers = set()
            self._send(
                request.requester,
                DataX(request.location, entry.value, pending_acks=0),
            )
            return

        # The parallel-forwarding path: grant the line now, invalidate the
        # sharers concurrently, MemAck when all acks are in.
        txn = _OpenTransaction(
            request=request,
            pending_acks=len(other_sharers),
            granted=True,
            awaiting=set(other_sharers),
        )
        self._open[request.location] = txn
        self._send(
            request.requester,
            DataX(request.location, entry.value, pending_acks=len(other_sharers)),
        )
        for sharer in other_sharers:
            self.stats.counters["dir.invalidations"] += 1
            self._send(sharer, Inval(request.location))
        entry.state = EntryState.EXCLUSIVE
        entry.owner = request.requester
        entry.sharers = set()

    def _handle_writeback(self, wb: WriteBack) -> None:
        entry = self.entry(wb.location)
        if entry.state is EntryState.EXCLUSIVE and entry.owner == wb.from_cache:
            entry.value = wb.value
            entry.state = EntryState.UNOWNED
            entry.owner = None
            self.stats.bump("dir.writebacks")
        else:
            # Stale: a recall beat the write-back to the directory.
            self.stats.bump("dir.stale_writebacks")
        self._send(wb.from_cache, WriteBackAck(wb.location))

    # -- transaction completion --------------------------------------------------
    def _on_inval_ack(self, ack: InvalAck) -> None:
        txn = self._open.get(ack.location)
        if txn is None or type(txn.request) is not GetX:
            self.protocol_error(
                "msg-conservation",
                f"InvalAck from cache {ack.from_cache} for "
                f"{ack.location!r} matches no open write transaction",
                location=ack.location,
            )
        txn.awaiting.discard(ack.from_cache)
        txn.pending_acks -= 1
        if txn.pending_acks == 0:
            self._send(txn.request.requester, MemAck(ack.location))
            self._complete(ack.location)

    def _on_recall_ack(self, ack: RecallAck) -> None:
        txn = self._open.get(ack.location)
        if txn is None:
            self.protocol_error(
                "msg-conservation",
                f"RecallAck from cache {ack.from_cache} for "
                f"{ack.location!r} matches no open transaction",
                location=ack.location,
            )
        entry = self.entry(ack.location)
        entry.value = ack.value
        request = txn.request
        if type(request) is GetS:
            entry.state = EntryState.SHARED
            entry.sharers = {ack.from_cache, request.requester} if ack.downgraded else {
                request.requester
            }
            entry.owner = None
            self._send(request.requester, DataS(ack.location, entry.value))
        else:
            entry.state = EntryState.EXCLUSIVE
            entry.owner = request.requester
            entry.sharers = set()
            # Only one copy existed, so the write globally performs on
            # receipt of the line (pending_acks=0).
            self._send(
                request.requester, DataX(ack.location, entry.value, pending_acks=0)
            )
        self._complete(ack.location)

    def _on_recall_nack(self, nack: RecallNack) -> None:
        # The refused recall may serve either a GetX (sync or data write)
        # or a GetS (data read of a reserved line); both retry.
        txn = self._open.get(nack.location)
        if txn is None:
            self.protocol_error(
                "msg-conservation",
                f"RecallNack from cache {nack.from_cache} for "
                f"{nack.location!r} matches no open transaction",
                location=nack.location,
            )
        self.stats.bump("dir.sync_nacks")
        tracer = self.sim.tracer
        if tracer.enabled:
            tracer.emit(
                "dir", "sync_nack", track=self.name,
                args=(
                    ("location", nack.location),
                    ("requester", txn.request.requester),
                    ("owner", nack.from_cache),
                ),
            )
        request = txn.request
        # Abort: unblock the location for data traffic, tell the
        # requester (for stall accounting), retry later.
        self._send(request.requester, SyncNack(nack.location))
        self._complete(nack.location)
        self._requeue_later(nack.location, request)
