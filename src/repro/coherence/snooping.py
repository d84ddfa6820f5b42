"""A snooping MSI protocol on the atomic bus.

The paper's Section 2.1 recalls that single-bus cache-coherent systems
(e.g. Rudolph & Segall's protocols [RuS84]) were the setting where
coherence was first proven to give sequential consistency.  This module
provides that substrate as an alternative to the directory protocol:

* every miss becomes one **atomic bus transaction**; at the instant the
  transaction is granted, every other cache snoops it — a dirty owner
  supplies the line (and downgrades or invalidates), sharers of a
  read-exclusive request invalidate — and memory answers otherwise;
* because invalidations happen *at* the serialization instant, a write
  is globally performed the moment its transaction completes: commit and
  global perform coincide, so the commit-vs-gp gap that motivates the
  paper's Section 5 machinery simply does not exist here.  (The Figure-1
  bus+cache violation survives: a processor can still hit its stale
  local copy before its own write's transaction reaches the bus.)

The reserve-bit rule is still honoured for completeness: a *sync*
transaction that snoops a reserved line at its owner is NACKed and
retried, so condition 5 holds on this substrate too.  The counter, the
reserve bits, fill, eviction and the flush stall are shared with the
directory cache through :class:`~repro.coherence.line.CacheController`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from repro.coherence.line import CacheController, LineState
from repro.core.operation import Location, Value
from repro.cpu.access import MemoryAccess
from repro.interconnect.base import Interconnect
from repro.sim.engine import Component, Simulator
from repro.sim.fork import Fork
from repro.sim.stats import Stats

SNOOP_ENDPOINT = "snoop"


def snoop_cache_endpoint(cache_id: int) -> str:
    return f"snoopcache:{cache_id}"


@dataclass(frozen=True)
class BusRd:
    """Read miss: acquire a shared copy."""

    location: Location
    requester: int


@dataclass(frozen=True)
class BusRdX:
    """Write/upgrade miss: acquire the only copy."""

    location: Location
    requester: int
    is_sync: bool = False


@dataclass(frozen=True)
class BusWB:
    """Write back a dirty line on eviction."""

    location: Location
    value: Value
    requester: int


@dataclass(frozen=True)
class SnoopData:
    """Transaction response: the line value, with grant kind."""

    location: Location
    value: Value
    exclusive: bool


@dataclass(frozen=True)
class SnoopNack:
    """The owner held the line reserved; retry later (condition 5)."""

    location: Location


@dataclass(frozen=True)
class SnoopDone:
    """The requester installed the granted line: the bus is released.

    The bus is *atomic*, not split-transaction: a read/write transaction
    holds it from grant until the data lands in the requester's cache,
    so no other transaction can be granted into the window between the
    snoops and the install (the race a split bus would need transient
    states for)."""

    location: Location


class SnoopCoordinator(Component):
    """The bus-side serialization point.

    Receives transactions over the (serializing) bus; at receipt — the
    atomic transaction instant — it snoops every cache synchronously and
    replies to the requester through the bus.
    """

    def __init__(
        self,
        sim: Simulator,
        interconnect: Interconnect,
        stats: Stats,
        initial_memory: Optional[Dict[Location, Value]] = None,
        retry_delay: int = 8,
    ) -> None:
        super().__init__(sim, "snoop-coordinator")
        self.interconnect = interconnect
        self.stats = stats
        self.retry_delay = retry_delay
        self._memory: Dict[Location, Value] = dict(initial_memory or {})
        self.caches: List["SnoopingCache"] = []
        #: Atomic-bus serialization: a granted Rd/RdX holds the bus until
        #: the requester's SnoopDone; later transactions queue here.
        self._busy = False
        self._waiting: List[Any] = []
        interconnect.register(SNOOP_ENDPOINT, self._on_message)

    def _fork(self, fork: Fork) -> "SnoopCoordinator":
        new = super()._fork(fork)
        new.interconnect = fork(self.interconnect)
        new.stats = fork(self.stats)
        new._memory = dict(self._memory)
        new.caches = [fork(cache) for cache in self.caches]
        new._waiting = list(self._waiting)
        new.interconnect.register(SNOOP_ENDPOINT, new._on_message)
        return new

    def attach(self, cache: "SnoopingCache") -> None:
        self.caches.append(cache)

    def memory_value(self, location: Location) -> Value:
        return self._memory.get(location, 0)

    # ------------------------------------------------------------------
    def _respond(self, cache_id: int, payload: Any) -> None:
        self.interconnect.send(
            SNOOP_ENDPOINT, snoop_cache_endpoint(cache_id), payload
        )

    def _on_message(self, payload: Any, src: str) -> None:
        # Dispatch on the exact type: no message class has subclasses.
        kind = type(payload)
        if kind is SnoopDone:
            self._busy = False
            self._drain()
            return
        if self._busy and (kind is BusRd or kind is BusRdX or kind is BusWB):
            self._waiting.append(payload)
            self.stats.counters["snoop.queued"] += 1
            tracer = self.sim.tracer
            if tracer.enabled:
                tracer.emit(
                    "dir", "queued", track=self.name,
                    args=(
                        ("payload", type(payload).__name__),
                        ("location", payload.location),
                        ("depth", len(self._waiting)),
                    ),
                )
            return
        self._dispatch(payload)

    def _drain(self) -> None:
        while self._waiting and not self._busy:
            self._dispatch(self._waiting.pop(0))

    def _dispatch(self, payload: Any) -> None:
        kind = type(payload)
        if kind is BusRd:
            self._busy = True
            self._handle_rd(payload)
        elif kind is BusRdX:
            self._handle_rdx(payload)
        elif kind is BusWB:
            # Snoop our own transaction at the grant instant: if another
            # transaction took the line from the write-back buffer in the
            # meantime, the write-back was cancelled and must not clobber
            # the newer owner's data.
            owner = next(
                c for c in self.caches if c.cache_id == payload.requester
            )
            value = owner.consume_writeback(payload.location)
            if value is not None:
                self.stats.bump("snoop.writebacks")
                self._memory[payload.location] = value
            else:
                self.stats.bump("snoop.cancelled_writebacks")
        else:  # pragma: no cover - defensive
            raise TypeError(f"snoop coordinator cannot handle {payload!r}")

    def _handle_rd(self, txn: BusRd) -> None:
        self.stats.counters["snoop.busrd"] += 1
        value = self.memory_value(txn.location)
        for cache in self.caches:
            if cache.cache_id == txn.requester:
                continue
            supplied = cache.snoop_rd(txn.location)
            if supplied is not None:
                value = supplied
                self._memory[txn.location] = supplied
        self._respond(txn.requester, SnoopData(txn.location, value, exclusive=False))

    def _handle_rdx(self, txn: BusRdX) -> None:
        self.stats.counters["snoop.busrdx"] += 1
        # First pass: the reserve check.  A reserved line refuses the
        # sync transaction before anyone is invalidated.
        for cache in self.caches:
            if cache.cache_id == txn.requester:
                continue
            if cache.holds_reserved(txn.location):
                self.stats.bump("snoop.nacks")
                tracer = self.sim.tracer
                if tracer.enabled:
                    tracer.emit(
                        "dir", "sync_nack", track=self.name,
                        args=(
                            ("location", txn.location),
                            ("requester", txn.requester),
                            ("owner", cache.cache_id),
                        ),
                    )
                self._respond(txn.requester, SnoopNack(txn.location))
                # The requester re-issues the transaction after the
                # retry delay.
                self.sim.schedule(
                    self.retry_delay, self.interconnect.send,
                    snoop_cache_endpoint(txn.requester), SNOOP_ENDPOINT, txn,
                )
                return
        self._busy = True
        value = self.memory_value(txn.location)
        for cache in self.caches:
            if cache.cache_id == txn.requester:
                continue
            supplied = cache.snoop_rdx(txn.location)
            if supplied is not None:
                value = supplied
        self._respond(txn.requester, SnoopData(txn.location, value, exclusive=True))


class SnoopingCache(CacheController):
    """A processor cache snooping the atomic bus.

    Implements the same processor-facing port as the directory cache
    (``submit``), so processors and policies are oblivious to which
    substrate they run on.
    """

    STAT_RESERVES_SET = "snoopcache.reserves_set"
    STAT_SYNC_NACKS = "snoopcache.nacks_received"
    STAT_EVICTIONS = "snoopcache.evictions"
    STAT_FLUSH_STALLS = "snoopcache.flush_stalls"
    WRITE_BACK = BusWB

    def __init__(
        self,
        sim: Simulator,
        cache_id: int,
        interconnect: Interconnect,
        coordinator: SnoopCoordinator,
        stats: Stats,
        capacity: Optional[int] = None,
        hit_latency: int = 1,
        reserve_enabled: bool = False,
    ) -> None:
        super().__init__(
            sim, f"snoopcache{cache_id}", cache_id, interconnect, stats,
            capacity, hit_latency, reserve_enabled,
        )
        self.coordinator = coordinator
        interconnect.register(snoop_cache_endpoint(cache_id), self._on_message)
        coordinator.attach(self)

    def _fork(self, fork: Fork) -> "SnoopingCache":
        new = super()._fork(fork)
        new.coordinator = fork(self.coordinator)
        new.interconnect.register(
            snoop_cache_endpoint(new.cache_id), new._on_message
        )
        return new

    # ------------------------------------------------------------------
    # Processor-facing API (mirrors repro.coherence.cache.Cache)
    # ------------------------------------------------------------------
    def submit(self, access: MemoryAccess) -> None:
        self.sim.schedule(self.hit_latency, self._start, access)

    # ------------------------------------------------------------------
    # Snoop duties (called synchronously at the transaction instant)
    # ------------------------------------------------------------------
    def holds_reserved(self, location: Location) -> bool:
        if not self.reserve_enabled:
            return False
        line = self._lines.get(location)
        return bool(line and line.valid and line.reserved)

    def snoop_rd(self, location: Location) -> Optional[Value]:
        """Another cache reads: supply if dirty, downgrade to shared."""
        line = self._lines.get(location)
        if line is not None and line.valid:
            if line.state is LineState.EXCLUSIVE:
                line.state = LineState.SHARED
                self.stats.bump("snoop.supplied")
                return line.value
            return None
        # The dirty data may be parked in the write-back buffer.
        value = self._victims.get(location)
        if value is not None:
            self.stats.bump("snoop.supplied_from_wb")
            return value
        return None

    def snoop_rdx(self, location: Location) -> Optional[Value]:
        """Another cache writes: supply if dirty, invalidate any copy."""
        line = self._lines.get(location)
        if line is not None and line.valid:
            value = line.value if line.state is LineState.EXCLUSIVE else None
            del self._lines[location]
            self.stats.counters["snoop.invalidated"] += 1
            return value
        if self._victims.get(location) is not None:
            # Hand the dirty data over and cancel our pending write-back:
            # the requester is the owner now.
            value = self._victims[location]
            self._victims[location] = None
            self.stats.bump("snoop.supplied_from_wb")
            return value
        return None

    def consume_writeback(self, location: Location) -> Optional[Value]:
        """Our BusWB was granted: pop the buffer entry (None = cancelled)."""
        return self._victims.pop(location, None)

    # ------------------------------------------------------------------
    # Access servicing
    # ------------------------------------------------------------------
    def _start(self, access: MemoryAccess) -> None:
        line = self._lines.get(access.location)
        needs_exclusive = access.needs_exclusive or access.kind.writes_memory
        if line is not None and line.valid and (
            line.state is LineState.EXCLUSIVE or not needs_exclusive
        ):
            self._touch(line)
            self.stats.counters["snoopcache.hits"] += 1
            # On this substrate a hit on an exclusive line (or any read
            # hit) is globally performed at once.
            self._perform_on_line(access, line, gp_now=True)
            self._after_sync_commit(access, line)
            return
        self.stats.counters["snoopcache.misses"] += 1
        if access.location in self._outstanding:
            self.protocol_error(
                "open-transaction",
                f"second miss on {access.location!r} while one is already "
                f"outstanding (processor must serialize per location)",
                location=access.location,
            )
        self.counter.increment()
        self._outstanding[access.location] = access
        if needs_exclusive:
            txn = BusRdX(
                access.location, self.cache_id, is_sync=access.sync_protocol
            )
        else:
            txn = BusRd(access.location, self.cache_id)
        self._send(txn)

    # ------------------------------------------------------------------
    # Bus responses
    # ------------------------------------------------------------------
    def _send(self, payload: Any) -> None:
        self.interconnect.send(
            snoop_cache_endpoint(self.cache_id), SNOOP_ENDPOINT, payload
        )

    def _on_message(self, payload: Any, src: str) -> None:
        # Dispatch on the exact type: no message class has subclasses.
        kind = type(payload)
        if kind is SnoopData:
            access = self._outstanding.pop(payload.location)
            state = (
                LineState.EXCLUSIVE if payload.exclusive else LineState.SHARED
            )
            line = self._install(payload.location, state, payload.value)
            self.counter.decrement(context=access)
            self._perform_on_line(access, line, gp_now=True)
            self._after_sync_commit(access, line)
            # Release the atomic bus: the transfer is complete.
            self._send(SnoopDone(payload.location))
        elif kind is SnoopNack:
            self._on_sync_nack(payload.location)
            # The coordinator re-issues the transaction after its retry
            # delay; nothing to do here.
        else:  # pragma: no cover - defensive
            raise TypeError(f"snooping cache cannot handle {payload!r}")
