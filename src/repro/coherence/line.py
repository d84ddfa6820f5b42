"""Cache lines and the cache controller both coherence substrates share.

One line holds one memory location (no false sharing; the paper reasons
about "the line with the synchronization variable" as if they coincide).
Each line carries the paper's *reserve bit* (Section 5.3): set when a
synchronization operation commits on the line while the processor's
outstanding-access counter is positive, cleared when the counter reads
zero, and protected from flushes while set.

:class:`CacheController` is that Section 5.3 mechanism written once —
the counter, the reserve bits, fill, LRU eviction and the flush stall —
for the directory cache (:mod:`repro.coherence.cache`) and the snooping
cache (:mod:`repro.coherence.snooping`), which add only their protocol.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from repro.core.operation import Location, Value
from repro.cpu.access import MemoryAccess
from repro.cpu.counter import OutstandingCounter
from repro.interconnect.base import Interconnect
from repro.sim.engine import Component, Simulator
from repro.sim.fork import Fork, copy_leaf
from repro.sim.stats import Stats


class LineState(enum.Enum):
    """MSI-style stable states of a cached line."""

    INVALID = "I"
    SHARED = "S"
    EXCLUSIVE = "E"  # owned, possibly dirty; memory may be stale


@dataclass
class CacheLine:
    """A resident line and its bookkeeping bits; only its cache holds
    it, so a fork copies it as a leaf."""

    location: Location
    state: LineState
    value: Value
    #: Section 5.3's reserve bit.
    reserved: bool = False
    #: True while a committed write on this line awaits its MemAck —
    #: i.e. the local value is newer than what every other processor has
    #: been guaranteed to observe.
    gp_pending: bool = False
    #: LRU timestamp maintained by the cache.
    last_use: int = 0

    @property
    def valid(self) -> bool:
        return self.state is not LineState.INVALID

    @property
    def exclusive(self) -> bool:
        return self.state is LineState.EXCLUSIVE


class CacheController(Component):
    """One processor's cache: lines, counter, reserve bits, eviction.

    A subclass supplies its substrate's protocol — ``submit``, ``_send``
    and the message handlers — plus the class attributes below.  Capacity
    pressure that would require flushing a reserved (or mid-transaction)
    line leaves the cache temporarily over capacity; the Definition-2
    ordering policy stalls its processor until the counter drains, and
    :meth:`_clear_reserves` then evicts back down, matching "a processor
    that requires such a flush is made to stall until its counter reads
    zero".
    """

    #: Writes to different lines may globally perform out of order.
    in_order_stores = False
    #: ``Stats`` counter names, one set per substrate.
    STAT_RESERVES_SET: str
    STAT_SYNC_NACKS: str
    STAT_EVICTIONS: str
    STAT_FLUSH_STALLS: str
    #: The message a dirty eviction sends home, built as
    #: ``WRITE_BACK(location, value, cache_id)``.
    WRITE_BACK: Callable[[Location, Value, int], Any]

    def __init__(
        self,
        sim: Simulator,
        name: str,
        cache_id: int,
        interconnect: Interconnect,
        stats: Stats,
        capacity: Optional[int],
        hit_latency: int,
        reserve_enabled: bool,
    ) -> None:
        super().__init__(sim, name)
        self.cache_id = cache_id
        self.interconnect = interconnect
        self.stats = stats
        self.capacity = capacity
        self.hit_latency = hit_latency
        self.reserve_enabled = reserve_enabled

        self.counter = OutstandingCounter(owner=name, clock=self._now)
        self._lines: Dict[Location, CacheLine] = {}
        #: One outstanding transaction per location (processor enforces
        #: this; asserted by the miss paths).
        self._outstanding: Dict[Location, MemoryAccess] = {}
        #: Dirty lines evicted but not yet accepted home.  The snooping
        #: cache cancels an entry (sets it to None) when another
        #: transaction takes the data from its write-back buffer.
        self._victims: Dict[Location, Optional[Value]] = {}
        self._use_clock = 0
        #: Observers of incoming sync NACKs (stall accounting).
        self.on_sync_nack: List[Callable[[Location], None]] = []
        self.tracer = sim.tracer
        if self.tracer.wants("counter"):
            # Conditional wiring: untraced runs never pay the observer
            # call.  The tracer is configured before components build.
            self.counter.observer = self._observe_counter

    def _now(self) -> int:
        return self.sim._time

    def _observe_counter(self, value: int) -> None:
        self.tracer.emit(
            "counter", "outstanding", track=self.name,
            args=(("value", value),),
        )

    def _fork(self, fork: Fork) -> "CacheController":
        """Copy lines, counter and transaction maps; register the copy's
        handler on the forked interconnect (subclasses name it)."""
        new = super()._fork(fork)
        memo = fork.memo
        new.interconnect = (
            memo.get(id(self.interconnect)) or self.interconnect._fork(fork)
        )
        new.stats = memo.get(id(self.stats)) or self.stats._fork(fork)
        new.tracer = new.sim.tracer
        new.counter = self.counter._fork(fork)
        # Empty maps skip their comprehension (a frame each).
        new._lines = {
            loc: copy_leaf(line) for loc, line in self._lines.items()
        } if self._lines else {}
        new._outstanding = {
            loc: memo.get(id(access)) or access._fork(fork)
            for loc, access in self._outstanding.items()
        } if self._outstanding else {}
        new._victims = dict(self._victims)
        new.on_sync_nack = [fork.method(fn) for fn in self.on_sync_nack]
        return new

    # ------------------------------------------------------------------
    # Line queries
    # ------------------------------------------------------------------
    def line_state(self, location: Location) -> LineState:
        line = self._lines.get(location)
        return line.state if line else LineState.INVALID

    def line_value(self, location: Location) -> Optional[Value]:
        line = self._lines.get(location)
        return line.value if line and line.valid else None

    def is_reserved(self, location: Location) -> bool:
        line = self._lines.get(location)
        return bool(line and line.reserved)

    def any_reserved(self) -> bool:
        return any(line.reserved for line in self._lines.values())

    @property
    def over_capacity(self) -> bool:
        """True when unevictable (reserved/unacked) lines exceed capacity."""
        if self.capacity is None:
            return False
        return self._resident_count() > self.capacity

    def dirty_lines(self) -> Dict[Location, Value]:
        """Exclusive-line contents (for end-of-run memory reconstruction)."""
        out = {
            loc: line.value
            for loc, line in self._lines.items()
            if line.state is LineState.EXCLUSIVE
        }
        for loc, value in self._victims.items():
            if value is not None:
                out[loc] = value
        return out

    # ------------------------------------------------------------------
    # Commit and the reserve bits
    # ------------------------------------------------------------------
    def _perform_on_line(
        self, access: MemoryAccess, line: CacheLine, gp_now: bool
    ) -> None:
        """Commit ``access`` against the local copy."""
        old = line.value
        if access.kind.reads_memory:
            access.deliver_value(old, self.sim._time)
        if access.kind.writes_memory:
            assert access.compute_write is not None
            new = access.compute_write(old)
            line.value = new
            access.value_written = new
        access.mark_committed(self.sim._time)
        if gp_now:
            access.mark_globally_performed(self.sim._time)

    def _after_sync_commit(self, access: MemoryAccess, line: CacheLine) -> None:
        """Section 5.3: set the reserve bit if accesses are outstanding."""
        if not (self.reserve_enabled and access.sync_protocol):
            return
        if self.counter.value > 0:
            if not line.reserved:
                line.reserved = True
                self.stats.bump(self.STAT_RESERVES_SET)
                if self.tracer.enabled:
                    self.tracer.emit(
                        "reserve", "set", track=self.name,
                        args=(("location", line.location),),
                    )
            self.counter.when_zero(self._clear_reserves)

    def _clear_reserves(self) -> None:
        """Counter reads zero: reset every reserve bit, serve what the
        bits held back, then make the flushes they deferred."""
        for line in self._lines.values():
            if line.reserved and self.tracer.enabled:
                self.tracer.emit(
                    "reserve", "clear", track=self.name,
                    args=(("location", line.location),),
                )
            line.reserved = False
        self._serve_stalled()
        self._evict_down_to_capacity()

    def _serve_stalled(self) -> None:
        """Serve requests a reserve bit held back in this cache.  None by
        default: a substrate that NACKs them keeps nothing to serve."""

    def _on_sync_nack(self, location: Location) -> None:
        """Our sync request met a remote reserve bit and will be retried."""
        access = self._outstanding.get(location)
        if access is not None:
            access.nacks += 1
        self.stats.bump(self.STAT_SYNC_NACKS)
        for observer in self.on_sync_nack:
            observer(location)

    # ------------------------------------------------------------------
    # Fill / eviction
    # ------------------------------------------------------------------
    def _install(self, location: Location, state: LineState, value: Value) -> CacheLine:
        line = self._lines.get(location)
        old_state = line.state if line is not None else LineState.INVALID
        if line is None:
            line = CacheLine(location=location, state=state, value=value)
            self._lines[location] = line
        else:
            line.state = state
            line.value = value
        if self.tracer.enabled:
            self.tracer.emit(
                "cache", "fill", track=self.name,
                args=(
                    ("location", location),
                    ("from", old_state.name),
                    ("to", state.name),
                ),
            )
        self._touch(line)
        self._evict_down_to_capacity(exclude=location)
        return line

    def _touch(self, line: CacheLine) -> None:
        self._use_clock += 1
        line.last_use = self._use_clock

    def _resident_count(self) -> int:
        return sum(1 for line in self._lines.values() if line.valid)

    def _evict_down_to_capacity(self, exclude: Optional[Location] = None) -> None:
        if self.capacity is None:
            return
        while self._resident_count() > self.capacity:
            victim = self._pick_victim(exclude)
            if victim is None:
                # Every line is reserved or mid-transaction: the paper's
                # flush-stall case.  The processor-side policy observes
                # ``over_capacity`` and stalls until the counter drains.
                self.stats.bump(self.STAT_FLUSH_STALLS)
                return
            self._evict(victim)

    def _pick_victim(self, exclude: Optional[Location]) -> Optional[CacheLine]:
        candidates = [
            line
            for loc, line in self._lines.items()
            if line.valid
            and not line.reserved
            and not line.gp_pending
            and loc != exclude
            and loc not in self._outstanding
        ]
        if not candidates:
            return None
        return min(candidates, key=lambda line: line.last_use)

    def _evict(self, line: CacheLine) -> None:
        self.stats.bump(self.STAT_EVICTIONS)
        if self.tracer.enabled:
            self.tracer.emit(
                "cache", "evict", track=self.name,
                args=(
                    ("location", line.location),
                    ("state", line.state.name),
                ),
            )
        if line.state is LineState.EXCLUSIVE:
            self._victims[line.location] = line.value
            self._send(self.WRITE_BACK(line.location, line.value, self.cache_id))
        del self._lines[line.location]
