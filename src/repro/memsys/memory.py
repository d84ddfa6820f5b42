"""A memory module for the cache-less configurations of Figure 1.

Requests are serialized per arrival: the value a read returns, and the
order writes take effect, is determined by when the request message
*reaches* the module — Lamport's model, in which a general network can
violate sequential consistency even when each processor issues its
accesses in program order, because "accesses ... reach memory modules in
a different order".

Read-modify-writes execute atomically at the module (the paper's
single-location synchronization primitives).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Set, Tuple

from repro.core.operation import Location, Value
from repro.interconnect.base import Interconnect
from repro.sim.engine import Component, Simulator
from repro.sim.fork import Fork
from repro.sim.stats import Stats

MEMORY_ENDPOINT = "mem"


@dataclass(frozen=True)
class MemRead:
    location: Location
    token: int
    reply_to: str


@dataclass(frozen=True)
class MemWrite:
    location: Location
    value: Value
    token: int
    reply_to: str


@dataclass(frozen=True)
class MemRMW:
    """Atomic read-modify-write: ``new = compute(old)``."""

    location: Location
    compute: Callable[[Value], Value]
    token: int
    reply_to: str


@dataclass(frozen=True)
class MemReadResp:
    location: Location
    value: Value
    token: int


@dataclass(frozen=True)
class MemWriteAck:
    location: Location
    token: int


@dataclass(frozen=True)
class MemRMWResp:
    """Carries the atomically-read old value."""

    location: Location
    old_value: Value
    token: int


class MemoryModule(Component):
    """The single shared memory (conceptually: one module per location,
    since requests to different locations never queue behind each other
    here — service is concurrent)."""

    def __init__(
        self,
        sim: Simulator,
        interconnect: Interconnect,
        stats: Stats,
        initial_memory: Optional[Dict[Location, Value]] = None,
        service_latency: int = 2,
    ) -> None:
        super().__init__(sim, "memory")
        self.interconnect = interconnect
        self.stats = stats
        self.service_latency = service_latency
        self._memory: Dict[Location, Value] = dict(initial_memory or {})
        #: Requests already serviced, keyed by (requester, token).  A
        #: faulty network may deliver a request twice; replaying a write
        #: or RMW after later traffic would rewind memory, so duplicates
        #: are dropped here — at-least-once delivery tolerance.
        self._serviced: Set[Tuple[str, int]] = set()
        interconnect.register(MEMORY_ENDPOINT, self._on_message)

    def _fork(self, fork: Fork) -> "MemoryModule":
        new = super()._fork(fork)
        new.interconnect = fork(self.interconnect)
        new.stats = fork(self.stats)
        new._memory = dict(self._memory)
        new._serviced = set(self._serviced)
        new.interconnect.register(MEMORY_ENDPOINT, new._on_message)
        return new

    def value(self, location: Location) -> Value:
        return self._memory.get(location, 0)

    def contents(self) -> Dict[Location, Value]:
        return dict(self._memory)

    def _on_message(self, payload: Any, src: str) -> None:
        # The serialization point is message arrival; the response leaves
        # after the service latency.  Dispatch on the exact type: no
        # message class has subclasses.
        kind = type(payload)
        if kind is not MemRead and kind is not MemWrite and kind is not MemRMW:
            raise TypeError(f"memory cannot handle {payload!r}")
        request_id = (payload.reply_to, payload.token)
        if request_id in self._serviced:
            self.stats.bump("mem.duplicate_drops")
            return
        self._serviced.add(request_id)
        counters = self.stats.counters
        if kind is MemRead:
            counters["mem.reads"] += 1
            value = self.value(payload.location)
            self._respond(payload.reply_to, MemReadResp(payload.location, value, payload.token))
        elif kind is MemWrite:
            counters["mem.writes"] += 1
            self._memory[payload.location] = payload.value
            self._respond(payload.reply_to, MemWriteAck(payload.location, payload.token))
        else:
            counters["mem.rmws"] += 1
            old = self.value(payload.location)
            self._memory[payload.location] = payload.compute(old)
            self._respond(payload.reply_to, MemRMWResp(payload.location, old, payload.token))

    def _respond(self, reply_to: str, response: Any) -> None:
        self.sim.schedule(
            self.service_latency, self.interconnect.send,
            MEMORY_ENDPOINT, reply_to, response,
        )
