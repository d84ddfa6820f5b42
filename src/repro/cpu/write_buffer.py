"""The write-buffered, cache-less memory port.

This is Figure 1's processor-side relaxation: writes enter a FIFO buffer
and drain to memory one at a time (the next write leaves only after the
previous one is acknowledged), while reads are sent to memory directly —
"reads are allowed to pass writes in write buffers".  A read of a
location with a buffered write is forwarded the newest buffered value.

A buffered write is *committed* on entering the buffer (its value could
be dispatched to a local read from that moment) and *globally performed*
when memory acknowledges it — the vocabulary the ordering policies gate
on.  Under the SC policy the issue gate keeps at most one access
outstanding, so the buffer degenerates to the strongly-ordered case and
no bypassing ever happens, exactly as the figure's caption requires.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Dict, Optional

from repro.core.operation import OpKind
from repro.cpu.access import MemoryAccess
from repro.interconnect.base import Interconnect
from repro.memsys.memory import (
    MEMORY_ENDPOINT,
    MemRMW,
    MemRMWResp,
    MemRead,
    MemReadResp,
    MemWrite,
    MemWriteAck,
)
from repro.sim.engine import Component, Simulator
from repro.sim.fork import Fork
from repro.sim.stats import Stats


def port_endpoint(proc_id: int) -> str:
    return f"port:{proc_id}"


class WriteBufferPort(Component):
    """Per-processor memory port for the no-cache configurations."""

    #: The FIFO drains one write at a time in program order.
    in_order_stores = True

    def __init__(
        self,
        sim: Simulator,
        proc_id: int,
        interconnect: Interconnect,
        stats: Stats,
        drain_delay: int = 2,
        capacity: Optional[int] = None,
    ) -> None:
        super().__init__(sim, f"port{proc_id}")
        self.proc_id = proc_id
        self.interconnect = interconnect
        self.stats = stats
        #: Cycles the buffer head waits before being eligible to issue —
        #: models read-priority arbitration at the processor-bus boundary.
        self.drain_delay = drain_delay
        #: Maximum buffered writes (None = unbounded).  The processor
        #: checks :attr:`write_full` before issuing and stalls with
        #: ``WRITE_BUFFER_FULL`` when the bound is reached.
        self.capacity = capacity
        self._buffer: Deque[MemoryAccess] = deque()
        self._head_issued = False
        self._inflight: Dict[int, MemoryAccess] = {}
        #: The next request token.  Memory drops a repeated
        #: ``(reply_to, token)`` as a duplicate, so a fork continues
        #: from the parent's next token, never from 0.
        self._next_token = 0
        self.sanitizer = sim.sanitizer
        #: Per-location FIFO bookkeeping, maintained only when the
        #: sanitizer is enabled: enqueue stamps and the stamp of the
        #: last write drained per location.
        self._enqueue_seq = 0
        self._drained_seq: Dict[Any, int] = {}
        interconnect.register(port_endpoint(proc_id), self._on_message)

    def _fork(self, fork: Fork) -> "WriteBufferPort":
        new = super()._fork(fork)
        new.interconnect = fork(self.interconnect)
        new.stats = fork(self.stats)
        new.sanitizer = new.sim.sanitizer
        new._buffer = deque(fork(access) for access in self._buffer)
        new._inflight = {
            token: fork(access) for token, access in self._inflight.items()
        }
        new._drained_seq = dict(self._drained_seq)
        new.interconnect.register(port_endpoint(new.proc_id), new._on_message)
        return new

    def _token(self) -> int:
        token = self._next_token
        self._next_token = token + 1
        return token

    # ------------------------------------------------------------------
    # Processor-facing API
    # ------------------------------------------------------------------
    def submit(self, access: MemoryAccess) -> None:
        if access.kind in (OpKind.WRITE, OpKind.SYNC_WRITE):
            self._submit_write(access)
        elif access.kind in (OpKind.READ, OpKind.SYNC_READ):
            self._submit_read(access)
        else:  # SYNC_RMW: straight to memory, atomic at the module.
            self._submit_rmw(access)

    @property
    def buffered_writes(self) -> int:
        return len(self._buffer)

    @property
    def write_full(self) -> bool:
        return self.capacity is not None and len(self._buffer) >= self.capacity

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------
    def _submit_write(self, access: MemoryAccess) -> None:
        assert access.compute_write is not None
        access.value_written = access.compute_write(0)
        access.mark_committed(self.sim._time)
        self._buffer.append(access)
        if self.sanitizer.enabled:
            self._enqueue_seq += 1
            access.wbuf_seq = self._enqueue_seq
        self.stats.counters["wbuf.enqueued"] += 1
        tracer = self.sim.tracer
        if tracer.enabled:
            tracer.emit(
                "wbuf",
                "enqueue",
                track=self.name,
                args=(
                    ("location", access.location),
                    ("depth", len(self._buffer)),
                ),
            )
        self._try_drain()

    def _try_drain(self) -> None:
        if self._head_issued or not self._buffer:
            return
        self._head_issued = True
        self.sim.schedule(self.drain_delay, self._issue_head, self._buffer[0])

    def _issue_head(self, head: MemoryAccess) -> None:
        token = self._token()
        self._inflight[token] = head
        self.interconnect.send(
            port_endpoint(self.proc_id),
            MEMORY_ENDPOINT,
            MemWrite(
                head.location,
                head.value_written,
                token,
                port_endpoint(self.proc_id),
            ),
        )

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def _submit_read(self, access: MemoryAccess) -> None:
        forwarded = self._forward_from_buffer(access)
        if forwarded:
            return
        token = self._token()
        self._inflight[token] = access
        self.interconnect.send(
            port_endpoint(self.proc_id),
            MEMORY_ENDPOINT,
            MemRead(access.location, token, port_endpoint(self.proc_id)),
        )

    def _forward_from_buffer(self, access: MemoryAccess) -> bool:
        for buffered in reversed(self._buffer):
            if buffered.location == access.location:
                self.stats.bump("wbuf.forwards")
                tracer = self.sim.tracer
                if tracer.enabled:
                    tracer.emit(
                        "wbuf",
                        "forward",
                        track=self.name,
                        args=(
                            ("location", access.location),
                            ("value", buffered.value_written),
                        ),
                    )
                access.deliver_value(buffered.value_written, self.sim._time)
                access.mark_committed(self.sim._time)
                access.mark_globally_performed(self.sim._time)
                return True
        return False

    # ------------------------------------------------------------------
    # Read-modify-writes
    # ------------------------------------------------------------------
    def _submit_rmw(self, access: MemoryAccess) -> None:
        assert access.compute_write is not None
        token = self._token()
        self._inflight[token] = access
        self.interconnect.send(
            port_endpoint(self.proc_id),
            MEMORY_ENDPOINT,
            MemRMW(access.location, access.compute_write, token, port_endpoint(self.proc_id)),
        )

    # ------------------------------------------------------------------
    # Responses
    # ------------------------------------------------------------------
    def _on_message(self, payload: Any, src: str) -> None:
        # Dispatch on the exact type: no message class has subclasses.
        kind = type(payload)
        if (
            kind is not MemReadResp
            and kind is not MemWriteAck
            and kind is not MemRMWResp
        ):
            raise TypeError(f"port cannot handle {payload!r}")
        # A faulty network may deliver a response twice; tokens are
        # issued once, so an unknown token is a replay to drop.
        access = self._inflight.pop(payload.token, None)
        if access is None:
            self.stats.bump("wbuf.duplicate_drops")
            return
        if kind is MemReadResp:
            access.deliver_value(payload.value, self.sim._time)
            access.mark_committed(self.sim._time)
            access.mark_globally_performed(self.sim._time)
        elif kind is MemWriteAck:
            if not self._buffer or self._buffer[0] is not access:
                head = (
                    f"the buffer head is a write to "
                    f"{self._buffer[0].location!r}"
                    if self._buffer
                    else "the write buffer is empty"
                )
                self.protocol_error(
                    "wbuf-fifo",
                    f"MemWriteAck for {access.location!r} does not match "
                    f"the FIFO drain order: {head}",
                    location=access.location,
                )
            if self.sanitizer.enabled:
                seq = getattr(access, "wbuf_seq", 0)
                last = self._drained_seq.get(access.location, 0)
                if seq <= last:
                    self.sanitizer.record(
                        "wbuf-fifo",
                        f"write to {access.location!r} drained out of "
                        f"per-location order (stamp {seq} after {last})",
                        component=self.name,
                        location=access.location,
                    )
                self._drained_seq[access.location] = seq
            self._buffer.popleft()
            self._head_issued = False
            access.mark_globally_performed(self.sim._time)
            self._try_drain()
        else:
            access.value_written = access.compute_write(payload.old_value)
            access.deliver_value(payload.old_value, self.sim._time)
            access.mark_committed(self.sim._time)
            access.mark_globally_performed(self.sim._time)
