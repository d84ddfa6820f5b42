"""Run statistics: event counters and per-processor stall accounting.

Stall accounting is the quantitative heart of the Figure-3 reproduction:
the comparison between Definition-1 and Definition-2 hardware is exactly
"who stalls, where, and for how long".  Every wait a processor performs is
attributed to a :class:`StallReason`.
"""

from __future__ import annotations

import enum
from collections import defaultdict
from typing import Dict, Optional, Tuple

from repro.obs import METRICS
from repro.sim.fork import Fork, Forkable


class StallReason(enum.Enum):
    """Why a processor was unable to advance."""

    #: Waiting for a read's value (intra-processor dependency, cond. 1).
    READ_VALUE = "read_value"
    #: SC hardware: waiting for the previous access to globally perform.
    SC_PREVIOUS_GP = "sc_previous_gp"
    #: Definition 1 condition (2): a sync op may not issue until all
    #: previous data accesses are globally performed.
    DEF1_SYNC_WAITS_PREV = "def1_sync_waits_prev"
    #: Definition 1 condition (3): no access may issue until the previous
    #: sync op is globally performed.
    DEF1_WAITS_SYNC_GP = "def1_waits_sync_gp"
    #: Section 5 condition 4: waiting for a sync op to commit (procure the
    #: line in exclusive state and perform the op on it).
    DEF2_SYNC_COMMIT = "def2_sync_commit"
    #: Section 5 condition 5: a sync request found the target line
    #: reserved at its owner and was stalled or NACKed.
    DEF2_RESERVED_REMOTE = "def2_reserved_remote"
    #: A reserved line would have to be flushed; processor drains first.
    DEF2_FLUSH_RESERVED = "def2_flush_reserved"
    #: Optional bound on outstanding misses while a line is reserved.
    DEF2_MISS_BOUND = "def2_miss_bound"
    #: TSO: a load waits for earlier loads (no load-load reordering);
    #: it may still overtake pending stores in the write buffer.
    TSO_LOAD_ORDER = "tso_load_order"
    #: TSO: a store waits for earlier accesses that must stay ahead of
    #: it (earlier loads; on cached machines also earlier stores, which
    #: the FIFO write buffer serializes by construction).
    TSO_STORE_ORDER = "tso_store_order"
    #: TSO/PSO: an atomic (sync) op acts as a full fence — it waits for
    #: everything pending, and everything waits for it.
    TSO_ATOMIC_FENCE = "tso_atomic_fence"
    #: Waiting for a same-location access to finish (one outstanding
    #: transaction per processor per location).
    SAME_LOCATION = "same_location"
    #: Write buffer full (no-cache configurations).
    WRITE_BUFFER_FULL = "write_buffer_full"
    #: An explicit Fence instruction draining outstanding accesses
    #: (the RP3 fence option of Section 2.1).
    FENCE_DRAIN = "fence_drain"
    #: A Shasha-Snir delay pair: the later access waits for the earlier
    #: one to globally perform ([ShS88], Section 2.1).
    DELAY_PAIR = "delay_pair"
    #: Processor drain before a context switch / migration.
    MIGRATION_DRAIN = "migration_drain"
    #: A pipelined core's issue window is full (every slot holds an
    #: access that has not yet globally performed).
    CORE_WINDOW_FULL = "core_window_full"

    #: Identity hashing, in C, as for :class:`~repro.core.operation.OpKind`:
    #: the stall table's ``(proc, reason)`` keys hash without a Python call.
    __hash__ = object.__hash__


class Stats(Forkable):
    """Counters, totals, and stall attribution for one hardware run."""

    def __init__(self) -> None:
        self.counters: Dict[str, int] = defaultdict(int)
        self._stalls: Dict[Tuple[int, StallReason], int] = defaultdict(int)
        self._stall_starts: Dict[Tuple[int, StallReason], int] = {}
        self.total_cycles: int = 0
        #: Optional :class:`~repro.trace.tracer.Tracer` mirroring stall
        #: windows as ``stall`` B/E trace events (set by ``System`` when
        #: a run is traced; None costs one load + branch per call).
        self.tracer = None

    def _fork(self, fork: Fork) -> "Stats":
        new = fork.shell(self)
        new.counters = self.counters.copy()
        new._stalls = self._stalls.copy()
        new._stall_starts = self._stall_starts.copy()
        if self.tracer is not None:
            new.tracer = fork(self.tracer)
        return new

    # -- counters ----------------------------------------------------------
    def bump(self, counter: str, amount: int = 1) -> None:
        self.counters[counter] += amount

    def count(self, counter: str) -> int:
        return self.counters.get(counter, 0)

    # -- stalls --------------------------------------------------------------
    def stall_begin(self, proc: int, reason: StallReason, now: int) -> None:
        """Mark the start of a stall (idempotent while already stalled)."""
        key = (proc, reason)
        if key not in self._stall_starts:
            self._stall_starts[key] = now
            tracer = self.tracer
            if tracer is not None and tracer.enabled:
                tracer.begin("stall", reason.value, track=f"P{proc}")

    def stall_end(self, proc: int, reason: StallReason, now: int) -> None:
        """Close an open stall window and accumulate its cycles."""
        key = (proc, reason)
        start = self._stall_starts.pop(key, None)
        if start is not None:
            self._stalls[key] += now - start
            tracer = self.tracer
            if tracer is not None and tracer.enabled:
                tracer.end("stall", reason.value, track=f"P{proc}")
            if METRICS.enabled:
                self._publish_stall(reason, now - start)

    def end_all_stalls(self, now: int) -> None:
        """Close any windows still open at the end of the run."""
        for (proc, reason), start in list(self._stall_starts.items()):
            self._stalls[(proc, reason)] += now - start
            del self._stall_starts[(proc, reason)]
            tracer = self.tracer
            if tracer is not None and tracer.enabled:
                tracer.end(
                    "stall",
                    reason.value,
                    track=f"P{proc}",
                    args=(("open_at_end", 1),),
                )
            if METRICS.enabled:
                self._publish_stall(reason, now - start)

    @staticmethod
    def _publish_stall(reason: StallReason, cycles: int) -> None:
        METRICS.inc(
            "repro_cpu_stall_windows_total",
            help="Closed stall windows by reason",
            reason=reason.value,
        )
        METRICS.inc(
            "repro_cpu_stall_cycles_total",
            cycles,
            help="Cycles spent stalled, by reason",
            reason=reason.value,
        )

    def stall_cycles(
        self, proc: Optional[int] = None, reason: Optional[StallReason] = None
    ) -> int:
        """Total stall cycles, optionally filtered by processor and reason."""
        total = 0
        for (p, r), cycles in self._stalls.items():
            if proc is not None and p != proc:
                continue
            if reason is not None and r != reason:
                continue
            total += cycles
        return total

    def stall_breakdown(self) -> Dict[Tuple[int, StallReason], int]:
        return dict(self._stalls)

    def describe(self) -> str:
        lines = [f"cycles: {self.total_cycles}"]
        for name in sorted(self.counters):
            lines.append(f"  {name}: {self.counters[name]}")
        for (proc, reason), cycles in sorted(
            self._stalls.items(), key=lambda kv: (kv[0][0], kv[0][1].value)
        ):
            lines.append(f"  P{proc} stall[{reason.value}]: {cycles}")
        return "\n".join(lines)
