"""Runtime protocol-invariant checker (the sanitizer proper).

Every :class:`~repro.sim.engine.Simulator` owns a :class:`Sanitizer`,
created disabled exactly like the tracer: components and the event loop
pay a single attribute-load-plus-branch when it is off.  When enabled
(``log`` or ``strict``) it sweeps the machine at every cycle boundary
and at end of run, verifying the invariants the paper's correctness
argument rests on:

* **single-writer / multiple-reader** — at most one cache holds a line
  EXCLUSIVE; stale SHARED copies may coexist only while the directory
  has an open transaction on the line (parallel forwarding leaves them
  awaiting an Inval that is still in flight);
* **directory–cache agreement** — for quiescent lines the directory
  entry and the cache array tell the same story (the sharer set may be
  a superset because SHARED evictions are silent);
* **reserve-bit ↔ counter consistency** — a set reserve bit implies a
  positive outstanding-access counter (Section 5.3: the bit is cleared
  "when the counter reads zero", synchronously inside the decrement, so
  a reserved line with a zero counter means a dropped clear);
* **counter conservation** — ``0 <= counter <= |outstanding|`` (in-
  flight sync misses are deliberately uncounted on the directory
  substrate; the snooping substrate counts every miss exactly);
* **message conservation** — every message sent into the interconnect
  is delivered, *modulo* the active fault plan (duplicates bump sent
  and delivered equally, so the identity still holds at quiescence);
* **end-of-run quiescence** — counters zero, no reserve bits, no open
  transactions, no buffered writes, nothing in flight.

Checks fall into two tiers.  *Sweep* checks run only when the sanitizer
is enabled and report through :meth:`Sanitizer.record` (``log`` collects,
``strict`` raises :class:`SanitizerViolation`).  *Load-bearing* checks —
the converted inline ``assert``\\ s in the caches, directory, and write
buffer — always raise :class:`ProtocolError` via
:meth:`Sanitizer.protocol_error`, so they survive ``python -O`` and
carry cycle/location context; the sanitizer merely records them first
when enabled.

The sweeps read private component state (``_lines``, ``_outstanding``,
``_open`` …) by design: the sanitizer is a friend module of the
protocol implementations, and keeping the checks out-of-line keeps the
protocol hot paths free of bookkeeping.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.engine import Simulator

_LOG = logging.getLogger("repro.sanitizer")

#: Recognised sanitizer modes, mirroring the tracer's off-by-default
#: contract: ``off`` is a single branch, ``log`` collects violations on
#: the run result, ``strict`` raises on the first one.
MODES: Tuple[str, ...] = ("off", "log", "strict")


def parse_mode(text: str) -> str:
    """Validate a ``--sanitize`` mode string."""
    mode = text.strip().lower()
    if mode not in MODES:
        raise ValueError(
            f"unknown sanitizer mode {text!r} (choose from {', '.join(MODES)})"
        )
    return mode


@dataclass(frozen=True)
class Violation:
    """One invariant violation, picklable for campaign results.

    ``rule`` is a stable kebab-case identifier (``single-writer``,
    ``reserve-consistency`` …) that failure signatures key on;
    ``cycle`` is the simulation time of detection.
    """

    rule: str
    cycle: int
    message: str
    component: str = ""
    location: Optional[str] = None

    def describe(self) -> str:
        where = f" {self.component}" if self.component else ""
        loc = f" loc={self.location!r}" if self.location is not None else ""
        return f"[{self.rule}] cycle {self.cycle}{where}{loc}: {self.message}"


class SanitizerViolation(RuntimeError):
    """A sweep invariant failed under ``strict`` mode."""

    def __init__(self, violation: Violation) -> None:
        super().__init__(violation.describe())
        self.violation = violation


class ProtocolError(RuntimeError):
    """A load-bearing protocol check failed (always fatal, any mode).

    Replaces the inline ``assert``\\ s that used to vanish under
    ``python -O``; carries the same :class:`Violation` payload so triage
    can extract the rule name from the bracketed message prefix.
    """

    def __init__(self, violation: Violation) -> None:
        super().__init__(violation.describe())
        self.violation = violation


class Sanitizer:
    """Per-simulation invariant checker, disabled by default."""

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim
        #: One-branch guard for the event loop and component hot paths.
        self.enabled = False
        self.mode = "off"
        self.violations: List[Violation] = []
        #: Number of cycle-boundary sweeps performed (telemetry/tests).
        self.sweeps = 0
        self._system: Optional[Any] = None

    # ------------------------------------------------------------------
    # Configuration
    # ------------------------------------------------------------------
    def configure(self, mode: str) -> None:
        """Set the checking mode (``off``/``log``/``strict``)."""
        self.mode = parse_mode(mode)
        self.enabled = self.mode != "off"

    def _fork(self, fork) -> "Sanitizer":
        """Copy for a :class:`~repro.sim.fork.Fork` of the simulator
        (forkable by protocol: this module sits below ``repro.sim``)."""
        new = fork.shell(self)
        new.sim = fork(self.sim)
        new.violations = list(self.violations)
        if self._system is not None:
            new._system = fork(self._system)
        return new

    def attach(self, system: Any) -> None:
        """Point the sweeps at a :class:`~repro.memsys.system.System`.

        Duck-typed (``caches``/``directory``/``snoop_coordinator``/
        ``processors``/``stats``) to keep this module import-light — it
        is imported by the simulation engine itself.
        """
        self._system = system

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def _violation(
        self,
        rule: str,
        message: str,
        component: str = "",
        location: Optional[object] = None,
        cycle: Optional[int] = None,
    ) -> Violation:
        return Violation(
            rule=rule,
            cycle=self.sim.now if cycle is None else cycle,
            message=message,
            component=component,
            location=None if location is None else str(location),
        )

    def record(
        self,
        rule: str,
        message: str,
        component: str = "",
        location: Optional[object] = None,
    ) -> Violation:
        """Report a sweep violation per the configured mode."""
        violation = self._violation(rule, message, component, location)
        self.violations.append(violation)
        if self.mode == "strict":
            raise SanitizerViolation(violation)
        _LOG.warning("%s", violation.describe())
        return violation

    def protocol_error(
        self,
        rule: str,
        message: str,
        component: str = "",
        location: Optional[object] = None,
        cycle: Optional[int] = None,
    ) -> "ProtocolError":
        """Raise a :class:`ProtocolError` for a load-bearing check.

        Always raises, whatever the mode — these replace asserts whose
        failure means the machine state is corrupt.  Recorded on the
        violation list too when the sanitizer is enabled.  ``cycle``
        defaults to this sanitizer's simulator's clock; machine
        components pass their own (see
        :meth:`Component.protocol_error
        <repro.sim.engine.Component.protocol_error>`).
        """
        violation = self._violation(rule, message, component, location, cycle)
        if self.enabled:
            self.violations.append(violation)
        raise ProtocolError(violation)

    # ------------------------------------------------------------------
    # Cycle-boundary sweep
    # ------------------------------------------------------------------
    def on_cycle(self) -> None:
        """Verify machine-wide invariants at a cycle boundary.

        Called by the event loop just before the clock advances (and
        once more from :meth:`finish`), so every check sees a settled
        cycle: intra-cycle transients — a line installed and consumed
        within one callback, say — are invisible by construction.
        """
        system = self._system
        if system is None:
            return
        self.sweeps += 1
        caches = system.caches
        if caches:
            self._sweep_coherence(system, caches)
            self._sweep_counters(system, caches)

    def _location_in_flux(self, system: Any, loc: object) -> bool:
        """True while the directory has unfinished business on ``loc``.

        Parallel forwarding (Section 5) grants an exclusive copy while
        invalidations are still in flight, so stale SHARED copies and
        entry/cache disagreement are *expected* until the transaction's
        acks are collected and its queue drains.
        """
        directory = system.directory
        if directory is None:
            return False
        if loc in directory._open:
            return True
        queue = directory._queues.get(loc)
        return bool(queue)

    def _sweep_coherence(self, system: Any, caches: List[Any]) -> None:
        from repro.coherence.line import LineState

        exclusive: Dict[object, Any] = {}
        shared: Dict[object, List[Any]] = {}
        for cache in caches:
            for loc, line in cache._lines.items():
                if not line.valid:
                    continue
                if line.state is LineState.EXCLUSIVE:
                    other = exclusive.get(loc)
                    if other is not None:
                        self.record(
                            "single-writer",
                            f"{other.name} and {cache.name} both hold "
                            f"{loc!r} in the exclusive state",
                            component=cache.name,
                            location=loc,
                        )
                    exclusive[loc] = cache
                else:
                    shared.setdefault(loc, []).append(cache)
        for loc, owner in exclusive.items():
            readers = shared.get(loc)
            if readers and not self._location_in_flux(system, loc):
                names = ", ".join(c.name for c in readers)
                self.record(
                    "single-writer",
                    f"{owner.name} holds {loc!r} exclusive while {names} "
                    f"still hold(s) a shared copy and no directory "
                    f"transaction is open on the line",
                    component=owner.name,
                    location=loc,
                )
        if system.directory is not None:
            self._sweep_directory(system, caches, exclusive, shared)

    def _sweep_directory(
        self,
        system: Any,
        caches: List[Any],
        exclusive: Dict[object, Any],
        shared: Dict[object, List[Any]],
    ) -> None:
        from repro.coherence.directory import EntryState
        from repro.coherence.line import LineState

        directory = system.directory
        by_id = {cache.cache_id: cache for cache in caches}
        for loc, entry in directory._entries.items():
            if self._location_in_flux(system, loc):
                continue
            if entry.state is EntryState.EXCLUSIVE:
                owner = by_id.get(entry.owner)
                if owner is None:
                    self.record(
                        "dir-agreement",
                        f"directory entry for {loc!r} names unknown owner "
                        f"cache {entry.owner}",
                        component=directory.name,
                        location=loc,
                    )
                    continue
                holds = owner.line_state(loc) is LineState.EXCLUSIVE
                writeback_in_flight = loc in owner._victims
                grant_in_flight = loc in owner._outstanding
                if not (holds or writeback_in_flight or grant_in_flight):
                    self.record(
                        "dir-agreement",
                        f"directory says {owner.name} owns {loc!r} "
                        f"exclusively, but the cache holds no copy, no "
                        f"write-back is in flight, and it has no open "
                        f"transaction on the line",
                        component=directory.name,
                        location=loc,
                    )
            else:
                holder = exclusive.get(loc)
                if holder is not None:
                    self.record(
                        "dir-agreement",
                        f"{holder.name} holds {loc!r} exclusive but the "
                        f"directory entry is {entry.state.value}",
                        component=directory.name,
                        location=loc,
                    )
                for cache in shared.get(loc, ()):  # valid SHARED copies
                    if (
                        entry.state is EntryState.SHARED
                        and cache.cache_id not in entry.sharers
                    ):
                        self.record(
                            "dir-agreement",
                            f"{cache.name} holds {loc!r} shared but is "
                            f"missing from the directory sharer set "
                            f"{sorted(entry.sharers)}",
                            component=directory.name,
                            location=loc,
                        )
                    elif entry.state is EntryState.UNOWNED:
                        self.record(
                            "dir-agreement",
                            f"{cache.name} holds {loc!r} shared but the "
                            f"directory entry is unowned",
                            component=directory.name,
                            location=loc,
                        )

    def _sweep_counters(self, system: Any, caches: List[Any]) -> None:
        for cache in caches:
            counter = cache.counter
            value = counter.value
            outstanding = len(cache._outstanding)
            if value < 0:
                self.record(
                    "counter-conservation",
                    f"outstanding-access counter reads {value}",
                    component=cache.name,
                )
            elif value > outstanding:
                self.record(
                    "counter-conservation",
                    f"counter reads {value} but only {outstanding} "
                    f"transaction(s) are outstanding — a decrement was "
                    f"dropped or an increment double-counted",
                    component=cache.name,
                )
            for loc, line in cache._lines.items():
                if line.reserved:
                    if not cache.reserve_enabled:
                        self.record(
                            "reserve-consistency",
                            f"line {loc!r} is reserved but the reserve "
                            f"machinery is disabled for this policy",
                            component=cache.name,
                            location=loc,
                        )
                    elif value == 0:
                        self.record(
                            "reserve-consistency",
                            f"line {loc!r} is reserved while the "
                            f"outstanding-access counter reads zero — the "
                            f"counter-zero reserve clear was dropped",
                            component=cache.name,
                            location=loc,
                        )
                if line.gp_pending and loc not in cache._outstanding:
                    self.record(
                        "reserve-consistency",
                        f"line {loc!r} awaits a MemAck (gp_pending) but "
                        f"the cache has no open transaction on it",
                        component=cache.name,
                        location=loc,
                    )

    # ------------------------------------------------------------------
    # End-of-run checks
    # ------------------------------------------------------------------
    def finish(self, completed: bool) -> None:
        """Verify conservation and quiescence once the queue drains.

        ``completed`` is False for deadlocked/timed-out runs, which
        legitimately quiesce dirty — quiescence checks are skipped then
        (a final sweep still runs, so state-corruption violations are
        not masked by the hang).  Message conservation is checked
        whenever the event queue actually drained — that includes quiet
        deadlocks, where every scheduled delivery has fired — but not
        after a watchdog trip, which cuts messages off mid-flight.
        """
        system = self._system
        if system is None:
            return
        self.on_cycle()
        if self.sim.pending_events == 0:
            stats = system.stats
            sent = (
                stats.count("bus.sent") + stats.count("network.sent")
                + stats.count("scheduled.sent")
            )
            delivered = stats.count("interconnect.delivered")
            if sent != delivered:
                self.record(
                    "msg-conservation",
                    f"{sent} message(s) entered the interconnect but "
                    f"{delivered} were delivered",
                    component="interconnect",
                )
        if not completed:
            return
        for cache in system.caches:
            if cache.counter.value != 0:
                self.record(
                    "quiescence",
                    f"outstanding-access counter reads "
                    f"{cache.counter.value} at quiescence",
                    component=cache.name,
                )
            if cache.any_reserved():
                self.record(
                    "quiescence",
                    "reserve bit still set at quiescence",
                    component=cache.name,
                )
            if cache._outstanding:
                self.record(
                    "quiescence",
                    f"transaction(s) still open on "
                    f"{sorted(cache._outstanding)} at quiescence",
                    component=cache.name,
                )
            if cache._victims:
                self.record(
                    "quiescence",
                    f"write-back(s) still in flight for "
                    f"{sorted(cache._victims)} at quiescence",
                    component=cache.name,
                )
        directory = system.directory
        if directory is not None:
            if directory._open:
                self.record(
                    "quiescence",
                    f"directory transaction(s) still open on "
                    f"{sorted(directory._open)} at quiescence",
                    component=directory.name,
                )
            queued = sorted(
                loc for loc, queue in directory._queues.items() if queue
            )
            if queued:
                self.record(
                    "quiescence",
                    f"request(s) still queued at the directory for "
                    f"{queued} at quiescence",
                    component=directory.name,
                )
        coordinator = system.snoop_coordinator
        if coordinator is not None:
            if coordinator._busy or coordinator._waiting:
                self.record(
                    "quiescence",
                    "snoop coordinator still busy or holding waiters "
                    "at quiescence",
                    component=coordinator.name,
                )
        for processor in system.processors:
            port = processor.port
            buffered = getattr(port, "buffered_writes", 0)
            if buffered:
                self.record(
                    "quiescence",
                    f"{buffered} write(s) still buffered at quiescence",
                    component=port.name,
                )
            inflight = getattr(port, "_inflight", None)
            if inflight:
                self.record(
                    "quiescence",
                    f"{len(inflight)} memory request(s) still awaiting "
                    f"replies at quiescence",
                    component=port.name,
                )
            # A pipelined core must drain its scoreboard before it halts:
            # a surviving entry means a register never received its value.
            pending = getattr(processor, "pending_registers", None)
            if processor.halted and pending:
                self.record(
                    "quiescence",
                    f"halted core still awaits value(s) for "
                    f"register(s) {sorted(pending)} at quiescence",
                    component=processor.name,
                )
