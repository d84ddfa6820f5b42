"""Discrete-event simulation core.

Everything on the hardware side of the reproduction — processors, caches,
the directory, interconnects — is an event-driven component hanging off
one :class:`Simulator`.  Events are ``(time, sequence, callback)``
triples in a binary heap; same-time events fire in scheduling order,
which keeps runs deterministic for a fixed seed.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, List, Optional, Tuple

from repro.obs import METRICS
from repro.sanitizer.checker import Sanitizer
from repro.trace.tracer import Tracer


class SimulationTimeout(RuntimeError):
    """The simulation exceeded its cycle budget without quiescing.

    ``cycles`` is the simulation time at the trip (the last cycle within
    budget that was actually processed) and ``budget`` the ``max_cycles``
    bound that was exceeded; both are ``None`` when the exception is
    raised by code that does not know them.
    """

    def __init__(
        self,
        message: str,
        cycles: Optional[int] = None,
        budget: Optional[int] = None,
    ) -> None:
        super().__init__(message)
        self.cycles = cycles
        self.budget = budget


class Simulator:
    """A deterministic event-driven simulator with integer time."""

    def __init__(self) -> None:
        self._queue: List[Tuple[int, int, Callable[[], None]]] = []
        self._time = 0
        self._seq = 0
        #: Event tracer, created disabled (see :mod:`repro.trace`).
        self.tracer = Tracer(self)
        #: Protocol-invariant checker, created disabled (see
        #: :mod:`repro.sanitizer`): like the tracer, the off mode costs
        #: the event loop one attribute load and branch per cycle.
        self.sanitizer = Sanitizer(self)

    @property
    def now(self) -> int:
        """Current simulation time in cycles."""
        return self._time

    def schedule(self, delay: int, callback: Callable[[], None]) -> None:
        """Run ``callback`` ``delay`` cycles from now (``delay >= 0``)."""
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        heapq.heappush(self._queue, (self._time + delay, self._seq, callback))
        self._seq += 1

    def call_soon(self, callback: Callable[[], None]) -> None:
        """Run ``callback`` at the current time, after pending same-time events."""
        self.schedule(0, callback)

    def run(
        self,
        max_cycles: int = 1_000_000,
        until: Optional[Callable[[], bool]] = None,
    ) -> int:
        """Drain the event queue; returns the final simulation time.

        With ``until``, stop early as soon as ``until()`` holds (checked
        before each event), leaving the remaining events queued.

        Raises :class:`SimulationTimeout` if time would pass
        ``max_cycles`` — the liveness watchdog backing the paper's
        deadlock-freedom argument (Section 5.3): a correctly implemented
        system always quiesces, so hitting the watchdog means a protocol
        or policy bug (or a livelocked program).
        """
        sanitizer = self.sanitizer
        entry_time, entry_seq = self._time, self._seq
        try:
            while self._queue:
                if until is not None and until():
                    break
                time, _seq, callback = heapq.heappop(self._queue)
                if time > max_cycles:
                    raise SimulationTimeout(
                        f"simulation passed {max_cycles} cycles without quiescing",
                        cycles=self._time,
                        budget=max_cycles,
                    )
                if time != self._time:
                    # Cycle boundary: sweep invariants over the settled
                    # cycle before the clock advances.
                    if sanitizer.enabled:
                        sanitizer.on_cycle()
                    self._time = time
                callback()
        except SimulationTimeout:
            if METRICS.enabled:
                METRICS.inc(
                    "repro_sim_timeouts_total",
                    help="Runs that tripped the cycle-budget watchdog",
                )
            raise
        finally:
            if METRICS.enabled:
                METRICS.inc(
                    "repro_sim_runs_total",
                    help="Simulator.run invocations",
                )
                METRICS.inc(
                    "repro_sim_cycles_total",
                    self._time - entry_time,
                    help="Simulated cycles advanced",
                )
                METRICS.inc(
                    "repro_sim_events_total",
                    self._seq - entry_seq,
                    help="Events scheduled while running",
                )
        return self._time

    def run_for(self, cycles: int) -> int:
        """Process all events up to ``now + cycles``, then stop.

        Unlike :meth:`run`, reaching the deadline is not an error; the
        clock is left at the deadline.  Useful for observing transient
        states mid-flight.
        """
        deadline = self._time + cycles
        while self._queue and self._queue[0][0] <= deadline:
            time, _seq, callback = heapq.heappop(self._queue)
            self._time = time
            callback()
        self._time = deadline
        return self._time

    @property
    def pending_events(self) -> int:
        return len(self._queue)


class Component:
    """Base class for simulated hardware components.

    Components that re-evaluate their state after an event cascade (a
    processor core re-checking its stalls, for example) use the
    coalesced :meth:`wake` facility: any number of ``wake()`` calls in
    one cascade collapse into a single deferred :meth:`on_wake`.  With
    multi-outstanding cores, one settled cascade can complete several
    accesses at once — coalescing keeps that a single re-evaluation
    instead of one per completion, and keeps the event schedule (and so
    the deterministic ``(time, seq)`` order) independent of how many
    completions happened to land together.
    """

    def __init__(self, sim: Simulator, name: str) -> None:
        self.sim = sim
        self.name = name
        self._wake_scheduled = False

    def wake(self) -> None:
        """Re-evaluate state after the current event cascade settles."""
        if self.wake_suppressed() or self._wake_scheduled:
            return
        self._wake_scheduled = True

        def run() -> None:
            self._wake_scheduled = False
            if self.wake_ready():
                self.on_wake()

        self.sim.call_soon(run)

    # -- wake hooks, overridden by components that use the facility ------
    def wake_suppressed(self) -> bool:
        """Checked at ``wake()`` time: True drops the wake entirely."""
        return False

    def wake_ready(self) -> bool:
        """Checked when the deferred wake fires: False skips ``on_wake``."""
        return True

    def on_wake(self) -> None:
        """The component's re-evaluation; default is a no-op."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name}>"
