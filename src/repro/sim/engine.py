"""Discrete-event simulation core.

Everything on the hardware side of the reproduction — processors, caches,
the directory, interconnects — is an event-driven component hanging off
one :class:`Simulator`.  Events are data: ``(time, sequence, callback,
args)`` in a binary heap, where the callback is a bound method of a
component and ``args`` its arguments.  Same-time events fire in
scheduling order, which keeps runs deterministic for a fixed seed, and
because no event is a closure a running machine can be forked (see
:mod:`repro.sim.fork`).
"""

from __future__ import annotations

from heapq import heappop, heappush
from types import MethodType
from typing import Any, Callable, List, Optional, Tuple

from repro.obs import METRICS
from repro.sanitizer.checker import Sanitizer
from repro.sim.fork import Fork, Forkable
from repro.trace.tracer import Tracer

#: A queued event: ``(time, seq, callback, args)``.
Event = Tuple[int, int, Callable[..., None], Tuple[Any, ...]]


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


class Simulator(Forkable):
    """A deterministic event-driven simulator with integer time."""

    def __init__(self) -> None:
        self._queue: List[Event] = []
        self._time = 0
        self._seq = 0
        #: The event :meth:`run` is firing, if any (see :meth:`_fork`).
        self._firing: Optional[Event] = None
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

    def schedule(
        self, delay: int, callback: Callable[..., None], *args: Any
    ) -> None:
        """Run ``callback(*args)`` ``delay`` cycles from now (``delay >= 0``).

        Machine components pass a bound method and its arguments, never
        a closure, so the queued event stays forkable.
        """
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        heappush(self._queue, (self._time + delay, self._seq, callback, args))
        self._seq += 1

    def call_soon(self, callback: Callable[..., None], *args: Any) -> None:
        """Run ``callback(*args)`` now, after pending same-time events."""
        heappush(self._queue, (self._time, self._seq, callback, args))
        self._seq += 1

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
        queue = self._queue
        now = entry_time = self._time
        entry_seq = self._seq
        try:
            while queue:
                if until is not None and until():
                    break
                event = heappop(queue)
                time, _seq, callback, args = event
                if time > max_cycles:
                    raise SimulationTimeout(
                        f"simulation passed {max_cycles} cycles without quiescing",
                        cycles=now,
                        budget=max_cycles,
                    )
                if time != now:
                    # Cycle boundary: sweep invariants over the settled
                    # cycle before the clock advances.
                    if sanitizer.enabled:
                        sanitizer.on_cycle()
                    self._time = now = time
                self._firing = event
                callback(*args)
        except SimulationTimeout:
            if METRICS.enabled:
                METRICS.inc(
                    "repro_sim_timeouts_total",
                    help="Runs that tripped the cycle-budget watchdog",
                )
            raise
        finally:
            self._firing = None
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
            time, _seq, callback, args = heappop(self._queue)
            self._time = time
            callback(*args)
        self._time = deadline
        return self._time

    @property
    def pending_events(self) -> int:
        return len(self._queue)

    def _fork(self, fork: Fork) -> "Simulator":
        """Copy the clock and the queue, each event rebound to the copy.

        Forked from inside an event handler, the copy re-queues the
        firing event, so it replays that event from its start: fork only
        before the handler has changed any state.  A disabled tracer or
        sanitizer is shared with the copy; an enabled one is copied.
        """
        new = fork.shell(self)
        if self.tracer.enabled:
            new.tracer = fork(self.tracer)
        if self.sanitizer.enabled:
            new.sanitizer = fork(self.sanitizer)
        memo, rebind, args = fork.memo, fork.method, fork.args
        queue = []
        for time, seq, callback, event_args in self._queue:
            owner = memo.get(id(getattr(callback, "__self__", None)))
            queue.append((
                time, seq,
                rebind(callback) if owner is None
                else MethodType(callback.__func__, owner),
                args(event_args) if event_args else event_args,
            ))
        new._queue = queue
        new._firing = None
        if self._firing is not None:
            time, seq, callback, event_args = self._firing
            heappush(queue, (time, seq, rebind(callback), args(event_args)))
        return new

    def release(self) -> None:
        """Drop what ties this simulator into a reference cycle: queued
        events (a run cut off by its watchdog leaves some) and the
        back-pointers of the tracer and sanitizer it created.  A
        disabled one that forks share keeps pointing at the simulator
        that created it until that simulator is released; it reads no
        clock while disabled."""
        self._queue = []
        self._firing = None
        if self.tracer.sim is self:
            self.tracer.sim = None
        if self.sanitizer.sim is self:
            self.sanitizer.sim = None
            self.sanitizer.attach(None)


class Component(Forkable):
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
        if self._wake_scheduled or self.wake_suppressed():
            return
        self._wake_scheduled = True
        self.sim.call_soon(self._run_wake)

    def _run_wake(self) -> None:
        self._wake_scheduled = False
        if self.wake_ready():
            self.on_wake()

    # -- wake hooks, overridden by components that use the facility ------
    def wake_suppressed(self) -> bool:
        """Checked at ``wake()`` time: True drops the wake entirely."""
        return False

    def wake_ready(self) -> bool:
        """Checked when the deferred wake fires: False skips ``on_wake``."""
        return True

    def on_wake(self) -> None:
        """The component's re-evaluation; default is a no-op."""

    def protocol_error(
        self, rule: str, message: str, location: Optional[Any] = None
    ) -> None:
        """Fail a load-bearing protocol check of this component (see
        :meth:`Sanitizer.protocol_error
        <repro.sanitizer.checker.Sanitizer.protocol_error>`), stamped
        with this component's cycle: forks share a disabled sanitizer,
        so the sanitizer's own simulator may be another machine's."""
        sim = self.sim
        sim.sanitizer.protocol_error(
            rule, message, component=self.name, location=location,
            cycle=sim.now,
        )

    # -- forking ---------------------------------------------------------
    def _fork(self, fork: Fork) -> "Component":
        """The shared part of every component's fork: a shallow copy on
        the forked simulator.  Subclasses copy their own mutable state."""
        new = fork.shell(self)
        new.sim = fork.memo.get(id(self.sim)) or self.sim._fork(fork)
        return new

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name}>"
