"""The tracer: low-overhead structured event recording for a simulation.

Every :class:`~repro.sim.engine.Simulator` owns one :class:`Tracer`,
created *disabled*.  The overhead contract, relied on by the benchmark
acceptance criteria, is:

* **disabled** — every instrumentation site costs one attribute load and
  one falsy branch (``if tracer.enabled:``); no event object, no
  formatting, no allocation;
* **enabled** — one :class:`TraceEvent` construction and one append per
  event, with category filtering applied *before* construction via
  :meth:`Tracer.wants`.

A bounded **ring-buffer mode** keeps long runs tractable: with
``ring=N`` only the newest ``N`` events are retained and the number of
dropped events is counted, so summaries can report truncation honestly.

:class:`TraceSpec` is the picklable request form that rides inside a
:class:`~repro.campaign.spec.RunSpec`: it says *that* tracing is wanted
and how (categories, ring bound, whether full events and/or the distilled
:class:`~repro.trace.summary.TraceSummary` should come back).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, List, Optional, Tuple

from repro.trace.events import CATEGORIES, TraceEvent

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Simulator


@dataclass(frozen=True)
class TraceSpec:
    """A picklable request to trace a run.

    Attributes:
        categories: categories to record (``None`` = all of
            :data:`~repro.trace.events.CATEGORIES`).
        ring: retain only the newest ``ring`` events (``None`` =
            unbounded).
        events: return the full event tuple on the result.
        summary: return a :class:`~repro.trace.summary.TraceSummary`.
    """

    categories: Optional[Tuple[str, ...]] = None
    ring: Optional[int] = None
    events: bool = True
    summary: bool = True

    @classmethod
    def parse_filter(cls, text: Optional[str], **kwargs) -> "TraceSpec":
        """Build a spec from a ``--trace-filter`` string.

        ``text`` is a comma-separated category list; empty/None means
        all categories.  Unknown categories raise ``ValueError`` so CLI
        typos fail loudly instead of producing silently empty traces.
        """
        if not text:
            return cls(categories=None, **kwargs)
        names = tuple(part.strip() for part in text.split(",") if part.strip())
        unknown = [name for name in names if name not in CATEGORIES]
        if unknown:
            raise ValueError(
                f"unknown trace categories {unknown}; "
                f"choose from {', '.join(CATEGORIES)}"
            )
        return cls(categories=names, **kwargs)


class Tracer:
    """Collects :class:`TraceEvent` records for one simulation."""

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim
        #: The one-branch guard every instrumentation site checks first.
        self.enabled = False
        self._categories: Optional[frozenset] = None
        self._ring: Optional[int] = None
        self._events: "deque[TraceEvent]" = deque()
        #: Events discarded by the ring bound (0 when unbounded).
        self.dropped = 0
        self._flow_counter = 0

    # ------------------------------------------------------------------
    # Configuration
    # ------------------------------------------------------------------
    def enable(
        self,
        categories: Optional[Iterable[str]] = None,
        ring: Optional[int] = None,
    ) -> None:
        """Start recording (idempotent; reconfigures on repeat calls)."""
        self._categories = frozenset(categories) if categories is not None else None
        if ring is not None and ring < 1:
            raise ValueError(f"ring bound must be >= 1, got {ring}")
        self._ring = ring
        self._events = deque(self._events, maxlen=ring)
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def configure(self, spec: TraceSpec) -> None:
        """Enable per a :class:`TraceSpec`."""
        self.enable(categories=spec.categories, ring=spec.ring)

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def wants(self, category: str) -> bool:
        """Cheap pre-check so filtered sites skip event construction."""
        return self.enabled and (
            self._categories is None or category in self._categories
        )

    def emit(
        self,
        category: str,
        name: str,
        phase: str = "I",
        track: str = "",
        args: Tuple[Tuple[str, object], ...] = (),
        flow_id: Optional[int] = None,
    ) -> None:
        if not self.wants(category):
            return
        if self._ring is not None and len(self._events) == self._ring:
            self.dropped += 1
        self._events.append(
            TraceEvent(
                time=self.sim.now,
                category=category,
                name=name,
                phase=phase,
                track=track,
                args=args,
                flow_id=flow_id,
            )
        )

    def begin(self, category: str, name: str, track: str,
              args: Tuple[Tuple[str, object], ...] = ()) -> None:
        self.emit(category, name, phase="B", track=track, args=args)

    def end(self, category: str, name: str, track: str,
            args: Tuple[Tuple[str, object], ...] = ()) -> None:
        self.emit(category, name, phase="E", track=track, args=args)

    def next_flow_id(self) -> int:
        """A fresh id linking a send event to its delivery event."""
        self._flow_counter += 1
        return self._flow_counter

    # ------------------------------------------------------------------
    # Extraction
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._events)

    def snapshot(self) -> Tuple[TraceEvent, ...]:
        """The recorded events, oldest first (ring-truncated if bounded)."""
        return tuple(self._events)

    def tail(self, count: int) -> Tuple[TraceEvent, ...]:
        """The last ``count`` recorded events, oldest first.

        The deadlock diagnosis uses this for its trace excerpt: the
        final moments before a watchdog trip, without copying the whole
        (possibly unbounded) stream.
        """
        if count <= 0:
            return ()
        events = self._events
        if len(events) <= count:
            return tuple(events)
        from itertools import islice

        return tuple(islice(events, len(events) - count, None))

    def _fork(self, fork) -> "Tracer":
        """Copy for a :class:`~repro.sim.fork.Fork` of the simulator
        (forkable by protocol: this module sits below ``repro.sim``)."""
        new = fork.shell(self)
        new.sim = fork(self.sim)
        new._events = deque(self._events, maxlen=self._ring)
        return new

    def drain(self) -> Tuple[TraceEvent, ...]:
        """Snapshot and clear, for incremental consumers."""
        events = tuple(self._events)
        self._events.clear()
        return events
