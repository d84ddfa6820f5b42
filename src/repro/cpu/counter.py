"""The RP3-style outstanding-access counter (Section 5.3).

"A counter (similar to one used in RP3) that is initialized to zero is
associated with every processor ... a positive value on a counter
indicates the number of outstanding accesses of the corresponding
processor."  The counter is incremented on every cache miss and
decremented when the miss resolves (line receipt) or when a memory ack
reports a shared-line write globally performed.  Reserve bits are cleared
— and stalled synchronization requests serviced — "when the counter
reads zero", which is exposed here as one-shot zero callbacks.

A decrement below zero means the protocol double-completed an access (or
completed one it never issued) and raises :class:`CounterUnderflow` with
the owning component, cycle, and offending access — a real exception, not
an ``assert`` that vanishes under ``python -O``.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.sim.fork import Fork, Forkable


def _describe_context(context: object) -> str:
    """Short human-readable form of the access that triggered an error."""
    kind = getattr(context, "kind", None)
    location = getattr(context, "location", None)
    if kind is not None and location is not None:
        kind_name = getattr(kind, "value", kind)
        proc = getattr(context, "proc", "?")
        return f"{kind_name} on {location!r} (proc {proc})"
    return str(context)


class CounterUnderflow(RuntimeError):
    """An outstanding-access counter was decremented below zero.

    The bracketed ``[counter-underflow]`` message prefix is the rule tag
    the triage layer's failure signatures key on.
    """

    def __init__(
        self,
        owner: str,
        cycle: Optional[int] = None,
        context: Optional[object] = None,
    ) -> None:
        where = owner or "counter"
        at = f" at cycle {cycle}" if cycle is not None else ""
        detail = (
            f" while completing {_describe_context(context)}"
            if context is not None
            else ""
        )
        super().__init__(
            f"[counter-underflow] {where}: outstanding-access counter "
            f"decremented below zero{at}{detail}"
        )
        self.owner = owner
        self.cycle = cycle
        self.context = context


class OutstandingCounter(Forkable):
    """Counts outstanding accesses; fires callbacks on reaching zero.

    ``owner`` names the component the counter belongs to and ``clock``
    (a zero-argument callable returning the current cycle) timestamps
    :class:`CounterUnderflow` diagnostics; both are optional so the
    counter stays usable standalone in tests.  Inside a machine the
    clock, the zero callbacks and the observer are bound methods, so
    the counter forks with it.
    """

    def __init__(
        self,
        owner: str = "",
        clock: Optional[Callable[[], int]] = None,
    ) -> None:
        self.owner = owner
        self._clock = clock
        self._value = 0
        self._on_zero: List[Callable[[], None]] = []
        #: Optional observer called with the new value after every
        #: increment/decrement — the trace layer's counter telemetry hook.
        self.observer: Optional[Callable[[int], None]] = None

    def _fork(self, fork: Fork) -> "OutstandingCounter":
        new = fork.shell(self)
        method = fork.method
        if self._clock is not None:
            new._clock = method(self._clock)
        new._on_zero = (
            [method(callback) for callback in self._on_zero]
            if self._on_zero else []
        )
        if self.observer is not None:
            new.observer = method(self.observer)
        return new

    @property
    def value(self) -> int:
        return self._value

    @property
    def zero(self) -> bool:
        return self._value == 0

    def increment(self) -> None:
        self._value += 1
        if self.observer is not None:
            self.observer(self._value)

    def decrement(self, context: Optional[object] = None) -> None:
        """Complete one outstanding access.

        ``context`` (typically the completing
        :class:`~repro.cpu.access.MemoryAccess`) is only touched on the
        failure path, where it is folded into the
        :class:`CounterUnderflow` message.
        """
        if self._value <= 0:
            raise CounterUnderflow(
                self.owner,
                cycle=self._clock() if self._clock is not None else None,
                context=context,
            )
        self._value -= 1
        if self.observer is not None:
            self.observer(self._value)
        if self._value == 0:
            callbacks, self._on_zero = self._on_zero, []
            for callback in callbacks:
                callback()

    def when_zero(self, callback: Callable[[], None]) -> None:
        """Run ``callback`` when the counter next reads zero.

        Fires immediately if the counter is already zero; otherwise
        one-shot on the transition to zero.
        """
        if self._value == 0:
            callback()
        else:
            self._on_zero.append(callback)
