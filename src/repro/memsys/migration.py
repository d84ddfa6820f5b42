"""Process migration (Section 5.1's footnote / footnote 3).

The paper: "Re-scheduling of a process on another processor is possible
if it can be ensured that before a context switch, all previous reads of
the process have returned their values and all previous writes have been
globally performed" — and, for the Section 5.3 implementation, "a
processor is also required to stall on a context switch until its
counter reads zero."

:class:`MigrationController` implements exactly that: at a requested
cycle the source processor stops issuing; once the drain condition holds
(no pending accesses, and the source cache's outstanding-access counter
at zero so no reserve bit is left protecting in-flight work), the thread
context — registers, program counter, dynamic occurrence counts, issue
numbering — transfers to an idle target processor, which resumes the
thread against its own cache.

Operations keep the *logical* processor id (the thread's index) in the
trace, so program order, witness matching and observables are unaffected
by where the thread physically ran — only the timing and the cache
contents change, which is the point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.memsys.system import System
from repro.sim.fork import Fork, Forkable
from repro.sim.stats import StallReason


@dataclass
class MigrationRecord:
    """One completed migration."""

    thread_id: int
    from_proc: int
    to_proc: int
    requested_at: int
    drained_at: int

    @property
    def drain_cycles(self) -> int:
        return self.drained_at - self.requested_at


class MigrationError(RuntimeError):
    """The migration request is not executable."""


class MigrationController(Forkable):
    """Schedules drained context switches on a built :class:`System`.

    The target processor must be idle — built from an empty thread (use
    :func:`add_idle_processor_thread` when constructing the program) or
    already migrated away from.  Its pending steps are queued as bound
    methods, so a machine with a migration under way still forks; the
    fork gets its own controller, reached through its event queue.
    """

    def __init__(self, system: System) -> None:
        self.system = system
        self.records: List[MigrationRecord] = []

    def _fork(self, fork: Fork) -> "MigrationController":
        new = fork.shell(self)
        new.system = fork(self.system)
        new.records = list(self.records)
        return new

    def schedule(self, thread_id: int, to_proc: int, at_cycle: int) -> None:
        """Migrate ``thread_id``'s context to ``to_proc`` at ``at_cycle``."""
        system = self.system
        if not (0 <= thread_id < len(system.processors)):
            raise MigrationError(f"no processor {thread_id}")
        if not (0 <= to_proc < len(system.processors)):
            raise MigrationError(f"no processor {to_proc}")
        if to_proc == thread_id:
            raise MigrationError("source and target coincide")
        system.sim.schedule(
            at_cycle, self._begin, thread_id, to_proc, at_cycle
        )

    # ------------------------------------------------------------------
    def _begin(self, thread_id: int, to_proc: int, requested_at: int) -> None:
        system = self.system
        source = system.processors[thread_id]
        if source.halted:
            return  # nothing left to migrate
        source.begin_migration()
        system.stats.stall_begin(
            source.logical_proc, StallReason.MIGRATION_DRAIN, system.sim.now
        )
        system.sim.call_soon(self._poll, thread_id, to_proc, requested_at)

    def _poll(self, thread_id: int, to_proc: int, requested_at: int) -> None:
        """Wait out the drain a cycle at a time, then transfer."""
        system = self.system
        if not self._drained(thread_id):
            system.sim.schedule(
                1, self._poll, thread_id, to_proc, requested_at
            )
            return
        system.stats.stall_end(
            system.processors[thread_id].logical_proc,
            StallReason.MIGRATION_DRAIN,
            system.sim.now,
        )
        self._transfer(thread_id, to_proc, requested_at)

    def _drained(self, proc_id: int) -> bool:
        system = self.system
        processor = system.processors[proc_id]
        if processor.pending_accesses:
            return False
        if system.caches:
            cache = system.caches[proc_id]
            counter = getattr(cache, "counter", None)
            if counter is not None and not counter.zero:
                return False
            if cache.any_reserved():
                return False
        return True

    def _transfer(self, from_proc: int, to_proc: int, requested_at: int) -> None:
        system = self.system
        source = system.processors[from_proc]
        target = system.processors[to_proc]
        if not target.idle_for_adoption:
            raise MigrationError(
                f"target processor {to_proc} is not idle (it has its own thread)"
            )
        context = source.export_context()
        previous_identity = target.adopt_context(context)
        source.become_idle(previous_identity)
        self.records.append(
            MigrationRecord(
                thread_id=source.logical_proc,
                from_proc=from_proc,
                to_proc=to_proc,
                requested_at=requested_at,
                drained_at=system.sim.now,
            )
        )
        target.wake()
