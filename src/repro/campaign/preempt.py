"""Graceful preemption: turn SIGTERM/SIGINT into a clean campaign stop.

Long campaigns run on preemptible machines.  Without handlers, a
SIGTERM kills the process mid-batch (losing unjournaled progress and
orphaning pool workers) and a SIGINT unwinds as a ``KeyboardInterrupt``
traceback.  This module gives executors a cooperative alternative:

* :func:`graceful_preemption` installs signal handlers that *request* a
  stop (setting a :class:`PreemptionToken`) instead of raising.  The
  executors poll the token between dispatches: they stop submitting new
  work, drain or cancel in-flight runs within a deadline, and report
  every unexecuted spec as a ``preempted`` failure — data, not a crash.
  The campaign layer then flushes the journal and returns normally, so
  the process can exit with a distinct "preempted" status.
* A **second** signal escalates: the handler restores the previous
  disposition and raises ``KeyboardInterrupt``, so a user who really
  wants out is never trapped behind a graceful drain.

Handlers only install in the main thread of the main interpreter (the
only place CPython allows); everywhere else the context degrades to a
plain token that can still be requested programmatically — which is
also how tests drive preemption deterministically.
"""

from __future__ import annotations

import contextlib
import signal
import threading
from typing import Iterator, Optional

#: Exit status of a process whose campaign stopped on SIGTERM/SIGINT with
#: its journal flushed — EX_TEMPFAIL, "try again": here, by resuming
#: from the journal.
EXIT_PREEMPTED = 75


class PreemptionToken:
    """A latch flipped by a signal handler (or a test) to request stop."""

    def __init__(self) -> None:
        self._event = threading.Event()
        #: The signal number that requested preemption (None if
        #: requested programmatically).
        self.signum: Optional[int] = None

    def request(self, signum: Optional[int] = None) -> None:
        if not self._event.is_set():
            self.signum = signum
        self._event.set()

    def requested(self) -> bool:
        return self._event.is_set()


#: The innermost active token, polled by executors via
#: :func:`current_token`.
_ACTIVE: list = []


def current_token() -> Optional[PreemptionToken]:
    """The active preemption token, if a graceful context is open."""
    return _ACTIVE[-1] if _ACTIVE else None


def _in_main_thread() -> bool:
    return threading.current_thread() is threading.main_thread()


@contextlib.contextmanager
def graceful_preemption(
    signals: tuple = (signal.SIGTERM, signal.SIGINT),
) -> Iterator[PreemptionToken]:
    """Install stop-requesting handlers for the duration of a campaign.

    Nested contexts share the outermost token, so a campaign inside a
    campaign sees one coherent stop request.
    """
    if _ACTIVE:
        # Already inside a graceful region: reuse its token, install
        # nothing, and leave teardown to the outermost context.
        yield _ACTIVE[-1]
        return

    token = PreemptionToken()
    previous = {}
    if _in_main_thread():
        def _handler(signum, frame):
            if token.requested():
                # Second signal: stop being graceful.
                for sig, old in previous.items():
                    try:
                        signal.signal(sig, old)
                    except (ValueError, OSError):  # pragma: no cover
                        pass
                raise KeyboardInterrupt
            token.request(signum)

        for sig in signals:
            try:
                previous[sig] = signal.signal(sig, _handler)
            except (ValueError, OSError):  # pragma: no cover - exotic
                pass

    _ACTIVE.append(token)
    try:
        yield token
    finally:
        _ACTIVE.pop()
        for sig, old in previous.items():
            try:
                signal.signal(sig, old)
            except (ValueError, OSError):  # pragma: no cover
                pass
