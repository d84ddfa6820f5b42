"""Live campaign progress: a heartbeat on stderr while runs execute.

:class:`ProgressReporter` rides :attr:`Executor.result_callback` — the
same hook the campaign journal uses for incremental appends — so it
sees every run the moment it finishes, in completion order, without
the campaign layer growing a second notification path.  Lines are
throttled to one per ``interval`` seconds and always end with a final
summary from :meth:`finish`.

A reporter is reusable across several campaigns (one shared reporter
makes rate/ETA reflect the whole job): each ``run_campaign`` call adds
its spec count via :meth:`add_total` and reports cache/journal skips
via :meth:`note_skipped`.  The delay-bounded explorer ticks one too,
counting each schedule folded from its journal as skipped.
"""

from __future__ import annotations

import sys
import time
from typing import Optional


class ProgressReporter:
    """Throttled ``done/total (rate, ETA, cache %, failures)`` lines."""

    def __init__(
        self,
        label: str = "campaign",
        stream=None,
        interval: float = 1.0,
        total: int = 0,
    ):
        self.label = label
        self.stream = stream if stream is not None else sys.stderr
        self.interval = max(0.0, float(interval))
        self.total = total
        self.done = 0
        self.skipped = 0
        self.failed = 0
        self.lines_emitted = 0
        self._started = time.monotonic()
        # -inf so the first tick always emits, whatever the monotonic
        # clock's (host-dependent) origin.
        self._last_emit = float("-inf")

    # -- campaign wiring -------------------------------------------

    def add_total(self, count: int) -> None:
        """Another campaign's worth of specs joins this reporter."""
        self.total += count

    def note_skipped(self, count: int) -> None:
        """Runs satisfied without execution (cache hits, journal replays)."""
        if count <= 0:
            return
        self.skipped += count
        self.done += count
        self._emit()

    def tick(self, result=None) -> None:
        """One run finished; ``result`` is its RunResult (may be None)."""
        self.done += 1
        if result is not None and getattr(result, "failure", None) is not None:
            self.failed += 1
        now = time.monotonic()
        if now - self._last_emit >= self.interval:
            self._emit(now)

    def finish(self, metrics=None) -> None:
        """Always-emitted closing line; ``metrics`` adds the summary."""
        self._emit(final=True)
        if metrics is not None:
            print(f"[{self.label}] {metrics.describe()}",
                  file=self.stream, flush=True)

    # -- rendering --------------------------------------------------

    def _emit(self, now: Optional[float] = None, final: bool = False) -> None:
        now = now if now is not None else time.monotonic()
        self._last_emit = now
        elapsed = max(now - self._started, 1e-9)
        rate = self.done / elapsed
        parts = [f"[{self.label}]"]
        if self.total:
            pct = 100.0 * self.done / self.total
            parts.append(f"{self.done}/{self.total} ({pct:.0f}%)")
        else:
            parts.append(f"{self.done} runs")
        parts.append(f"{rate:.1f} runs/s")
        executed = self.done - self.skipped
        if self.total and not final and rate > 0:
            # ETA from the *execution* rate: skipped runs were free.
            exec_rate = executed / elapsed if executed else rate
            remaining = self.total - self.done
            if remaining > 0 and exec_rate > 0:
                parts.append(f"eta {remaining / exec_rate:.0f}s")
        if self.skipped:
            share = 100.0 * self.skipped / max(self.done, 1)
            parts.append(f"cached/replayed {self.skipped} ({share:.0f}%)")
        if self.failed:
            parts.append(f"failed {self.failed}")
        if final:
            parts.append(f"done in {elapsed:.1f}s")
        print(" ".join(parts), file=self.stream, flush=True)
        self.lines_emitted += 1


def coerce_progress(progress, label: str):
    """``(reporter, owned)`` from a ``progress=`` argument.

    ``True`` builds a fresh stderr reporter the caller owns (and must
    ``finish``); a :class:`ProgressReporter` instance is shared and
    left open; anything falsy disables progress.
    """
    if progress is True:
        return ProgressReporter(label=label), True
    if progress:
        return progress, False
    return None, False
