"""The campaign entry point: a batch of specs through an executor.

:func:`run_campaign` is the one seed loop in the codebase.  Everything
that used to iterate ``for seed in seed_stream(...)`` privately — the
litmus runner, the conformance grid, the quantitative sweeps, the CLI,
the benchmark scripts — now builds a list of specs and hands it here,
gaining parallelism, result caching, and metrics for free.

A campaign never aborts on a bad run: failures (crashes, simulation
watchdog trips, wall-clock timeouts, lost workers) come back as
:class:`~repro.campaign.spec.RunFailure` records inside their
``RunResult`` slot, so partial results are always returned in spec
order and :meth:`CampaignResult.failure_report` says what went wrong.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, List, Optional, Tuple, Union

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from repro.sanitizer.triage import TriageConfig, TriageReport

from repro.campaign.cache import ResultCache
from repro.campaign.executor import Executor, default_executor
from repro.campaign.journal import CampaignJournal, campaign_digest, open_journal
from repro.campaign.metrics import CampaignMetrics, emit_metrics
from repro.campaign.spec import (
    DETERMINISTIC_FAILURES,
    RunFailure,
    RunResult,
    RunSpec,
)
from repro.obs import ProgressReporter, coerce_progress
from repro.trace.summary import TraceSummary


@dataclass
class CampaignResult:
    """Results in spec order plus the campaign's operational metrics."""

    results: List[RunResult] = field(default_factory=list)
    metrics: Optional[CampaignMetrics] = None
    #: Set when the campaign ran with triage enabled.
    triage: Optional["TriageReport"] = None

    def __iter__(self):
        return iter(self.results)

    def __len__(self) -> int:
        return len(self.results)

    @property
    def failures(self) -> List[Tuple[int, RunFailure]]:
        """``(spec index, failure)`` for every failed run, in spec order."""
        return [
            (i, r.failure)
            for i, r in enumerate(self.results)
            if r.failure is not None
        ]

    @property
    def ok(self) -> bool:
        """True when every run completed without a failure record."""
        return all(r.failure is None and r.completed for r in self.results)

    @property
    def preempted(self) -> bool:
        """True when the campaign stopped early on SIGTERM/SIGINT."""
        return self.metrics is not None and self.metrics.preempted

    def failure_report(self) -> str:
        """A human-readable summary of every failed run (empty if none)."""
        lines = [
            f"run #{i}: {failure.describe()}" for i, failure in self.failures
        ]
        return "\n".join(lines)


def _journalable(result: RunResult) -> bool:
    """Only results that are pure functions of their spec are recorded;
    environment-dependent failures (timeouts, lost workers, preemption)
    must be re-attempted by a resumed campaign."""
    return result.failure is None or (
        result.failure.kind in DETERMINISTIC_FAILURES
    )


def run_campaign(
    specs: Iterable[RunSpec],
    executor: Optional[Executor] = None,
    jobs: int = 1,
    cache: Optional[ResultCache] = None,
    label: str = "campaign",
    run_timeout: Optional[float] = None,
    retries: int = 2,
    triage: Optional["TriageConfig"] = None,
    journal: Union[CampaignJournal, str, Path, None] = None,
    progress: Union[bool, ProgressReporter, None] = None,
) -> CampaignResult:
    """Execute every spec; results come back in spec order.

    Args:
        executor: execution strategy; defaults to
            ``default_executor(jobs, run_timeout, retries)`` (serial
            unless ``jobs > 1``).
        cache: optional on-disk result cache — hits skip execution,
            misses are executed and stored.  Only successes and
            *deterministic* failures (exceptions, simulation timeouts)
            are stored; environment-dependent failures (wall-clock
            timeouts, lost workers) are always re-attempted next time.
            With a ``journal``, an entry is written once its journal
            record is durable and is not fsync'd again; without one,
            each entry is fsync'd on its own.
        label: tag carried on the emitted :class:`CampaignMetrics`.
        run_timeout: per-run wall-clock budget in seconds (parallel
            executors only; ignored when ``executor`` is supplied).
        retries: transient-failure retry budget per run (ditto).
        triage: optional :class:`~repro.sanitizer.triage.TriageConfig`;
            when set, failing runs are deduplicated by failure
            signature, shrunk, and written as replayable repro bundles
            into the configured directory (see
            :func:`repro.sanitizer.triage.triage_failures`).
        journal: optional durable progress journal — a
            :class:`CampaignJournal` or a path.  Every completed run is
            appended (fsync'd) as it finishes; specs whose digests the
            journal already holds are *replayed* without execution, so
            pointing a killed campaign at its journal resumes it with
            byte-identical final results.  Caching rules mirror
            ``cache``: only deterministic outcomes are journaled.
        progress: live heartbeat on stderr.  ``True`` builds a
            :class:`~repro.obs.ProgressReporter` for this campaign; an
            existing reporter is shared (so several campaigns can count
            on one) and left for its owner to ``finish``.  Progress
            rides the same ``result_callback`` hook the journal uses.
    """
    spec_list = list(specs)
    own_executor = executor is None
    executor = executor or default_executor(
        jobs, run_timeout=run_timeout, retries=retries
    )
    own_journal = journal is not None and not isinstance(
        journal, CampaignJournal
    )
    journal = open_journal(journal)
    reporter, own_reporter = coerce_progress(progress, label)
    if reporter is not None:
        reporter.add_total(len(spec_list))
    started = time.perf_counter()

    results: List[Optional[RunResult]] = [None] * len(spec_list)
    cache_hits = 0
    journal_replayed = 0
    journal_appends = 0
    digests: Optional[List[str]] = None
    cache_before = (
        (cache.misses, cache.evictions) if cache is not None else (0, 0)
    )

    def record(index: int, result: RunResult) -> None:
        nonlocal journal_appends
        if journal is not None and _journalable(result):
            if journal.record(digests[index], result):
                journal_appends += 1

    try:
        pending = list(range(len(spec_list)))
        if journal is not None:
            digests = [spec.digest() for spec in spec_list]
            journal.begin_campaign(
                label, campaign_digest(digests), len(spec_list)
            )
            remaining: List[int] = []
            for i in pending:
                replayed = journal.replayed.get(digests[i])
                if replayed is not None:
                    results[i] = replayed
                    journal_replayed += 1
                else:
                    remaining.append(i)
            pending = remaining
        if cache is not None:
            remaining = []
            for i in pending:
                hit = cache.get(spec_list[i])
                if hit is not None:
                    results[i] = hit
                    cache_hits += 1
                    record(i, hit)
                else:
                    remaining.append(i)
            pending = remaining
        if reporter is not None:
            reporter.note_skipped(len(spec_list) - len(pending))
        if pending:
            if journal is not None or reporter is not None:
                # Journal each result the moment it is final, so a kill
                # mid-batch loses at most the in-flight runs.  The
                # batch-end loop below re-records idempotently, which
                # also covers custom executors that ignore the callback.
                # The progress heartbeat rides the same hook.
                index_of = list(pending)

                def _on_result(pos: int, result: RunResult) -> None:
                    record(index_of[pos], result)
                    if reporter is not None:
                        reporter.tick(result)

                executor.result_callback = _on_result
            try:
                fresh = executor.map([spec_list[i] for i in pending])
            finally:
                executor.result_callback = None
            for i, result in zip(pending, fresh):
                record(i, result)
                if cache is not None and _journalable(result):
                    # The journal's fsync is the durability point: an
                    # entry whose record is durable skips its own.
                    durable = journal is not None and journal.durable(
                        digests[i]
                    )
                    cache.put(spec_list[i], result, fsync=not durable)
                results[i] = result
    finally:
        try:
            if journal is not None:
                journal.sync()
                if own_journal:
                    journal.close()
        finally:
            if own_executor:
                executor.close()

    wall = time.perf_counter() - started
    completed = sum(1 for r in results if r is not None and r.completed)
    failed = [r for r in results if r is not None and r.failure is not None]

    triage_report = None
    if triage is not None:
        from repro.sanitizer.triage import triage_failures

        triage_report = triage_failures(
            spec_list, results, triage, label=label
        )

    metrics = CampaignMetrics(
        label=label,
        runs=len(spec_list),
        completed_runs=completed,
        wall_clock_seconds=wall,
        runs_per_second=(len(spec_list) / wall) if wall > 0 else 0.0,
        completion_rate=(completed / len(spec_list)) if spec_list else 1.0,
        jobs=executor.jobs,
        cache_hits=cache_hits,
        cache_misses=(
            cache.misses - cache_before[0] if cache is not None else 0
        ),
        cache_evictions=(
            cache.evictions - cache_before[1] if cache is not None else 0
        ),
        cache_bytes=(
            cache.bytes_on_disk()
            if cache is not None and cache.max_bytes is not None
            else 0
        ),
        failed_runs=len(failed),
        timed_out_runs=sum(
            1 for r in failed
            if r.failure.kind in ("sim-timeout", "wall-timeout")
        ),
        retried_runs=getattr(executor, "retried_runs", 0),
        pool_rebuilds=getattr(executor, "pool_rebuilds", 0),
        degraded=getattr(executor, "degraded", False),
        journal_replayed=journal_replayed,
        journal_appends=journal_appends,
        preempted_runs=sum(
            1 for r in failed if r.failure.kind == "preempted"
        ),
        preempted=any(r.failure.kind == "preempted" for r in failed),
        triaged_failures=(
            triage_report.failures_seen if triage_report is not None else 0
        ),
        bundles_written=(
            triage_report.bundles_written if triage_report is not None else 0
        ),
        trace_summary=TraceSummary.merged(
            r.trace_summary
            for r in results
            if r is not None and r.trace_summary is not None
        ),
    )
    emit_metrics(metrics)
    if reporter is not None and own_reporter:
        reporter.finish(metrics)
    return CampaignResult(
        results=results, metrics=metrics, triage=triage_report
    )
