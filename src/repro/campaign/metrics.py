"""Campaign-level metrics: wall-clock, throughput, completion, caching.

Every call to :func:`repro.campaign.run_campaign` produces one
:class:`CampaignMetrics` record (and so does every in-process
exploration), delivered through :func:`emit_metrics`.  Registered hooks
observe every record — the benchmark suite uses this to accumulate
per-session campaign telemetry and emit it as JSON (``BENCH_*.json``
trajectory tracking); the CLI's ``--metrics-out DIR`` uses it to write
``DIR/campaigns.json``.  With the :mod:`repro.obs` registry enabled,
every record's counts also land in the registry under one name rule:
count field ``f`` adds to ``repro_campaign_<f>_total``.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields
from typing import Callable, List, Optional

from repro.log import get_logger
from repro.obs import METRICS
from repro.trace.summary import TraceSummary

_LOG = get_logger("campaign")

#: Observers invoked with each completed campaign's metrics.
_METRICS_HOOKS: List[Callable[["CampaignMetrics"], None]] = []


@dataclass
class CampaignMetrics:
    """Operational summary of one campaign (one ``run_campaign`` call)."""

    label: str
    runs: int
    completed_runs: int
    wall_clock_seconds: float
    runs_per_second: float
    completion_rate: float
    jobs: int
    cache_hits: int = 0
    #: Cache probes that missed during this campaign (0 without a cache).
    cache_misses: int = 0
    #: Entries the cache's LRU sweep evicted during this campaign.
    cache_evictions: int = 0
    #: Resident cache bytes when the campaign finished (size-bounded
    #: caches only; 0 when the cache is unbounded or absent).
    cache_bytes: int = 0
    #: Runs that came back with a :class:`RunFailure` attached.
    failed_runs: int = 0
    #: Failed runs whose failure was a timeout (simulation cycle
    #: watchdog or wall-clock budget).
    timed_out_runs: int = 0
    #: Runs re-submitted after a transient executor failure (wall-clock
    #: timeout retries and pool-rebuild resubmissions alike).
    retried_runs: int = 0
    #: Times the worker pool was torn down and rebuilt.
    pool_rebuilds: int = 0
    #: True when repeated pool failures forced in-process execution.
    degraded: bool = False
    #: Results replayed from the campaign journal (resume) — skipped
    #: execution entirely, before the result cache was even consulted.
    journal_replayed: int = 0
    #: Results durably appended to the campaign journal this run.
    journal_appends: int = 0
    #: Runs reported as ``preempted`` (SIGTERM/SIGINT graceful stop).
    preempted_runs: int = 0
    #: True when the campaign stopped early on a preemption request.
    preempted: bool = False
    #: Failing runs examined by triage (0 when triage was off or clean).
    triaged_failures: int = 0
    #: Repro bundles triage wrote (<= distinct failure signatures).
    bundles_written: int = 0
    #: Merged per-run trace summary — present only when the campaign's
    #: specs carried a :class:`~repro.trace.tracer.TraceSpec`.
    trace_summary: Optional[TraceSummary] = None

    def to_dict(self) -> dict:
        record = asdict(self)
        record["trace_summary"] = (
            self.trace_summary.to_dict() if self.trace_summary else None
        )
        return record

    def describe(self) -> str:
        text = (
            f"[campaign {self.label}] {self.runs} runs in "
            f"{self.wall_clock_seconds:.2f}s "
            f"({self.runs_per_second:.1f} runs/s, jobs={self.jobs}, "
            f"completion {self.completion_rate:.0%}, "
            f"cache hits {self.cache_hits})"
        )
        if self.cache_misses or self.cache_evictions:
            text += (
                f" [cache: {self.cache_misses} missed, "
                f"{self.cache_evictions} evicted"
            )
            if self.cache_bytes:
                text += f", {self.cache_bytes} bytes resident"
            text += "]"
        if self.failed_runs:
            text += (
                f" [{self.failed_runs} failed, "
                f"{self.timed_out_runs} timed out]"
            )
        if self.retried_runs or self.pool_rebuilds:
            text += (
                f" [retries {self.retried_runs}, "
                f"pool rebuilds {self.pool_rebuilds}]"
            )
        if self.degraded:
            text += " [degraded to serial]"
        if self.journal_replayed or self.journal_appends:
            text += (
                f" [journal: {self.journal_replayed} replayed, "
                f"{self.journal_appends} appended]"
            )
        if self.preempted:
            text += f" [PREEMPTED: {self.preempted_runs} run(s) skipped]"
        if self.triaged_failures or self.bundles_written:
            text += (
                f" [triaged {self.triaged_failures} -> "
                f"{self.bundles_written} bundle(s)]"
            )
        if self.trace_summary is not None:
            text += (
                f" [traced: {self.trace_summary.events_recorded} events, "
                f"{self.trace_summary.total_stall_cycles} stall cycles]"
            )
        return text


def register_metrics_hook(hook: Callable[[CampaignMetrics], None]) -> None:
    """Observe every campaign's metrics until unregistered."""
    _METRICS_HOOKS.append(hook)


def unregister_metrics_hook(hook: Callable[[CampaignMetrics], None]) -> None:
    try:
        _METRICS_HOOKS.remove(hook)
    except ValueError:
        pass


def emit_metrics(metrics: CampaignMetrics) -> None:
    """Deliver a metrics record to every registered hook, the log and
    (when enabled) the metrics registry."""
    _LOG.info("%s", metrics.describe())
    for hook in list(_METRICS_HOOKS):
        hook(metrics)
    if METRICS.enabled:
        _publish(metrics)


def _publish(metrics: CampaignMetrics) -> None:
    """Fold a finished campaign's counts into the metrics registry.

    Each count field ``f`` adds to ``repro_campaign_<f>_total`` and
    each flag (``degraded``, ``preempted``) counts the campaigns that
    set it, so the flight recorder's final sample holds every count of
    the end-of-run :class:`CampaignMetrics` records.  Zero amounts are
    not published.
    """
    METRICS.inc("repro_campaign_total", help="Campaigns executed")
    for name in _PUBLISHED:
        amount = int(getattr(metrics, name))
        if amount:
            METRICS.inc(
                f"repro_campaign_{name}_total", amount,
                help=f"CampaignMetrics.{name}, summed over campaigns",
            )
    METRICS.observe(
        "repro_campaign_wall_seconds", metrics.wall_clock_seconds,
        help="Campaign wall-clock durations",
        buckets=(0.01, 0.1, 1.0, 10.0, 60.0, 600.0),
    )


#: The fields :func:`_publish` sums: every count and flag of the record
#: but ``jobs`` and ``cache_bytes``, which are levels, not amounts.
#: (``f.type`` is the annotation's text: this module defers annotations.)
_PUBLISHED = tuple(
    f.name for f in fields(CampaignMetrics)
    if f.type in ("int", "bool") and f.name not in ("jobs", "cache_bytes")
)
