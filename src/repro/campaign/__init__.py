"""repro.campaign — the unified RunSpec -> RunResult pipeline.

A campaign is a batch of independent hardware runs.  This package owns
the one seed loop in the codebase and everything around it:

* :class:`RunSpec` / :class:`RunResult` — the picklable unit of work and
  its deterministic outcome (``repro.campaign.spec``);
* :class:`Executor` with :class:`SerialExecutor` and the process-pool
  :class:`ParallelExecutor` (``repro.campaign.executor``);
* :class:`ResultCache` — on-disk memoisation keyed by spec content hash
  (``repro.campaign.cache``);
* :func:`run_campaign` + :class:`CampaignMetrics` hooks — execution with
  wall-clock/throughput/completion telemetry (``repro.campaign.api``,
  ``repro.campaign.metrics``).

The litmus runner, conformance grid, systematic explorer, quantitative
sweeps, CLI (``--jobs``), and benchmark scripts all build specs and call
:func:`run_campaign`; none of them loops over seeds itself.
"""

from repro.campaign.api import CampaignResult, run_campaign
from repro.campaign.cache import ResultCache
from repro.campaign.executor import (
    Executor,
    ParallelExecutor,
    SerialExecutor,
    default_executor,
    preempted_result,
)
from repro.campaign.journal import (
    CampaignJournal,
    JournalError,
    campaign_digest,
    open_journal,
)
from repro.campaign.preempt import (
    EXIT_PREEMPTED,
    PreemptionToken,
    current_token,
    graceful_preemption,
)
from repro.campaign.metrics import (
    CampaignMetrics,
    emit_metrics,
    register_metrics_hook,
    unregister_metrics_hook,
)
from repro.campaign.spec import (
    DETERMINISTIC_FAILURES,
    FAILURE_KINDS,
    PolicySpec,
    RunFailure,
    RunMetrics,
    RunResult,
    RunSpec,
    execute_spec_guarded,
    program_fingerprint,
)

__all__ = [
    "CampaignJournal",
    "CampaignMetrics",
    "CampaignResult",
    "DETERMINISTIC_FAILURES",
    "EXIT_PREEMPTED",
    "Executor",
    "FAILURE_KINDS",
    "JournalError",
    "ParallelExecutor",
    "PolicySpec",
    "PreemptionToken",
    "ResultCache",
    "RunFailure",
    "RunMetrics",
    "RunResult",
    "RunSpec",
    "SerialExecutor",
    "campaign_digest",
    "current_token",
    "default_executor",
    "emit_metrics",
    "execute_spec_guarded",
    "graceful_preemption",
    "open_journal",
    "preempted_result",
    "program_fingerprint",
    "register_metrics_hook",
    "run_campaign",
    "unregister_metrics_hook",
]
