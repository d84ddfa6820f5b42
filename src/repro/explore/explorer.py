"""Delay-bounded systematic exploration of hardware schedules.

Seed campaigns sample the space of message timings; this explorer walks
it *systematically*.  A schedule is a decision string for the
:class:`~repro.explore.oracle.ReplayOracle`; the default (all-zero)
string is the FIFO schedule and a decision ``j > 0`` at a choice point
costs ``j`` "delays".  With a delay budget ``d``, the explorer
enumerates every schedule whose total cost is at most ``d``, re-running
the machine once per schedule — the delay-bounded scheduling idea of
Emmi et al., which finds the overwhelming majority of ordering bugs at
tiny budgets.

Each run is deterministic (the scheduled interconnect removes all
timing randomness and processors start unskewed), so the search is a
pure tree walk: explore a prefix, read the oracle's log to see where
later choice points had more than one eligible message, and branch
there.  Branching always happens at the *first deviation after the
prefix*, so no schedule is executed twice.

Within the budget, :func:`explore_program` returns the exact set of
reachable observables — for small programs and ample budgets, a proof
(not a sample) that, say, DEF2 admits no SC violation for a DRF0
program.
"""

from __future__ import annotations

import base64
import pickle
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Set, Tuple, Union

from repro.campaign import (
    CampaignJournal,
    Executor,
    JournalError,
    PolicySpec,
    RunSpec,
    open_journal,
    program_fingerprint,
)
from repro.core.execution import Observable
from repro.core.program import Program
from repro.explore.prune import (
    conflict_free_locations,
    decision_redundant,
    supports_message_pruning,
)
from repro.memsys.config import MachineConfig, NET_CACHE
from repro.models.base import OrderingPolicy
from repro.obs import METRICS, coerce_progress
from repro.trace.events import TraceEvent
from repro.trace.tracer import TraceSpec


@dataclass
class ExplorationReport:
    """Outcome of a systematic exploration."""

    program: Program
    policy_name: str
    max_delays: int
    runs: int
    #: Observable -> number of schedules producing it.
    outcomes: Dict[Observable, int] = field(default_factory=dict)
    #: True only once the walk *completed*: every schedule within the
    #: budget was executed or pruned as provably redundant.  Starts
    #: pessimistically False — a truncated or aborted search can never
    #: masquerade as a proof.
    exhausted: bool = False
    #: True when the walk stopped early on a preemption request
    #: (SIGTERM/SIGINT); resume from the journal to continue it.
    preempted: bool = False
    incomplete_runs: int = 0
    #: Delay decisions skipped because the deviating message provably
    #: commutes with every message it would overtake; each one collapses
    #: a whole schedule subtree that could only replay already-reachable
    #: observables (so ``exhausted`` still means proof).
    pruned_decisions: int = 0
    #: ``(label, events)`` per traced schedule, labelled by its decision
    #: string — present only when exploring with a ``trace`` spec.
    run_traces: List[Tuple[str, Tuple[TraceEvent, ...]]] = field(
        default_factory=list
    )

    @property
    def observables(self) -> Set[Observable]:
        return set(self.outcomes)

    def describe(self) -> str:
        status = "exhaustive" if self.exhausted else "TRUNCATED"
        if self.preempted:
            status = "PREEMPTED (resumable)"
        lines = [
            f"{self.program.name} / {self.policy_name}: {self.runs} schedules "
            f"(delay bound {self.max_delays}, {status}), "
            f"{len(self.outcomes)} distinct outcome(s)"
        ]
        for outcome, count in sorted(
            self.outcomes.items(), key=lambda kv: -kv[1]
        ):
            lines.append(f"  {count:5d}x {outcome.describe()}")
        if self.pruned_decisions:
            lines.append(
                f"  ({self.pruned_decisions} redundant delay decision(s) "
                "pruned as commuting)"
            )
        if self.incomplete_runs:
            lines.append(f"  ({self.incomplete_runs} schedules did not complete)")
        return "\n".join(lines)


#: Checkpoint kind under which the explorer snapshots its state.
FRONTIER_CHECKPOINT = "explore-frontier"


def _snapshot_frontier(
    report: ExplorationReport, frontier: List[Tuple[int, ...]]
) -> str:
    """Serialize the pending frontier + accumulated report state.

    Pickled (observables are value objects, not JSON) and base64'd so
    the whole snapshot rides inside one JSONL checkpoint record.
    """
    state = {
        "frontier": list(frontier),
        "runs": report.runs,
        "outcomes": report.outcomes,
        "incomplete_runs": report.incomplete_runs,
        "pruned_decisions": report.pruned_decisions,
        "run_traces": report.run_traces,
    }
    return base64.b64encode(pickle.dumps(state)).decode("ascii")


def _restore_frontier(
    blob: str, report: ExplorationReport
) -> List[Tuple[int, ...]]:
    """Inverse of :func:`_snapshot_frontier`; mutates ``report``."""
    state = pickle.loads(base64.b64decode(blob.encode("ascii")))
    report.runs = state["runs"]
    report.outcomes = state["outcomes"]
    report.incomplete_runs = state["incomplete_runs"]
    report.pruned_decisions = state["pruned_decisions"]
    report.run_traces = state["run_traces"]
    return [tuple(prefix) for prefix in state["frontier"]]


def explore_program(
    program: Program,
    policy_factory: Callable[[], OrderingPolicy],
    *,
    max_delays: int = 2,
    config: Optional[MachineConfig] = None,
    max_runs: int = 20_000,
    max_cycles: int = 200_000,
    relaxed_request_channels: bool = False,
    inval_virtual_channel: bool = False,
    executor: Optional[Executor] = None,
    jobs: int = 1,
    trace: Optional[TraceSpec] = None,
    sanitize: Optional[str] = None,
    prune: bool = True,
    journal: Union[CampaignJournal, str, Path, None] = None,
    resume: bool = False,
    progress=None,
) -> ExplorationReport:
    """Enumerate all delay-bounded schedules of ``program``.

    The re-execution search runs through :mod:`repro.campaign`: each
    wave of pending schedule prefixes becomes a batch of
    :class:`~repro.campaign.spec.RunSpec` (with ``schedule`` set), so
    the frontier executes in parallel under a parallel executor while
    branching stays a pure function of each run's own oracle log —
    serial and parallel exploration visit the identical schedule set.

    Args:
        policy_factory: zero-argument policy constructor.
        max_delays: total delay budget per schedule (0 = FIFO only).
        config: machine configuration; timing fields are ignored (the
            scheduled interconnect replaces them) but cache structure is
            honoured.  Defaults to the cache-coherent machine.
        max_runs: safety bound on executed schedules.
        relaxed_request_channels: drop per-channel FIFO for cache->dir
            requests — the paper's unrestricted network.  A single
            blocking directory plus virtual-channel FIFO partially
            subsumes condition 5 (requests can never bypass one another
            to the serialization point), so necessity experiments for
            the reserve bit must relax it.
        executor/jobs: campaign execution strategy for each wave.
        trace: record each schedule's event stream onto the report's
            ``run_traces`` (labelled by decision string).
        sanitize: run every schedule under the protocol sanitizer
            (``"log"`` or ``"strict"``) — systematic exploration plus
            invariant checking covers corner schedules random seeds
            rarely reach.
        prune: skip delay decisions whose deviating message provably
            commutes with every message it overtakes (see
            :mod:`repro.explore.prune`); the outcome set is unchanged
            and skipped subtrees are counted on the report.  Pruning is
            automatically disabled on machines where message
            independence does not hold (bounded cache capacity).
        journal: optional durable campaign journal.  Per-schedule
            results append as they complete, and the pending decision
            frontier plus accumulated report state snapshot into a
            checkpoint at every wave boundary, so a killed exploration
            resumes *mid-wave*: completed schedules replay from the
            journal, only the remainder re-execute.
        resume: continue from ``journal``'s latest frontier checkpoint
            (the journal must exist and must describe the same
            program/policy/budget — anything else raises
            :class:`~repro.campaign.journal.JournalError`).
        progress: live heartbeat on stderr (``True`` or a
            :class:`~repro.obs.ProgressReporter`).  One reporter spans
            every wave, so rate and counts reflect the whole
            exploration rather than a single campaign.
    """
    from repro.api import campaign as run_campaign

    config = (config or NET_CACHE).with_overrides(start_skew=0)
    policy_spec = PolicySpec.of(policy_factory)
    message_pruning = prune and supports_message_pruning(config)
    conflict_free = (
        conflict_free_locations(program) if message_pruning else frozenset()
    )

    report = ExplorationReport(
        program=program,
        policy_name=policy_spec.name,
        max_delays=max_delays,
        runs=0,
    )

    # Durable resume: the identity ties a journal to one search, so a
    # frontier snapshot can never silently continue a different one.
    journal_obj = open_journal(journal, resume=resume)
    identity = {
        "program": program_fingerprint(program),
        "policy": policy_spec.name,
        "params": repr(policy_spec.params),
        "core": policy_spec.core,
        "config": repr(config),
        "max_delays": max_delays,
        "max_cycles": max_cycles,
        "relaxed_request_channels": relaxed_request_channels,
        "inval_virtual_channel": inval_virtual_channel,
        "sanitize": sanitize,
        "prune": bool(message_pruning),
    }

    # Work list of decision prefixes; each prefix's last entry is its
    # deviation point, so extending only *after* the prefix guarantees
    # each schedule runs exactly once.
    frontier: List[Tuple[int, ...]] = [()]
    if journal_obj is not None and resume:
        checkpoint = journal_obj.last_checkpoint(FRONTIER_CHECKPOINT)
        if checkpoint is not None:
            payload = checkpoint["payload"]
            if payload.get("identity") != identity:
                raise JournalError(
                    "cannot resume: the journal's frontier checkpoint "
                    "belongs to a different exploration (program, "
                    "policy, budget, or machine changed)"
                )
            frontier = _restore_frontier(payload["state"], report)

    reporter, own_reporter = coerce_progress(
        progress, f"explore:{program.name}:{policy_spec.name}"
    )
    truncated = False
    try:
        truncated = _explore_waves(
            report, frontier, journal_obj, identity, run_campaign,
            program, policy_spec, config, max_runs, max_cycles,
            relaxed_request_channels, inval_virtual_channel, trace,
            sanitize, executor, jobs, max_delays, message_pruning,
            conflict_free, reporter,
        )
    finally:
        if reporter is not None and own_reporter:
            reporter.finish()
        if journal_obj is not None and not isinstance(
            journal, CampaignJournal
        ):
            # We opened it from a path; close it even when a wave is
            # unwound by an exception (the fsync'd records and the
            # wave-top checkpoint are already durable).
            journal_obj.close()
    report.exhausted = not truncated and not report.preempted
    return report


def _explore_waves(
    report: ExplorationReport,
    frontier: List[Tuple[int, ...]],
    journal_obj: Optional[CampaignJournal],
    identity: dict,
    run_campaign,
    program: Program,
    policy_spec: PolicySpec,
    config: MachineConfig,
    max_runs: int,
    max_cycles: int,
    relaxed_request_channels: bool,
    inval_virtual_channel: bool,
    trace,
    sanitize: Optional[str],
    executor,
    jobs: int,
    max_delays: int,
    message_pruning: bool,
    conflict_free,
    reporter=None,
) -> bool:
    """The wave loop of :func:`explore_program`; returns ``truncated``."""
    truncated = False
    waves = 0
    while frontier:
        if journal_obj is not None:
            # Snapshot *before* popping the wave: the checkpoint plus
            # the per-result journal records reconstruct any point
            # inside the wave (completed schedules replay by digest).
            journal_obj.checkpoint(
                FRONTIER_CHECKPOINT,
                {
                    "identity": identity,
                    "state": _snapshot_frontier(report, frontier),
                },
            )
        remaining = max_runs - report.runs
        if remaining <= 0:
            truncated = True
            break
        batch, frontier = frontier[:remaining], frontier[remaining:]
        specs = [
            RunSpec(
                program=program,
                policy=policy_spec,
                config=config,
                seed=0,
                max_cycles=max_cycles,
                schedule=prefix,
                relaxed_request_channels=relaxed_request_channels,
                inval_virtual_channel=inval_virtual_channel,
                trace=trace,
                sanitize=sanitize,
            )
            for prefix in batch
        ]
        waves += 1
        if METRICS.enabled:
            METRICS.inc("repro_explore_waves_total",
                        help="Explorer waves executed")
            METRICS.set_gauge("repro_explore_frontier_size",
                              len(batch) + len(frontier),
                              help="Pending schedule prefixes at wave start")
        pruned_before = report.pruned_decisions
        campaign = run_campaign(
            specs, executor=executor, jobs=jobs,
            label=f"explore:{program.name}:{policy_spec.name}",
            journal=journal_obj, progress=reporter,
        )
        if campaign.preempted:
            # Put the wave back: completed schedules are journaled (and
            # will replay on resume); preempted slots carry no choice
            # log and must re-execute, so none of this wave's results
            # can be folded into the report yet.
            frontier = batch + frontier
            report.preempted = True
            break
        for prefix, result in zip(batch, campaign.results):
            report.runs += 1
            if result.trace_events is not None:
                label = (
                    "schedule:" + ",".join(map(str, prefix))
                    if prefix
                    else "schedule:fifo"
                )
                report.run_traces.append((label, result.trace_events))
            if result.completed and result.observable is not None:
                report.outcomes[result.observable] = (
                    report.outcomes.get(result.observable, 0) + 1
                )
            else:
                report.incomplete_runs += 1
            budget_left = max_delays - sum(prefix)
            if budget_left <= 0:
                continue
            choice_log = result.choice_log or ()
            choice_details = result.choice_details or ()
            for point in range(len(prefix), len(choice_log)):
                eligible = choice_log[point]
                if eligible <= 1:
                    continue
                details = (
                    choice_details[point]
                    if message_pruning and point < len(choice_details)
                    else None
                )
                for decision in range(1, min(eligible - 1, budget_left) + 1):
                    if details is not None and decision_redundant(
                        details, decision, conflict_free
                    ):
                        report.pruned_decisions += 1
                        continue
                    padding = (0,) * (point - len(prefix))
                    frontier.append(prefix + padding + (decision,))
        if METRICS.enabled:
            METRICS.inc("repro_explore_schedules_total", len(batch),
                        help="Delay-bounded schedules executed")
            pruned_delta = report.pruned_decisions - pruned_before
            if pruned_delta:
                METRICS.inc("repro_explore_pruned_decisions_total",
                            pruned_delta,
                            help="Delay decisions skipped as redundant")
    if journal_obj is not None:
        # Final checkpoint: an empty frontier marks the walk complete
        # (a preempted walk re-checkpoints its reconstructed frontier).
        journal_obj.checkpoint(
            FRONTIER_CHECKPOINT,
            {
                "identity": identity,
                "state": _snapshot_frontier(report, frontier),
            },
        )
    return truncated


def explore_to_fixpoint(
    program: Program,
    policy_factory: Callable[[], OrderingPolicy],
    start_delays: int = 1,
    max_delays: int = 6,
    stable_rounds: int = 2,
    config: Optional[MachineConfig] = None,
    max_runs_per_budget: int = 20_000,
    executor: Optional[Executor] = None,
    jobs: int = 1,
) -> ExplorationReport:
    """Escalate the delay budget until the outcome set stops growing.

    Runs :func:`explore_program` at increasing budgets; once
    ``stable_rounds`` consecutive budget increases discover no new
    observable (or ``max_delays`` is reached), returns the last report.
    A practical middle ground between a fixed budget and full
    exhaustiveness: the budget at which outcomes saturate is usually
    far below the one needed to enumerate all schedules.
    """
    last_report: Optional[ExplorationReport] = None
    seen: set = set()
    stable = 0
    for budget in range(start_delays, max_delays + 1):
        report = explore_program(
            program,
            policy_factory,
            max_delays=budget,
            config=config,
            max_runs=max_runs_per_budget,
            executor=executor,
            jobs=jobs,
        )
        last_report = report
        if report.observables <= seen:
            stable += 1
            if stable >= stable_rounds:
                break
        else:
            stable = 0
            seen |= report.observables
    assert last_report is not None
    return last_report


def verify_weak_ordering(
    program: Program,
    policy_factory: Callable[[], OrderingPolicy],
    sc_results: Set[Observable],
    max_delays: int = 2,
    config: Optional[MachineConfig] = None,
    max_runs: int = 20_000,
    executor: Optional[Executor] = None,
    jobs: int = 1,
) -> Tuple[bool, ExplorationReport]:
    """Definition 2 as a bounded model-checking query.

    Returns ``(holds, report)``: ``holds`` is True iff every outcome
    reachable within the delay budget is sequentially consistent.  For a
    DRF0 program on correctly weakly ordered hardware this must hold at
    *every* budget.
    """
    report = explore_program(
        program, policy_factory, max_delays=max_delays, config=config,
        max_runs=max_runs, executor=executor, jobs=jobs,
    )
    holds = all(outcome in sc_results for outcome in report.outcomes)
    return holds, report
