"""Delay-bounded systematic exploration of hardware schedules.

Seed campaigns sample the space of message timings; this explorer walks
it *systematically*.  A schedule is a decision string for the
:class:`~repro.explore.oracle.ReplayOracle`; the default (all-zero)
string is the FIFO schedule and a decision ``j > 0`` at a choice point
costs ``j`` "delays".  With a delay budget ``d``, the explorer
enumerates every schedule whose total cost is at most ``d`` — the
delay-bounded scheduling idea of Emmi et al., which finds the
overwhelming majority of ordering bugs at tiny budgets.

Each run is deterministic (the scheduled interconnect removes all
timing randomness and processors start unskewed), so the search is a
pure tree walk: run a prefix, see where later choice points had more
than one eligible message, and branch there.  Branching always happens
at the *first deviation after the prefix*, so no schedule is executed
twice.  The walk comes in two forms with the same schedule set:

* the **depth-first walk** (in-process searches): each schedule runs
  once, and at every choice point where a child schedule deviates the
  running machine is forked (:meth:`~repro.memsys.system.System.fork`)
  and the child runs from the fork — the FIFO spine up to the deviation
  is simulated once, not once per schedule;
* the **wave loop** (parallel, journaled, traced or sanitized
  searches): each wave of pending prefixes becomes a campaign of
  :class:`~repro.campaign.spec.RunSpec` replays from cycle 0, and
  branching reads each run's oracle log.  Snapshots do not cross
  processes and a durable frontier is a list of prefixes, so these
  searches replay; the wave loop is also the walk's differential
  oracle.

Within the budget, :func:`explore_program` returns the exact set of
reachable observables — for small programs and ample budgets, a proof
(not a sample) that, say, DEF2 admits no SC violation for a DRF0
program.
"""

from __future__ import annotations

import base64
import dataclasses
import pickle
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Set, Tuple, Union

from repro.campaign import (
    CampaignJournal,
    CampaignMetrics,
    Executor,
    JournalError,
    PolicySpec,
    RunResult,
    RunSpec,
    emit_metrics,
    execute_spec_guarded,
    open_journal,
    program_fingerprint,
)
from repro.campaign.preempt import graceful_preemption
from repro.core.execution import Observable
from repro.core.program import Program
from repro.explore.oracle import ReplayOracle
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
        # Ties break on the outcome's text, not on insertion order: the
        # depth-first walk and the wave loop discover outcomes in
        # different orders, and their reports must print the same.
        for count, text in sorted(
            ((count, outcome.describe())
             for outcome, count in self.outcomes.items()),
            key=lambda pair: (-pair[0], pair[1]),
        ):
            lines.append(f"  {count:5d}x {text}")
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

    An in-process search (no ``executor``, ``jobs == 1``, no
    ``journal``, ``trace`` or ``sanitize``) takes the depth-first walk:
    every schedule runs once, and each child schedule runs on a fork of
    its parent's machine taken at the choice point where it deviates.
    At most ``max_delays + 1`` machines are alive at once.  Every other
    search runs through :mod:`repro.campaign`: each wave of pending
    schedule prefixes becomes a batch of
    :class:`~repro.campaign.spec.RunSpec` (with ``schedule`` set) run
    from cycle 0, so the frontier executes in parallel under a parallel
    executor while branching stays a pure function of each run's own
    oracle log.  Both visit the identical schedule set and produce
    byte-identical per-schedule results; only a search cut short by
    ``max_runs`` differs — the walk's truncated set is a depth-first
    prefix of the tree, the wave loop's a breadth-first one.

    Args:
        policy_factory: zero-argument policy constructor.
        max_delays: total delay budget per schedule (0 = FIFO only).
        config: machine configuration; timing fields are ignored (the
            scheduled interconnect replaces them) but cache structure is
            honoured.  Defaults to the cache-coherent machine.
        max_runs: safety bound on executed schedules (the walk stops
            starting schedules once it has started this many).
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

    label = f"explore:{program.name}:{policy_spec.name}"
    reporter, own_reporter = coerce_progress(progress, label)
    truncated = False
    try:
        if (
            executor is None and jobs == 1 and journal_obj is None
            and trace is None and sanitize is None
        ):
            spec = RunSpec(
                program=program,
                policy=policy_spec,
                config=config,
                seed=0,
                max_cycles=max_cycles,
                schedule=(),
                relaxed_request_channels=relaxed_request_channels,
                inval_virtual_channel=inval_virtual_channel,
            )
            truncated = _Walk(
                spec, max_delays, max_runs, message_pruning,
                conflict_free, reporter,
            ).explore(report, label)
            return _finish(report, truncated)
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
    return _finish(report, truncated)


def _finish(report: ExplorationReport, truncated: bool) -> ExplorationReport:
    report.exhausted = not truncated and not report.preempted
    return report


class _ForkingOracle(ReplayOracle):
    """A replay oracle that hands the walk every choice point past its
    prefix before deciding, so the walk can fork the machine there."""

    def __init__(self, walk: "_Walk", decisions: Tuple[int, ...] = ()) -> None:
        super().__init__(decisions)
        self.walk = walk

    def choose(self, pending, details=None) -> int:
        if pending > 1 and len(self.log) >= len(self.decisions):
            self.walk.branch(self, pending, details)
        return super().choose(pending, details)


#: Forked children run nested inside their parent's run, a few
#: interpreter frames per level.  Past this depth a child is queued and
#: later replayed from cycle 0 (forking its own children again), so a
#: large delay budget cannot exhaust the interpreter's stack.
_MAX_NESTING = 48


class _Walk:
    """The depth-first schedule walk of :func:`explore_program`.

    A schedule runs on a machine whose oracle is a
    :class:`_ForkingOracle`.  At each choice point past the schedule's
    prefix, every child decision within the delay budget that pruning
    keeps is run at once, on a fork of the running machine taken before
    the delivery — so the live machines are one per nesting level, at
    most ``max_delays + 1`` — and then the parent continues FIFO.  A
    child deeper than :data:`_MAX_NESTING` is queued as a prefix instead
    and replayed once the walk unwinds.

    A schedule's subtree (its children's results, outcome counts,
    pruned decisions and queued prefixes) is committed only when the
    schedule itself finishes without raising.  A schedule that raises
    folds the result of :func:`~repro.campaign.spec.execute_spec_guarded`
    for its spec and has no children, exactly as in the wave loop; if
    that replay does not raise too, the fault was the walk's own and
    is raised.
    """

    def __init__(
        self,
        spec: RunSpec,
        max_delays: int,
        max_runs: int,
        message_pruning: bool,
        conflict_free,
        reporter,
    ) -> None:
        self.spec = spec
        self.max_delays = max_delays
        self.max_runs = max_runs
        self.message_pruning = message_pruning
        self.conflict_free = conflict_free
        self.reporter = reporter
        self.token = None
        #: Per committed (or pending) schedule: its observable (None
        #: when it did not complete) and its failure record, if any.
        self.outcomes: List[Tuple[Optional[Observable], object]] = []
        self.pruned = 0
        self.started = 0
        self.truncated = False
        self.preempted = False
        #: ``[system, prefix, delays left]`` per running schedule,
        #: innermost last.
        self._running: List[list] = []
        #: Child prefixes past the nesting bound, replayed after the walk
        #: unwinds.
        self.queued: List[Tuple[int, ...]] = []

    def explore(self, report: ExplorationReport, label: str) -> bool:
        """Walk the whole tree into ``report``; returns ``truncated``.

        Like a wave's campaign, the walk emits one
        :class:`~repro.campaign.metrics.CampaignMetrics` record.
        """
        started = time.perf_counter()
        with graceful_preemption() as token:
            self.token = token
            self._run(None, ())
            while self.queued and not self._stop_requested():
                self._run(None, self.queued.pop())
        wall = time.perf_counter() - started
        failures = []
        for observable, failure in self.outcomes:
            report.runs += 1
            if failure is not None:
                failures.append(failure.kind)
            if observable is None:
                report.incomplete_runs += 1
            else:
                report.outcomes[observable] = (
                    report.outcomes.get(observable, 0) + 1
                )
        report.pruned_decisions += self.pruned
        report.preempted = self.preempted
        runs = len(self.outcomes)
        completed = runs - report.incomplete_runs
        emit_metrics(CampaignMetrics(
            label=label,
            runs=runs,
            completed_runs=completed,
            wall_clock_seconds=wall,
            runs_per_second=runs / wall if wall > 0 else 0.0,
            completion_rate=completed / runs if runs else 1.0,
            jobs=1,
            failed_runs=len(failures),
            timed_out_runs=failures.count("sim-timeout"),
            preempted=self.preempted,
        ))
        if METRICS.enabled:
            METRICS.inc("repro_explore_schedules_total", len(self.outcomes),
                        help="Delay-bounded schedules executed")
            if self.pruned:
                METRICS.inc("repro_explore_pruned_decisions_total",
                            self.pruned,
                            help="Delay decisions skipped as redundant")
        return self.truncated

    def _run(self, system, prefix: Tuple[int, ...]) -> None:
        """Run one schedule on ``system`` — a fork taken where ``prefix``
        deviates — and fold its result; with ``system`` None, build the
        machine and replay ``prefix`` from cycle 0."""
        self.started += 1
        marks = (
            len(self.outcomes), len(self.queued), self.pruned, self.started,
            self.truncated,
        )
        frame = [system, prefix, self.max_delays - sum(prefix)]
        self._running.append(frame)
        error = result = None
        try:
            if system is None:
                system = frame[0] = self.spec.build_system(
                    _ForkingOracle(self, prefix)
                )
            else:
                system.interconnect.oracle.decisions = prefix
            result = self.spec.run_system(system)
        except Exception as exc:
            # Drop the subtree; the wave loop never sees children of a
            # schedule that raised.
            error = exc
            del self.outcomes[marks[0]:]
            del self.queued[marks[1]:]
            self.pruned, self.started, self.truncated = marks[2:]
        finally:
            self._running.pop()
        if error is not None:
            # Outside the handler, so the failure's traceback does not
            # chain this exception and stays byte-identical.
            result = execute_spec_guarded(
                dataclasses.replace(self.spec, schedule=prefix)
            )
            if result.failure is None or result.failure.kind not in (
                "exception", "sanitizer"
            ):
                raise error
        self._fold(prefix, result)

    def _stop_requested(self) -> bool:
        if self.token is not None and self.token.requested():
            self.preempted = True
        return self.preempted

    def _fold(self, prefix: Tuple[int, ...], result: RunResult) -> None:
        self.outcomes.append((
            result.observable
            if result.completed and result.observable is not None
            else None,
            result.failure,
        ))
        if self.reporter is not None:
            self.reporter.tick(result)

    def branch(self, oracle: _ForkingOracle, pending: int, details) -> None:
        """A choice point of the innermost running schedule, before its
        delivery: run each child schedule that deviates here."""
        system, prefix, budget = self._running[-1]
        if budget <= 0:
            return
        point = len(oracle.log)
        details = (
            tuple(details)
            if self.message_pruning and details is not None
            else None
        )
        for decision in range(1, min(pending - 1, budget) + 1):
            if details is not None and decision_redundant(
                details, decision, self.conflict_free
            ):
                self.pruned += 1
                continue
            if self.started + len(self.queued) >= self.max_runs:
                self.truncated = True
                continue
            if self._stop_requested():
                continue
            child_prefix = (
                prefix + (0,) * (point - len(prefix)) + (decision,)
            )
            if len(self._running) >= _MAX_NESTING:
                self.queued.append(child_prefix)
            else:
                self._run(system.fork(), child_prefix)


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
