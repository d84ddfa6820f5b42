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
twice.  The walk holds one queue of decision prefixes and has two ways
to run a queued prefix, with the same schedule set:

* **in-process** (the default): build the machine and run the prefix;
  at every choice point where a child schedule deviates, the running
  machine is forked (:meth:`~repro.memsys.system.System.fork`) and the
  child runs from the fork — the FIFO spine up to the deviation is
  simulated once, not once per schedule;
* **through a campaign** (parallel or journaled searches): the queue
  runs in breadth-first waves, each a campaign of
  :class:`~repro.campaign.spec.RunSpec` replays from cycle 0, and
  branching reads each run's oracle log.
  Snapshots do not cross processes and a durable frontier is a list of
  prefixes, so these searches replay; they are also the in-process
  mode's differential oracle.

Within the budget, :func:`explore_program` returns the exact set of
reachable observables — for small programs and ample budgets, a proof
(not a sample) that, say, DEF2 admits no SC violation for a DRF0
program.
"""

from __future__ import annotations

import base64
import dataclasses
import functools
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
from repro.memsys.system import ensure_compatible
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
        # Ties break on the outcome's text, not on insertion order: a
        # report must print the same whatever order its schedules ran.
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
    ``journal``) runs every schedule once, and each child schedule runs
    on a fork of its parent's machine taken at the choice point where
    it deviates.  At most ``max_delays + 1`` machines are alive at
    once.  A parallel or journaled search runs the walk's queue through
    :mod:`repro.campaign` instead: each wave of pending schedule
    prefixes becomes a campaign of :class:`~repro.campaign.spec.RunSpec`
    (with ``schedule`` set) run from cycle 0, so the frontier executes
    in parallel under a parallel executor while branching stays a pure
    function of each run's own oracle log.  Both visit the identical
    schedule set, produce byte-identical per-schedule results and list
    ``run_traces`` in the same (breadth-first) order; only a search cut
    short by ``max_runs`` differs — the in-process truncated set is a
    depth-first prefix of the tree, the campaign's a breadth-first one.

    Args:
        policy_factory: zero-argument policy constructor.
        max_delays: total delay budget per schedule (0 = FIFO only).
        config: machine configuration; timing fields are ignored (the
            scheduled interconnect replaces them) but cache structure
            and ``inval_virtual_channel`` are honoured.  Defaults to the
            cache-coherent machine.  A (policy, machine) pair that
            cannot be built raises
            :class:`~repro.memsys.system.ConfigurationError` before any
            schedule runs or any journal opens.
        max_runs: safety bound on executed schedules (no schedule is
            started or queued once started + queued ones reach it).
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
    # An unbuildable pair has no schedules to search; refusing it here
    # keeps a failed build from reading as an exhausted search.
    ensure_compatible(policy_spec.build(), config, policy_spec.core)
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
    walk = _Walk(
        RunSpec(
            program=program,
            policy=policy_spec,
            config=config,
            seed=0,
            max_cycles=max_cycles,
            schedule=(),
            trace=trace,
            sanitize=sanitize,
        ),
        report, frontier, max_delays, max_runs, message_pruning,
        conflict_free, reporter,
    )
    try:
        if executor is None and jobs == 1 and journal is None:
            walk.explore(label)
        else:
            walk.explore(label, functools.partial(
                run_campaign, executor=executor, jobs=jobs, label=label,
                journal=journal_obj, progress=reporter,
            ), journal_obj, identity)
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
    report.exhausted = not walk.dropped and not report.preempted
    return report


def _wave_order(prefix: Tuple[int, ...]):
    """Breadth-first rank of a schedule: its number of deviations, then
    its ``(point, decision)`` deviations — the order a campaign folds."""
    deviations = [(point, d) for point, d in enumerate(prefix) if d]
    return len(deviations), deviations


class _ForkingOracle(ReplayOracle):
    """A replay oracle that hands the walk every choice point past its
    prefix before deciding, so the walk can fork the machine there.

    ``budget`` is the delays the schedule has left: a schedule that
    spent them all has no children, so its choice points skip the walk.
    """

    def __init__(
        self, walk: "_Walk", decisions: Tuple[int, ...], budget: int
    ) -> None:
        super().__init__(decisions)
        self.walk = walk
        self.budget = budget

    def choose(self, pending, details=None) -> int:
        if (
            pending > 1 and self.budget > 0
            and len(self.log) >= len(self.decisions)
        ):
            self.walk.branch(self, pending, details)
        return super().choose(pending, details)


#: Forked children run nested inside their parent's run, a few
#: interpreter frames per level.  Past this depth a child is queued and
#: later replayed from cycle 0 (forking its own children again), so a
#: large delay budget cannot exhaust the interpreter's stack.
_MAX_NESTING = 48


class _Walk:
    """The schedule walk of :func:`explore_program`.

    The walk holds one queue of decision prefixes.  Each schedule's
    result is folded once (:meth:`_fold`), and each choice point past a
    schedule's prefix yields its children through one rule
    (:meth:`_children`).  Only the way a queued prefix runs differs:

    * **in-process** (:meth:`_run`): at each choice point past its
      prefix (a :class:`_ForkingOracle` reports it), every child runs at
      once on a fork of the running machine taken before the delivery,
      so the live machines are one per nesting level; a child deeper
      than :data:`_MAX_NESTING` is queued instead.  A schedule's subtree
      is committed only when the schedule itself finishes without
      raising.  A schedule that raises folds the result of
      :func:`~repro.campaign.spec.execute_spec_guarded` for its spec and
      has no children, exactly as through a campaign; if that replay
      does not raise too, the fault was the walk's own and is raised.
    * **through a campaign** (:meth:`_run_waves`): the whole queue runs
      as one wave of replays from cycle 0, and each result's
      ``choice_log`` yields the next wave.
    """

    def __init__(
        self,
        spec: RunSpec,
        report: ExplorationReport,
        frontier: List[Tuple[int, ...]],
        max_delays: int,
        max_runs: int,
        message_pruning: bool,
        conflict_free,
        reporter,
    ) -> None:
        self.spec = spec
        self.report = report
        self.max_delays = max_delays
        self.max_runs = max_runs
        self.message_pruning = message_pruning
        self.conflict_free = conflict_free
        self.reporter = reporter
        self.token = None
        #: ``(prefix, observable or None, failure, trace events)`` per
        #: schedule folded but not yet committed to the report.
        self.folded: List[tuple] = []
        self.pruned = 0
        self.started = report.runs
        # A resumed frontier goes through the same max_runs rule.
        keep = max(max_runs - self.started, 0)
        self.queued: List[Tuple[int, ...]] = frontier[:keep]
        #: Children the max_runs rule refused, in breadth-first order
        #: through a campaign; non-empty means the search is truncated.
        self.dropped: List[Tuple[int, ...]] = frontier[keep:]
        #: ``[system, prefix]`` per running schedule, innermost last
        #: (in-process only).
        self._running: List[list] = []

    def explore(
        self,
        label: str,
        run_campaign: Optional[Callable] = None,
        journal: Optional[CampaignJournal] = None,
        identity: Optional[dict] = None,
    ) -> None:
        """Walk the tree into the report: in-process, or through
        ``run_campaign`` (called with a wave's specs) when given."""
        report = self.report
        runs, pruned = report.runs, report.pruned_decisions
        with graceful_preemption() as token:
            self.token = token
            if run_campaign is None:
                self._run_in_process(label)
            else:
                self._run_waves(run_campaign, journal, identity)
        if METRICS.enabled:
            METRICS.inc("repro_explore_schedules_total", report.runs - runs,
                        help="Delay-bounded schedules executed")
            if report.pruned_decisions > pruned:
                METRICS.inc("repro_explore_pruned_decisions_total",
                            report.pruned_decisions - pruned,
                            help="Delay decisions skipped as redundant")

    def _stop_requested(self) -> bool:
        if self.token is not None and self.token.requested():
            self.report.preempted = True
        return self.report.preempted

    def _fold(self, prefix: Tuple[int, ...], result: RunResult) -> None:
        self.folded.append((
            prefix,
            result.observable
            if result.completed and result.observable is not None
            else None,
            result.failure,
            result.trace_events,
        ))

    def _commit(self) -> None:
        """Move the folded schedules and pruned decisions into the report."""
        report = self.report
        for prefix, observable, _, events in self.folded:
            report.runs += 1
            if observable is None:
                report.incomplete_runs += 1
            else:
                report.outcomes[observable] = (
                    report.outcomes.get(observable, 0) + 1
                )
            if events is not None:
                report.run_traces.append((
                    "schedule:" + ",".join(map(str, prefix))
                    if prefix else "schedule:fifo",
                    events,
                ))
        report.pruned_decisions += self.pruned
        self.folded, self.pruned = [], 0

    def _children(
        self, prefix: Tuple[int, ...], budget: int, point: int,
        pending: int, details,
    ):
        """The prefixes of the schedules that follow ``prefix`` to choice
        point ``point`` (``pending`` messages eligible) and deviate
        there, with ``budget`` delays left.  Decisions pruning proves
        redundant are only counted; once started + queued schedules
        reach ``max_runs``, a child is neither started nor queued but
        dropped, and the search is truncated."""
        for decision in range(1, min(pending - 1, budget) + 1):
            if (
                self.message_pruning and details is not None
                and decision_redundant(details, decision, self.conflict_free)
            ):
                self.pruned += 1
                continue
            child = prefix + (0,) * (point - len(prefix)) + (decision,)
            if self.started + len(self.queued) >= self.max_runs:
                self.dropped.append(child)
            else:
                yield child

    # -- in-process -----------------------------------------------------------

    def _run_in_process(self, label: str) -> None:
        """Run the queue (the root, and children past the nesting bound)
        in-process; like a campaign, emit one
        :class:`~repro.campaign.metrics.CampaignMetrics` record."""
        started = time.perf_counter()
        while self.queued and not self._stop_requested():
            self._run(None, self.queued.pop())
        # Fold in a campaign's order, so both modes list ``run_traces``
        # alike.
        self.folded.sort(key=lambda record: _wave_order(record[0]))
        runs = len(self.folded)
        completed = sum(record[1] is not None for record in self.folded)
        failures = [
            record[2].kind for record in self.folded if record[2] is not None
        ]
        self._commit()
        wall = time.perf_counter() - started
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
            preempted=self.report.preempted,
        ))

    def _run(self, system, prefix: Tuple[int, ...]) -> None:
        """Run one schedule on ``system`` — a fork taken where ``prefix``
        deviates — and fold its result; with ``system`` None, build the
        machine and replay ``prefix`` from cycle 0."""
        self.started += 1
        marks = (
            len(self.folded), len(self.queued), len(self.dropped),
            self.pruned, self.started,
        )
        budget = self.max_delays - sum(prefix)
        frame = [system, prefix]
        self._running.append(frame)
        error = result = None
        try:
            if system is None:
                system = frame[0] = self.spec.build_system(
                    _ForkingOracle(self, prefix, budget)
                )
            else:
                oracle = system.interconnect.oracle
                oracle.decisions, oracle.budget = prefix, budget
            result = self.spec.run_system(system)
        except Exception as exc:
            # Drop the subtree; a campaign never sees children of a
            # schedule that raised.
            error = exc
            del self.folded[marks[0]:]
            del self.queued[marks[1]:]
            del self.dropped[marks[2]:]
            self.pruned, self.started = marks[3:]
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
        if self.reporter is not None:
            self.reporter.tick(result)

    def branch(self, oracle: _ForkingOracle, pending: int, details) -> None:
        """A choice point of the innermost running schedule, with delays
        left, before its delivery: run each child schedule that deviates
        here."""
        system, prefix = self._running[-1]
        for child in self._children(
            prefix, oracle.budget, len(oracle.log), pending, details
        ):
            if self._stop_requested():
                continue
            if len(self._running) >= _MAX_NESTING:
                self.queued.append(child)
            else:
                self._run(system.fork(), child)

    # -- through a campaign ---------------------------------------------------

    def _run_waves(self, run_campaign, journal, identity) -> None:
        """Run the queue through ``run_campaign``, one wave at a time."""
        while self.queued and not self._stop_requested():
            self._checkpoint(journal, identity)
            wave, self.queued = self.queued, []
            if METRICS.enabled:
                METRICS.inc("repro_explore_waves_total",
                            help="Explorer waves executed")
                METRICS.set_gauge(
                    "repro_explore_frontier_size",
                    len(wave) + len(self.dropped),
                    help="Pending schedule prefixes at wave start",
                )
            campaign = run_campaign([
                dataclasses.replace(self.spec, schedule=prefix)
                for prefix in wave
            ])
            if campaign.preempted:
                # Put the wave back: completed schedules are journaled
                # (and will replay on resume); preempted slots carry no
                # choice log and must re-execute, so none of this
                # wave's results can be folded into the report yet.
                self.queued = wave
                self.report.preempted = True
                break
            self.started += len(wave)
            for prefix, result in zip(wave, campaign.results):
                self._fold(prefix, result)
                budget = self.max_delays - sum(prefix)
                choice_log = result.choice_log or ()
                choice_details = result.choice_details or ()
                for point in range(len(prefix), len(choice_log)):
                    for child in self._children(
                        prefix, budget, point, choice_log[point],
                        choice_details[point]
                        if point < len(choice_details) else None,
                    ):
                        self.queued.append(child)
            self._commit()
        # Final checkpoint: an empty frontier marks the walk complete (a
        # preempted or truncated walk checkpoints what it left).
        self._checkpoint(journal, identity)

    def _checkpoint(self, journal, identity) -> None:
        """Snapshot the pending frontier (queued, then dropped) and the
        report, *before* a wave runs: the checkpoint plus the
        per-result journal records reconstruct any point inside it
        (completed schedules replay by digest)."""
        if journal is not None:
            journal.checkpoint(FRONTIER_CHECKPOINT, {
                "identity": identity,
                "state": _snapshot_frontier(
                    self.report, self.queued + self.dropped
                ),
            })


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
    *every* budget.  A (policy, machine) pair that cannot be built
    raises ``ConfigurationError``: it has no outcomes to vouch for.
    """
    report = explore_program(
        program, policy_factory, max_delays=max_delays, config=config,
        max_runs=max_runs, executor=executor, jobs=jobs,
    )
    holds = all(outcome in sc_results for outcome in report.outcomes)
    return holds, report
