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
twice.  Every schedule runs in-process: at every choice point where a
child schedule deviates, the running machine is forked
(:meth:`~repro.memsys.system.System.fork`) and the child runs from the
fork, so the FIFO spine up to the deviation is simulated once, not once
per schedule.  A journaled search records each schedule's result as it
is folded; resumed, it walks again from the root and folds every
schedule the journal holds without running it.

Within the budget, :func:`explore_program` returns the exact set of
observables reachable from a lock-step start — for small programs and
ample budgets, a proof (not a sample) that, say, DEF2 admits no SC
violation for a DRF0 program *when every processor starts at cycle 0*.
Only message delivery branches: processor start skew, which seed
campaigns draw, is not explored, so an exhausted walk says nothing of
the outcomes that need one processor to start ahead of another.
``load_buffering`` on ``net_nocache`` is the standing example: its walk
exhausts and reaches one of the three SC outcomes.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Set, Tuple, Union

from repro.campaign import (
    CampaignJournal,
    CampaignMetrics,
    JournalError,
    PolicySpec,
    RunResult,
    RunSpec,
    emit_metrics,
    execute_spec_guarded,
    open_journal,
    program_fingerprint,
)
from repro.campaign.api import _journalable
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


#: Checkpoint kind under which a journaled search records its identity.
#: It keeps the name it had when it held a frontier snapshot, so older
#: journals resume too.
SEARCH_CHECKPOINT = "explore-frontier"


def explore_program(
    program: Program,
    policy_factory: Callable[[], OrderingPolicy],
    *,
    max_delays: int = 2,
    config: Optional[MachineConfig] = None,
    max_runs: int = 20_000,
    max_cycles: int = 200_000,
    trace: Optional[TraceSpec] = None,
    sanitize: Optional[str] = None,
    prune: bool = True,
    journal: Union[CampaignJournal, str, Path, None] = None,
    resume: bool = False,
    progress=None,
) -> ExplorationReport:
    """Enumerate all delay-bounded schedules of ``program``.

    Every schedule runs once, and each child schedule runs on a fork of
    its parent's machine taken at the choice point where it deviates.
    At most ``max_delays + 1`` machines are alive at once.  Each
    schedule's ``RunResult`` is byte-identical to a fresh replay of its
    decision string, and ``run_traces`` lists the schedules
    breadth-first.  A search cut short by ``max_runs`` keeps a
    depth-first prefix of the tree.

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
        journal: optional durable campaign journal.  The search's
            identity is checkpointed once at the start, and each
            schedule's deterministic result is appended (keyed by its
            spec digest) as it is folded.  A schedule the journal
            already holds is not run: its result is folded and its
            children are derived from the result's choice log, so a
            killed search walked again over its journal re-executes only
            the schedules it had not finished.
        resume: continue a search from ``journal`` (the journal must
            exist, and a journal that describes another
            program/policy/budget/machine raises
            :class:`~repro.campaign.journal.JournalError`).
        progress: live heartbeat on stderr (``True`` or a
            :class:`~repro.obs.ProgressReporter`); journaled schedules
            count as replayed.
    """
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

    journal_obj = open_journal(journal, resume=resume)
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
        report, max_delays, max_runs, message_pruning, conflict_free,
        reporter, journal_obj,
    )
    try:
        if journal_obj is not None:
            # The identity ties a journal to one search, so a resumed
            # walk can never fold another search's results.
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
            checkpoint = journal_obj.last_checkpoint(SEARCH_CHECKPOINT) or {}
            recorded = checkpoint.get("payload", {}).get("identity")
            if recorded != identity:
                if resume and recorded is not None:
                    raise JournalError(
                        "cannot resume: the journal belongs to a different "
                        "exploration (program, policy, budget, or machine "
                        "changed)"
                    )
                journal_obj.checkpoint(
                    SEARCH_CHECKPOINT, {"identity": identity}
                )
        walk.explore(label)
    finally:
        if reporter is not None and own_reporter:
            reporter.finish()
        if journal_obj is not None:
            if isinstance(journal, CampaignJournal):
                journal_obj.sync()
            else:
                # We opened it from a path; close it even when the walk
                # is unwound by an exception (its records are durable).
                journal_obj.close()
    report.exhausted = not walk.dropped and not report.preempted
    return report


def _breadth_first(prefix: Tuple[int, ...]):
    """The rank of a schedule in ``run_traces``: its number of
    deviations, then its ``(point, decision)`` deviations."""
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

    The walk holds a queue of decision prefixes: the root, and children
    past :data:`_MAX_NESTING`.  Each schedule's result is folded once
    (:meth:`_fold`), and each choice point past a schedule's prefix
    yields its children through one rule (:meth:`_children`).

    A schedule runs in :meth:`_run`: at each choice point past its
    prefix (a :class:`_ForkingOracle` reports it), every child runs at
    once on a fork of the running machine taken before the delivery, so
    the live machines are one per nesting level; a child deeper than
    :data:`_MAX_NESTING` is queued and later replayed from cycle 0.  A
    schedule's subtree is committed only when the schedule itself
    finishes without raising.  A schedule that raises folds the result
    of :func:`~repro.campaign.spec.execute_spec_guarded` for its spec
    and has no children; if that replay does not raise too, the fault
    was the walk's own and is raised.

    With a journal, a schedule whose spec digest the journal holds is
    neither forked nor run (:meth:`_replay`): its journaled result is
    folded, and its children, read off the result's choice log through
    the same rule, run in the walk's order from cycle 0, each forking
    its own subtree.
    """

    def __init__(
        self,
        spec: RunSpec,
        report: ExplorationReport,
        max_delays: int,
        max_runs: int,
        message_pruning: bool,
        conflict_free,
        reporter,
        journal: Optional[CampaignJournal],
    ) -> None:
        self.spec = spec
        self.report = report
        self.max_delays = max_delays
        self.max_runs = max_runs
        self.message_pruning = message_pruning
        self.conflict_free = conflict_free
        self.reporter = reporter
        self.journal = journal
        self.journal_replayed = self.journal_appends = 0
        self.token = None
        #: ``(prefix, observable or None, failure, trace events)`` per
        #: schedule folded but not yet committed to the report.
        self.folded: List[tuple] = []
        self.pruned = 0
        self.started = 0
        # Each prefix's last entry is its deviation point, so extending
        # only *after* the prefix runs each schedule exactly once.
        self.queued: List[Tuple[int, ...]] = [()] if max_runs > 0 else []
        #: Schedules the max_runs rule refused; non-zero means the search
        #: is truncated.
        self.dropped = 1 - len(self.queued)
        #: ``[system or None, prefix]`` per running schedule, innermost
        #: last (None for a schedule folded from the journal).
        self._running: List[list] = []

    def explore(self, label: str) -> None:
        """Walk the tree into the report and, like a campaign, emit one
        :class:`~repro.campaign.metrics.CampaignMetrics` record."""
        report = self.report
        started = time.perf_counter()
        with graceful_preemption() as token:
            self.token = token
            while self.queued and not self._stop_requested():
                self._run(None, self.queued.pop())
        self.folded.sort(key=lambda record: _breadth_first(record[0]))
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
            journal_replayed=self.journal_replayed,
            journal_appends=self.journal_appends,
            preempted=report.preempted,
        ))
        if METRICS.enabled:
            METRICS.inc("repro_explore_schedules_total", report.runs,
                        help="Delay-bounded schedules executed")
            if report.pruned_decisions:
                METRICS.inc("repro_explore_pruned_decisions_total",
                            report.pruned_decisions,
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
                self.dropped += 1
            else:
                yield child

    def _spawn(self, system, prefix, budget, point, pending, details) -> None:
        """Run the children of ``prefix`` that deviate at ``point``: each
        on a fork of ``system``, or from cycle 0 when ``system`` is None,
        or queued past the nesting bound."""
        for child in self._children(prefix, budget, point, pending, details):
            if self._stop_requested():
                continue
            if len(self._running) >= _MAX_NESTING:
                self.queued.append(child)
            else:
                self._run(system, child)

    def _run(self, parent, prefix: Tuple[int, ...]) -> None:
        """Run one schedule on a fork of ``parent`` taken where
        ``prefix`` deviates — with ``parent`` None, on a machine built to
        replay ``prefix`` from cycle 0 — and fold its result."""
        self.started += 1
        digest = None
        if self.journal is not None:
            digest = dataclasses.replace(self.spec, schedule=prefix).digest()
            journaled = self.journal.replayed.get(digest)
            if journaled is not None:
                self._replay(prefix, journaled)
                return
        system = parent.fork() if parent is not None else None
        marks = (
            len(self.folded), len(self.queued), self.dropped,
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
            # Drop the subtree: a schedule that raised has no children.
            error = exc
            del self.folded[marks[0]:]
            del self.queued[marks[1]:]
            self.dropped, self.pruned, self.started = marks[2:]
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
        if digest is not None and _journalable(result):
            if self.journal.record(digest, result):
                self.journal_appends += 1
        if self.reporter is not None:
            self.reporter.tick(result)

    def _replay(self, prefix: Tuple[int, ...], result: RunResult) -> None:
        """Fold a journaled schedule and run its children from its
        choice log, as its own run would have forked them."""
        self.journal_replayed += 1
        self._fold(prefix, result)
        if self.reporter is not None:
            self.reporter.note_skipped(1)
        budget = self.max_delays - sum(prefix)
        if budget <= 0:
            return
        choice_log = result.choice_log or ()
        choice_details = result.choice_details or ()
        self._running.append([None, prefix])
        try:
            for point in range(len(prefix), len(choice_log)):
                self._spawn(
                    None, prefix, budget, point, choice_log[point],
                    choice_details[point]
                    if point < len(choice_details) else None,
                )
        finally:
            self._running.pop()

    def branch(self, oracle: _ForkingOracle, pending: int, details) -> None:
        """A choice point of the innermost running schedule, with delays
        left, before its delivery: run each child schedule that deviates
        here."""
        system, prefix = self._running[-1]
        self._spawn(
            system, prefix, oracle.budget, len(oracle.log), pending, details
        )


def explore_to_fixpoint(
    program: Program,
    policy_factory: Callable[[], OrderingPolicy],
    start_delays: int = 1,
    max_delays: int = 6,
    stable_rounds: int = 2,
    config: Optional[MachineConfig] = None,
    max_runs_per_budget: int = 20_000,
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
        max_runs=max_runs,
    )
    holds = all(outcome in sc_results for outcome in report.outcomes)
    return holds, report
