"""The canonical unit of campaign work: ``RunSpec`` -> ``RunResult``.

ARCHITECTURE.md guarantees that a hardware run is a pure function of
``(program, policy, config, seed)``.  :class:`RunSpec` reifies that
tuple as a picklable value object, so campaigns — litmus batteries, the
conformance grid, parameter sweeps, the systematic explorer — become
embarrassingly parallel lists of independent work items.  Executing a
spec yields a :class:`RunResult`: the observable outcome plus the
deterministic (simulation-time) timings every aggregation layer needs.

Two deliberate properties:

* **Picklable both ways.**  A spec carries a :class:`PolicySpec` — the
  policy's report name plus constructor parameters — instead of a live
  policy object, so worker processes reconstruct a fresh policy per run
  and lambdas never cross the process boundary.  (Policies keep no
  per-run state, which is why the explorer's forked machines may share
  one.)
* **Deterministic results.**  ``RunResult`` contains only
  simulation-derived data (no wall-clock), so serial and parallel
  executions of the same spec are byte-identical under pickling; this
  is what makes on-disk result caching and the serial/parallel
  equivalence tests possible.
"""

from __future__ import annotations

import hashlib
import traceback as traceback_module
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

from repro.core.execution import Observable
from repro.core.program import Program
from repro.faults import FaultPlan
from repro.memsys.config import MachineConfig
from repro.models.base import OrderingPolicy, policy_class_by_name
from repro.sim.stats import StallReason
from repro.trace.events import TraceEvent
from repro.trace.summary import TraceSummary
from repro.trace.tracer import TraceSpec


@dataclass(frozen=True)
class PolicySpec:
    """A picklable description of an ordering policy.

    ``name`` is the policy's report name (``"DEF2"``); ``params`` the
    constructor keyword arguments as a sorted tuple of pairs, so two
    specs describing the same policy compare and hash equal.  ``core``
    names the processor-core shape the policy runs on (the second axis
    of the model space, see :mod:`repro.cpu.core`); the default
    ``"simple"`` keeps every pre-PR6 spec equal to its old form.
    """

    name: str
    params: Tuple[Tuple[str, Any], ...] = ()
    core: str = "simple"

    @classmethod
    def of(cls, policy_or_factory) -> "PolicySpec":
        """Coerce a policy instance, class, or zero-arg factory to a spec.

        A policy instance stamped with a ``core`` attribute (see
        :func:`repro.models.policies.policy_by_name`) carries that
        choice into the spec.
        """
        if isinstance(policy_or_factory, PolicySpec):
            return policy_or_factory
        policy = policy_or_factory
        if not isinstance(policy, OrderingPolicy):
            policy = policy_or_factory()
        if not isinstance(policy, OrderingPolicy):
            raise TypeError(
                f"expected an OrderingPolicy, factory, or PolicySpec; "
                f"got {policy_or_factory!r}"
            )
        return cls(
            name=policy.name,
            params=tuple(sorted(policy.spec_params())),
            core=getattr(policy, "core", "simple"),
        )

    def build(self) -> OrderingPolicy:
        """Construct a fresh policy instance (one per run)."""
        policy = policy_class_by_name(self.name)(**dict(self.params))
        if self.core != "simple":
            policy.core = self.core
        return policy


@dataclass(frozen=True)
class RunMetrics:
    """Simulation-time timings of one run (deterministic by design)."""

    stall_cycles: int = 0
    messages: int = 0
    sync_nacks: int = 0
    #: Stall cycles aggregated per reason, sorted by reason name.
    stall_by_reason: Tuple[Tuple[StallReason, int], ...] = ()
    #: Stall cycles per (processor, reason), sorted — the per-processor
    #: attribution the Figure-3 aggregation consumes.  Holds the
    #: :class:`StallReason` members themselves (not their values): enum
    #: singletons keep pickles byte-identical across cache round-trips.
    proc_stalls: Tuple[Tuple[int, StallReason, int], ...] = ()
    #: Per-thread halt times (None for threads that never halted).
    halt_times: Tuple[Optional[int], ...] = ()

    def proc_stall_of(self, proc: int, reason: StallReason) -> int:
        total = 0
        for p, r, cycles in self.proc_stalls:
            if p == proc and r is reason:
                total += cycles
        return total


#: Failure kinds, in roughly increasing distance from the simulation:
#: ``sim-timeout`` — the cycle-budget watchdog tripped (deterministic);
#: ``sanitizer``   — a protocol invariant check fired (deterministic);
#: ``exception``   — spec execution raised (deterministic);
#: ``wall-timeout``— the run exceeded its wall-clock budget (environment);
#: ``worker-lost`` — the worker process died and retries were exhausted;
#: ``preempted``   — the campaign was asked to stop (SIGTERM/SIGINT)
#:                   before this spec ran; a resumed campaign will
#:                   execute it (never cached or journaled).
FAILURE_KINDS = (
    "sim-timeout",
    "sanitizer",
    "exception",
    "wall-timeout",
    "worker-lost",
    "preempted",
)

#: Failure kinds that are pure functions of the spec — safe to memoise.
DETERMINISTIC_FAILURES = frozenset({"sim-timeout", "sanitizer", "exception"})


@dataclass(frozen=True)
class RunFailure:
    """Why a run produced no (full) outcome — data, not an exception.

    Failures travel inside :class:`RunResult` so one bad run can never
    abort a campaign: the batch always comes back complete, in spec
    order, with failures reported in place.
    """

    kind: str
    message: str
    traceback: str = ""
    #: Execution attempts consumed (> 1 only after executor retries).
    attempts: int = 1

    def describe(self) -> str:
        note = f" after {self.attempts} attempts" if self.attempts > 1 else ""
        return f"[{self.kind}]{note} {self.message}"


@dataclass(frozen=True)
class RunResult:
    """The campaign-visible outcome of executing one :class:`RunSpec`."""

    observable: Optional[Observable]
    cycles: int
    completed: bool
    timings: RunMetrics = field(default_factory=RunMetrics)
    #: Systematic exploration only: pending-pool size at every oracle
    #: choice point, so the explorer can branch without re-running.
    choice_log: Optional[Tuple[int, ...]] = None
    #: Systematic exploration only: per choice point, the eligible
    #: messages' target locations in pool order (``None`` entries for
    #: payloads without one).  The explorer's conflict-aware pruning
    #: uses these to skip decisions that only permute independent
    #: deliveries.
    choice_details: Optional[Tuple[Tuple[Optional[str], ...], ...]] = None
    #: Set when the run failed (watchdog, exception, wall-clock timeout,
    #: lost worker) instead of producing a full outcome.
    failure: Optional[RunFailure] = None
    #: Trace payloads, present only when the spec carried a
    #: :class:`~repro.trace.tracer.TraceSpec` asking for them.
    trace_events: Optional[Tuple[TraceEvent, ...]] = None
    trace_summary: Optional[TraceSummary] = None
    #: Sanitizer violations recorded during the run (``log`` mode lets
    #: the run finish and reports them all here; ``strict`` raises on
    #: the first one, which lands in ``failure`` instead).
    sanitizer_violations: Tuple[Any, ...] = ()
    #: Rendered wait-for diagnosis, set when the run hung (watchdog trip
    #: or quiescence with unfinished threads).  A string, not the
    #: diagnosis object, so results stay cheaply picklable.
    diagnosis: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.failure is None and self.completed


@dataclass(frozen=True)
class RunSpec:
    """One unit of campaign work: ``(program, policy, config, seed)``.

    When ``schedule`` is set the run replays that oracle decision string
    on the :class:`~repro.explore.oracle.ScheduledInterconnect` instead
    of sampling timings from the seed — the systematic explorer's
    re-execution search expressed in the same unit of work.
    """

    program: Program
    policy: PolicySpec
    config: MachineConfig
    seed: int
    max_cycles: int = 1_000_000
    schedule: Optional[Tuple[int, ...]] = None
    #: Optional fault-injection plan; seed-derived, so it keeps the run
    #: a pure function of the spec (see :mod:`repro.faults`).
    faults: Optional[FaultPlan] = None
    #: Optional tracing request; the recorded events/summary come back
    #: on the :class:`RunResult`.  Tracing never changes simulated
    #: behaviour, so it does not perturb cached (untraced) digests.
    trace: Optional[TraceSpec] = None
    #: Optional sanitizer mode (``"log"`` or ``"strict"``; None keeps
    #: the checker off).  Like tracing, the sanitizer observes without
    #: perturbing simulated behaviour — but strict mode turns the first
    #: violation into a run failure, so the mode is part of the digest.
    sanitize: Optional[str] = None

    def execute(self) -> RunResult:
        """Run the spec on a freshly built system (pure; picklable)."""
        return self.run_system(self.build_system())

    def build_system(self, oracle=None):
        """The machine this spec describes, built but not started.

        A scheduled spec's machine delivers through a
        :class:`~repro.explore.oracle.ScheduledInterconnect` driven by
        ``oracle`` — by default a
        :class:`~repro.explore.oracle.ReplayOracle` of ``schedule`` —
        whose channels follow the config's ``inval_virtual_channel``.
        """
        from repro.memsys.system import System

        factory = None
        if self.schedule is not None:
            from repro.explore.oracle import (
                ReplayOracle, ScheduledInterconnect,
            )

            if oracle is None:
                oracle = ReplayOracle(self.schedule)

            def factory(sim, stats, rng):
                return ScheduledInterconnect(
                    sim, stats, oracle,
                    inval_virtual_channel=self.config.inval_virtual_channel,
                )

        return System(
            self.program,
            self.policy.build(),
            self.config,
            seed=self.seed,
            interconnect_factory=factory,
            fault_plan=self.faults,
            trace=self.trace,
            sanitize=self.sanitize,
        )

    def run_system(self, system) -> RunResult:
        """Run ``system`` — this spec's machine, or a fork of a sibling
        scheduled spec's — package the outcome, and release the machine
        (:meth:`~repro.memsys.system.System.release`), so the caller's
        dropping it frees it at once."""
        try:
            run = system.run(max_cycles=self.max_cycles)
            if self.schedule is None:
                return _package(run, choice_log=None)
            oracle = system.interconnect.oracle
            return _package(
                run,
                choice_log=tuple(oracle.log),
                choice_details=tuple(oracle.detail_log),
            )
        finally:
            system.release()

    def digest(self) -> str:
        """A stable content hash of the spec — the result-cache key.

        Memoised per instance (the spec is frozen): the journal replay
        check, the result cache, and the incremental journal callback
        all key on the digest.  Its two costly parts are computed once
        per object, not once per spec: the program fingerprint is
        memoised on the frozen :class:`Program` and the config's
        ``repr`` on the frozen :class:`MachineConfig`, so a plan of
        hundreds of specs over a few dozen programs hashes each program
        once.  The hashed bytes are the same either way.
        """
        cached = self.__dict__.get("_digest")
        if cached is not None:
            return cached
        parts = [
            program_fingerprint(self.program),
            self.policy.name,
            repr(self.policy.params),
            _config_key(self.config),
            str(self.seed),
            str(self.max_cycles),
            repr(self.schedule),
            # The bytes of two retired fields: relaxed request channels
            # (never set) and the scheduled invalidation channel.
            "False",
            str(self.schedule is not None
                and self.config.inval_virtual_channel),
            repr(self.faults),
        ]
        if self.policy.core != "simple":
            # Appended only for non-default cores, so every pre-PR6
            # cached digest (which predates the core axis) stays valid.
            parts.append(f"core={self.policy.core}")
        if self.trace is not None:
            # Appended only when tracing, so every pre-existing cached
            # digest of an untraced spec stays valid.
            parts.append(repr(self.trace))
        if self.sanitize is not None:
            # Same append-when-set rule as ``trace`` above.
            parts.append(f"sanitize={self.sanitize}")
        value = hashlib.sha256("\x1f".join(parts).encode()).hexdigest()
        object.__setattr__(self, "_digest", value)
        return value


def _package(
    run,
    choice_log: Optional[Tuple[int, ...]],
    choice_details: Optional[Tuple[Tuple[Optional[str], ...], ...]] = None,
) -> RunResult:
    """Distill a :class:`~repro.memsys.system.HardwareRun` to a result."""
    # One walk of the stall table, sorted by (processor, reason); both
    # sorts key on ``_value_``, the member's plain attribute behind the
    # ``value`` property.
    proc_stalls = sorted(
        run.stats.stall_breakdown().items(),
        key=lambda kv: (kv[0][0], kv[0][1]._value_),
    )
    by_reason: Dict[StallReason, int] = {}
    stall_cycles = 0
    for (_, reason), cycles in proc_stalls:
        by_reason[reason] = by_reason.get(reason, 0) + cycles
        stall_cycles += cycles
    timings = RunMetrics(
        stall_cycles=stall_cycles,
        messages=run.stats.count("interconnect.delivered"),
        sync_nacks=run.stats.count("dir.sync_nacks"),
        stall_by_reason=tuple(
            sorted(by_reason.items(), key=lambda kv: kv[0]._value_)
        ),
        proc_stalls=tuple([
            (proc, reason, cycles)
            for (proc, reason), cycles in proc_stalls
        ]),
        halt_times=tuple(run.halt_times),
    )
    diagnosis = run.deadlock.describe() if run.deadlock is not None else None
    failure = None
    if run.timed_out:
        message = (
            f"simulation watchdog tripped after {run.cycles} cycles "
            f"without quiescing"
        )
        if diagnosis is not None:
            message = f"{message}\n{diagnosis}"
        failure = RunFailure(kind="sim-timeout", message=message)
    return RunResult(
        observable=run.observable if run.completed else None,
        cycles=run.cycles,
        completed=run.completed,
        timings=timings,
        choice_log=choice_log,
        choice_details=choice_details,
        failure=failure,
        trace_events=run.trace_events,
        trace_summary=run.trace_summary,
        sanitizer_violations=run.sanitizer_violations,
        diagnosis=diagnosis,
    )


def execute_spec_guarded(spec: RunSpec) -> RunResult:
    """Execute a spec, converting any exception into a failure result.

    This is what executors actually run: a crashing spec yields a
    ``RunResult`` with ``failure.kind == "exception"`` (message plus
    traceback as data) instead of tearing down the batch.  The guard
    wraps execution at the same stack depth in-process and in workers,
    so serial and parallel campaigns stay byte-identical even for
    failures.
    """
    try:
        return spec.execute()
    except Exception as exc:
        from repro.cpu.counter import CounterUnderflow
        from repro.sanitizer.checker import ProtocolError, SanitizerViolation

        sanitizer_kinds = (SanitizerViolation, ProtocolError, CounterUnderflow)
        kind = "sanitizer" if isinstance(exc, sanitizer_kinds) else "exception"
        return RunResult(
            observable=None,
            cycles=0,
            completed=False,
            failure=RunFailure(
                kind=kind,
                message=f"{type(exc).__name__}: {exc}",
                traceback=traceback_module.format_exc(),
            ),
        )


def program_fingerprint(program: Program) -> str:
    """A content hash of a program: threads, instructions, initial memory.

    Dataclass ``repr`` is deterministic for the instruction types, so
    two structurally identical programs fingerprint equal regardless of
    the objects' identities or display names' provenance.  Computed
    once per :class:`Program` object and memoised on it (programs are
    immutable after construction), so every spec and runner lookup
    sharing a program pays one hash between them.
    """
    cached = program.__dict__.get("_fingerprint")
    if cached is None:
        cached = _fingerprint(program)
        object.__setattr__(program, "_fingerprint", cached)
    return cached


def _fingerprint(program: Program) -> str:
    parts = [program.name]
    for thread in program.threads:
        parts.append(thread.name)
        parts.append(repr(thread.instructions))
        parts.append(repr(sorted(thread.labels.items())))
    parts.append(repr(sorted(program.initial_memory.items())))
    return hashlib.sha256("\x1e".join(parts).encode()).hexdigest()


def _config_key(config: MachineConfig) -> str:
    """``repr(config)``, memoised on the frozen config object."""
    cached = config.__dict__.get("_key")
    if cached is None:
        cached = repr(config)
        object.__setattr__(config, "_key", cached)
    return cached
