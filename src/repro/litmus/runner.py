"""The litmus campaign runner: Definition 2 as an executable check.

For a litmus test, a policy and a machine configuration, the runner
executes the program across many timing seeds, histograms the outcomes,
and classifies each against the exhaustive SC result set of the same
program.  An outcome outside the SC set is a sequential-consistency
violation — permitted for racy programs on weak hardware, *forbidden*
(Definition 2) for DRF0 programs on hardware claiming weak ordering
w.r.t. DRF0.

Execution goes through :mod:`repro.campaign`: the runner turns
``(test, policy, config, seeds)`` into a list of
:class:`~repro.campaign.spec.RunSpec` and classifies the returned
results, so a campaign runs serial or parallel (``executor=``/``jobs=``)
and optionally cached, with identical output either way.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.campaign import (
    Executor,
    PolicySpec,
    ResultCache,
    RunResult,
    RunSpec,
    program_fingerprint,
)
from repro.core.execution import Observable
from repro.faults import FaultPlan
from repro.litmus.test import LitmusTest
from repro.memsys.config import MachineConfig
from repro.sc.verifier import SCVerifier
from repro.sim.rng import seed_stream
from repro.trace.events import TraceEvent
from repro.trace.summary import TraceSummary
from repro.trace.tracer import TraceSpec


@dataclass
class LitmusResult:
    """Outcome histogram of a litmus campaign plus its SC classification."""

    test: LitmusTest
    policy_name: str
    config_name: str
    runs: int
    completed_runs: int
    #: Outcome (projected registers) -> observation count.
    histogram: Dict[Tuple[int, ...], int] = field(default_factory=dict)
    #: Full observables that fell outside the SC result set.
    sc_violations: Dict[Tuple[int, ...], int] = field(default_factory=dict)
    #: Mean cycles across completed runs.
    mean_cycles: float = 0.0
    #: Runs that ended with a failure record (watchdog trip, crash).
    failed_runs: int = 0
    #: ``(label, events)`` per traced run — present only when the
    #: campaign carried a :class:`~repro.trace.tracer.TraceSpec`; feeds
    #: :func:`repro.trace.export.write_trace` directly.
    run_traces: List[Tuple[str, Tuple[TraceEvent, ...]]] = field(
        default_factory=list
    )
    #: Merged trace telemetry across the campaign's runs.
    trace_summary: Optional[TraceSummary] = None
    #: The campaign stopped early on SIGTERM/SIGINT; unexecuted seeds
    #: are counted in ``failed_runs`` and re-run on a journal resume.
    preempted: bool = False

    @property
    def violated_sc(self) -> bool:
        return bool(self.sc_violations)

    @property
    def forbidden_seen(self) -> Optional[int]:
        """How often the test's designated forbidden outcome appeared."""
        if self.test.forbidden is None:
            return None
        return self.histogram.get(self.test.forbidden, 0)

    def describe(self) -> str:
        failed = f", {self.failed_runs} failed" if self.failed_runs else ""
        lines = [
            f"{self.test.name} on {self.config_name}/{self.policy_name}: "
            f"{self.completed_runs}/{self.runs} runs, "
            f"mean {self.mean_cycles:.0f} cycles{failed}"
        ]
        for outcome, count in sorted(self.histogram.items()):
            marks = []
            if outcome in self.sc_violations:
                marks.append("NOT SC")
            if self.test.forbidden is not None and outcome == self.test.forbidden:
                marks.append("forbidden")
            suffix = f"   <-- {', '.join(marks)}" if marks else ""
            lines.append(
                f"  {self.test.describe_outcome(outcome)}: {count}{suffix}"
            )
        return "\n".join(lines)


class LitmusRunner:
    """Runs litmus campaigns, sharing one SC oracle across tests."""

    def __init__(self, verifier: Optional[SCVerifier] = None) -> None:
        self.verifier = verifier or SCVerifier()
        #: Content digest -> warmed executable program.  Keyed by the
        #: test's *content* (program fingerprint + warm flag), never its
        #: display name, so two distinct tests sharing a name can never
        #: silently reuse each other's executable.
        self._program_cache: Dict[str, object] = {}

    def run(
        self,
        test: LitmusTest,
        policy_factory,
        config: MachineConfig,
        *,
        runs: int = 50,
        base_seed: int = 12345,
        max_cycles: int = 1_000_000,
        executor: Optional[Executor] = None,
        jobs: int = 1,
        cache: Optional[ResultCache] = None,
        faults: Optional[FaultPlan] = None,
        trace: Optional[TraceSpec] = None,
        sanitize: Optional[str] = None,
        triage=None,
        journal=None,
        progress=None,
    ) -> LitmusResult:
        """Run ``runs`` seeds of ``test`` and classify the outcomes.

        ``policy_factory`` is anything :meth:`PolicySpec.of` accepts; a
        fresh policy is constructed per run (policies may hold per-run
        state) from its spec, in-process or in a worker.

        ``faults`` injects the given :class:`~repro.faults.FaultPlan`
        into every run — adversarial (but legal) message timings under
        which Definition 2's promise must still hold for DRF0 programs.

        ``trace`` records every run's event stream; the result carries
        per-run traces plus a merged summary.

        ``sanitize`` turns on the protocol sanitizer per run (``"log"``
        or ``"strict"``); ``triage`` is an optional
        :class:`~repro.sanitizer.triage.TriageConfig` directing failing
        runs into shrunk repro bundles.

        ``journal`` (a :class:`~repro.campaign.journal.CampaignJournal`
        or a path) makes the campaign durable: completed seeds append
        as they finish and replay on the next run, so a killed or
        preempted litmus campaign resumes where it left off.

        ``progress`` (``True`` or a
        :class:`~repro.obs.ProgressReporter`) prints a live heartbeat
        while the campaign runs.
        """
        from repro.api import campaign as run_campaign

        policy_spec = PolicySpec.of(policy_factory)
        specs = self.campaign_specs(
            test, policy_spec, config, runs, base_seed, max_cycles,
            faults=faults, trace=trace, sanitize=sanitize,
        )
        campaign = run_campaign(
            specs,
            executor=executor,
            jobs=jobs,
            cache=cache,
            label=f"litmus:{test.name}:{config.name}:{policy_spec.name}",
            triage=triage,
            journal=journal,
            progress=progress,
        )
        result = self.collect(
            test, policy_spec.name, config.name, campaign.results
        )
        result.preempted = campaign.preempted
        return result

    def campaign_specs(
        self,
        test: LitmusTest,
        policy_spec: PolicySpec,
        config: MachineConfig,
        runs: int,
        base_seed: int,
        max_cycles: int = 1_000_000,
        faults: Optional[FaultPlan] = None,
        trace: Optional[TraceSpec] = None,
        sanitize: Optional[str] = None,
    ) -> List[RunSpec]:
        """The campaign's unit-of-work list: one spec per derived seed."""
        program = self.executable(test)
        return [
            RunSpec(
                program=program,
                policy=policy_spec,
                config=config,
                seed=seed,
                max_cycles=max_cycles,
                faults=faults,
                trace=trace,
                sanitize=sanitize,
            )
            for seed in seed_stream(base_seed, runs)
        ]

    def collect(
        self,
        test: LitmusTest,
        policy_name: str,
        config_name: str,
        results: Sequence[RunResult],
    ) -> LitmusResult:
        """Histogram campaign results and classify them against SC."""
        program = self.executable(test)
        sc_set: Set[Observable] = self.verifier.sc_result_set(program)

        histogram: Dict[Tuple[int, ...], int] = {}
        violations: Dict[Tuple[int, ...], int] = {}
        completed = 0
        total_cycles = 0
        failed = 0
        run_traces: List[Tuple[str, Tuple[TraceEvent, ...]]] = []
        for i, result in enumerate(results):
            if result.trace_events is not None:
                run_traces.append((f"run{i}", result.trace_events))
            if result.failure is not None:
                failed += 1
            if not result.completed or result.observable is None:
                continue
            completed += 1
            total_cycles += result.cycles
            outcome = test.project(result.observable)
            histogram[outcome] = histogram.get(outcome, 0) + 1
            if result.observable not in sc_set:
                violations[outcome] = violations.get(outcome, 0) + 1

        return LitmusResult(
            test=test,
            policy_name=policy_name,
            config_name=config_name,
            runs=len(results),
            completed_runs=completed,
            histogram=histogram,
            sc_violations=violations,
            mean_cycles=(total_cycles / completed) if completed else 0.0,
            failed_runs=failed,
            run_traces=run_traces,
            trace_summary=TraceSummary.merged(
                r.trace_summary for r in results
            ),
        )

    def sc_outcomes(self, test: LitmusTest) -> Set[Tuple[int, ...]]:
        """The projected outcomes SC allows for the test."""
        program = self.executable(test)
        return {test.project(obs) for obs in self.verifier.sc_result_set(program)}

    def executable(self, test: LitmusTest):
        """The test's executable program, cached by content.

        The executable (possibly warmed) program must be the same object
        across runs so the verifier's per-program cache hits; consumers
        that enumerate over the same program (the axiomatic
        cross-checker) share the cache through this accessor.
        """
        key = f"{program_fingerprint(test.program)}:warm={test.warm_caches}"
        if key not in self._program_cache:
            self._program_cache[key] = test.executable_program()
        return self._program_cache[key]
