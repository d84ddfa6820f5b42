"""The conformance grid: which hardware keeps which promise.

Definition 2 turns memory-model correctness into a checkable contract,
so a whole machine zoo can be audited mechanically.  For every (machine
configuration, ordering policy) pair, :func:`run_conformance` runs the
litmus catalog and classifies the pair:

* ``SC``             — no SC violation observed on *any* program;
* ``WEAKLY-ORDERED`` — violations only on programs that violate the
  policy's *own* synchronization model (the hardware kept Definition 2's
  promise);
* ``BROKEN``         — a model-conformant program produced a non-SC
  outcome: the hardware breaks the weak-ordering contract.

Each policy is judged against the model it contracts for (Definition 2
is parametric): DEF2-R promises SC only to DRF0-R software, so its
permitted violations include programs that are DRF0 but not DRF0-R —
the all-synchronization Dekker on the invalidation-virtual-channel
network is exactly such a case, and judging DEF2-R against plain DRF0
would misreport it as broken.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.campaign import (
    Executor,
    PolicySpec,
    ResultCache,
    RunSpec,
    program_fingerprint,
)
from repro.faults import FaultPlan
from repro.litmus.catalog import standard_catalog
from repro.litmus.runner import LitmusRunner
from repro.litmus.test import LitmusTest
from repro.memsys.config import (
    BUS_CACHE,
    BUS_CACHE_SNOOP,
    BUS_NOCACHE,
    MachineConfig,
    NET_CACHE,
    NET_CACHE_VC,
    NET_NOCACHE,
)
from repro.memsys.system import ConfigurationError, ensure_compatible
from repro.models.base import OrderingPolicy
from repro.trace.events import TraceEvent
from repro.trace.summary import TraceSummary
from repro.trace.tracer import TraceSpec
from repro.models.policies import (
    Def1Policy,
    Def2Policy,
    Def2RPolicy,
    PSOPolicy,
    RelaxedPolicy,
    SCPolicy,
    TSOPolicy,
)

#: Conformance verdicts, strongest first.
VERDICT_SC = "SC"
VERDICT_WEAK = "WEAKLY-ORDERED"
VERDICT_BROKEN = "BROKEN"
VERDICT_NA = "n/a"


@dataclass
class CellResult:
    """One (machine, policy) audit."""

    config_name: str
    policy_name: str
    verdict: str
    #: test name -> True if some outcome violated SC.
    violations: Dict[str, bool] = field(default_factory=dict)
    #: tests that failed to complete (livelock/timeout), if any.
    incomplete: List[str] = field(default_factory=list)

    @property
    def violated_tests(self) -> List[str]:
        return sorted(name for name, bad in self.violations.items() if bad)


@dataclass
class ConformanceReport:
    """The full grid."""

    cells: List[CellResult]
    runs_per_test: int
    #: ``(label, events)`` per traced run, labelled
    #: ``config/policy/test/runN`` — present only when the grid ran with
    #: a :class:`~repro.trace.tracer.TraceSpec`.
    run_traces: List[Tuple[str, Tuple[TraceEvent, ...]]] = field(
        default_factory=list
    )
    #: Merged trace telemetry across the whole grid.
    trace_summary: Optional[TraceSummary] = None
    #: The grid campaign stopped early on SIGTERM/SIGINT; verdicts may
    #: rest on partial cells — resume from the journal to finish.
    preempted: bool = False

    def cell(self, config_name: str, policy_name: str) -> Optional[CellResult]:
        for cell in self.cells:
            if cell.config_name == config_name and cell.policy_name == policy_name:
                return cell
        return None

    def to_rows(self) -> List[List[str]]:
        configs = sorted({c.config_name for c in self.cells})
        policies = []
        for cell in self.cells:
            if cell.policy_name not in policies:
                policies.append(cell.policy_name)
        rows = []
        for policy in policies:
            row = [policy]
            for config in configs:
                cell = self.cell(config, policy)
                row.append(cell.verdict if cell else VERDICT_NA)
            rows.append(row)
        return rows

    def headers(self) -> List[str]:
        return ["policy"] + sorted({c.config_name for c in self.cells})

    def describe(self) -> str:
        from repro.analysis.report import format_table

        return format_table(self.headers(), self.to_rows())


DEFAULT_CONFIGS: Tuple[MachineConfig, ...] = (
    BUS_NOCACHE,
    NET_NOCACHE,
    BUS_CACHE,
    NET_CACHE,
    NET_CACHE_VC,
    BUS_CACHE_SNOOP,
)

DEFAULT_POLICIES: Tuple[Callable[[], OrderingPolicy], ...] = (
    RelaxedPolicy,
    SCPolicy,
    Def1Policy,
    Def2Policy,
    Def2RPolicy,
    # TSO/PSO ride at the end: grid rows keep their historical order.
    TSOPolicy,
    PSOPolicy,
)


def _conforms(test: LitmusTest, model, cache: Dict[tuple, bool]) -> bool:
    """Does the program obey the policy's synchronization model?

    Cached by the program's content, not the test's name: two tests
    may share a name but not a program.
    """
    from repro.drf.drf0 import contract_obeys

    key = (model.name, program_fingerprint(test.program))
    if key not in cache:
        cache[key] = contract_obeys(test.name, test.program, model)
    return cache[key]


@dataclass
class ConformancePlan:
    """The flat campaign a conformance grid runs, plus its layout.

    Splitting planning from judging lets a consumer know the complete
    :class:`RunSpec` list — and therefore the campaign's content digest
    — *before* running anything: the service tier dedups and journals
    conformance jobs by exactly this layout, so a planned-then-run grid
    and :func:`run_conformance` produce byte-identical campaigns.
    """

    specs: List[RunSpec]
    cell_plans: List[dict]
    runs_per_test: int
    runner: LitmusRunner


def plan_conformance(
    configs: Sequence[MachineConfig] = DEFAULT_CONFIGS,
    policies: Sequence[Callable[[], OrderingPolicy]] = DEFAULT_POLICIES,
    tests: Optional[Sequence[LitmusTest]] = None,
    runs_per_test: int = 30,
    base_seed: int = 2024,
    runner: Optional[LitmusRunner] = None,
    faults: Optional[FaultPlan] = None,
    trace: Optional[TraceSpec] = None,
    sanitize: Optional[str] = None,
) -> ConformancePlan:
    """Lay out the grid's flat campaign without executing it.

    Per compatible (machine, policy) cell, per test, one contiguous
    block of seed specs; each block's slice is remembered so
    :func:`judge_conformance` can classify cells from the flat result
    list.
    """
    runner = runner or LitmusRunner()
    tests = list(tests) if tests is not None else standard_catalog()
    specs: List[RunSpec] = []
    cell_plans: List[dict] = []
    for config in configs:
        for policy_factory in policies:
            policy_spec = PolicySpec.of(policy_factory)
            try:
                ensure_compatible(policy_spec.build(), config, policy_spec.core)
            except ConfigurationError:
                cell_plans.append(
                    {"config": config, "policy": policy_spec, "blocks": None}
                )
                continue
            blocks = []
            for test in tests:
                test_specs = runner.campaign_specs(
                    test, policy_spec, config, runs_per_test, base_seed,
                    faults=faults, trace=trace, sanitize=sanitize,
                )
                blocks.append((test, len(specs), len(test_specs)))
                specs.extend(test_specs)
            cell_plans.append(
                {"config": config, "policy": policy_spec, "blocks": blocks}
            )
    return ConformancePlan(
        specs=specs,
        cell_plans=cell_plans,
        runs_per_test=runs_per_test,
        runner=runner,
    )


def judge_conformance(plan: ConformancePlan, campaign) -> ConformanceReport:
    """Classify every planned cell from its slice of the campaign."""
    conformance_cache: Dict[tuple, bool] = {}
    cells: List[CellResult] = []
    run_traces: List[Tuple[str, Tuple[TraceEvent, ...]]] = []
    for cell_plan in plan.cell_plans:
        config, policy_spec = cell_plan["config"], cell_plan["policy"]
        if cell_plan["blocks"] is None:
            cells.append(
                CellResult(
                    config_name=config.name,
                    policy_name=policy_spec.name,
                    verdict=VERDICT_NA,
                )
            )
            continue
        for test, start, count in cell_plan["blocks"]:
            for i, result in enumerate(campaign.results[start : start + count]):
                if result.trace_events is not None:
                    run_traces.append(
                        (
                            f"{config.name}/{policy_spec.name}/"
                            f"{test.name}/run{i}",
                            result.trace_events,
                        )
                    )
        cells.append(
            _judge_cell(
                plan.runner, config, policy_spec, cell_plan["blocks"],
                campaign.results, conformance_cache,
            )
        )
    return ConformanceReport(
        cells=cells,
        runs_per_test=plan.runs_per_test,
        run_traces=run_traces,
        trace_summary=(
            campaign.metrics.trace_summary if campaign.metrics else None
        ),
        preempted=campaign.preempted,
    )


def run_conformance(
    configs: Sequence[MachineConfig] = DEFAULT_CONFIGS,
    policies: Sequence[Callable[[], OrderingPolicy]] = DEFAULT_POLICIES,
    tests: Optional[Sequence[LitmusTest]] = None,
    runs_per_test: int = 30,
    base_seed: int = 2024,
    runner: Optional[LitmusRunner] = None,
    executor: Optional[Executor] = None,
    jobs: int = 1,
    cache: Optional[ResultCache] = None,
    faults: Optional[FaultPlan] = None,
    trace: Optional[TraceSpec] = None,
    sanitize: Optional[str] = None,
    journal=None,
    progress=None,
) -> ConformanceReport:
    """Audit every (machine, policy) pair against the litmus battery.

    The whole grid is a single campaign: every run of every cell goes
    into one flat :class:`RunSpec` list, so with ``jobs > 1`` (or a
    parallel ``executor``) the grid parallelises across cells, tests,
    and seeds at once — not merely within one cell.

    ``faults`` runs the entire grid under an injected
    :class:`~repro.faults.FaultPlan`: Definition 2 quantifies over all
    legal message timings, so a conforming cell must keep its verdict
    under adversarial jitter and reordering, while racy programs remain
    free to surface *more* violations.

    ``trace`` records every run in the grid; the report carries the
    labelled per-run traces and a merged summary.

    ``sanitize`` runs every cell under the protocol sanitizer
    (``"log"`` or ``"strict"``) — the conformance grid doubling as a
    protocol-invariant audit.

    ``journal`` (a :class:`~repro.campaign.journal.CampaignJournal` or
    a path) journals the whole grid durably; re-running a killed or
    preempted audit against the same journal resumes it.

    ``progress`` (``True`` or a :class:`~repro.obs.ProgressReporter`)
    prints a live heartbeat while the grid executes.
    """
    plan = plan_conformance(
        configs=configs, policies=policies, tests=tests,
        runs_per_test=runs_per_test, base_seed=base_seed, runner=runner,
        faults=faults, trace=trace, sanitize=sanitize,
    )

    from repro.api import campaign as run_campaign

    campaign = run_campaign(
        plan.specs, executor=executor, jobs=jobs, cache=cache,
        label="conformance", journal=journal, progress=progress,
    )
    return judge_conformance(plan, campaign)


def _judge_cell(
    runner: LitmusRunner,
    config: MachineConfig,
    policy_spec: PolicySpec,
    blocks: Sequence[Tuple[LitmusTest, int, int]],
    results: Sequence,
    conformance_cache: Dict[tuple, bool],
) -> CellResult:
    """Classify one (machine, policy) cell from its slice of the campaign."""
    violations: Dict[str, bool] = {}
    incomplete: List[str] = []
    broke_contract = False
    any_violation = False
    model = policy_spec.build().synchronization_model()
    for test, start, count in blocks:
        result = runner.collect(
            test, policy_spec.name, config.name, results[start : start + count]
        )
        if result.completed_runs < result.runs:
            incomplete.append(test.name)
        violated = result.violated_sc
        violations[test.name] = violated
        if violated:
            any_violation = True
            if _conforms(test, model, conformance_cache):
                broke_contract = True
    if broke_contract:
        verdict = VERDICT_BROKEN
    elif any_violation:
        verdict = VERDICT_WEAK
    else:
        verdict = VERDICT_SC
    return CellResult(
        config_name=config.name,
        policy_name=policy_spec.name,
        verdict=verdict,
        violations=violations,
        incomplete=incomplete,
    )
