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
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.campaign import (
    Executor,
    PolicySpec,
    ResultCache,
    RunSpec,
    program_fingerprint,
    run_campaign,
)
from repro.faults import FaultPlan
from repro.litmus.catalog import catalog_by_name, standard_catalog
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
    config_by_name,
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

#: A grid axis entry: a catalog test name or a test; a machine name or
#: a config; a registered policy name or anything
#: :meth:`PolicySpec.of` accepts.
TestLike = Union[str, LitmusTest]
MachineLike = Union[str, MachineConfig]
PolicyLike = Union[str, Callable[[], OrderingPolicy], PolicySpec]

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


@dataclass
class ConformancePlan:
    """A (tests x policies x machines) grid laid out as one flat campaign.

    Splitting planning from judging lets a consumer know the complete
    :class:`RunSpec` list — and therefore the campaign's content digest
    — *before* running anything.  :func:`run_conformance` is exactly
    plan, run, judge, so a planned-then-run grid and
    :func:`run_conformance` produce byte-identical campaigns.  The
    crosscheck (:func:`~repro.axiomatic.crosscheck.crosscheck_models`)
    runs the same plan and judges it against the axiomatic models.
    """

    specs: List[RunSpec]
    runs_per_test: int
    runner: LitmusRunner
    #: The grid's axes, names resolved, in spec order.
    configs: List[MachineConfig]
    policies: List[PolicySpec]
    tests: List[LitmusTest]
    #: ``(machine, policy)`` -> test name -> ``(start, count)`` of the
    #: test's block of specs; None for a pair that cannot be built.
    cells: Dict[
        Tuple[MachineConfig, PolicySpec], Optional[Dict[str, Tuple[int, int]]]
    ]
    #: ``(model name, program fingerprint)`` -> :meth:`obeys` verdict.
    _verdicts: Dict[Tuple[str, str], bool] = field(
        default_factory=dict, init=False, repr=False
    )

    def obeys(self, test: LitmusTest, model) -> bool:
        """Does the test's program obey the synchronization model?

        The premise of the Definition-2 contract, judged on the source
        program: the contract is about the software as written, and
        warm-up loads are harness scaffolding.  Kept by the program's
        content, not the test's name, for the life of the plan.
        """
        from repro.drf.drf0 import contract_obeys

        key = (model.name, program_fingerprint(test.program))
        if key not in self._verdicts:
            self._verdicts[key] = contract_obeys(
                test.name, test.program, model
            )
        return self._verdicts[key]


def grid_tests(tests: Optional[Sequence[TestLike]] = None) -> List[LitmusTest]:
    """A grid's tests, catalog names resolved; the standard catalog by
    default.

    Raises :class:`ValueError` for a name the catalog lacks, and when
    two tests share a name: reports key cells, violations, incomplete
    tests and run traces by test name.
    """
    if tests is None:
        return standard_catalog()
    catalog: Optional[Dict[str, LitmusTest]] = None
    resolved: List[LitmusTest] = []
    names: set = set()
    for test in tests:
        if isinstance(test, str):
            catalog = catalog or catalog_by_name()
            if test not in catalog:
                raise ValueError(
                    f"{test!r} is not a catalog test "
                    f"({', '.join(sorted(catalog))})"
                )
            test = catalog[test]
        if test.name in names:
            raise ValueError(
                f"two tests are named {test.name!r}; the grid reports "
                f"tests by name, so names must be unique"
            )
        names.add(test.name)
        resolved.append(test)
    return resolved


def plan_conformance(
    *,
    configs: Sequence[MachineLike] = DEFAULT_CONFIGS,
    policies: Sequence[PolicyLike] = DEFAULT_POLICIES,
    tests: Optional[Sequence[TestLike]] = None,
    runs_per_test: int = 30,
    base_seed: int = 2024,
    faults: Optional[FaultPlan] = None,
    trace: Optional[TraceSpec] = None,
    sanitize: Optional[str] = None,
) -> ConformancePlan:
    """Lay out the grid's flat campaign without executing it.

    Per compatible (machine, policy) cell, per test, one contiguous
    block of seed specs, in that order; each block's slice is
    remembered so a judge can classify cells from the flat result list.
    Machines and tests may be given by name, policies by registered
    name or anything :meth:`PolicySpec.of` accepts.

    Raises :class:`ValueError` when two tests share a name (see
    :func:`grid_tests`).
    """
    runner = LitmusRunner()
    tests = grid_tests(tests)
    configs = [
        config_by_name(c) if isinstance(c, str) else c for c in configs
    ]
    policy_specs = [PolicySpec.of(p) for p in policies]
    specs: List[RunSpec] = []
    cells: dict = {}
    for config in configs:
        for policy_spec in policy_specs:
            try:
                ensure_compatible(policy_spec.build(), config, policy_spec.core)
            except ConfigurationError:
                cells[config, policy_spec] = None
                continue
            blocks = cells[config, policy_spec] = {}
            for test in tests:
                test_specs = runner.campaign_specs(
                    test, policy_spec, config, runs_per_test, base_seed,
                    faults=faults, trace=trace, sanitize=sanitize,
                )
                blocks[test.name] = (len(specs), len(test_specs))
                specs.extend(test_specs)
    return ConformancePlan(
        specs=specs,
        runs_per_test=runs_per_test,
        runner=runner,
        configs=configs,
        policies=policy_specs,
        tests=tests,
        cells=cells,
    )


def judge_conformance(plan: ConformancePlan, campaign) -> ConformanceReport:
    """Classify every planned cell from its slice of the campaign."""
    cells: List[CellResult] = []
    run_traces: List[Tuple[str, Tuple[TraceEvent, ...]]] = []
    for config in plan.configs:
        for policy_spec in plan.policies:
            blocks = plan.cells[config, policy_spec]
            if blocks is None:
                cells.append(
                    CellResult(
                        config_name=config.name,
                        policy_name=policy_spec.name,
                        verdict=VERDICT_NA,
                    )
                )
                continue
            for test in plan.tests:
                start, count = blocks[test.name]
                for i, result in enumerate(
                    campaign.results[start : start + count]
                ):
                    if result.trace_events is not None:
                        run_traces.append(
                            (
                                f"{config.name}/{policy_spec.name}/"
                                f"{test.name}/run{i}",
                                result.trace_events,
                            )
                        )
            cells.append(
                _judge_cell(plan, config, policy_spec, blocks, campaign.results)
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
    *,
    configs: Sequence[MachineLike] = DEFAULT_CONFIGS,
    policies: Sequence[PolicyLike] = DEFAULT_POLICIES,
    tests: Optional[Sequence[TestLike]] = None,
    runs_per_test: int = 30,
    base_seed: int = 2024,
    executor: Optional[Executor] = None,
    cache: Optional[ResultCache] = None,
    faults: Optional[FaultPlan] = None,
    trace: Optional[TraceSpec] = None,
    sanitize: Optional[str] = None,
    journal=None,
    progress=None,
) -> ConformanceReport:
    """Audit every (machine, policy) pair against the litmus battery.

    The whole grid is a single campaign: every run of every cell goes
    into one flat :class:`RunSpec` list, so with a parallel
    ``executor`` the grid parallelises across cells, tests, and seeds
    at once — not merely within one cell.

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
        runs_per_test=runs_per_test, base_seed=base_seed, faults=faults,
        trace=trace, sanitize=sanitize,
    )
    campaign = run_campaign(
        plan.specs, executor=executor, cache=cache,
        label="conformance", journal=journal, progress=progress,
    )
    return judge_conformance(plan, campaign)


def _judge_cell(
    plan: ConformancePlan,
    config: MachineConfig,
    policy_spec: PolicySpec,
    blocks: Dict[str, Tuple[int, int]],
    results: Sequence,
) -> CellResult:
    """Classify one (machine, policy) cell from its slice of the campaign."""
    violations: Dict[str, bool] = {}
    incomplete: List[str] = []
    broke_contract = False
    any_violation = False
    model = policy_spec.build().synchronization_model()
    for test in plan.tests:
        start, count = blocks[test.name]
        result = plan.runner.collect(
            test, policy_spec.name, config.name, results[start : start + count]
        )
        if result.completed_runs < result.runs:
            incomplete.append(test.name)
        violated = result.violated_sc
        violations[test.name] = violated
        if violated:
            any_violation = True
            if plan.obeys(test, model):
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
