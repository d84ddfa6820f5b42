"""The stable public facade of the reproduction.

Every workflow the repo supports is reachable through seven
keyword-only, picklable-spec-based functions:

* :func:`run` — execute one program on simulated hardware;
* :func:`explore` — delay-bounded systematic exploration (with
  conflict-aware pruning);
* :func:`verify_sc` — the appears-SC check of Definition 2 (or, with
  ``model=``, classification against an axiomatic model);
* :func:`check_drf0` — the DRF0 program check of Definition 3; it is
  :func:`~repro.drf.drf0.check_program` itself;
* :func:`campaign` — a batch of :class:`~repro.campaign.spec.RunSpec`
  through the (serial or parallel, optionally cached) campaign layer;
  it is :func:`~repro.campaign.run_campaign` itself;
* :func:`models` — introspection over every registered memory model:
  summaries, supported cores, and the axiomatic counterpart;
* :func:`crosscheck` — the operational-vs-axiomatic agreement check
  over the litmus catalog; it is
  :func:`~repro.axiomatic.crosscheck.crosscheck_models` itself.

Arguments accept friendly forms everywhere: a policy may be a name
(``"DEF2"``), a :class:`~repro.campaign.spec.PolicySpec`, a policy
class, a zero-argument factory, or an instance; a machine may be a
name (``"net_cache"``) or a :class:`~repro.memsys.config.MachineConfig`;
a litmus test in a grid may be a catalog name; a fault plan may be a
spec string (``"jitter=12,reorder=20"``) or a :class:`~repro.faults.
FaultPlan`.

The module also re-exports the curated surface the CLI and downstream
tools build on, so ``from repro.api import ...`` is the only import a
consumer needs.  Internal entry points remain importable from their
home modules, but new code should come through here.  Every entry
point has one calling form: options are keyword-only.
"""

from __future__ import annotations

from dataclasses import replace
from pathlib import Path
from typing import Callable, Iterable, List, Optional, Set, Union

from repro.analysis.figure3 import figure3_sweep
from repro.analysis.report import format_table
from repro.campaign import (
    CampaignJournal,
    CampaignMetrics,
    CampaignResult,
    EXIT_PREEMPTED,
    Executor,
    JournalError,
    ParallelExecutor,
    PolicySpec,
    PreemptionToken,
    ResultCache,
    RunFailure,
    RunResult,
    RunSpec,
    SerialExecutor,
    current_token,
    default_executor,
    emit_metrics,
    graceful_preemption,
    open_journal,
    preempted_result,
    program_fingerprint,
    register_metrics_hook,
    run_campaign,
    unregister_metrics_hook,
)
from repro.conformance import (
    VERDICT_BROKEN,
    VERDICT_NA,
    VERDICT_SC,
    VERDICT_WEAK,
    ConformancePlan,
    ConformanceReport,
    judge_conformance,
    plan_conformance,
    run_conformance,
)
from repro.core.execution import Observable
from repro.core.program import Program, Thread, ThreadBuilder
from repro.delayset import (
    delay_pairs,
    describe_delay_set,
    minimal_delay_pairs,
    static_footprints,
)
from repro.drf.drf0 import DRFReport, check_program, contract_obeys, obeys_drf0
from repro.drf.models import DRF0, DRF0_R, SynchronizationModel
from repro.explore.explorer import (
    ExplorationReport,
    explore_program,
    explore_to_fixpoint,
    verify_weak_ordering,
)
from repro.faults import FaultPlan, parse_fault_plan
from repro.cpu.core import core_names
from repro.litmus.catalog import (
    catalog_by_name,
    fig1_dekker,
    fig1_dekker_all_sync,
    forwarding_catalog,
    load_test,
    standard_catalog,
)
from repro.litmus.parse import parse_litmus
from repro.litmus.runner import LitmusResult, LitmusRunner
from repro.litmus.test import LitmusTest
from repro.log import configure_cli_logging, get_logger
from repro.obs import (
    METRICS,
    FlightRecorder,
    MetricsRegistry,
    ProgressReporter,
    Snapshot,
    disable_metrics,
    enable_metrics,
    load_snapshot,
    to_prometheus,
    write_prometheus,
)
from repro.memsys.config import (
    BUS_CACHE,
    BUS_CACHE_SNOOP,
    BUS_NOCACHE,
    FIGURE1_CONFIGS,
    NET_CACHE,
    NET_CACHE_VC,
    NET_NOCACHE,
    MachineConfig,
    config_by_name,
    machine_names,
)
from repro.memsys.system import System
from repro.models.base import policy_names, registered_policies
from repro.models.policies import (
    Def1Policy,
    Def2Policy,
    Def2RPolicy,
    PSOPolicy,
    RelaxedPolicy,
    SCPolicy,
    TSOPolicy,
    policy_by_name,
)
from repro.axiomatic import (
    AxiomaticModel,
    CrosscheckCell,
    CrosscheckReport,
    allowed_outcomes,
    axiomatic_model_names,
    crosscheck_models,
    is_straightline,
    model_by_name,
    model_for_policy,
)
from repro.axiomatic.candidates import DEFAULT_MAX_CANDIDATES
from repro.sanitizer.bundle import ReproBundle
from repro.sanitizer.triage import TriageConfig
from repro.sc.independence import SearchStats
from repro.sc.interleaving import enumerate_executions, enumerate_results
from repro.sc.verifier import SCVerifier, SCViolation
from repro.trace import (
    FORMATS,
    TraceEvent,
    TraceSpec,
    crosscheck_run,
    format_timeline,
    write_trace,
)
from repro.workloads.random_programs import (
    random_drf0_program,
    random_mixed_sync_program,
    random_racy_program,
    random_spin_program,
)

#: Forms accepted wherever the facade takes a policy.
PolicyLike = Union[str, PolicySpec, Callable, object]
#: Forms accepted wherever the facade takes a machine.
MachineLike = Union[str, MachineConfig, None]
#: Forms accepted wherever the facade takes a fault plan.
FaultsLike = Union[str, FaultPlan, None]


def _coerce_policy(policy: PolicyLike, core: Optional[str] = None) -> PolicySpec:
    spec = PolicySpec.of(policy)
    if core is not None and core != spec.core:
        # Validate against the policy's declared capability before
        # overriding whatever the PolicyLike form carried.
        from repro.cpu.core import core_class_by_name

        core_class_by_name(core)
        probe = spec.build()
        if core not in probe.supported_cores:
            raise ValueError(
                f"policy {spec.name} does not support core {core!r}; "
                f"supported: {list(probe.supported_cores)}"
            )
        spec = replace(spec, core=core)
    return spec


def _coerce_machine(machine: MachineLike) -> MachineConfig:
    if machine is None:
        return NET_CACHE
    if isinstance(machine, str):
        return config_by_name(machine)
    return machine


def _coerce_faults(faults: FaultsLike, seed: int) -> Optional[FaultPlan]:
    if faults is None or isinstance(faults, FaultPlan):
        return faults
    return parse_fault_plan(faults, seed=seed)


def run(
    program: Program,
    policy: PolicyLike,
    *,
    machine: MachineLike = None,
    core: Optional[str] = None,
    seed: int = 0,
    max_cycles: int = 1_000_000,
    faults: FaultsLike = None,
    trace: Optional[TraceSpec] = None,
    sanitize: Optional[str] = None,
) -> RunResult:
    """Execute ``program`` once on simulated hardware.

    A thin veneer over :meth:`RunSpec.execute`: the call builds the
    picklable spec and runs it in-process, so anything :func:`run` can
    do also batches verbatim through :func:`campaign`.  ``core``
    names the processor-core shape (``"simple"``/``"pipelined"``); the
    default keeps whatever the policy form carried (usually
    ``"simple"``).
    """
    spec = RunSpec(
        program=program,
        policy=_coerce_policy(policy, core=core),
        config=_coerce_machine(machine),
        seed=seed,
        max_cycles=max_cycles,
        faults=_coerce_faults(faults, seed),
        trace=trace,
        sanitize=sanitize,
    )
    return spec.execute()


def explore(
    program: Program,
    policy: PolicyLike,
    *,
    max_delays: int = 2,
    prune: bool = True,
    machine: MachineLike = None,
    core: Optional[str] = None,
    max_runs: int = 20_000,
    max_cycles: int = 200_000,
    trace: Optional[TraceSpec] = None,
    sanitize: Optional[str] = None,
    journal: Union[CampaignJournal, str, Path, None] = None,
    resume: bool = False,
    progress: Union[bool, "ProgressReporter", None] = None,
) -> ExplorationReport:
    """Systematically enumerate delay-bounded schedules of ``program``.

    See :func:`repro.explore.explorer.explore_program` for the search
    itself; ``prune`` skips delay decisions that provably commute
    (counted on the report, never changing the outcome set).  Every
    schedule runs in-process, forking the machine where a child
    deviates.  With ``journal`` each schedule's result is appended
    durably as it finishes; ``resume=True`` walks a killed exploration
    again from that journal, running only the schedules it lacks;
    ``progress`` prints a live heartbeat.  A (policy, machine) pair
    that cannot be built raises ``ConfigurationError``.
    """
    return explore_program(
        program,
        _coerce_policy(policy, core=core),
        max_delays=max_delays,
        config=_coerce_machine(machine),
        max_runs=max_runs,
        max_cycles=max_cycles,
        trace=trace,
        sanitize=sanitize,
        prune=prune,
        journal=journal,
        resume=resume,
        progress=progress,
    )


#: The synchronization model behind each conditional axiomatic model's
#: ``condition`` field.
_CONDITION_MODELS = {"drf0": DRF0, "drf0_r": DRF0_R}


def verify_sc(
    program: Program,
    outcomes: Optional[Iterable[Observable]] = None,
    *,
    model: Optional[str] = None,
    max_states: int = 2_000_000,
    prune: bool = True,
    max_candidates: int = DEFAULT_MAX_CANDIDATES,
) -> Union[Set[Observable], List[SCViolation]]:
    """Definition 2's appears-SC check (or any model's allowed set).

    With ``outcomes``: classify each observed outcome against the
    reference set and return one :class:`SCViolation` per outcome the
    reference cannot produce (empty list = all outcomes conform).
    Without ``outcomes``: return the reference set itself.

    The reference defaults to the exhaustive SC interleaving set; with
    ``model=`` (an axiomatic model name, see
    :func:`~repro.axiomatic.model.axiomatic_model_names`) it is instead
    the set of outcomes that model's axioms allow — ``model="SC"``
    provably coincides with the default for straight-line programs,
    weaker models accept more.  A conditional model (``WO-DRF0``,
    ``WO-DRF0R``) gets its condition decided here, by the same
    exhaustive DRF check the conformance grid uses.
    """
    if model is not None:
        axiomatic = model_by_name(model)
        condition = {}
        if axiomatic.condition is not None:
            condition[axiomatic.condition] = contract_obeys(
                program.name, program, _CONDITION_MODELS[axiomatic.condition]
            )
        reference: Set[Observable] = set(
            allowed_outcomes(
                program, axiomatic, max_candidates=max_candidates, **condition
            )
        )
    else:
        reference = enumerate_results(
            program, max_states=max_states, prune=prune
        )
    if outcomes is None:
        return reference
    return [
        SCViolation(program=program, observed=outcome)
        for outcome in outcomes
        if outcome not in reference
    ]


#: Definition 3, does a program obey a synchronization model: the facade
#: name of :func:`repro.drf.drf0.check_program`.
check_drf0 = check_program


#: A batch of :class:`~repro.campaign.spec.RunSpec` through the campaign
#: layer: the facade name of :func:`repro.campaign.run_campaign`.
campaign = run_campaign


def models() -> List[dict]:
    """Introspection over every registered memory model.

    One row per name-constructible policy, sorted by name::

        {"name": "TSO",
         "summary": "...",
         "cores": ("simple", "pipelined"),
         "requires_cache": False,
         "axiomatic_model": "TSO",
         "axiomatic_summary": "po minus write-to-read: ..."}

    ``axiomatic_model`` names the declarative counterpart the
    cross-checker holds the policy against
    (:func:`~repro.axiomatic.model.model_for_policy`).  The rows derive
    entirely from the policy registry — registering a new policy class
    makes it appear here, in ``policy_by_name``, and in the CLI
    ``--policy`` choices at once.
    """
    rows: List[dict] = []
    for name, cls in sorted(registered_policies().items()):
        axiomatic = model_for_policy(name)
        rows.append(
            {
                "name": name,
                "summary": cls.summary,
                "cores": tuple(cls.supported_cores),
                "requires_cache": cls.requires_cache,
                "axiomatic_model": axiomatic.name,
                "axiomatic_summary": axiomatic.summary,
            }
        )
    return rows


#: The operational-vs-axiomatic agreement check: the facade name of
#: :func:`repro.axiomatic.crosscheck.crosscheck_models`.
crosscheck = crosscheck_models


__all__ = [
    # The facade.
    "run",
    "explore",
    "verify_sc",
    "check_drf0",
    "campaign",
    "models",
    "crosscheck",
    # Core vocabulary.
    "Observable",
    "Program",
    "Thread",
    "ThreadBuilder",
    # Campaign layer.
    "CampaignJournal",
    "CampaignMetrics",
    "CampaignResult",
    "EXIT_PREEMPTED",
    "Executor",
    "JournalError",
    "ParallelExecutor",
    "PolicySpec",
    "PreemptionToken",
    "ResultCache",
    "RunFailure",
    "RunResult",
    "RunSpec",
    "SerialExecutor",
    "current_token",
    "default_executor",
    "emit_metrics",
    "graceful_preemption",
    "open_journal",
    "preempted_result",
    "program_fingerprint",
    "register_metrics_hook",
    "run_campaign",
    "unregister_metrics_hook",
    # Machines and policies.
    "BUS_CACHE",
    "BUS_CACHE_SNOOP",
    "BUS_NOCACHE",
    "FIGURE1_CONFIGS",
    "MachineConfig",
    "NET_CACHE",
    "NET_CACHE_VC",
    "NET_NOCACHE",
    "System",
    "config_by_name",
    "machine_names",
    "Def1Policy",
    "Def2Policy",
    "Def2RPolicy",
    "PSOPolicy",
    "RelaxedPolicy",
    "SCPolicy",
    "TSOPolicy",
    "core_names",
    "policy_by_name",
    "policy_names",
    "registered_policies",
    # Axiomatic models and the cross-checker.
    "AxiomaticModel",
    "CrosscheckCell",
    "CrosscheckReport",
    "DEFAULT_MAX_CANDIDATES",
    "allowed_outcomes",
    "axiomatic_model_names",
    "crosscheck_models",
    "is_straightline",
    "model_by_name",
    "model_for_policy",
    # Litmus and conformance.
    "LitmusResult",
    "LitmusRunner",
    "LitmusTest",
    "catalog_by_name",
    "fig1_dekker",
    "fig1_dekker_all_sync",
    "forwarding_catalog",
    "load_test",
    "parse_litmus",
    "standard_catalog",
    "ConformancePlan",
    "ConformanceReport",
    "judge_conformance",
    "plan_conformance",
    "run_conformance",
    "VERDICT_BROKEN",
    "VERDICT_NA",
    "VERDICT_SC",
    "VERDICT_WEAK",
    # Checkers and search.
    "DRF0",
    "DRF0_R",
    "DRFReport",
    "ExplorationReport",
    "SCVerifier",
    "SCViolation",
    "SearchStats",
    "SynchronizationModel",
    "check_program",
    "enumerate_executions",
    "enumerate_results",
    "explore_program",
    "explore_to_fixpoint",
    "obeys_drf0",
    "verify_weak_ordering",
    # Delay sets.
    "delay_pairs",
    "describe_delay_set",
    "minimal_delay_pairs",
    "static_footprints",
    # Faults, tracing, observability.
    "FaultPlan",
    "parse_fault_plan",
    "FORMATS",
    "TraceEvent",
    "TraceSpec",
    "crosscheck_run",
    "format_timeline",
    "write_trace",
    # Fuzzing and triage.
    "ReproBundle",
    "TriageConfig",
    "random_drf0_program",
    "random_mixed_sync_program",
    "random_racy_program",
    "random_spin_program",
    # Analyses and logging.
    "figure3_sweep",
    "format_table",
    "configure_cli_logging",
    "get_logger",
    # Observability.
    "METRICS",
    "MetricsRegistry",
    "Snapshot",
    "ProgressReporter",
    "FlightRecorder",
    "enable_metrics",
    "disable_metrics",
    "load_snapshot",
    "to_prometheus",
    "write_prometheus",
]
