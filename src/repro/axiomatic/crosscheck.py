"""Cross-checking the operational and axiomatic sides of every model.

The library states each memory model twice: operationally (an
:class:`~repro.models.base.OrderingPolicy` driving the hardware
simulator) and axiomatically (an
:class:`~repro.axiomatic.model.AxiomaticModel` over candidate
executions).  :func:`crosscheck_models` holds the two accountable to
each other over the litmus catalog, cell by (test, policy) cell:

1. **operational-subset** — every outcome the hardware exhibits must be
   axiomatically allowed (the axiomatic model soundly bounds the
   machine);
2. **sc-subset** — every SC-enumerable outcome must be allowed (no
   model forbids what sequential consistency permits);
3. **sc-exact** — for the SC model, the axiomatic set must equal the
   exhaustive-interleaving set *exactly*;
4. **forbidden** — when a model axiomatically forbids the test's
   designated forbidden outcome, the hardware must never exhibit it
   (implied by 1, but reported in the paper's own vocabulary).

Programs with control flow (spin loops) have no finite candidate space;
the checker reports them as skipped rather than silently mis-modelling
them.  Like the conformance grid, the whole check is one flat campaign,
so a parallel ``executor`` spreads it across cells, tests, and seeds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    FrozenSet,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.campaign import (
    Executor,
    PolicySpec,
    ResultCache,
    RunSpec,
    program_fingerprint,
    run_campaign,
)
from repro.core.execution import Observable
from repro.litmus.catalog import standard_catalog
from repro.litmus.runner import LitmusRunner
from repro.litmus.test import LitmusTest
from repro.memsys.config import MachineConfig, NET_CACHE, NET_NOCACHE
from repro.memsys.system import ConfigurationError, ensure_compatible
from repro.axiomatic.candidates import (
    DEFAULT_MAX_CANDIDATES,
    allowed_outcomes,
    is_straightline,
)
from repro.axiomatic.model import model_for_policy

#: What callers may pass as a policy: a report name or anything
#: :meth:`PolicySpec.of` accepts (class, factory, spec).
PolicyLike = Union[str, Callable, PolicySpec]

DEFAULT_CONFIGS: Tuple[MachineConfig, ...] = (NET_NOCACHE, NET_CACHE)


@dataclass
class CrosscheckCell:
    """One (test, policy) agreement check."""

    test_name: str
    policy_name: str
    model_name: str
    #: Configurations the policy actually ran on (compatible ones).
    config_names: Tuple[str, ...]
    #: Projected outcomes the axiomatic model allows.
    allowed_outcomes: FrozenSet[Tuple[int, ...]]
    #: Projected outcomes the hardware exhibited.
    observed_outcomes: FrozenSet[Tuple[int, ...]]
    #: Human-readable failure descriptions; empty means agreement.
    failures: Tuple[str, ...] = ()
    #: Hardware runs that did not complete (watchdog, crash).
    failed_runs: int = 0

    @property
    def ok(self) -> bool:
        return not self.failures

    def describe(self) -> str:
        status = "ok" if self.ok else "DISAGREE"
        lines = [
            f"{self.test_name} / {self.policy_name} "
            f"(axiomatic {self.model_name}): {status}"
        ]
        lines.extend(f"  ! {failure}" for failure in self.failures)
        return "\n".join(lines)


@dataclass
class CrosscheckReport:
    """The full operational-vs-axiomatic agreement matrix."""

    cells: List[CrosscheckCell]
    #: ``(test name, reason)`` for tests the checker cannot model.
    skipped: List[Tuple[str, str]] = field(default_factory=list)
    runs_per_test: int = 0
    preempted: bool = False

    @property
    def ok(self) -> bool:
        return all(cell.ok for cell in self.cells)

    @property
    def disagreements(self) -> List[CrosscheckCell]:
        return [cell for cell in self.cells if not cell.ok]

    def cell(
        self, test_name: str, policy_name: str
    ) -> Optional[CrosscheckCell]:
        for cell in self.cells:
            if cell.test_name == test_name and cell.policy_name == policy_name:
                return cell
        return None

    def describe(self) -> str:
        lines = [
            f"operational-vs-axiomatic crosscheck: "
            f"{len(self.cells)} cells, "
            f"{len(self.disagreements)} disagreement(s), "
            f"{len(self.skipped)} test(s) skipped"
        ]
        for cell in self.cells:
            if not cell.ok:
                lines.append(cell.describe())
        for name, reason in self.skipped:
            lines.append(f"skipped {name}: {reason}")
        lines.append("AGREE" if self.ok else "DISAGREE")
        return "\n".join(lines)


def _policy_spec(policy: PolicyLike) -> PolicySpec:
    if isinstance(policy, str):
        from repro.models.policies import policy_by_name

        name = policy
        return PolicySpec.of(lambda: policy_by_name(name))
    return PolicySpec.of(policy)


def _drf_flags(test: LitmusTest, cache: Dict[str, Tuple[bool, bool]]):
    """Whether the test's *source* program obeys DRF0 / DRF0-R.

    Judged on the unwarmed program, matching the conformance grid: the
    Definition-2 contract is about the software as written; warm-up
    loads are harness scaffolding.  Cached by the program's content,
    not the test's name: two tests may share a name but not a program.
    """
    key = program_fingerprint(test.program)
    if key not in cache:
        from repro.drf.drf0 import contract_obeys
        from repro.drf.models import DRF0, DRF0_R

        cache[key] = (
            contract_obeys(test.name, test.program, DRF0),
            contract_obeys(test.name, test.program, DRF0_R),
        )
    return cache[key]


def crosscheck_models(
    *,
    tests: Optional[Sequence[LitmusTest]] = None,
    policies: Optional[Sequence[PolicyLike]] = None,
    configs: Sequence[MachineConfig] = DEFAULT_CONFIGS,
    runs_per_test: int = 12,
    base_seed: int = 2026,
    max_cycles: int = 1_000_000,
    runner: Optional[LitmusRunner] = None,
    executor: Optional[Executor] = None,
    cache: Union[ResultCache, str, None] = None,
    max_candidates: int = DEFAULT_MAX_CANDIDATES,
    progress=None,
) -> CrosscheckReport:
    """Assert operational/axiomatic agreement over the litmus catalog.

    ``tests`` defaults to the full standard catalog; ``policies`` (names
    or factories) defaults to every name-constructible policy.  Each
    policy runs on every compatible configuration in ``configs``; its
    outcomes are checked against the axiomatic model
    :func:`~repro.axiomatic.model.model_for_policy` assigns it.
    """
    from repro.models.base import policy_names

    runner = runner or LitmusRunner()
    tests = list(tests) if tests is not None else standard_catalog()
    policy_specs = [
        _policy_spec(p) for p in (policies if policies is not None else policy_names())
    ]

    # -- plan: one flat campaign over every runnable block ---------------
    specs: List[RunSpec] = []
    blocks: List[Tuple[LitmusTest, PolicySpec, MachineConfig, int, int]] = []
    skipped: List[Tuple[str, str]] = []
    runnable: List[LitmusTest] = []
    for test in tests:
        if not is_straightline(test.program):
            skipped.append(
                (test.name, "control flow: no finite candidate space")
            )
            continue
        runnable.append(test)
        for policy_spec in policy_specs:
            for config in configs:
                try:
                    ensure_compatible(
                        policy_spec.build(), config, policy_spec.core
                    )
                except ConfigurationError:
                    continue
                test_specs = runner.campaign_specs(
                    test, policy_spec, config, runs_per_test, base_seed,
                    max_cycles=max_cycles,
                )
                blocks.append(
                    (test, policy_spec, config, len(specs), len(test_specs))
                )
                specs.extend(test_specs)

    campaign = run_campaign(
        specs, executor=executor, cache=cache,
        label="crosscheck", progress=progress,
    )

    # -- judge: axiomatic sets vs observed outcomes, per cell ------------
    drf_cache: Dict[str, Tuple[bool, bool]] = {}
    models = {spec.name: model_for_policy(spec.name) for spec in policy_specs}
    cells: List[CrosscheckCell] = []
    for test in runnable:
        program = runner.executable(test)
        sc_set = frozenset(runner.verifier.sc_result_set(program))
        drf0, drf0_r = _drf_flags(test, drf_cache)
        allowed_cache: Dict[str, FrozenSet[Observable]] = {}
        for policy_spec in policy_specs:
            model = models[policy_spec.name]
            if model.name not in allowed_cache:
                allowed_cache[model.name] = allowed_outcomes(
                    program, model, max_candidates=max_candidates,
                    drf0=drf0, drf0_r=drf0_r,
                )
            allowed = allowed_cache[model.name]

            observed: set = set()
            config_names: List[str] = []
            failed_runs = 0
            for blk_test, blk_policy, config, start, count in blocks:
                if blk_test is not test or blk_policy is not policy_spec:
                    continue
                config_names.append(config.name)
                for result in campaign.results[start : start + count]:
                    if not result.completed or result.observable is None:
                        failed_runs += 1
                        continue
                    observed.add(result.observable)

            failures: List[str] = []
            stray = sorted(
                test.project(obs) for obs in observed - allowed
            )
            if stray:
                failures.append(
                    f"hardware exhibited outcome(s) the {model.name} "
                    f"axioms forbid: "
                    + ", ".join(test.describe_outcome(o) for o in stray)
                )
            missing_sc = sorted(
                test.project(obs) for obs in sc_set - allowed
            )
            if missing_sc:
                failures.append(
                    f"{model.name} axioms forbid SC-reachable outcome(s): "
                    + ", ".join(test.describe_outcome(o) for o in missing_sc)
                )
            if model.name == "SC":
                extra = sorted(
                    test.project(obs) for obs in allowed - sc_set
                )
                if extra:
                    failures.append(
                        "SC axioms allow outcome(s) exhaustive "
                        "interleaving cannot reach: "
                        + ", ".join(test.describe_outcome(o) for o in extra)
                    )
            allowed_proj = frozenset(test.project(obs) for obs in allowed)
            observed_proj = frozenset(test.project(obs) for obs in observed)
            if (
                test.forbidden is not None
                and test.forbidden not in allowed_proj
                and test.forbidden in observed_proj
            ):
                failures.append(
                    f"designated forbidden outcome "
                    f"{test.describe_outcome(test.forbidden)} is "
                    f"axiomatically forbidden yet was observed"
                )

            cells.append(
                CrosscheckCell(
                    test_name=test.name,
                    policy_name=policy_spec.name,
                    model_name=model.name,
                    config_names=tuple(config_names),
                    allowed_outcomes=allowed_proj,
                    observed_outcomes=observed_proj,
                    failures=tuple(failures),
                    failed_runs=failed_runs,
                )
            )
    return CrosscheckReport(
        cells=cells,
        skipped=skipped,
        runs_per_test=runs_per_test,
        preempted=campaign.preempted,
    )
