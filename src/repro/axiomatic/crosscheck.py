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
them.  The check runs the conformance grid's own plan
(:func:`~repro.conformance.plan_conformance`) over the straight-line
tests and judges the same blocks of runs a second way, so a parallel
``executor`` spreads it across cells, tests, and seeds, and a result
cache warmed by the conformance audit serves it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple, Union

from repro.campaign import Executor, ResultCache, run_campaign
from repro.conformance import (
    MachineLike,
    PolicyLike,
    TestLike,
    grid_tests,
    plan_conformance,
)
from repro.core.execution import Observable
from repro.litmus.test import LitmusTest
from repro.memsys.config import NET_CACHE, NET_NOCACHE
from repro.axiomatic.candidates import (
    DEFAULT_MAX_CANDIDATES,
    allowed_outcomes,
    is_straightline,
)
from repro.axiomatic.model import model_for_policy

DEFAULT_CONFIGS: Tuple[MachineLike, ...] = (NET_NOCACHE, NET_CACHE)


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
        """Every cell agrees, over a campaign that ran to the end."""
        return not self.preempted and all(cell.ok for cell in self.cells)

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
        if self.preempted:
            lines.append("PREEMPTED")
        else:
            lines.append("AGREE" if self.ok else "DISAGREE")
        return "\n".join(lines)


def crosscheck_models(
    *,
    tests: Optional[Sequence[TestLike]] = None,
    policies: Optional[Sequence[PolicyLike]] = None,
    configs: Sequence[MachineLike] = DEFAULT_CONFIGS,
    runs_per_test: int = 12,
    base_seed: int = 2026,
    executor: Optional[Executor] = None,
    cache: Union[ResultCache, str, None] = None,
    max_candidates: int = DEFAULT_MAX_CANDIDATES,
    progress=None,
) -> CrosscheckReport:
    """Assert operational/axiomatic agreement over the litmus catalog.

    ``tests`` (catalog names or tests) defaults to the standard
    catalog; ``policies`` (registered names or factories) to every
    registered policy; ``configs`` may name machines.  The straight-line
    tests run as one :func:`~repro.conformance.plan_conformance` grid,
    so each policy runs on every compatible configuration; its outcomes
    are checked against the axiomatic model
    :func:`~repro.axiomatic.model.model_for_policy` assigns it.  Raises
    :class:`ValueError` when two tests share a name: cells are looked
    up by test name.
    """
    from repro.drf.models import DRF0, DRF0_R
    from repro.models.base import policy_names

    runnable: List[LitmusTest] = []
    skipped: List[Tuple[str, str]] = []
    for test in grid_tests(tests):
        if is_straightline(test.program):
            runnable.append(test)
        else:
            skipped.append(
                (test.name, "control flow: no finite candidate space")
            )
    plan = plan_conformance(
        configs=configs,
        policies=policy_names() if policies is None else policies,
        tests=runnable, runs_per_test=runs_per_test, base_seed=base_seed,
    )
    campaign = run_campaign(
        plan.specs, executor=executor, cache=cache,
        label="crosscheck", progress=progress,
    )

    # -- judge: axiomatic sets vs observed outcomes, per cell ------------
    cells: List[CrosscheckCell] = []
    for test in plan.tests:
        program = plan.runner.executable(test)
        sc_set = frozenset(plan.runner.verifier.sc_result_set(program))
        drf0, drf0_r = plan.obeys(test, DRF0), plan.obeys(test, DRF0_R)
        allowed_cache: Dict[str, FrozenSet[Observable]] = {}
        for policy_spec in plan.policies:
            model = model_for_policy(policy_spec.name)
            if model.name not in allowed_cache:
                allowed_cache[model.name] = allowed_outcomes(
                    program, model, max_candidates=max_candidates,
                    drf0=drf0, drf0_r=drf0_r,
                )
            allowed = allowed_cache[model.name]

            observed: set = set()
            config_names: List[str] = []
            failed_runs = 0
            for config in plan.configs:
                blocks = plan.cells[config, policy_spec]
                if blocks is None:
                    continue
                config_names.append(config.name)
                start, count = blocks[test.name]
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
