"""Quantitative policy comparison — the study Section 7 calls for.

"A quantitative performance analysis comparing implementations for the
old and new definitions of weak ordering would provide useful insight."
:func:`compare_policies` runs one workload across a set of ordering
policies (same seeds, same machine) and reports execution time, stall
breakdowns, and protocol traffic; :func:`sweep` does it across a
parameter axis for crossover hunting.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence

from repro.campaign import Executor, PolicySpec, RunSpec, run_campaign
from repro.core.program import Program
from repro.memsys.config import MachineConfig, NET_CACHE
from repro.models.base import OrderingPolicy
from repro.sim.rng import seed_stream
from repro.sim.stats import StallReason

PolicyFactory = Callable[[], OrderingPolicy]


@dataclass
class PolicyComparison:
    """Aggregated runs of one policy on one workload."""

    policy_name: str
    runs: int
    completed_runs: int
    mean_cycles: float
    mean_stall_cycles: float
    stall_by_reason: Dict[StallReason, float] = field(default_factory=dict)
    mean_messages: float = 0.0
    mean_sync_nacks: float = 0.0

    def describe(self) -> str:
        stalls = ", ".join(
            f"{reason.value}={cycles:.0f}"
            for reason, cycles in sorted(
                self.stall_by_reason.items(), key=lambda kv: -kv[1]
            )
            if cycles >= 0.5
        )
        return (
            f"{self.policy_name:8s} cycles={self.mean_cycles:8.1f} "
            f"stalls={self.mean_stall_cycles:8.1f} msgs={self.mean_messages:7.1f}"
            + (f"  [{stalls}]" if stalls else "")
        )


def compare_policies(
    program_factory: Callable[[], Program],
    policies: Sequence[PolicyFactory],
    *,
    config: MachineConfig = NET_CACHE,
    runs: int = 5,
    base_seed: int = 99,
    max_cycles: int = 2_000_000,
    executor: Optional[Executor] = None,
) -> List[PolicyComparison]:
    """Run the workload under each policy over the same seed stream.

    All (policy, seed) runs form one flat campaign, so a parallel
    executor overlaps policies as well as seeds.
    """
    seeds = list(seed_stream(base_seed, runs))
    policy_specs = [PolicySpec.of(make_policy) for make_policy in policies]
    specs = [
        RunSpec(
            program=program_factory(),
            policy=policy_spec,
            config=config,
            seed=seed,
            max_cycles=max_cycles,
        )
        for policy_spec in policy_specs
        for seed in seeds
    ]
    campaign = run_campaign(
        specs, executor=executor, label="compare_policies"
    )

    results: List[PolicyComparison] = []
    for i, policy_spec in enumerate(policy_specs):
        block = campaign.results[i * runs : (i + 1) * runs]
        total_cycles = 0.0
        total_stalls = 0.0
        total_messages = 0.0
        total_nacks = 0.0
        by_reason: Dict[StallReason, float] = {}
        completed = 0
        for run in block:
            if not run.completed:
                continue
            completed += 1
            total_cycles += run.cycles
            total_stalls += run.timings.stall_cycles
            total_messages += run.timings.messages
            total_nacks += run.timings.sync_nacks
            for reason, cycles in run.timings.stall_by_reason:
                by_reason[reason] = by_reason.get(reason, 0.0) + cycles
        n = max(completed, 1)
        results.append(
            PolicyComparison(
                policy_name=policy_spec.name,
                runs=runs,
                completed_runs=completed,
                mean_cycles=total_cycles / n,
                mean_stall_cycles=total_stalls / n,
                stall_by_reason={r: c / n for r, c in by_reason.items()},
                mean_messages=total_messages / n,
                mean_sync_nacks=total_nacks / n,
            )
        )
    return results


@dataclass
class SweepPoint:
    """One axis value of a parameter sweep."""

    parameter: int
    comparisons: List[PolicyComparison]

    def cycles_of(self, policy_name: str) -> Optional[float]:
        for comparison in self.comparisons:
            if comparison.policy_name == policy_name:
                return comparison.mean_cycles
        return None


def sweep(
    parameter_values: Iterable[int],
    program_for: Callable[[int], Callable[[], Program]],
    config_for: Callable[[int], MachineConfig],
    policies: Sequence[PolicyFactory],
    *,
    runs: int = 5,
    base_seed: int = 99,
    max_cycles: int = 2_000_000,
    executor: Optional[Executor] = None,
) -> List[SweepPoint]:
    """Compare policies at each parameter value.

    ``program_for(v)`` returns a program factory for axis value ``v``;
    ``config_for(v)`` the machine configuration (either may ignore ``v``).
    Every axis value runs on the one ``executor``, so a pool is started
    once for the whole sweep.
    """
    points: List[SweepPoint] = []
    for value in parameter_values:
        comparisons = compare_policies(
            program_factory=program_for(value),
            policies=policies,
            config=config_for(value),
            runs=runs,
            base_seed=base_seed,
            max_cycles=max_cycles,
            executor=executor,
        )
        points.append(SweepPoint(parameter=value, comparisons=comparisons))
    return points
