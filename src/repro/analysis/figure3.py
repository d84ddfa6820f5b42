"""Figure 3: where the release-side stall goes.

The figure's claim, made measurable:

* **DEF1** — P0 must stall *at the Unset* until its pending data writes
  are globally performed (condition 2 of Definition 1); P1's TestAndSet
  additionally waits for the Unset itself to globally perform.
* **DEF2** — P0 "need never stall": the Unset only has to commit
  (procure the lock line exclusive, write it); P0 overlaps the
  completion of its data writes with its post-release work.  P1 still
  stalls — the reserve bit holds P1's TestAndSet until P0's counter
  drains — so "P0 but not P1 gains an advantage".

:func:`analyze_release_stall` runs the scenario on one policy and
extracts both sides; :func:`figure3_sweep` sweeps the memory latency so
the linear growth of DEF1's release stall (and the flatness of DEF2's)
is visible, which is the reproduction of the figure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.campaign import Executor, PolicySpec, RunSpec, run_campaign
from repro.core.program import Program
from repro.memsys.config import NET_CACHE, MachineConfig
from repro.memsys.system import System
from repro.models.base import OrderingPolicy
from repro.models.policies import Def1Policy, Def2Policy
from repro.sim.stats import StallReason
from repro.workloads.locks import release_overlap_program

#: Stall reasons that hold the *releaser* at or just after its
#: synchronization point: Definition 1's wait for previous accesses
#: (condition 2) and its hold on post-release accesses until the sync
#: globally performs (condition 3), versus DEF2's commit-only wait.
RELEASE_STALL_REASONS = (
    StallReason.DEF1_SYNC_WAITS_PREV,
    StallReason.DEF1_WAITS_SYNC_GP,
    StallReason.DEF2_SYNC_COMMIT,
)


@dataclass
class ReleaseStallReport:
    """One run of the Figure 3 scenario."""

    policy_name: str
    seed: int
    #: Cycles P0 spent stalled at (or blocked on) its release sync.
    release_stall: int
    #: Cycles until P0 halted (it only does local work after release).
    releaser_finish: int
    #: Cycles until P1 halted (acquire + data reads).
    acquirer_finish: int
    total_cycles: int
    completed: bool

    def describe(self) -> str:
        return (
            f"{self.policy_name}: release stall={self.release_stall} cy, "
            f"P0 done @{self.releaser_finish}, P1 done @{self.acquirer_finish}"
        )


def analyze_release_stall(
    policy: OrderingPolicy,
    config: MachineConfig = NET_CACHE,
    program: Optional[Program] = None,
    seed: int = 7,
    max_cycles: int = 1_000_000,
) -> ReleaseStallReport:
    """Run the release-overlap scenario and attribute P0's release stall."""
    program = program or release_overlap_program()
    system = System(program, policy, config, seed=seed)
    run = system.run(max_cycles=max_cycles)
    release_stall = sum(
        run.stats.stall_cycles(proc=0, reason=reason)
        for reason in RELEASE_STALL_REASONS
    )
    return ReleaseStallReport(
        policy_name=policy.name,
        seed=seed,
        release_stall=release_stall,
        releaser_finish=run.halt_times[0] if run.halt_times[0] is not None else -1,
        acquirer_finish=run.halt_times[1] if run.halt_times[1] is not None else -1,
        total_cycles=run.cycles,
        completed=run.completed,
    )


@dataclass
class Figure3Row:
    """One latency point of the Figure 3 sweep."""

    network_latency: int
    def1_release_stall: float
    def2_release_stall: float
    def1_releaser_finish: float
    def2_releaser_finish: float
    def1_acquirer_finish: float
    def2_acquirer_finish: float


def figure3_sweep(
    *,
    latencies: List[int] = (4, 8, 16, 32, 64),
    config: MachineConfig = NET_CACHE,
    data_writes: int = 4,
    post_release_work: int = 30,
    seeds: List[int] = (1, 2, 3, 4, 5),
    executor: Optional[Executor] = None,
) -> List[Figure3Row]:
    """DEF1 vs DEF2 release behaviour as write latency grows.

    The whole sweep is one flat campaign — every
    (latency, seed, policy) triple is an independent
    :class:`~repro.campaign.spec.RunSpec`, so a parallel ``executor``
    spreads the entire grid.  Per-row aggregation reads the release-side
    stall attribution straight off each result's
    :attr:`~repro.campaign.spec.RunMetrics.proc_stalls` and
    ``halt_times``.
    """
    program = release_overlap_program(
        data_writes=data_writes, post_release_work=post_release_work
    )
    policies = (PolicySpec.of(Def1Policy), PolicySpec.of(Def2Policy))
    specs: List[RunSpec] = []
    for latency in latencies:
        cfg = config.with_overrides(
            network_base_latency=latency, network_jitter=max(1, latency // 4)
        )
        for seed in seeds:
            for policy_spec in policies:
                specs.append(
                    RunSpec(
                        program=program,
                        policy=policy_spec,
                        config=cfg,
                        seed=seed,
                    )
                )
    campaign = run_campaign(specs, executor=executor, label="figure3")

    def release_stall(result) -> int:
        return sum(
            result.timings.proc_stall_of(0, reason)
            for reason in RELEASE_STALL_REASONS
        )

    def halt(result, proc: int) -> int:
        times = result.timings.halt_times
        if proc < len(times) and times[proc] is not None:
            return times[proc]
        return -1

    rows: List[Figure3Row] = []
    n = len(seeds)
    per_row = n * len(policies)
    for li, latency in enumerate(latencies):
        block = campaign.results[li * per_row : (li + 1) * per_row]
        d1 = block[0::2]
        d2 = block[1::2]
        rows.append(
            Figure3Row(
                network_latency=latency,
                def1_release_stall=sum(release_stall(r) for r in d1) / n,
                def2_release_stall=sum(release_stall(r) for r in d2) / n,
                def1_releaser_finish=sum(halt(r, 0) for r in d1) / n,
                def2_releaser_finish=sum(halt(r, 0) for r in d2) / n,
                def1_acquirer_finish=sum(halt(r, 1) for r in d1) / n,
                def2_acquirer_finish=sum(halt(r, 1) for r in d2) / n,
            )
        )
    return rows
