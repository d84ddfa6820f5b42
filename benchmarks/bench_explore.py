"""EXPLORE — bounded model checking of the weak-ordering contract.

Beyond seed sampling: the delay-bounded explorer enumerates *every*
message schedule within a deviation budget, so a clean result is an
exhaustive (bounded) proof rather than a statistical one.  Benchmarks
the exploration itself and re-establishes the two headline facts:

* relaxed hardware reaches the Figure-1 violation within a budget of 2;
* DEF2 stays sequentially consistent for the DRF0 program at every
  budget tried, over thousands of schedules.
"""

import pytest

from repro.explore.explorer import explore_program, verify_weak_ordering
from repro.litmus.catalog import fig1_dekker, fig1_dekker_all_sync
from repro.models.policies import Def2Policy, RelaxedPolicy
from repro.workloads.barrier import barrier_program
from repro.workloads.locks import critical_section_program


def test_explore_finds_violation(benchmark, verifier):
    program = fig1_dekker(warm=True).executable_program()
    sc_set = verifier.sc_result_set(program)
    report = benchmark.pedantic(
        lambda: explore_program(program, RelaxedPolicy, max_delays=2),
        rounds=1,
        iterations=1,
    )
    print(f"\n[EXPLORE] {report.describe()}")
    assert any(outcome not in sc_set for outcome in report.observables)
    assert report.exhausted


def test_explore_certifies_def2_on_drf0(benchmark, verifier):
    program = fig1_dekker_all_sync(warm=True).executable_program()
    sc_set = verifier.sc_result_set(program)

    def check():
        return verify_weak_ordering(
            program, Def2Policy, sc_set, max_delays=3, max_runs=30_000,
        )

    holds, report = benchmark.pedantic(check, rounds=1, iterations=1)
    print(
        f"\n[EXPLORE] DEF2/DRF0 Dekker: {report.runs} schedules at budget 3, "
        f"holds={holds}, exhaustive={report.exhausted}"
    )
    assert holds and report.exhausted


def test_explore_lock_program(benchmark, verifier):
    program = critical_section_program(2, 1)
    sc_set = verifier.sc_result_set(program)

    def check():
        return verify_weak_ordering(
            program, Def2Policy, sc_set, max_delays=2, max_runs=30_000,
        )

    holds, report = benchmark.pedantic(check, rounds=1, iterations=1)
    print(
        f"\n[EXPLORE] DEF2 lock program: {report.runs} schedules, holds={holds}"
    )
    assert holds


@pytest.mark.parametrize(
    "program",
    [
        critical_section_program(2, 1, private_writes=2),
        barrier_program(2, private_writes=2),
    ],
    ids=lambda p: p.name,
)
def test_explore_pruning_reduction(benchmark, program):
    """Conflict-aware pruning on workloads with private-line traffic:
    identical outcome sets at a fraction of the schedule count.  The
    pruned/unpruned counters land in the bench JSON via extra_info."""
    full = explore_program(
        program, Def2Policy, max_delays=2, max_runs=100_000, prune=False
    )
    pruned = benchmark.pedantic(
        lambda: explore_program(
            program, Def2Policy, max_delays=2, max_runs=100_000
        ),
        rounds=1,
        iterations=1,
    )
    benchmark.extra_info["runs_pruned"] = pruned.runs
    benchmark.extra_info["runs_unpruned"] = full.runs
    benchmark.extra_info["decisions_pruned"] = pruned.pruned_decisions
    benchmark.extra_info["reduction"] = round(full.runs / pruned.runs, 2)
    print(
        f"\n[EXPLORE] {program.name}: {full.runs} schedules unpruned vs "
        f"{pruned.runs} pruned ({full.runs / pruned.runs:.2f}x, "
        f"{pruned.pruned_decisions} decisions skipped)"
    )
    assert pruned.exhausted and full.exhausted
    assert pruned.observables == full.observables
    assert full.runs >= 3 * pruned.runs
