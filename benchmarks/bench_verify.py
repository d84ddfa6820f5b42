"""LEMMA1 / tooling — cost of the verification machinery itself.

Benchmarks the building blocks every experiment leans on: exhaustive SC
enumeration, happens-before closure at scale, DRF0 checking, and the
Lemma-1 witness search for hardware executions.
"""

import pytest

from repro.core.execution import Execution
from repro.core.operation import MemoryOp, OpKind
from repro.drf.races import find_races
from repro.hb.relations import build_happens_before
from repro.litmus.catalog import fig1_dekker, iriw
from repro.memsys.config import NET_CACHE
from repro.memsys.system import run_program
from repro.models.policies import Def2Policy
from repro.sc.independence import SearchStats
from repro.sc.interleaving import count_reachable_states, enumerate_results
from repro.sc.lemma1 import find_hb_witness
from repro.workloads.barrier import barrier_program
from repro.workloads.locks import release_overlap_program


def test_verify_sc_enumeration_dekker(benchmark):
    program = fig1_dekker().program
    results = benchmark(lambda: enumerate_results(program))
    assert len(results) == 3


def test_verify_sc_enumeration_iriw(benchmark):
    """Four threads: the largest standard litmus shape."""
    program = iriw().program
    results = benchmark(lambda: enumerate_results(program))
    assert len(results) >= 10


@pytest.mark.parametrize("workload", ["spin", "barrier"])
def test_verify_pruning_reduction(benchmark, workload):
    """Persistent-set + sleep-set pruning of the SC enumerator on the
    synchronization workloads: identical observable sets with the
    explored-transition counts recorded in the bench JSON."""
    from repro.workloads.locks import critical_section_program

    program = (
        critical_section_program(2, 1, private_writes=3)
        if workload == "spin"
        else barrier_program(2, private_writes=3)
    )
    full_stats = SearchStats()
    full = enumerate_results(program, prune=False, stats=full_stats)
    pruned_stats = SearchStats()
    pruned = benchmark.pedantic(
        lambda: enumerate_results(program, stats=pruned_stats),
        rounds=1,
        iterations=1,
    )
    benchmark.extra_info["transitions_pruned"] = pruned_stats.transitions
    benchmark.extra_info["transitions_unpruned"] = full_stats.transitions
    benchmark.extra_info["states_pruned"] = pruned_stats.states
    benchmark.extra_info["states_unpruned"] = full_stats.states
    print(
        f"\n[VERIFY] {program.name}: {full_stats.transitions} transitions "
        f"unpruned vs {pruned_stats.transitions} pruned "
        f"({full_stats.transitions / pruned_stats.transitions:.2f}x)"
    )
    assert pruned == full
    assert full_stats.transitions >= 3 * pruned_stats.transitions


def test_verify_state_count_scales(benchmark):
    program = iriw().program
    states = benchmark(lambda: count_reachable_states(program))
    print(f"\n[VERIFY] IRIW reachable idealized states: {states}")
    assert states > 10


def _large_execution(num_procs=8, ops_per_proc=40):
    """A synthetic trace with cross-processor sync chains."""
    ops = []
    for i in range(ops_per_proc):
        for proc in range(num_procs):
            if i % 5 == 4:
                ops.append(
                    MemoryOp(
                        proc=proc,
                        kind=OpKind.SYNC_RMW,
                        location=f"s{proc % 3}",
                        value_read=0,
                        value_written=1,
                    )
                )
            else:
                ops.append(
                    MemoryOp(
                        proc=proc,
                        kind=OpKind.WRITE if i % 2 else OpKind.READ,
                        location=f"v{(proc + i) % 6}",
                        value_read=0 if i % 2 == 0 else None,
                        value_written=1 if i % 2 else None,
                    )
                )
    return Execution(ops=ops)


def test_verify_hb_closure_at_scale(benchmark):
    execution = _large_execution()
    hb = benchmark(lambda: build_happens_before(execution))
    first, last = execution.ops[0], execution.ops[-1]
    assert hb.ordered(first, last) or not hb.ordered(last, first)


def test_verify_race_scan_at_scale(benchmark):
    execution = _large_execution()
    races = benchmark(lambda: find_races(execution))
    print(f"\n[VERIFY] races in 320-op synthetic trace: {len(races)}")


def test_verify_trace_checker_scales(benchmark):
    """The relational SC trace checker handles traces far beyond the
    enumerator's reach: an 8-processor lock workload in one pass."""
    from repro.sc.trace_check import check_trace_sc
    from repro.workloads.locks import critical_section_program

    program = critical_section_program(8, 2, private_writes=2)
    run = run_program(program, Def2Policy(), NET_CACHE, seed=5, max_cycles=5_000_000)
    assert run.completed
    print(f"\n[VERIFY] trace of {len(run.execution.ops)} committed ops")
    result = benchmark(
        lambda: check_trace_sc(run.execution, dict(program.initial_memory))
    )
    assert result.is_sc, result.describe()


def test_verify_lemma1_witness_search(benchmark):
    program = release_overlap_program(data_writes=2, post_release_work=2,
                                      private_writes=1)
    run = run_program(program, Def2Policy(), NET_CACHE, seed=3)
    assert run.completed
    witness = benchmark.pedantic(
        lambda: find_hb_witness(program, run.execution), rounds=1, iterations=1
    )
    assert witness is not None
