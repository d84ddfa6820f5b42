"""Tests for the direct (relational) SC trace checker."""

import pytest

from repro.axiomatic import relations_from_execution
from repro.core.execution import Execution
from repro.core.operation import MemoryOp, OpKind
from repro.litmus.catalog import (
    critical_section,
    fig1_dekker,
    message_passing,
    standard_catalog,
)
from repro.memsys.config import (
    BUS_CACHE,
    BUS_CACHE_SNOOP,
    NET_CACHE,
    NET_CACHE_VC,
    NET_NOCACHE,
)
from repro.memsys.system import run_program
from repro.models import policy_by_name, policy_names
from repro.models.policies import Def2Policy, RelaxedPolicy, SCPolicy
from repro.sc.trace_check import check_trace_sc
from repro.sc.verifier import SCVerifier
from repro.workloads.random_programs import random_racy_program


def op(kind, loc, proc, pos=0, read=None, written=None, commit=None):
    o = MemoryOp(
        proc=proc, kind=kind, location=loc, thread_pos=pos,
        value_read=read, value_written=written,
    )
    o.commit_time = commit
    return o


def assert_real_cycle(result, execution, initial_memory=None):
    """Each cycle edge lies in the relation it names, and the edges
    chain head to tail, the last closing on the first."""
    assert not result.is_sc and result.cycle
    rel = relations_from_execution(execution, initial_memory or {})
    named = {
        "po": rel.po,
        "rf": rel.rf_edges(),
        "co": rel.co_edges(),
        "fr": rel.fr_edges(),
    }
    for src, dst, label in result.cycle:
        assert (src, dst) in named[label], (src, dst, label)
    successors = result.cycle[1:] + result.cycle[:1]
    for (_, dst, _), (src, _, _) in zip(result.cycle, successors):
        assert dst is src


def labels_are(result, expected):
    """The cycle's labels equal ``expected`` up to rotation."""
    found = [label for _, _, label in result.cycle]
    return any(
        found[i:] + found[:i] == expected for i in range(len(found))
    )


class TestManualTraces:
    def test_empty_trace_is_sc(self):
        assert check_trace_sc(Execution()).is_sc

    def test_simple_handoff_is_sc(self):
        trace = Execution(
            ops=[
                op(OpKind.WRITE, "x", 0, written=1, commit=1),
                op(OpKind.READ, "x", 1, read=1, commit=2),
            ]
        )
        assert check_trace_sc(trace).is_sc

    def test_dekker_violation_has_cycle(self):
        """Both reads returning 0 with both writes present: the classic
        po+fr cycle."""
        trace = Execution(
            ops=[
                op(OpKind.WRITE, "x", 0, pos=0, written=1, commit=1),
                op(OpKind.WRITE, "y", 1, pos=0, written=1, commit=2),
                op(OpKind.READ, "y", 0, pos=1, read=0, commit=3),
                op(OpKind.READ, "x", 1, pos=1, read=0, commit=4),
            ]
        )
        result = check_trace_sc(trace)
        assert_real_cycle(result, trace)
        assert labels_are(result, ["po", "fr", "po", "fr"])

    def test_mp_stale_read_has_cycle(self):
        trace = Execution(
            ops=[
                op(OpKind.WRITE, "x", 0, pos=0, written=42, commit=1),
                op(OpKind.WRITE, "f", 0, pos=1, written=1, commit=2),
                op(OpKind.READ, "f", 1, pos=0, read=1, commit=3),
                op(OpKind.READ, "x", 1, pos=1, read=0, commit=4),
            ]
        )
        result = check_trace_sc(trace)
        assert_real_cycle(result, trace)
        assert labels_are(result, ["po", "rf", "po", "fr"])

    def test_read_sources_the_commit_earlier_write(self):
        """P0 reads x=1 and then writes x=1, both committing at t=5; the
        read saw P1's write from t=1, not P0's own later write."""
        trace = Execution(
            ops=[
                op(OpKind.WRITE, "x", 1, pos=0, written=1, commit=1),
                op(OpKind.READ, "x", 0, pos=0, read=1, commit=5),
                op(OpKind.WRITE, "x", 0, pos=1, written=1, commit=5),
            ]
        )
        result = check_trace_sc(trace)
        assert result.is_sc, result.describe()

    def test_thin_air_read_reported(self):
        trace = Execution(
            ops=[op(OpKind.READ, "x", 0, read=9, commit=1)]
        )
        result = check_trace_sc(trace)
        assert not result.is_sc
        assert result.unexplained_reads

    def test_initial_value_read_before_write_is_sc(self):
        trace = Execution(
            ops=[
                op(OpKind.READ, "x", 1, read=0, commit=1),
                op(OpKind.WRITE, "x", 0, written=1, commit=2),
            ]
        )
        assert check_trace_sc(trace).is_sc

    def test_rmw_chain_is_sc(self):
        trace = Execution(
            ops=[
                op(OpKind.SYNC_RMW, "l", 0, read=0, written=1, commit=1),
                op(OpKind.SYNC_RMW, "l", 1, read=1, written=2, commit=2),
            ]
        )
        assert check_trace_sc(trace).is_sc

    def test_describe(self):
        good = check_trace_sc(Execution())
        assert "sequentially consistent" in good.describe()
        wx = op(OpKind.WRITE, "x", 0, pos=0, written=1, commit=1)
        ry = op(OpKind.READ, "y", 0, pos=1, read=0, commit=2)
        wy = op(OpKind.WRITE, "y", 1, pos=0, written=1, commit=3)
        rx = op(OpKind.READ, "x", 1, pos=1, read=0, commit=4)
        text = check_trace_sc(Execution(ops=[wx, ry, wy, rx])).describe()
        assert text.startswith("no SC order exists: constraint cycle ")
        assert "-po->" in text and "-fr->" in text
        assert text.count("->") == 4


class TestAgainstHardwareRuns:
    def test_sc_policy_traces_always_pass(self):
        for seed in range(10):
            program = random_racy_program(seed, num_procs=2, ops_per_proc=4)
            run = run_program(program, SCPolicy(), NET_CACHE, seed=seed)
            assert run.completed
            result = check_trace_sc(run.execution, dict(program.initial_memory))
            assert result.is_sc, result.describe()

    def test_first_relaxed_dekker_violation_is_a_real_cycle(self):
        program = fig1_dekker(warm=True).executable_program()
        initial = dict(program.initial_memory)
        for seed in range(60):
            run = run_program(program, RelaxedPolicy(), NET_CACHE, seed=seed)
            result = check_trace_sc(run.execution, initial)
            if not result.is_sc:
                break
        assert_real_cycle(result, run.execution, initial)

    def test_relaxed_violations_fail(self):
        """Where the result-set oracle says non-SC, the trace checker
        must find a cycle (distinct written values -> exact)."""
        verifier = SCVerifier()
        test = fig1_dekker(warm=True)
        program = test.executable_program()
        sc_set = verifier.sc_result_set(program)
        checked = 0
        for seed in range(60):
            run = run_program(program, RelaxedPolicy(), NET_CACHE, seed=seed)
            if not run.completed:
                continue
            expected = run.observable in sc_set
            result = check_trace_sc(run.execution, dict(program.initial_memory))
            assert result.is_sc == expected, (seed, result.describe())
            checked += 1
        assert checked >= 50

    def test_agreement_with_oracle_on_mp(self):
        verifier = SCVerifier()
        test = message_passing(warm=True)
        program = test.executable_program()
        sc_set = verifier.sc_result_set(program)
        for seed in range(40):
            run = run_program(program, RelaxedPolicy(), NET_CACHE, seed=seed)
            if not run.completed:
                continue
            result = check_trace_sc(run.execution, dict(program.initial_memory))
            assert result.is_sc == (run.observable in sc_set), seed

    def test_def2_drf0_traces_pass(self):
        from repro.workloads.random_programs import random_drf0_program

        for seed in range(6):
            program = random_drf0_program(seed)
            run = run_program(program, Def2Policy(), NET_CACHE, seed=seed)
            assert run.completed
            result = check_trace_sc(run.execution, dict(program.initial_memory))
            assert result.is_sc, result.describe()


CACHE_COHERENT = (BUS_CACHE, NET_CACHE, BUS_CACHE_SNOOP, NET_CACHE_VC)


class TestOracleAgreement:
    def test_catalog_on_cache_coherent_machines(self):
        """Where commit order is memory's serialization, the checker
        agrees with the result-set oracle on every catalog run."""
        verifier = SCVerifier()
        checked = non_sc = 0
        for test in standard_catalog():
            program = test.executable_program()
            sc_set = verifier.sc_result_set(program)
            initial = dict(program.initial_memory)
            for config in CACHE_COHERENT:
                for name in policy_names():
                    for seed in range(2):
                        run = run_program(
                            program, policy_by_name(name), config, seed=seed
                        )
                        if not run.completed:
                            continue
                        result = check_trace_sc(run.execution, initial)
                        expected = run.observable in sc_set
                        assert result.is_sc == expected, (
                            test.name, config.name, name, seed,
                            result.describe(),
                        )
                        checked += 1
                        non_sc += not expected
        assert checked > 1_000 and non_sc > 0

    @pytest.mark.xfail(
        strict=True,
        reason="nocache machines stamp commit_time when the reply reaches "
        "the processor, not when memory serialised the access: P1's failed "
        "TestAndSet commits after P0's unlock yet read 1",
    )
    def test_sc_policy_critical_section_on_nocache(self):
        program = critical_section().executable_program()
        run = run_program(program, SCPolicy(), NET_NOCACHE, seed=0)
        assert run.completed
        result = check_trace_sc(run.execution, dict(program.initial_memory))
        assert result.is_sc, result.describe()
