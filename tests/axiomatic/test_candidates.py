"""Candidate enumeration: exactness against exhaustive interleaving."""

import pytest

from repro.axiomatic import (
    CandidateBudgetExceeded,
    NotStraightLine,
    axiomatic_model_names,
    enumerate_candidates,
    is_straightline,
    model_by_name,
)
from repro.axiomatic.crosscheck import allowed_outcomes
from repro.core.execution import Observable
from repro.core.instructions import BinOp
from repro.core.program import Program, ThreadBuilder
from repro.litmus.catalog import (
    critical_section,
    fig1_dekker,
    write_to_read_causality,
)
from repro.litmus.runner import LitmusRunner


def _single_thread_program():
    t = ThreadBuilder("P0")
    t.store("x", 1)
    t.load("r1", "x")
    t.store("y", 2)
    t.load("r2", "y")
    return Program([t.build()], name="single_thread")


class TestStraightLine:
    def test_catalog_straightline(self):
        assert is_straightline(fig1_dekker().program)

    def test_spin_loop_is_not(self):
        assert not is_straightline(critical_section().program)

    def test_enumerate_rejects_control_flow(self):
        with pytest.raises(NotStraightLine):
            list(enumerate_candidates(critical_section().program))


class TestEnumeration:
    def test_single_thread_every_model_is_sequential(self):
        """One thread: every model collapses to sequential semantics."""
        program = _single_thread_program()
        runner = LitmusRunner()
        sc_set = frozenset(runner.verifier.sc_result_set(program))
        for name in ("SC", "TSO", "PSO", "WO", "RELAXED"):
            assert allowed_outcomes(program, model_by_name(name)) == sc_set

    def test_budget_is_enforced(self):
        program = LitmusRunner().executable(fig1_dekker())
        with pytest.raises(CandidateBudgetExceeded):
            list(enumerate_candidates(program, max_candidates=2))

    @pytest.mark.parametrize(
        "make_test", [fig1_dekker, write_to_read_causality],
        ids=["dekker", "wrc"],
    )
    def test_sc_axioms_are_exact(self, make_test):
        """The acceptance bar: axiomatic SC == exhaustive interleaving.

        Equality (not just mutual containment of a sample): the SC
        axioms must neither forbid a reachable outcome nor invent an
        unreachable one.  ``wrc`` adds register-valued stores, so the
        fixpoint value resolution is on the hook too.
        """
        runner = LitmusRunner()
        program = runner.executable(make_test())
        sc_set = frozenset(runner.verifier.sc_result_set(program))
        assert allowed_outcomes(program, model_by_name("SC")) == sc_set

    def test_weak_models_nest(self):
        """SC <= TSO <= PSO and SC <= WO <= RELAXED on the SB shape."""
        program = LitmusRunner().executable(fig1_dekker())
        sets = {
            name: allowed_outcomes(program, model_by_name(name))
            for name in ("SC", "TSO", "PSO", "WO", "RELAXED")
        }
        assert sets["SC"] < sets["TSO"] <= sets["PSO"] <= sets["RELAXED"]
        assert sets["SC"] < sets["WO"] <= sets["RELAXED"]


class TestBudget:
    def test_allowed_outcomes_checks_the_static_space(self):
        """Dekker's space is 1! x 1! x 2 x 2 = 4 candidates; the budget
        is checked before any candidate is built."""
        program = LitmusRunner().executable(fig1_dekker())
        sc = model_by_name("SC")
        with pytest.raises(CandidateBudgetExceeded):
            allowed_outcomes(program, sc, max_candidates=2)
        with pytest.raises(CandidateBudgetExceeded):
            allowed_outcomes(program, sc, max_candidates=3)
        assert allowed_outcomes(program, sc, max_candidates=4)


def _rf_procs(candidate):
    """Reading proc -> writing proc (None: initial value), per read."""
    return sorted(
        (read.proc, None if writer is None else writer.proc)
        for read, writer in candidate.relations.rf.items()
    )


class TestValueResolution:
    def test_value_cycle_is_discarded(self):
        """r1=x; y=r1+1 || r3=y; x=r3+1: when each read reads the other
        thread's write the values grow every round and never settle, so
        that rf choice has no candidate and no outcome."""
        p0 = ThreadBuilder("P0").load("r1", "x").add("r2", "r1", 1)
        p1 = ThreadBuilder("P1").load("r3", "y").add("r4", "r3", 1)
        program = Program(
            [p0.store("y", "r2").build(), p1.store("x", "r4").build()],
            name="value_cycle",
        )
        candidates = list(enumerate_candidates(program))
        assert [_rf_procs(c) for c in candidates] == [
            [(0, None), (1, None)], [(0, None), (1, 0)], [(0, 1), (1, None)],
        ]
        expected = {
            Observable.create([{"r2": 1}, {"r4": 1}], {"x": 1, "y": 1}),
            Observable.create(
                [{"r2": 1}, {"r3": 1, "r4": 2}], {"x": 2, "y": 1}
            ),
            Observable.create(
                [{"r1": 1, "r2": 2}, {"r4": 1}], {"x": 1, "y": 2}
            ),
        }
        assert allowed_outcomes(program, model_by_name("RELAXED")) == expected

    def test_stable_rf_cycle_is_kept_under_relaxed(self):
        """LB with register-valued stores: r1=x; y=r1|1 || r3=y; x=r3.
        The rf cycle settles at r1=r3=1, an outcome only that cycle
        gives; RELAXED allows it and SC forbids it."""
        p0 = ThreadBuilder("P0").load("r1", "x")
        p0.arith(BinOp.OR, "r2", "r1", 1).store("y", "r2")
        p1 = ThreadBuilder("P1").load("r3", "y").store("x", "r3")
        program = Program([p0.build(), p1.build()], name="lb_registers")
        cycle = Observable.create(
            [{"r1": 1, "r2": 1}, {"r3": 1}], {"x": 1, "y": 1}
        )
        candidates = [
            c for c in enumerate_candidates(program)
            if _rf_procs(c) == [(0, 1), (1, 0)]
        ]
        assert [c.observable for c in candidates] == [cycle]
        relaxed = allowed_outcomes(program, model_by_name("RELAXED"))
        sc = allowed_outcomes(program, model_by_name("SC"))
        assert cycle in relaxed
        assert relaxed - sc == {cycle}

    def test_longest_rf_chain_resolves(self):
        """Three fetch-and-adds where P0 reads P1, which reads P2: each
        hop runs against thread order, so it costs a full round, and the
        chain is final only after one round per op.  The resolver's
        bound must reach it: the axiomatic SC set still equals
        exhaustive interleaving, chain outcome included."""
        threads = [
            ThreadBuilder(f"P{proc}").fetch_and_add("r", "x", 1).build()
            for proc in range(3)
        ]
        program = Program(threads, name="faa_chain")
        chain = Observable.create([{"r": 2}, {"r": 1}, {}], {"x": 3})
        sc_set = frozenset(LitmusRunner().verifier.sc_result_set(program))
        assert chain in sc_set
        assert allowed_outcomes(program, model_by_name("SC")) == sc_set


def _assert_kernel_equals_oracle(program):
    """Every model's kernel set equals enumerate_candidates + allows."""
    models = [model_by_name(name) for name in axiomatic_model_names()]
    for flag in (True, False):
        candidates = list(enumerate_candidates(program, drf0=flag, drf0_r=flag))
        for model in models:
            oracle = frozenset(
                c.observable for c in candidates if model.allows(c.relations)
            )
            kernel = allowed_outcomes(program, model, drf0=flag, drf0_r=flag)
            assert kernel == oracle, (program.name, model.name, flag)


class TestReplayMemo:
    """The kernel replays each thread once per distinct input; these are
    the rf shapes where that input is subtle."""

    def test_lb_with_constant_stores_stabilises(self):
        """r1=x; y=1 || r2=y; x=1: the po ∪ rf cycle of r1=r2=1 carries
        no value dependence, so it stabilises and RELAXED allows it."""
        p0 = ThreadBuilder("P0").load("r1", "x").store("y", 1)
        p1 = ThreadBuilder("P1").load("r2", "y").store("x", 1)
        program = Program([p0.build(), p1.build()], name="lb_constant")
        cycle = Observable.create([{"r1": 1}, {"r2": 1}], {"x": 1, "y": 1})
        relaxed = allowed_outcomes(program, model_by_name("RELAXED"))
        assert cycle in relaxed
        assert cycle not in allowed_outcomes(program, model_by_name("SC"))
        _assert_kernel_equals_oracle(program)

    def test_increment_cycle_is_discarded_by_every_model(self):
        """r1=x; y=r1+1 || r3=y; x=r3+1 read from each other: the
        values grow every round, so no model keeps that rf choice."""
        p0 = ThreadBuilder("P0").load("r1", "x").add("r2", "r1", 1)
        p1 = ThreadBuilder("P1").load("r3", "y").add("r4", "r3", 1)
        program = Program(
            [p0.store("y", "r2").build(), p1.store("x", "r4").build()],
            name="increment_cycle",
        )
        for name in axiomatic_model_names():
            allowed = allowed_outcomes(program, model_by_name(name))
            assert all(o.register(0, "r1") == 0 or o.register(1, "r3") == 0
                       for o in allowed), name
        _assert_kernel_equals_oracle(program)

    def test_read_of_own_po_earlier_write(self):
        """x=1; r1=x; y=r1+1 || x=2; r2=y: P0's load may read its own
        store, whose value the replay must supply from inside the
        thread; P1 then sees the store computed from it."""
        p0 = ThreadBuilder("P0").store("x", 1).load("r1", "x")
        p0.add("r3", "r1", 1).store("y", "r3")
        p1 = ThreadBuilder("P1").store("x", 2).load("r2", "y")
        program = Program([p0.build(), p1.build()], name="own_write")
        sc = allowed_outcomes(program, model_by_name("SC"))
        own = Observable.create(
            [{"r1": 1, "r3": 2}, {"r2": 2}], {"x": 2, "y": 2}
        )
        assert own in sc
        assert sc == frozenset(LitmusRunner().verifier.sc_result_set(program))
        _assert_kernel_equals_oracle(program)
