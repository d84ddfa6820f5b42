"""Unit tests for the idealized architecture executor."""

import random

import pytest

from repro.core.execution import Observable
from repro.core.operation import OpKind
from repro.core.program import Program, ThreadBuilder
from repro.litmus.catalog import standard_catalog
from repro.sc.executor import IdealizedMachine, LocalLoopError, run_schedule
from repro.sc.interleaving import enumerate_executions
from repro.workloads.random_programs import (
    random_drf0_program,
    random_racy_program,
)


def single_thread(builder: ThreadBuilder) -> Program:
    return Program([builder.build()])


class TestSequentialExecution:
    def test_store_then_load(self):
        program = single_thread(ThreadBuilder("P0").store("x", 7).load("r1", "x"))
        machine = IdealizedMachine(program)
        while not machine.halted:
            machine.step(0)
        execution = machine.finish()
        assert execution.completed
        assert machine.observable().register(0, "r1") == 7
        assert machine.memory_value("x") == 7

    def test_initial_memory_respected(self):
        program = Program(
            [ThreadBuilder("P0").load("r1", "x").build()], initial_memory={"x": 9}
        )
        machine = IdealizedMachine(program)
        machine.step(0)
        assert machine.observable().register(0, "r1") == 9

    def test_arithmetic_and_branches(self):
        builder = (
            ThreadBuilder("P0")
            .mov("i", 0)
            .label("loop")
            .add("i", "i", 1)
            .blt("i", 3, "loop")
            .store("out", "i")
        )
        program = single_thread(builder)
        machine = IdealizedMachine(program)
        while not machine.halted:
            machine.step(0)
        assert machine.memory_value("out") == 3

    def test_rmw_atomicity_single_step(self):
        program = single_thread(ThreadBuilder("P0").test_and_set("old", "lock"))
        machine = IdealizedMachine(program)
        op = machine.step(0)
        assert op.kind is OpKind.SYNC_RMW
        assert op.value_read == 0
        assert op.value_written == 1
        assert machine.memory_value("lock") == 1

    def test_fetch_and_add(self):
        program = Program(
            [ThreadBuilder("P0").fetch_and_add("old", "c", 5).build()],
            initial_memory={"c": 10},
        )
        machine = IdealizedMachine(program)
        machine.step(0)
        assert machine.observable().register(0, "old") == 10
        assert machine.memory_value("c") == 15

    def test_occurrence_counting_in_loops(self):
        builder = (
            ThreadBuilder("P0")
            .mov("i", 0)
            .label("loop")
            .load("r", "x")
            .add("i", "i", 1)
            .blt("i", 3, "loop")
        )
        machine = IdealizedMachine(single_thread(builder))
        while not machine.halted:
            machine.step(0)
        execution = machine.finish()
        occurrences = [op.occurrence for op in execution.ops]
        assert occurrences == [0, 1, 2]
        assert len({op.static_id() for op in execution.ops}) == 3

    def test_step_returns_none_at_halt(self):
        program = single_thread(ThreadBuilder("P0").nop())
        machine = IdealizedMachine(program)
        assert machine.step(0) is None
        assert machine.halted

    def test_local_loop_detected(self):
        program = single_thread(ThreadBuilder("P0").label("l").jump("l"))
        machine = IdealizedMachine(program)
        with pytest.raises(LocalLoopError):
            machine.step(0)


class TestForkAndState:
    def test_fork_is_independent(self):
        program = single_thread(ThreadBuilder("P0").store("x", 1).store("x", 2))
        machine = IdealizedMachine(program)
        machine.step(0)
        clone = machine.fork()
        clone.step(0)
        assert clone.memory_value("x") == 2
        assert machine.memory_value("x") == 1
        assert len(machine.execution) == 1
        assert len(clone.execution) == 2

    def test_state_key_ignores_history(self):
        program = Program(
            [
                ThreadBuilder("P0").store("x", 1).build(),
                ThreadBuilder("P1").store("x", 1).build(),
            ]
        )
        a = IdealizedMachine(program)
        a.step(0)
        a.step(1)
        b = IdealizedMachine(program)
        b.step(1)
        b.step(0)
        assert a.state_key() == b.state_key()

    def test_state_key_distinguishes_memory(self):
        program = Program(
            [
                ThreadBuilder("P0").store("x", 1).build(),
                ThreadBuilder("P1").store("x", 2).build(),
            ]
        )
        a = IdealizedMachine(program)
        a.step(0)
        a.step(1)
        b = IdealizedMachine(program)
        b.step(1)
        b.step(0)
        assert a.state_key() != b.state_key()  # final x differs (2 vs 1)

    def test_runnable_threads(self):
        program = Program(
            [
                ThreadBuilder("P0").nop().build(),
                ThreadBuilder("P1").store("x", 1).build(),
            ]
        )
        machine = IdealizedMachine(program)
        assert machine.runnable_threads() == [0, 1]
        machine.step(0)  # P0 runs its nop and halts
        assert machine.runnable_threads() == [1]


class TestRunSchedule:
    def test_explicit_interleaving(self):
        program = Program(
            [
                ThreadBuilder("P0").store("x", 1).load("r1", "y").build(),
                ThreadBuilder("P1").store("y", 1).load("r2", "x").build(),
            ]
        )
        execution = run_schedule(program, [0, 1, 0, 1])
        assert execution.completed
        assert execution.observable.register(0, "r1") == 1
        assert execution.observable.register(1, "r2") == 1

    def test_sequential_schedule(self):
        program = Program(
            [
                ThreadBuilder("P0").store("x", 1).load("r1", "y").build(),
                ThreadBuilder("P1").store("y", 1).load("r2", "x").build(),
            ]
        )
        execution = run_schedule(program, [0, 0, 1, 1])
        assert execution.observable.register(0, "r1") == 0
        assert execution.observable.register(1, "r2") == 1

    def test_short_schedule_completes_round_robin(self):
        program = Program(
            [
                ThreadBuilder("P0").store("x", 1).load("r1", "y").build(),
                ThreadBuilder("P1").store("y", 1).load("r2", "x").build(),
            ]
        )
        execution = run_schedule(program, [])
        assert execution.completed
        assert len(execution.ops) == 4

    def test_halted_entries_skipped(self):
        program = single_thread(ThreadBuilder("P0").store("x", 1))
        execution = run_schedule(program, [0, 0, 0, 0])
        assert len(execution.ops) == 1


# ----------------------------------------------------------------------
# The forkable machine: state keys, copy-on-write forks, shared traces
# ----------------------------------------------------------------------
def _walk_programs():
    programs = [test.executable_program() for test in standard_catalog()]
    programs += [
        random_racy_program(seed, num_procs=3, ops_per_proc=3)
        for seed in range(4)
    ]
    programs += [
        random_drf0_program(seed, num_procs=2, sections_per_proc=2)
        for seed in range(4)
    ]
    return programs


WALK_PROGRAMS = _walk_programs()


def _random_walk(machine, rng, max_steps):
    """Step random runnable threads; yields the machine after each step."""
    for _ in range(max_steps):
        runnable = machine.runnable_threads()
        if not runnable:
            return
        machine.step(rng.choice(runnable))
        yield machine


def _walk_states(program, seed, walks=25, max_steps=40):
    """Machine states along seeded random walks from one root (each state
    is yielded before the walk moves on, so read it immediately)."""
    rng = random.Random(seed)
    root = IdealizedMachine(program)
    yield root
    for _ in range(walks):
        yield from _random_walk(root.fork(), rng, max_steps)


def _reference_key(machine):
    """The state key's canonical formula: pcs, sorted non-zero registers,
    sorted non-zero memory."""
    program = machine.program
    procs = range(program.num_procs)
    memory = {loc: machine.memory_value(loc) for loc in program.locations()}
    return (
        tuple(machine.thread_pc(p) for p in procs),
        tuple(machine._threads[p].regs.snapshot() for p in procs),
        tuple(sorted((loc, v) for loc, v in memory.items() if v != 0)),
    )


def _op_fields(op):
    return (op.proc, op.kind, op.location, op.thread_pos, op.occurrence,
            op.value_read, op.value_written, op.issue_index)


def _fingerprint(machine):
    """Everything a step could change, read afresh (the trace through a
    fork, so no cached materialisation is reused)."""
    program = machine.program
    return (
        machine.state_key(),
        machine.observable(),
        tuple(t.pc for t in machine._threads),
        tuple(t.regs.snapshot() for t in machine._threads),
        tuple(dict(t.occurrences) for t in machine._threads),
        {loc: machine.memory_value(loc) for loc in program.locations()},
        [(op, _op_fields(op)) for op in machine.fork().execution.ops],
    )


def _same_fingerprint(a, b):
    *state_a, trace_a = a
    *state_b, trace_b = b
    assert state_a == state_b
    assert len(trace_a) == len(trace_b)
    for (op_a, fields_a), (op_b, fields_b) in zip(trace_a, trace_b):
        assert op_a is op_b
        assert fields_a == fields_b


class TestForkableMachine:
    @pytest.mark.parametrize("index", range(len(WALK_PROGRAMS)))
    def test_state_key_is_a_bijection_of_the_canonical_key(self, index):
        program = WALK_PROGRAMS[index]
        to_reference, from_reference = {}, {}
        samples = 0
        for machine in _walk_states(program, seed=index):
            key, reference = machine.state_key(), _reference_key(machine)
            assert to_reference.setdefault(key, reference) == reference
            assert from_reference.setdefault(reference, key) == key
            samples += 1
        # The walks revisit states, so equality is exercised, not just
        # inequality.
        assert len(to_reference) < samples

    @pytest.mark.parametrize("index", range(len(WALK_PROGRAMS)))
    def test_forks_are_copy_on_write(self, index):
        program = WALK_PROGRAMS[index]
        rng = random.Random(index)
        for _ in range(10):
            parent = IdealizedMachine(program)
            for _ in _random_walk(parent, rng, rng.randrange(6)):
                pass
            child = parent.fork()
            before = _fingerprint(parent)
            for _ in _random_walk(child, rng, 40):
                pass
            _same_fingerprint(_fingerprint(parent), before)
            # The fork's trace extends the parent's with the same ops.
            prefix = parent.execution.ops
            assert all(
                a is b for a, b in zip(prefix, child.execution.ops)
            )
            sibling = parent.fork()
            before = _fingerprint(sibling)
            for _ in _random_walk(parent, rng, 40):
                pass
            _same_fingerprint(_fingerprint(sibling), before)

    @pytest.mark.parametrize("index", range(len(WALK_PROGRAMS)))
    def test_observable_matches_observable_create(self, index):
        program = WALK_PROGRAMS[index]
        for machine in _walk_states(program, seed=index, walks=10):
            expected = Observable.create(
                registers=[t.regs.as_dict() for t in machine._threads],
                memory={
                    loc: machine.memory_value(loc)
                    for loc in program.locations()
                },
            )
            assert machine.observable() == expected

    @pytest.mark.parametrize("index", range(len(WALK_PROGRAMS)))
    def test_yielded_executions_are_stable_and_replayable(self, index):
        program = WALK_PROGRAMS[index]

        def signature(execution):
            return (
                execution.completed,
                execution.observable,
                [_op_fields(op) for op in execution.ops],
            )

        stream = [
            (execution, signature(execution))
            for execution in enumerate_executions(program, max_executions=300)
        ]
        assert stream
        for execution, at_yield in stream:
            # Later steps of the search never touch a yielded execution.
            assert signature(execution) == at_yield
            assert execution.completed  # run_schedule replays to the end
            schedule = [op.proc for op in execution.ops]
            assert signature(run_schedule(program, schedule)) == at_yield
