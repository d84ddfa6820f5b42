"""Tests for drained process migration (the footnote-3 rule)."""

import pytest

from repro.core.program import Program, Thread, ThreadBuilder
from repro.memsys.config import NET_CACHE
from repro.memsys.migration import MigrationController, MigrationError
from repro.memsys.system import System
from repro.models.policies import Def2Policy, RelaxedPolicy
from repro.sc.verifier import SCVerifier
from repro.sim.fork import Fork, Forkable
from repro.sim.stats import StallReason


def idle_thread(name: str) -> Thread:
    return Thread(name, (), {})


def worker_program():
    """Thread 0 does real work; processor 2 is an idle migration slot."""
    t0 = (
        ThreadBuilder("P0")
        .store("a", 1)
        .store("b", 2)
        .load("r1", "a")
        .store("c", 3)
        .load("r2", "b")
        .build()
    )
    t1 = ThreadBuilder("P1").store("d", 4).build()
    return Program([t0, t1, idle_thread("P2")], name="migratable")


class TestBasicMigration:
    def run_with_migration(self, at_cycle=20, policy=None, seed=3):
        program = worker_program()
        system = System(program, policy or Def2Policy(), NET_CACHE, seed=seed)
        controller = MigrationController(system)
        controller.schedule(thread_id=0, to_proc=2, at_cycle=at_cycle)
        run = system.run()
        return system, controller, run

    def test_migrated_run_completes_with_correct_results(self):
        system, controller, run = self.run_with_migration()
        assert run.completed
        assert len(controller.records) == 1
        assert run.observable.register(0, "r1") == 1
        assert run.observable.register(0, "r2") == 2
        assert run.observable.memory_value("c") == 3

    def test_results_appear_sc(self):
        program = worker_program()
        verifier = SCVerifier()
        sc_set = verifier.sc_result_set(program)
        for seed in range(6):
            system = System(program, Def2Policy(), NET_CACHE, seed=seed)
            MigrationController(system).schedule(0, 2, at_cycle=15)
            run = system.run()
            assert run.completed
            assert run.observable in sc_set, seed

    def test_drain_condition_enforced(self):
        """At transfer time nothing of the thread's was in flight."""
        system, controller, run = self.run_with_migration(at_cycle=5)
        record = controller.records[0]
        assert record.drained_at >= record.requested_at
        # After the switch the thread ran on processor 2.
        assert system.processors[2].logical_proc == 0
        assert system.processors[0].logical_proc == 2

    def test_drain_stall_accounted(self):
        system, controller, run = self.run_with_migration(at_cycle=5)
        assert run.stats.stall_cycles(reason=StallReason.MIGRATION_DRAIN) >= 0
        assert controller.records[0].drain_cycles >= 0

    def test_trace_keeps_logical_identity(self):
        """Program order survives: all of thread 0's ops carry proc=0 and
        ascending issue indexes, wherever they physically ran."""
        system, controller, run = self.run_with_migration(at_cycle=10)
        thread0_ops = [op for op in run.execution.ops if op.proc == 0]
        assert len(thread0_ops) == 5
        indexes = [op.issue_index for op in thread0_ops]
        assert sorted(indexes) == indexes

    def test_migration_after_halt_is_noop(self):
        system, controller, run = self.run_with_migration(at_cycle=50_000)
        assert run.completed
        assert controller.records == []

    def test_relaxed_policy_migration(self):
        system, controller, run = self.run_with_migration(
            policy=RelaxedPolicy()
        )
        assert run.completed
        assert run.observable.register(0, "r2") == 2


class TestMigrationErrors:
    def test_bad_processor_ids(self):
        system = System(worker_program(), Def2Policy(), NET_CACHE)
        controller = MigrationController(system)
        with pytest.raises(MigrationError):
            controller.schedule(0, 9, at_cycle=1)
        with pytest.raises(MigrationError):
            controller.schedule(9, 2, at_cycle=1)
        with pytest.raises(MigrationError):
            controller.schedule(0, 0, at_cycle=1)

    def test_busy_target_rejected_at_transfer(self):
        """Migrating onto a processor that has its own (nonempty) thread
        fails at transfer time."""
        program = worker_program()
        system = System(program, Def2Policy(), NET_CACHE, seed=1)
        controller = MigrationController(system)
        controller.schedule(0, 1, at_cycle=1)  # P1 is a real worker
        with pytest.raises(MigrationError):
            system.run()


class TestChainedMigration:
    def test_migrate_then_migrate_back(self):
        """After the first migration the source is the idle slot, so the
        thread can bounce back."""
        program = worker_program()
        system = System(program, Def2Policy(), NET_CACHE, seed=2)
        controller = MigrationController(system)
        controller.schedule(0, 2, at_cycle=10)
        controller.schedule(2, 0, at_cycle=60)
        run = system.run()
        assert run.completed
        assert run.observable.register(0, "r2") == 2
        assert len(controller.records) in (1, 2)  # second may find it halted


class _ForkAt(Forkable):
    """An event that forks the machine (and its controller) once."""

    def __init__(self, system, controller):
        self.system = system
        self.controller = controller
        self.forks = []

    def fork_now(self):
        # The fork replays this event; the list it shares with its
        # parent is non-empty by then, so it forks no further.
        if not self.forks:
            fork = Fork()
            self.forks.append((fork(self.system), fork(self.controller)))

    def _fork(self, fork):
        return fork.shell(self)


def _summary(run, controller):
    return (
        run.observable, run.cycles, run.completed, tuple(run.halt_times),
        sorted(run.stats.stall_breakdown().items(),
               key=lambda kv: (kv[0][0], kv[0][1].value)),
        controller.records,
    )


class TestForkingAMigratingMachine:
    """A machine with a migration pending or draining forks, and the
    parent and the fork each run on exactly as an unforked machine."""

    def _migrating(self, seed=3):
        system = System(worker_program(), Def2Policy(), NET_CACHE, seed=seed)
        controller = MigrationController(system)
        controller.schedule(thread_id=0, to_proc=2, at_cycle=20)
        return system, controller

    @pytest.mark.parametrize("fork_at", (5, 20, 21, 24))
    def test_fork_equals_a_fresh_run(self, fork_at):
        fresh_system, fresh_controller = self._migrating()
        fresh = _summary(fresh_system.run(), fresh_controller)
        assert len(fresh_controller.records) == 1

        system, controller = self._migrating()
        forker = _ForkAt(system, controller)
        system.sim.schedule(fork_at, forker.fork_now)
        parent = _summary(system.run(), controller)
        assert len(forker.forks) == 1
        child_system, child_controller = forker.forks[0]
        assert child_controller is not controller
        child = _summary(child_system.run(), child_controller)
        assert parent == fresh
        assert child == fresh
