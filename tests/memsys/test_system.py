"""Unit tests for system composition and hardware runs."""

import pytest

from repro.core.program import Program, ThreadBuilder
from repro.memsys.config import BUS_CACHE, BUS_NOCACHE, NET_CACHE, NET_NOCACHE
from repro.memsys.system import ConfigurationError, System, run_program
from repro.models.policies import Def2Policy, RelaxedPolicy, SCPolicy


def simple_program():
    t0 = ThreadBuilder("P0").store("x", 1).load("r1", "x").build()
    t1 = ThreadBuilder("P1").store("y", 2).build()
    return Program([t0, t1], name="simple")


class TestConstruction:
    def test_def2_requires_caches(self):
        with pytest.raises(ConfigurationError):
            System(simple_program(), Def2Policy(), BUS_NOCACHE)

    def test_cache_config_builds_directory(self):
        system = System(simple_program(), SCPolicy(), BUS_CACHE)
        assert system.directory is not None
        assert system.memory is None
        assert len(system.caches) == 2

    def test_nocache_config_builds_memory(self):
        system = System(simple_program(), SCPolicy(), BUS_NOCACHE)
        assert system.directory is None
        assert system.memory is not None
        assert len(system.caches) == 0


@pytest.mark.parametrize(
    "config", [BUS_NOCACHE, NET_NOCACHE, BUS_CACHE, NET_CACHE],
    ids=lambda c: c.name,
)
class TestRuns:
    def test_completes_with_correct_result(self, config):
        run = run_program(simple_program(), SCPolicy(), config, seed=3)
        assert run.completed
        assert run.observable.register(0, "r1") == 1
        assert run.observable.memory_value("x") == 1
        assert run.observable.memory_value("y") == 2

    def test_deterministic_per_seed(self, config):
        a = run_program(simple_program(), RelaxedPolicy(), config, seed=11)
        b = run_program(simple_program(), RelaxedPolicy(), config, seed=11)
        assert a.observable == b.observable
        assert a.cycles == b.cycles

    def test_trace_sorted_by_commit_time(self, config):
        run = run_program(simple_program(), SCPolicy(), config, seed=1)
        times = [op.commit_time for op in run.execution.ops]
        assert times == sorted(times)
        assert len(run.execution.ops) == 3

    def test_initial_memory_visible(self, config):
        program = Program(
            [ThreadBuilder("P0").load("r", "z").build()],
            initial_memory={"z": 42},
        )
        run = run_program(program, SCPolicy(), config)
        assert run.observable.register(0, "r") == 42
        assert run.observable.memory_value("z") == 42

    def test_halt_times_recorded(self, config):
        run = run_program(simple_program(), SCPolicy(), config)
        assert all(t is not None for t in run.halt_times)

    def test_describe(self, config):
        run = run_program(simple_program(), SCPolicy(), config, seed=5)
        text = run.describe()
        assert config.name in text and "SC" in text and "completed" in text


class TestExecutionOnFirstRead:
    def test_built_from_the_committed_ops_not_the_system(self):
        system = System(simple_program(), RelaxedPolicy(), NET_CACHE, seed=4)
        run = system.run()
        assert "execution" not in vars(run)
        assert not any(isinstance(v, System) for v in vars(run).values())
        execution = run.execution
        assert execution.ops == sorted(
            (op for p in system.processors for op in p.trace),
            key=lambda op: (op.commit_time, op.proc),
        )
        assert execution.observable == run.observable
        assert execution.completed
        assert run.execution is execution

    def test_cut_off_run_gives_an_incomplete_execution(self):
        run = run_program(simple_program(), SCPolicy(), NET_CACHE, max_cycles=3)
        assert run.timed_out and not run.completed
        assert not run.execution.completed


class TestFinalMemory:
    def test_dirty_cache_lines_folded_in(self):
        """A written line stays dirty in a cache; final memory must show it."""
        run = run_program(simple_program(), SCPolicy(), NET_CACHE, seed=2)
        assert run.observable.memory_value("x") == 1
        assert run.observable.memory_value("y") == 2

    def test_untouched_location_keeps_initial_value(self):
        program = Program(
            [ThreadBuilder("P0").nop().build()], initial_memory={"k": 7}
        )
        run = run_program(program, SCPolicy(), NET_CACHE)
        assert run.observable.memory_value("k") == 7

    def test_livelocked_program_reported_incomplete(self):
        """A spin on a never-released lock cannot complete."""
        program = Program(
            [
                ThreadBuilder("P0")
                .label("spin")
                .test_and_set("t", "l")
                .bne("t", 0, "spin")
                .build()
            ],
            initial_memory={"l": 1},
        )
        run = run_program(program, SCPolicy(), NET_CACHE, max_cycles=5_000)
        assert not run.completed
