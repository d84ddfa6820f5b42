"""Tests for the snooping MSI substrate (atomic bus)."""

import pytest

from repro.analysis.invariants import check_trace
from repro.coherence.line import LineState
from repro.coherence.snooping import SnoopCoordinator, SnoopingCache
from repro.core.operation import OpKind
from repro.cpu.access import MemoryAccess
from repro.interconnect.bus import Bus
from repro.litmus.catalog import fig1_dekker, fig1_dekker_all_sync
from repro.litmus.runner import LitmusRunner
from repro.memsys.config import BUS_CACHE_SNOOP, NET_CACHE
from repro.memsys.system import ConfigurationError, System, run_program
from repro.models.policies import (
    Def1Policy,
    Def2Policy,
    Def2RPolicy,
    RelaxedPolicy,
    SCPolicy,
)
from repro.sc.verifier import SCVerifier
from repro.sim.engine import Simulator
from repro.sim.stats import Stats
from repro.workloads.locks import critical_section_program
from repro.workloads.random_programs import random_drf0_program, random_racy_program


class SnoopHarness:
    def __init__(self, num_caches=2, initial_memory=None, capacity=None,
                 reserve_enabled=False):
        self.sim = Simulator()
        self.stats = Stats()
        self.bus = Bus(self.sim, self.stats, transfer_cycles=1)
        self.coordinator = SnoopCoordinator(
            self.sim, self.bus, self.stats, initial_memory=initial_memory or {}
        )
        self.caches = [
            SnoopingCache(
                self.sim, i, self.bus, self.coordinator, self.stats,
                capacity=capacity, reserve_enabled=reserve_enabled,
            )
            for i in range(num_caches)
        ]

    def access(self, cache_id, kind, location, write_value=None, compute=None):
        if compute is None and write_value is not None:
            compute = lambda old, v=write_value: v
        access = MemoryAccess(
            proc=cache_id, kind=kind, location=location,
            compute_write=compute, sync_protocol=kind.is_sync,
            needs_exclusive=kind.writes_memory,
        )
        self.caches[cache_id].submit(access)
        return access

    def run(self):
        self.sim.run()


class TestSnoopProtocolUnit:
    def test_read_from_memory(self):
        harness = SnoopHarness(initial_memory={"x": 9})
        access = harness.access(0, OpKind.READ, "x")
        harness.run()
        assert access.value == 9
        assert harness.caches[0].line_state("x") is LineState.SHARED

    def test_write_acquires_exclusive_and_gp_at_once(self):
        harness = SnoopHarness()
        access = harness.access(0, OpKind.WRITE, "x", write_value=3)
        harness.run()
        assert access.globally_performed
        assert access.gp_time == access.commit_time  # atomic bus property
        assert harness.caches[0].line_state("x") is LineState.EXCLUSIVE

    def test_rdx_invalidates_sharers(self):
        harness = SnoopHarness()
        harness.access(1, OpKind.READ, "x")
        harness.run()
        harness.access(0, OpKind.WRITE, "x", write_value=5)
        harness.run()
        assert harness.caches[1].line_state("x") is LineState.INVALID
        assert harness.stats.count("snoop.invalidated") == 1

    def test_dirty_owner_supplies_on_read(self):
        harness = SnoopHarness()
        harness.access(0, OpKind.WRITE, "x", write_value=7)
        harness.run()
        access = harness.access(1, OpKind.READ, "x")
        harness.run()
        assert access.value == 7
        assert harness.caches[0].line_state("x") is LineState.SHARED
        assert harness.stats.count("snoop.supplied") == 1

    def test_dirty_owner_supplies_on_write(self):
        harness = SnoopHarness()
        harness.access(0, OpKind.WRITE, "x", write_value=7)
        harness.run()
        access = harness.access(
            1, OpKind.SYNC_RMW, "x", compute=lambda old: old + 1
        )
        harness.run()
        assert access.value == 7
        assert harness.caches[1].line_value("x") == 8
        assert harness.caches[0].line_state("x") is LineState.INVALID

    def test_eviction_writes_back_through_bus(self):
        harness = SnoopHarness(capacity=1)
        harness.access(0, OpKind.WRITE, "x", write_value=5)
        harness.run()
        harness.access(0, OpKind.WRITE, "y", write_value=6)
        harness.run()
        assert harness.coordinator.memory_value("x") == 5
        assert harness.stats.count("snoop.writebacks") == 1

    def test_wb_buffer_supplies_until_granted(self):
        """A read granted between eviction and the WB grant still sees
        the dirty data (from the write-back buffer)."""
        harness = SnoopHarness(capacity=1)
        harness.access(0, OpKind.WRITE, "x", write_value=5)
        harness.run()
        # Evict x (by filling y) and immediately read x from cache 1;
        # the BusRd can win the bus before the BusWB's data matters.
        harness.access(0, OpKind.WRITE, "y", write_value=6)
        read = harness.access(1, OpKind.READ, "x")
        harness.run()
        assert read.value == 5

    def test_atomic_bus_serializes_transactions(self):
        harness = SnoopHarness()
        a = harness.access(0, OpKind.WRITE, "x", write_value=1)
        b = harness.access(1, OpKind.WRITE, "x", write_value=2)
        harness.run()
        assert a.globally_performed and b.globally_performed
        # Exactly one cache ends exclusive.
        owners = [
            c.line_state("x") is LineState.EXCLUSIVE for c in harness.caches
        ]
        assert sum(owners) == 1


class TestSnoopSystem:
    def test_snooping_requires_bus(self):
        program = fig1_dekker().program
        config = BUS_CACHE_SNOOP.with_overrides(
            interconnect=NET_CACHE.interconnect
        )
        with pytest.raises(ConfigurationError):
            System(program, SCPolicy(), config)

    def test_relaxed_violates_with_warm_caches(self):
        runner = LitmusRunner()
        result = runner.run(
            fig1_dekker(warm=True), RelaxedPolicy, BUS_CACHE_SNOOP, runs=60
        )
        assert result.forbidden_seen > 0

    def test_sc_policy_clean(self):
        runner = LitmusRunner()
        result = runner.run(
            fig1_dekker(warm=True), SCPolicy, BUS_CACHE_SNOOP, runs=60
        )
        assert not result.violated_sc

    def test_drf0_programs_appear_sc(self):
        verifier = SCVerifier()
        for program_seed in range(6):
            program = random_drf0_program(program_seed)
            sc_set = verifier.sc_result_set(program)
            for policy_cls in (Def1Policy, Def2Policy):
                for seed in range(3):
                    run = run_program(
                        program, policy_cls(), BUS_CACHE_SNOOP, seed=seed
                    )
                    assert run.completed
                    assert run.observable in sc_set

    def test_trace_invariants_hold(self):
        for seed in range(10):
            program = random_racy_program(seed, num_procs=3, ops_per_proc=4)
            run = run_program(program, RelaxedPolicy(), BUS_CACHE_SNOOP, seed=seed)
            assert run.completed
            assert check_trace(run.execution, dict(program.initial_memory)) == []

    def test_def2_reserve_nacks_on_snoop_bus(self):
        """Condition 5 on the snooping substrate: hold the counter, the
        rival sync transaction gets NACKed until it drains."""
        harness = SnoopHarness(reserve_enabled=True)
        harness.caches[0].counter.increment()
        sync = harness.access(0, OpKind.SYNC_RMW, "s", compute=lambda old: 1)
        harness.run()
        assert harness.caches[0].is_reserved("s")
        rival = harness.access(1, OpKind.SYNC_RMW, "s", compute=lambda old: 1)
        harness.sim.run_for(100)
        assert not rival.committed
        assert harness.stats.count("snoop.nacks") >= 1
        harness.caches[0].counter.decrement()
        harness.run()
        assert rival.committed

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("policy", [Def2Policy, Def2RPolicy])
    def test_flush_stall_ends_when_counter_drains(self, policy, seed):
        """A one-line cache holding a reserved lock line stalls its
        processor on the flush; the counter reaching zero must evict the
        line and release the stall, as on the directory substrate."""
        program = critical_section_program(3, 2, private_writes=3)
        config = BUS_CACHE_SNOOP.with_overrides(cache_capacity=1)
        run = run_program(program, policy(), config, seed=seed, max_cycles=20_000)
        assert run.completed, run.deadlock
        assert dict(run.observable.memory)["count"] == 6

