"""Unit tests for the program-level DRF0 checker (Definition 3)."""

import pytest

from repro.axiomatic.crosscheck import _drf_flags
from repro.conformance import _conforms
from repro.core.program import Program, ThreadBuilder
from repro.drf import drf0
from repro.drf.drf0 import (
    _CHUNK,
    RaceKernelMismatch,
    check_execution,
    check_program,
    contract_obeys,
    obeys_drf0,
)
from repro.drf.models import DRF0, DRF0_R
from repro.hb.augment import AugmentationError
from repro.litmus.catalog import critical_section as catalog_critical_section
from repro.litmus.catalog import standard_catalog
from repro.sc.executor import run_schedule
from repro.sc.interleaving import SearchBudgetExceeded
from repro.workloads import random_drf0_program
from repro.workloads.barrier import barrier_program, barrier_program_data_spin
from repro.workloads.locks import critical_section_program


def dekker() -> Program:
    t0 = ThreadBuilder("P0").store("x", 1).load("r1", "y").build()
    t1 = ThreadBuilder("P1").store("y", 1).load("r2", "x").build()
    return Program([t0, t1], name="dekker")


def all_sync_dekker() -> Program:
    t0 = ThreadBuilder("P0").sync_store("x", 1).sync_load("r1", "y").build()
    t1 = ThreadBuilder("P1").sync_store("y", 1).sync_load("r2", "x").build()
    return Program([t0, t1], name="dekker_sync")


class TestCheckProgram:
    def test_racy_dekker_rejected_with_witness(self):
        report = check_program(dekker())
        assert not report.obeys
        assert report.races
        assert report.witness is not None
        assert "VIOLATES" in report.describe()

    def test_all_sync_dekker_accepted(self):
        report = check_program(all_sync_dekker())
        assert report.obeys
        assert report.exhaustive
        assert "obeys" in report.describe()

    def test_lock_protected_program_accepted(self):
        assert obeys_drf0(critical_section_program(2, 1))

    def test_sync_barrier_accepted(self):
        assert obeys_drf0(barrier_program(2))

    def test_data_spin_barrier_rejected(self):
        """Section 6: spinning on a barrier count with a data read is a
        restricted data race — DRF0 rejects it."""
        assert not obeys_drf0(barrier_program_data_spin(2))

    def test_single_thread_trivially_drf(self):
        program = Program([ThreadBuilder("P0").store("x", 1).load("r", "x").build()])
        assert obeys_drf0(program)

    def test_disjoint_locations_drf(self):
        program = Program(
            [
                ThreadBuilder("P0").store("x", 1).build(),
                ThreadBuilder("P1").store("y", 1).build(),
            ]
        )
        assert obeys_drf0(program)

    def test_max_executions_marks_non_exhaustive(self):
        report = check_program(all_sync_dekker(), max_executions=2)
        assert report.obeys
        assert not report.exhaustive

    def test_racy_verdict_is_definitive_even_truncated(self):
        report = check_program(dekker(), max_executions=1)
        assert not report.obeys
        assert report.exhaustive

    def test_drf0r_rejects_read_release_program(self):
        """P0 'releases' with a read-only sync: DRF0 accepts (so orders
        all sync pairs) but the refined model does not."""
        t0 = ThreadBuilder("P0").store("x", 1).sync_load("t", "s").build()
        t1 = ThreadBuilder("P1").test_and_set("t", "s").load("r", "x").build()
        program = Program([t0, t1])
        # Not even DRF0-clean in all executions (the TAS may run first),
        # so compare on the execution where the chain exists.
        execution = run_schedule(program, [0, 0, 1, 1])
        assert check_execution(execution, model=DRF0) == []
        assert check_execution(execution, model=DRF0_R) != []

    def test_executions_checked_counted(self):
        report = check_program(all_sync_dekker(), prune=False)
        assert report.executions_checked >= 6

    def test_pruned_check_needs_fewer_executions_same_verdict(self):
        full = check_program(all_sync_dekker(), prune=False)
        pruned = check_program(all_sync_dekker(), prune=True)
        assert pruned.obeys == full.obeys
        assert pruned.executions_checked <= full.executions_checked


def _report_key(report):
    """Everything a DRF report states, with witness ops by static origin."""
    witness = report.witness
    return (
        report.obeys,
        report.executions_checked,
        report.exhaustive,
        None
        if witness is None
        else [
            (op.proc, op.thread_pos, op.occurrence, op.kind, op.location)
            for op in witness.ops
        ],
        report.describe(),
    )


def _parallel_programs():
    catalog = {test.program.name: test.program for test in standard_catalog()}
    return list(catalog.values()) + [random_drf0_program(seed) for seed in range(3)]


class TestParallelCheck:
    @pytest.mark.parametrize("model", (DRF0, DRF0_R), ids=lambda m: m.name)
    def test_jobs_2_report_equals_serial(self, model):
        for program in _parallel_programs():
            serial = check_program(program, model)
            parallel = check_program(program, model, jobs=2)
            assert _report_key(parallel) == _report_key(serial), program.name

    def test_jobs_2_clean_program_spanning_chunks(self):
        """A clean program whose executions fill several chunks."""
        program = random_drf0_program(0, num_procs=3, sections_per_proc=1)
        serial = check_program(program, DRF0, prune=False)
        assert serial.obeys and serial.executions_checked > _CHUNK
        parallel = check_program(program, DRF0, prune=False, jobs=2)
        assert _report_key(parallel) == _report_key(serial)


class TestLoudFailures:
    @pytest.mark.parametrize("model", (DRF0, DRF0_R), ids=lambda m: m.name)
    @pytest.mark.parametrize("location", ("__init_sync__", "__final_sync__0"))
    def test_reserved_location_raises_on_clean_program(self, model, location):
        program = Program(
            [ThreadBuilder("P0").store(location, 1).load("r", location).build()]
        )
        with pytest.raises(AugmentationError):
            check_program(program, model)

    def test_kernel_race_without_oracle_race_raises(self, monkeypatch):
        monkeypatch.setattr(drf0, "find_races", lambda *args, **kwargs: [])
        with pytest.raises(RaceKernelMismatch):
            check_program(dekker())


class TestContractBudget:
    def test_catalog_verdict_within_budget(self):
        test = catalog_critical_section()
        assert contract_obeys(test.name, test.program, DRF0)

    def test_truncated_contract_check_raises(self, monkeypatch):
        monkeypatch.setattr(drf0, "CONTRACT_MAX_EXECUTIONS", 1)
        test = catalog_critical_section()
        with pytest.raises(SearchBudgetExceeded, match="critical_section.*budget of 1"):
            _conforms(test, DRF0, {})
        with pytest.raises(SearchBudgetExceeded, match="critical_section.*budget of 1"):
            _drf_flags(test, {})
