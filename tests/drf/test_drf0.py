"""Unit tests for the program-level DRF0 checker (Definition 3)."""

import pytest

from repro.axiomatic.crosscheck import _drf_flags
from repro.conformance import _conforms
from repro.core.program import Program, ThreadBuilder
from repro.drf import drf0
from repro.drf.drf0 import (
    RaceKernelMismatch,
    check_execution,
    check_program,
    contract_obeys,
    obeys_drf0,
)
from repro.drf.models import DRF0, DRF0_R
from repro.hb.augment import AugmentationError
from repro.litmus.catalog import critical_section as catalog_critical_section
from repro.sc.executor import run_schedule
from repro.sc.interleaving import SearchBudgetExceeded
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

    @pytest.mark.parametrize("model", (DRF0, DRF0_R), ids=lambda m: m.name)
    def test_budget_the_tree_fits_exactly_is_exhaustive(self, model):
        program = catalog_critical_section().program
        assert check_program(program, model).executions_checked == 8
        reports = [
            check_program(program, model, max_executions=budget)
            for budget in (7, 8, 9)
        ]
        assert [report.obeys for report in reports] == [True] * 3
        assert [report.exhaustive for report in reports] == [False, True, True]
        assert [report.executions_checked for report in reports] == [7, 8, 8]

    def test_contract_budget_the_tree_fits_exactly_proves(self, monkeypatch):
        monkeypatch.setattr(drf0, "CONTRACT_MAX_EXECUTIONS", 8)
        test = catalog_critical_section()
        assert contract_obeys(test.name, test.program, DRF0)
