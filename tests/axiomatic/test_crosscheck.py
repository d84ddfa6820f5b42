"""The operational-vs-axiomatic cross-checker, end to end (small)."""

import dataclasses

import pytest

from repro.axiomatic import CrosscheckCell, CrosscheckReport, crosscheck_models
from repro.litmus.catalog import (
    critical_section,
    fig1_dekker,
    fig1_dekker_all_sync,
    load_buffering,
)
from repro.memsys.config import NET_CACHE, NET_NOCACHE


@pytest.fixture(scope="module")
def small_report():
    return crosscheck_models(
        tests=[fig1_dekker(), load_buffering(), critical_section()],
        policies=["SC", "TSO", "RELAXED"],
        configs=(NET_NOCACHE,),
        runs_per_test=6,
    )


class TestAgreement:
    def test_small_grid_agrees(self, small_report):
        assert small_report.ok, small_report.describe()
        assert not small_report.disagreements

    def test_every_runnable_cell_present(self, small_report):
        # 2 straight-line tests x 3 policies.
        assert len(small_report.cells) == 6
        cell = small_report.cell("fig1_dekker", "TSO")
        assert cell is not None
        assert cell.model_name == "TSO"
        assert cell.config_names == ("net_nocache",)

    def test_observed_within_allowed(self, small_report):
        for cell in small_report.cells:
            assert cell.observed_outcomes <= cell.allowed_outcomes

    def test_sc_forbids_the_dekker_outcome(self, small_report):
        cell = small_report.cell("fig1_dekker", "SC")
        assert fig1_dekker().forbidden not in cell.allowed_outcomes

    def test_control_flow_is_skipped_not_mismodelled(self, small_report):
        assert [name for name, _ in small_report.skipped] == [
            "critical_section"
        ]
        assert "control flow" in small_report.skipped[0][1]

    def test_describe_announces_the_verdict(self, small_report):
        text = small_report.describe()
        assert "AGREE" in text
        assert "skipped critical_section" in text


    def test_drf_flags_are_the_programs_not_the_names(self):
        """A racy program named like a DRF0 test listed before it is
        judged racy: DEF2 may show it non-SC outcomes."""
        sync = dataclasses.replace(
            fig1_dekker_all_sync(warm=True), name="fig1_dekker_warm"
        )
        report = crosscheck_models(
            tests=[sync, fig1_dekker(warm=True)], policies=["DEF2"],
            configs=(NET_CACHE,), runs_per_test=40, base_seed=1,
        )
        assert report.ok, report.describe()


class TestReportShape:
    def test_failing_cell_flips_the_report(self):
        good = CrosscheckCell(
            test_name="t", policy_name="SC", model_name="SC",
            config_names=("net_nocache",),
            allowed_outcomes=frozenset(), observed_outcomes=frozenset(),
        )
        bad = CrosscheckCell(
            test_name="t", policy_name="TSO", model_name="TSO",
            config_names=("net_nocache",),
            allowed_outcomes=frozenset(), observed_outcomes=frozenset(),
            failures=("hardware exhibited a forbidden outcome",),
        )
        assert good.ok and not bad.ok
        report = CrosscheckReport(cells=[good, bad])
        assert not report.ok
        assert report.disagreements == [bad]
        assert "DISAGREE" in report.describe()
