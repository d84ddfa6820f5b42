"""The operational-vs-axiomatic cross-checker, end to end (small)."""

import dataclasses

import pytest

from repro.axiomatic import CrosscheckCell, CrosscheckReport, crosscheck_models
from repro.campaign import (
    ResultCache,
    SerialExecutor,
    current_token,
    register_metrics_hook,
    unregister_metrics_hook,
)
from repro.conformance import plan_conformance, run_conformance
from repro.drf.models import DRF0
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


class TestOneGrid:
    """The crosscheck runs the conformance grid's plan and judges it."""

    def test_drf_flags_are_the_programs_not_the_names(self):
        """A racy program under a DRF0 test's name is judged racy: DEF2
        may show it non-SC outcomes (listing both is refused, see
        test_two_tests_of_one_name_are_refused)."""
        racy = dataclasses.replace(
            fig1_dekker(warm=True), name=fig1_dekker_all_sync(warm=True).name
        )
        report = crosscheck_models(
            tests=[racy], policies=["DEF2"], configs=(NET_CACHE,),
            runs_per_test=40, base_seed=1,
        )
        assert report.ok, report.describe()
        cell = report.cell(racy.name, "DEF2")
        assert racy.forbidden in cell.observed_outcomes

    def test_plan_keeps_contract_verdicts_by_program(self):
        sync = fig1_dekker_all_sync(warm=True)
        racy = dataclasses.replace(fig1_dekker(warm=True), name=sync.name)
        plan = plan_conformance(
            configs=[NET_CACHE], policies=["DEF2"], tests=[sync],
            runs_per_test=1,
        )
        assert plan.obeys(sync, DRF0)
        assert not plan.obeys(racy, DRF0)

    def test_two_tests_of_one_name_are_refused(self):
        sync = dataclasses.replace(
            fig1_dekker_all_sync(warm=True), name="fig1_dekker_warm"
        )
        with pytest.raises(ValueError, match="'fig1_dekker_warm'"):
            crosscheck_models(
                tests=[fig1_dekker(warm=True), sync], policies=["DEF2"],
                configs=(NET_CACHE,), runs_per_test=1,
            )

    def test_a_cache_warmed_by_the_conformance_grid_serves_it(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        grid = dict(
            tests=[fig1_dekker(warm=True), load_buffering()],
            policies=["SC", "TSO", "DEF2"],
            configs=(NET_NOCACHE, NET_CACHE),
            runs_per_test=3,
            base_seed=2026,
        )
        run_conformance(cache=cache, **grid)
        records = []
        register_metrics_hook(records.append)
        try:
            report = crosscheck_models(cache=cache, **grid)
        finally:
            unregister_metrics_hook(records.append)
        assert report.ok, report.describe()
        (record,) = [r for r in records if r.label == "crosscheck"]
        assert record.cache_misses == 0
        # 5 buildable (machine, policy) pairs x 2 tests x 3 runs: DEF2
        # needs caches.
        assert record.cache_hits == record.runs == 30


class StopAfterFirstResult(SerialExecutor):
    """Asks for a stop from the first result callback, as SIGTERM would."""

    def map(self, batch, on_result=None):
        def request_stop(index, result):
            if on_result is not None:
                on_result(index, result)
            current_token().request()

        return super().map(batch, on_result=request_stop)


class TestPreemption:
    def test_a_preempted_crosscheck_is_not_a_pass(self):
        report = crosscheck_models(
            tests=["fig1_dekker", "message_passing"], policies=["SC", "TSO"],
            runs_per_test=4, executor=StopAfterFirstResult(),
        )
        assert report.preempted
        assert not report.ok
        assert report.describe().splitlines()[-1] == "PREEMPTED"

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
