"""TraceSummary -> CampaignMetrics merging.

A traced campaign folds every run's :class:`TraceSummary` into one
record on its :class:`CampaignMetrics`; the fold must be associative
(merging merged summaries equals merging all runs at once), survive
runs without a summary, and come through identically serial and
parallel.
"""

from repro.campaign import ParallelExecutor, PolicySpec, run_campaign
from repro.litmus.catalog import fig1_dekker
from repro.litmus.runner import LitmusRunner
from repro.memsys.config import NET_NOCACHE
from repro.models.policies import RelaxedPolicy
from repro.trace.summary import TraceSummary
from repro.trace.tracer import TraceSpec


def _traced_specs(runs=6):
    return LitmusRunner().campaign_specs(
        fig1_dekker(),
        PolicySpec.of(RelaxedPolicy),
        NET_NOCACHE,
        runs,
        12345,
        trace=TraceSpec(),
    )


class TestMergedAlgebra:
    def test_merge_sums_counts_per_reason(self):
        one = TraceSummary(
            stall_cycles_by_reason=(("read_value", 10),),
            stall_windows_by_reason=(("read_value", 2),),
            message_counts=(("ReadRequest", 3),),
            events_recorded=5,
        )
        two = TraceSummary(
            stall_cycles_by_reason=(("read_value", 4), ("sync", 7)),
            stall_windows_by_reason=(("read_value", 1), ("sync", 1)),
            message_counts=(("ReadRequest", 1),),
            events_recorded=2,
        )
        merged = TraceSummary.merged([one, two])
        assert merged.stall_cycles_by_reason == (
            ("read_value", 14), ("sync", 7),
        )
        assert merged.stall_windows_by_reason == (
            ("read_value", 3), ("sync", 1),
        )
        assert merged.message_counts == (("ReadRequest", 4),)
        assert merged.events_recorded == 7
        assert merged.runs == 2

    def test_merge_is_associative(self):
        parts = [
            TraceSummary(
                stall_cycles_by_reason=(("read_value", i),),
                events_recorded=i,
            )
            for i in range(1, 5)
        ]
        flat = TraceSummary.merged(parts)
        nested = TraceSummary.merged(
            [TraceSummary.merged(parts[:2]), TraceSummary.merged(parts[2:])]
        )
        assert flat == nested

    def test_none_inputs_are_skipped(self):
        only = TraceSummary(events_recorded=3)
        assert TraceSummary.merged([None, only, None]) == only
        assert TraceSummary.merged([None, None]) is None
        assert TraceSummary.merged([]) is None


class TestCampaignCarriesMergedSummary:
    def test_untraced_campaign_has_no_summary(self):
        campaign = run_campaign(
            LitmusRunner().campaign_specs(
                fig1_dekker(), PolicySpec.of(RelaxedPolicy),
                NET_NOCACHE, 3, 12345,
            )
        )
        assert campaign.metrics.trace_summary is None

    def test_traced_campaign_merges_every_run(self):
        campaign = run_campaign(_traced_specs(runs=6))
        summary = campaign.metrics.trace_summary
        assert summary is not None
        assert summary.runs == 6
        assert summary.events_recorded == sum(
            r.trace_summary.events_recorded for r in campaign.results
        )
        assert summary == TraceSummary.merged(
            r.trace_summary for r in campaign.results
        )

    def test_serial_and_parallel_summaries_agree(self):
        serial = run_campaign(_traced_specs(runs=6))
        with ParallelExecutor(jobs=2) as executor:
            parallel = run_campaign(_traced_specs(runs=6), executor=executor)
        assert (
            serial.metrics.trace_summary == parallel.metrics.trace_summary
        )
