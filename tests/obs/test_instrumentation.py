"""End-to-end instrumentation: the counters every subsystem publishes.

The central claim under test is the worker-aggregation one: a parallel
campaign's worker-side counters must ship home as snapshot deltas and
merge into the parent registry, so a serial and a parallel run of the
same campaign agree on every simulator-level counter — the same
byte-identity discipline the campaign results themselves obey.
"""

import os

import pytest

from repro.campaign import (
    CampaignJournal,
    ParallelExecutor,
    PolicySpec,
    ResultCache,
    run_campaign,
)
from repro.faults import parse_fault_plan
from repro.litmus.catalog import fig1_dekker
from repro.litmus.runner import LitmusRunner
from repro.memsys.config import NET_CACHE, NET_NOCACHE
from repro.models.policies import RelaxedPolicy
from repro.obs import enable_metrics
from repro.sc.interleaving import enumerate_executions, enumerate_results


def _specs(runs=6, faults=None, config=NET_NOCACHE):
    runner = LitmusRunner()
    return runner.campaign_specs(
        fig1_dekker(),
        PolicySpec.of(RelaxedPolicy),
        config,
        runs,
        12345,
        faults=faults,
    )


class TestSimulatorCounters:
    def test_campaign_counts_runs_cycles_events(self, metrics):
        run_campaign(_specs(runs=6))
        assert metrics.value("repro_sim_runs_total") == 6
        assert metrics.value("repro_sim_cycles_total") > 0
        assert metrics.value("repro_sim_events_total") > 0

    def test_stall_counters_labeled_by_reason(self, metrics):
        run_campaign(_specs(runs=6))
        snap = metrics.snapshot()
        samples = snap.data["repro_cpu_stall_cycles_total"]["samples"]
        assert samples, "expected at least one stall reason"
        assert all(key.startswith('reason="') for key in samples)

    def test_disabled_registry_records_nothing(self, metrics):
        metrics.disable()
        run_campaign(_specs(runs=2))
        assert metrics.value("repro_sim_runs_total") is None


class TestFaultCounters:
    def test_activations_labeled_by_kind(self, metrics):
        run_campaign(
            _specs(runs=8, faults=parse_fault_plan("heavy"),
                   config=NET_CACHE)
        )
        snap = metrics.snapshot()
        samples = snap.data.get(
            "repro_fault_activations_total", {"samples": {}}
        )["samples"]
        assert sum(samples.values()) > 0


class TestSearchCounters:
    def test_enumerate_results_publishes_per_kernel(self, metrics):
        enumerate_results(fig1_dekker().program)
        assert metrics.value("repro_sc_searches_total", kernel="results") == 1
        assert metrics.value("repro_sc_states_total", kernel="results") > 0
        assert (
            metrics.value("repro_sc_transitions_total", kernel="results") > 0
        )

    def test_enumerate_executions_publishes_on_exhaustion(self, metrics):
        list(enumerate_executions(fig1_dekker().program, max_executions=5))
        assert (
            metrics.value("repro_sc_searches_total", kernel="executions") == 1
        )

    def test_enumerate_executions_publishes_on_early_close(self, metrics):
        generator = enumerate_executions(fig1_dekker().program)
        next(generator)
        generator.close()
        assert (
            metrics.value("repro_sc_searches_total", kernel="executions") == 1
        )


class TestCacheAndJournalCounters:
    def test_cache_probe_counters(self, metrics, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        specs = _specs(runs=4)
        run_campaign(specs, cache=cache)
        run_campaign(specs, cache=cache)
        assert metrics.value("repro_cache_misses_total") == 4
        assert metrics.value("repro_cache_puts_total") == 4
        assert metrics.value("repro_cache_hits_total") == 4

    def test_cache_fsyncs_count_only_puts_without_a_journal(
        self, metrics, tmp_path
    ):
        run_campaign(_specs(runs=4), cache=ResultCache(tmp_path / "alone"))
        assert metrics.value("repro_cache_fsyncs_total") == 4
        journal = CampaignJournal(tmp_path / "j.jsonl")
        run_campaign(
            _specs(runs=4), cache=ResultCache(tmp_path / "journaled"),
            journal=journal,
        )
        journal.close()
        assert metrics.value("repro_cache_puts_total") == 8
        assert metrics.value("repro_cache_fsyncs_total") == 4

    def test_cache_put_errors_counter(self, metrics, tmp_path, monkeypatch):
        cache = ResultCache(tmp_path / "cache")
        spec = _specs(runs=1)[0]
        result = spec.execute()

        def full_disk(src, dst):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(os, "replace", full_disk)
        cache.put(spec, result)  # swallowed, but counted
        monkeypatch.undo()
        assert metrics.value("repro_cache_put_errors_total") == 1
        assert metrics.value("repro_cache_puts_total") is None
        assert list((tmp_path / "cache").glob("*.tmp")) == []
        cache.put(spec, result)
        assert metrics.value("repro_cache_put_errors_total") == 1
        assert metrics.value("repro_cache_puts_total") == 1

    def test_journal_append_and_fsync_counters(self, metrics, tmp_path):
        journal = CampaignJournal(tmp_path / "j.jsonl")
        run_campaign(_specs(runs=4), journal=journal)
        journal.close()
        assert metrics.value("repro_journal_appends_total") >= 4
        assert metrics.value("repro_journal_fsyncs_total") >= 1
        latency = metrics.value("repro_journal_append_seconds")
        assert latency["count"] >= 4

    def test_journal_load_latency_and_torn_records(self, metrics, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = CampaignJournal(path)
        run_campaign(_specs(runs=4), journal=journal)
        journal.close()
        # A fresh journal has nothing to load: no observation.
        assert metrics.value("repro_journal_load_seconds") is None

        CampaignJournal(path).close()
        assert metrics.value("repro_journal_load_seconds")["count"] == 1
        assert metrics.value("repro_journal_torn_records_total") is None

        with path.open("ab") as fh:
            fh.write(b'{"type": "result", "dig')  # a writer killed mid-append
        resumed = CampaignJournal(path)
        resumed.close()
        assert resumed.torn_records == 1
        assert len(resumed.replayed) == 4
        assert metrics.value("repro_journal_load_seconds")["count"] == 2
        assert metrics.value("repro_journal_torn_records_total") == 1


class TestCampaignPublication:
    def test_totals_agree_with_campaign_metrics(self, metrics):
        campaign = run_campaign(_specs(runs=5), label="obs-test")
        assert metrics.value("repro_campaign_total") == 1
        assert metrics.value("repro_campaign_runs_total") == campaign.metrics.runs
        assert (
            metrics.value("repro_campaign_completed_runs_total")
            == campaign.metrics.completed_runs
        )
        wall = metrics.value("repro_campaign_wall_seconds")
        assert wall["count"] == 1
        assert wall["sum"] == pytest.approx(
            campaign.metrics.wall_clock_seconds, rel=0.5
        )


class TestParallelAggregation:
    def test_serial_and_parallel_counters_agree(self, metrics, tmp_path):
        serial = run_campaign(_specs(runs=6))
        baseline = metrics.snapshot()
        metrics.reset()

        # Spawn-based workers read the env flag at import; fork-based
        # ones inherit the parent's enabled registry.  Either way the
        # per-run deltas must come home and merge.
        enable_metrics()
        with ParallelExecutor(jobs=2) as executor:
            parallel = run_campaign(_specs(runs=6), executor=executor)
        merged = metrics.snapshot()

        assert [r.observable for r in parallel.results] == [
            r.observable for r in serial.results
        ]
        for name in (
            "repro_sim_runs_total",
            "repro_sim_cycles_total",
            "repro_sim_events_total",
        ):
            assert merged.value(name) == baseline.value(name), name

        stalls = "repro_cpu_stall_cycles_total"
        assert (
            merged.data.get(stalls, {}).get("samples")
            == baseline.data.get(stalls, {}).get("samples")
        )
