"""The durable campaign journal: append, replay, resume, crash safety.

The contract under test (ISSUE: crash-safe resumable campaigns): a
journaled campaign killed at *any* point — including mid-batch — resumes
from its journal executing only the remainder, and the final results are
byte-identical to an uninterrupted campaign's.
"""

import json
import pickle

import pytest

from repro.campaign import (
    CampaignJournal,
    JournalError,
    PolicySpec,
    RunSpec,
    SerialExecutor,
    campaign_digest,
    execute_spec_guarded,
    open_journal,
    run_campaign,
)
from repro.campaign.spec import RunFailure, RunResult
from repro.litmus.catalog import fig1_dekker
from repro.memsys.config import NET_NOCACHE
from repro.models.policies import RelaxedPolicy


def _specs(n=6, **kwargs):
    return [
        RunSpec(
            program=fig1_dekker().program,
            policy=PolicySpec.of(RelaxedPolicy),
            config=NET_NOCACHE,
            seed=seed,
            **kwargs,
        )
        for seed in range(n)
    ]


class CountingExecutor(SerialExecutor):
    """Counts real executions, so replays are observable."""

    def __init__(self):
        super().__init__()
        self.executed = 0

    def map(self, batch, on_result=None):
        self.executed += len(batch)
        return super().map(batch, on_result)


class KillingExecutor(SerialExecutor):
    """Dies (in-process stand-in for SIGKILL) after ``after`` runs."""

    def __init__(self, after):
        super().__init__()
        self.after = after

    def map(self, batch, on_result=None):
        out = []
        for i, spec in enumerate(batch):
            if i == self.after:
                raise KeyboardInterrupt("simulated kill")
            result = execute_spec_guarded(spec)
            on_result(i, result)
            out.append(result)
        return out


class TestJournalBasics:
    def test_roundtrip_replays_byte_identical_results(self, tmp_path):
        path = tmp_path / "j.jsonl"
        specs = _specs()
        first = run_campaign(specs, journal=path, label="t")
        second = run_campaign(specs, journal=path, label="t")
        assert second.metrics.journal_replayed == len(specs)
        assert second.metrics.journal_appends == 0
        assert [pickle.dumps(r) for r in first.results] == [
            pickle.dumps(r) for r in second.results
        ]

    def test_journaled_run_matches_unjournaled_run(self, tmp_path):
        specs = _specs()
        journaled = run_campaign(specs, journal=tmp_path / "j.jsonl")
        plain = run_campaign(specs)
        assert [pickle.dumps(r) for r in journaled.results] == [
            pickle.dumps(r) for r in plain.results
        ]

    def test_record_is_idempotent_per_digest(self, tmp_path):
        path = tmp_path / "j.jsonl"
        spec = _specs(1)[0]
        result = spec.execute()
        with CampaignJournal(path) as journal:
            assert journal.record(spec.digest(), result)
            assert not journal.record(spec.digest(), result)
        raw = [
            json.loads(line)
            for line in path.read_text().splitlines()
        ]
        assert sum(1 for r in raw if r["type"] == "result") == 1

    def test_campaign_header_stamped_per_campaign(self, tmp_path):
        path = tmp_path / "j.jsonl"
        specs = _specs(3)
        run_campaign(specs, journal=path, label="first")
        run_campaign(specs, journal=path, label="second")
        with CampaignJournal(path) as journal:
            assert [c["label"] for c in journal.campaigns] == [
                "first", "second",
            ]
            digests = [spec.digest() for spec in specs]
            assert journal.campaigns[0]["digest"] == campaign_digest(digests)
            assert journal.campaigns[0]["already_completed"] == 0
            assert journal.campaigns[1]["already_completed"] == 3

    def test_periodic_checkpoint_markers(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with CampaignJournal(path, checkpoint_interval=2) as journal:
            for i, spec in enumerate(_specs(5)):
                journal.record(spec.digest(), spec.execute())
        raw = [json.loads(line) for line in path.read_text().splitlines()]
        marks = [r for r in raw if r["type"] == "checkpoint"]
        assert [m["completed"] for m in marks] == [2, 4]


class TestCrashRecovery:
    def test_torn_tail_is_skipped_not_fatal(self, tmp_path):
        path = tmp_path / "j.jsonl"
        specs = _specs(4)
        run_campaign(specs, journal=path)
        with path.open("a") as fh:
            fh.write('{"type": "result", "digest": "abcd", "resu')
        with CampaignJournal(path) as journal:
            assert journal.torn_records == 1
            assert len(journal.replayed) == 4

    def test_kill_mid_batch_then_resume_executes_only_remainder(
        self, tmp_path
    ):
        path = tmp_path / "j.jsonl"
        specs = _specs(8)
        with pytest.raises(KeyboardInterrupt):
            run_campaign(specs, executor=KillingExecutor(3), journal=path)
        with CampaignJournal(path) as journal:
            # Incremental journaling: the three finished runs survived
            # even though the batch itself never returned.
            assert len(journal.replayed) == 3

        counting = CountingExecutor()
        resumed = run_campaign(specs, executor=counting, journal=path)
        assert counting.executed == 5
        assert resumed.metrics.journal_replayed == 3
        assert resumed.metrics.journal_appends == 5

        clean = run_campaign(specs)
        assert [pickle.dumps(r) for r in clean.results] == [
            pickle.dumps(r) for r in resumed.results
        ]

    def test_double_kill_then_resume(self, tmp_path):
        path = tmp_path / "j.jsonl"
        specs = _specs(8)
        for after in (2, 3):
            with pytest.raises(KeyboardInterrupt):
                run_campaign(
                    specs, executor=KillingExecutor(after), journal=path
                )
        resumed = run_campaign(specs, journal=path)
        assert resumed.metrics.journal_replayed == 5
        clean = run_campaign(specs)
        assert [pickle.dumps(r) for r in clean.results] == [
            pickle.dumps(r) for r in resumed.results
        ]


class TestJournalPolicy:
    def test_environmental_failures_never_journaled(self, tmp_path):
        path = tmp_path / "j.jsonl"
        spec = _specs(1)[0]
        lost = RunResult(
            observable=None, cycles=0, completed=False,
            failure=RunFailure(kind="worker-lost", message="gone"),
        )
        ok = _specs(2)[1]

        class Mixed(SerialExecutor):
            def map(self, batch, on_result=None):
                results = []
                for i, s in enumerate(batch):
                    result = (
                        lost if s.digest() == spec.digest()
                        else execute_spec_guarded(s)
                    )
                    on_result(i, result)
                    results.append(result)
                return results

        campaign = run_campaign([spec, ok], executor=Mixed(), journal=path)
        assert campaign.metrics.journal_appends == 1
        with CampaignJournal(path) as journal:
            assert spec.digest() not in journal
            assert ok.digest() in journal
        # The resume re-attempts the lost run and journals it this time.
        resumed = run_campaign([spec, ok], journal=path)
        assert resumed.metrics.journal_replayed == 1
        assert resumed.metrics.journal_appends == 1
        assert resumed.ok

    def test_deterministic_failures_are_journaled(self, tmp_path):
        path = tmp_path / "j.jsonl"
        specs = _specs(2, max_cycles=20)  # trips the cycle watchdog
        first = run_campaign(specs, journal=path)
        assert first.metrics.journal_appends == 2
        counting = CountingExecutor()
        second = run_campaign(specs, executor=counting, journal=path)
        assert counting.executed == 0
        assert [pickle.dumps(r) for r in first.results] == [
            pickle.dumps(r) for r in second.results
        ]

    def test_cache_hits_are_journaled_too(self, tmp_path):
        from repro.campaign import ResultCache

        cache = ResultCache(tmp_path / "cache")
        specs = _specs(4)
        run_campaign(specs, cache=cache)  # warm the cache, no journal
        path = tmp_path / "j.jsonl"
        campaign = run_campaign(specs, cache=cache, journal=path)
        assert campaign.metrics.cache_hits == 4
        assert campaign.metrics.journal_appends == 4


class TestOpenJournal:
    def test_passthrough_and_coercion(self, tmp_path):
        assert open_journal(None) is None
        journal = CampaignJournal(tmp_path / "a.jsonl")
        assert open_journal(journal) is journal
        journal.close()
        opened = open_journal(tmp_path / "b.jsonl")
        assert isinstance(opened, CampaignJournal)
        opened.close()

    def test_resume_requires_existing_path(self, tmp_path):
        with pytest.raises(JournalError, match="does not exist"):
            open_journal(tmp_path / "missing.jsonl", resume=True)

    def test_closed_journal_rejects_appends(self, tmp_path):
        journal = CampaignJournal(tmp_path / "j.jsonl")
        journal.close()
        spec = _specs(1)[0]
        with pytest.raises(JournalError, match="closed"):
            journal.record(spec.digest(), spec.execute())
