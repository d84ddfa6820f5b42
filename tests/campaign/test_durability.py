"""The durability contract between the campaign journal and the cache.

The journal's fsync is the one durability point for a journaled result:
its cache entry is written after the record is durable and is not
fsync'd again.  A cache used alone fsyncs every entry.  Either way a
cache entry that did not survive a power loss intact reads as a miss.
"""

import json
import os
import pickle

import pytest

from repro.campaign import (
    CampaignJournal,
    PolicySpec,
    ResultCache,
    RunSpec,
    run_campaign,
)
from repro.litmus.catalog import fig1_dekker
from repro.memsys.config import NET_NOCACHE
from repro.models.policies import RelaxedPolicy


def _specs(n):
    program = fig1_dekker().program
    policy = PolicySpec.of(RelaxedPolicy)
    return [
        RunSpec(program=program, policy=policy, config=NET_NOCACHE, seed=seed)
        for seed in range(n)
    ]


@pytest.fixture
def fsyncs(monkeypatch):
    """Every ``os.fsync`` call's file descriptor, in call order."""
    calls = []
    real = os.fsync

    def counting(fd):
        calls.append(fd)
        real(fd)

    monkeypatch.setattr(os, "fsync", counting)
    return calls


def _pickled(results):
    return [pickle.dumps(r) for r in results]


def _entry(directory, spec):
    return directory / f"{spec.digest()}.pkl"


class TestFsyncBudget:
    def test_journaled_cached_campaign_fsyncs_at_most_once_per_spec(
        self, tmp_path, fsyncs
    ):
        specs = _specs(10)
        # A short checkpoint interval puts automatic checkpoints in the
        # run; each must share its triggering result's fsync.
        journal = CampaignJournal(tmp_path / "j.jsonl", checkpoint_interval=4)
        cache = ResultCache(tmp_path / "cache")
        run_campaign(specs, cache=cache, journal=journal)
        journal.close()
        assert len(cache) == len(specs)
        assert len(fsyncs) <= len(specs) + 1

    def test_cache_only_campaign_fsyncs_every_put(self, tmp_path, fsyncs):
        specs = _specs(5)
        run_campaign(specs, cache=ResultCache(tmp_path / "cache"))
        assert len(fsyncs) == len(specs)

    def test_checkpoint_shares_the_result_fsync(self, tmp_path, fsyncs):
        result = _specs(1)[0].execute()
        with CampaignJournal(tmp_path / "j.jsonl", checkpoint_interval=2) as j:
            for i in range(4):
                j.record(f"d{i}", result)
            assert len(fsyncs) == 4
        kinds = [
            json.loads(line)["type"]
            for line in (tmp_path / "j.jsonl").read_text().splitlines()
        ]
        assert kinds.count("checkpoint") == 2


class TestJournalDurableQuery:
    def test_unknown_digest_is_not_durable(self, tmp_path):
        with CampaignJournal(tmp_path / "j.jsonl") as journal:
            assert not journal.durable("absent")

    def test_pending_record_is_synced_by_the_query(self, tmp_path, fsyncs):
        result = _specs(1)[0].execute()
        with CampaignJournal(tmp_path / "j.jsonl", fsync_every=64) as journal:
            journal.record("d0", result)
            journal.record("d1", result)
            assert fsyncs == []
            assert journal.durable("d0")
            assert len(fsyncs) == 1
            # One group commit covered both pending records.
            assert journal.durable("d1")
            assert len(fsyncs) == 1

    def test_replayed_record_is_durable_after_one_sync(self, tmp_path, fsyncs):
        path = tmp_path / "j.jsonl"
        with CampaignJournal(path, fsync_every=64) as journal:
            journal.record("d0", _specs(1)[0].execute())
        written = len(fsyncs)
        reopened = CampaignJournal(path)
        # The previous owner's write may still sit in the page cache.
        assert reopened.durable("d0")
        assert len(fsyncs) == written + 1
        assert reopened.durable("d0")
        assert len(fsyncs) == written + 1
        reopened.close()


class TestCachePutOrdering:
    def test_unsynced_put_follows_the_journal_fsync_covering_it(
        self, tmp_path, monkeypatch
    ):
        specs = _specs(8)
        journal = CampaignJournal(tmp_path / "j.jsonl", fsync_every=64)
        cache = ResultCache(tmp_path / "cache")
        journal_fd = journal._handle.fileno()
        log = []
        real_fsync, real_record, real_put = os.fsync, journal.record, cache.put

        def logged_fsync(fd):
            log.append(("journal-fsync" if fd == journal_fd else "fsync",))
            real_fsync(fd)

        def record(digest, result):
            log.append(("record", digest))
            return real_record(digest, result)

        def put(spec, result, fsync=True):
            log.append(("put", spec.digest(), fsync))
            real_put(spec, result, fsync=fsync)

        monkeypatch.setattr(os, "fsync", logged_fsync)
        monkeypatch.setattr(journal, "record", record)
        monkeypatch.setattr(cache, "put", put)
        run_campaign(specs, cache=cache, journal=journal)
        journal.close()

        puts = [(i, e) for i, e in enumerate(log) if e[0] == "put"]
        assert len(puts) == len(specs)
        assert all(not e[2] for _, e in puts), "journaled puts skip fsync"
        for at, (_, digest, _) in puts:
            recorded = log.index(("record", digest))
            assert recorded < at
            assert ("journal-fsync",) in log[recorded:at], (
                f"put of {digest[:12]} precedes the fsync of its record"
            )
        # Group commit survives: one journal fsync covered the batch.
        assert log.count(("journal-fsync",)) == 1
        assert ("fsync",) not in log


class TestPowerLoss:
    def test_damaged_entries_are_quarantined_misses(self, tmp_path):
        specs = _specs(6)
        journal_path = tmp_path / "j.jsonl"
        directory = tmp_path / "cache"
        written = run_campaign(
            specs, cache=ResultCache(directory), journal=journal_path
        )
        reference = _pickled(written.results)

        # A power loss without the entries' own fsyncs: one entry lost
        # its tail, one has a zero-filled span at its full length, and
        # one was written by an older, unchecksummed release.
        truncated, zeroed, legacy = (_entry(directory, s) for s in specs[:3])
        data = truncated.read_bytes()
        truncated.write_bytes(data[: len(data) // 2])
        data = zeroed.read_bytes()
        span = slice(len(data) // 3, len(data) // 3 + 64)
        zeroed.write_bytes(
            data[: span.start] + bytes(64) + data[span.stop:]
        )
        assert zeroed.stat().st_size == len(data)
        legacy.write_bytes(pickle.dumps(written.results[2]))

        resumed = run_campaign(
            specs, cache=ResultCache(directory), journal=journal_path
        )
        assert resumed.metrics.journal_replayed == len(specs)
        assert _pickled(resumed.results) == reference

        cache = ResultCache(directory)
        rerun = run_campaign(specs, cache=cache)
        assert cache.quarantined == 3
        assert rerun.metrics.cache_hits == len(specs) - 3
        assert rerun.metrics.cache_misses == 3
        assert _pickled(rerun.results) == reference
        assert len(list(directory.glob("*.corrupt"))) == 3
        # The re-executed results were put back whole.
        again = run_campaign(specs, cache=ResultCache(directory))
        assert again.metrics.cache_hits == len(specs)
