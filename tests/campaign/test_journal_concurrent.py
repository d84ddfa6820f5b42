"""Journal replay and append under contention.

The contract: a journal may be opened while the previous owner is still
flushing it, and several concurrent campaigns may share one journal
from their own threads.  Replay over a
concurrently-appending writer must never error; a torn tail must stay
confined to one tolerated line even when the *successor* appends; and
``record`` must stay exactly-once per digest when hammered from many
threads at once.
"""

import json
import threading

from repro.campaign import CampaignJournal
from repro.campaign.spec import RunResult


def _result(seed):
    return RunResult(observable=None, cycles=seed, completed=True)


class TestTornTailAppend:
    def test_append_after_torn_tail_starts_fresh_line(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with CampaignJournal(path) as first:
            first.record("d0", _result(0))
        # Tear the tail the way a SIGKILL mid-write does: chop the last
        # record mid-line, no trailing newline.
        raw = path.read_bytes()
        path.write_bytes(raw[:-20])

        with CampaignJournal(path) as second:
            assert second.torn_records == 1
            assert "d0" not in second  # the torn record is never trusted
            second.record("d1", _result(1))

        final = CampaignJournal(path)
        # The new record did not fuse with the torn fragment: d1 is
        # replayable, and the fragment is still exactly one torn line.
        assert "d1" in final
        assert final.torn_records == 1
        final.close()

    def test_torn_tail_sealed_exactly_once(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with CampaignJournal(path) as first:
            first.record("d0", _result(0))
            first.record("d1", _result(1))
        raw = path.read_bytes()
        path.write_bytes(raw[: raw.rindex(b'{"')] + b'{"type": "resu')

        with CampaignJournal(path) as second:
            second.record("d2", _result(2))
            second.record("d3", _result(3))
        lines = path.read_bytes().splitlines()
        parsed = 0
        for line in lines:
            try:
                json.loads(line)
                parsed += 1
            except ValueError:
                pass
        assert parsed == len(lines) - 1  # one fragment, nothing fused

    def test_intact_tail_gets_no_spurious_blank_line(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with CampaignJournal(path) as first:
            first.record("d0", _result(0))
        with CampaignJournal(path) as second:
            second.record("d1", _result(1))
        assert b"\n\n" not in path.read_bytes()


class TestReplayUnderAppends:
    def test_replay_while_writer_appends_never_errors(self, tmp_path):
        path = tmp_path / "j.jsonl"
        writer = CampaignJournal(path, fsync_every=1)
        stop = threading.Event()
        failures = []

        def append_forever():
            seed = 0
            while not stop.is_set():
                writer.record(f"w{seed}", _result(seed))
                seed += 1

        def replay_repeatedly():
            try:
                for _ in range(25):
                    reader = CampaignJournal(path)
                    # Every replayed record is a fully decoded result.
                    for result in reader.replayed.values():
                        assert isinstance(result, RunResult)
                    reader.close()
            except Exception as exc:  # pragma: no cover - the failure
                failures.append(exc)

        appender = threading.Thread(target=append_forever)
        replayer = threading.Thread(target=replay_repeatedly)
        appender.start()
        replayer.start()
        replayer.join(timeout=60)
        stop.set()
        appender.join(timeout=60)
        writer.close()
        assert not failures
        # The finished file replays completely: nothing the readers did
        # disturbed the writer.
        final = CampaignJournal(path)
        assert final.torn_records == 0
        assert len(final) > 0
        assert all(f"w{i}" in final for i in range(min(10, len(final))))
        final.close()


class TestRecordContention:
    def test_record_is_exactly_once_under_threads(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = CampaignJournal(path, fsync_every=64)
        digests = [f"d{i}" for i in range(40)]
        wins = []
        barrier = threading.Barrier(8)

        def hammer():
            barrier.wait()
            mine = 0
            for digest in digests:
                if journal.record(digest, _result(int(digest[1:]))):
                    mine += 1
            wins.append(mine)

        threads = [threading.Thread(target=hammer) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        journal.close()
        # Each digest was appended exactly once across all threads.
        assert sum(wins) == len(digests)
        final = CampaignJournal(path)
        assert final.torn_records == 0
        assert set(final.replayed) == set(digests)
        raw = [
            json.loads(line)
            for line in path.read_text().splitlines()
            if line.strip()
        ]
        appended = [r for r in raw if r["type"] == "result"]
        assert len(appended) == len(digests)  # no duplicate lines either
        final.close()

    def test_interleaved_writers_never_tear_lines(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = CampaignJournal(path, fsync_every=16)

        def write_block(base):
            for i in range(30):
                journal.record(f"b{base}-{i}", _result(i))
                journal.checkpoint(f"writer{base}", {"at": i})

        threads = [
            threading.Thread(target=write_block, args=(b,)) for b in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        journal.close()
        for line in path.read_text().splitlines():
            json.loads(line)  # every line parses: no interleaving
