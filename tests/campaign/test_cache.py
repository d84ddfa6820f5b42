"""On-disk result cache: hits, misses, corruption tolerance."""

import argparse
import hashlib
import os
import pickle
import sys
import time

from repro.campaign import PolicySpec, ResultCache, RunSpec, run_campaign
from repro.campaign.cache import EVICT_LOCK_TTL
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


def _age(path, seconds):
    then = time.time() - seconds
    os.utime(path, (then, then))


class TestResultCache:
    def test_miss_then_hit(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        spec = _specs(1)[0]
        assert cache.get(spec) is None
        result = spec.execute()
        cache.put(spec, result)
        assert cache.get(spec) == result
        assert cache.hits == 1 and cache.misses == 1

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = _specs(1)[0]
        cache.put(spec, spec.execute())
        (tmp_path / f"{spec.digest()}.pkl").write_bytes(b"not a pickle")
        assert cache.get(spec) is None

    def test_non_result_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = _specs(1)[0]
        (tmp_path / f"{spec.digest()}.pkl").write_bytes(pickle.dumps({"bogus": 1}))
        assert cache.get(spec) is None

    def test_half_written_entry_is_quarantined_not_trusted(self, tmp_path):
        # Simulate a crash mid-write under the final name: a truncated
        # pickle must be moved aside, never returned as a result.
        cache = ResultCache(tmp_path)
        spec = _specs(1)[0]
        result = spec.execute()
        whole = pickle.dumps(result)
        entry = tmp_path / f"{spec.digest()}.pkl"
        entry.write_bytes(whole[: len(whole) // 2])

        assert cache.get(spec) is None
        assert cache.quarantined == 1
        assert not entry.exists()
        corrupt = entry.with_suffix(".corrupt")
        assert corrupt.exists(), "bad entry must be kept for post-mortem"

        # The digest's slot is free again: a fresh put round-trips.
        cache.put(spec, result)
        assert cache.get(spec) == result

    def test_entry_failing_its_checksum_is_quarantined(self, tmp_path):
        # The pickle still loads, but the checksum behind it was never
        # written (an unsynced entry after a power loss): not trusted.
        cache = ResultCache(tmp_path)
        spec = _specs(1)[0]
        cache.put(spec, spec.execute(), fsync=False)
        entry = tmp_path / f"{spec.digest()}.pkl"
        data = entry.read_bytes()
        entry.write_bytes(data[:-32] + bytes(32))
        assert cache.get(spec) is None
        assert cache.quarantined == 1

    def test_entry_with_a_stale_result_layout_is_quarantined(self, tmp_path):
        # A verified entry whose RunResult carries a field the current
        # layout lacks was written by another version: re-run, never
        # hand back an object whose attributes may not resolve.
        cache = ResultCache(tmp_path)
        spec = _specs(1)[0]
        result = spec.execute()
        object.__setattr__(result, "legacy_field", 1)
        body = pickle.dumps(result)
        (tmp_path / f"{spec.digest()}.pkl").write_bytes(
            b"RPC1" + body + hashlib.sha256(body).digest()
        )
        assert cache.get(spec) is None
        assert cache.quarantined == 1

    def test_atomic_put_leaves_no_temp_files(self, tmp_path):
        cache = ResultCache(tmp_path)
        for spec in _specs(3):
            cache.put(spec, spec.execute())
        assert list(tmp_path.glob("*.tmp")) == []

    def test_put_torn_mid_write_leaves_old_entry_intact(
        self, tmp_path, monkeypatch
    ):
        # The torn-write regression: a crash inside put() (here: the
        # pickler dying halfway through the temp file) must leave the
        # digest's slot exactly as it was — the complete old entry, not
        # a truncated new one — and clean up its temp file.
        cache = ResultCache(tmp_path)
        spec = _specs(1)[0]
        result = spec.execute()
        cache.put(spec, result)
        before = (tmp_path / f"{spec.digest()}.pkl").read_bytes()

        def torn_dump(obj, fh):
            fh.write(pickle.dumps(obj)[: 10])
            raise pickle.PicklingError("simulated crash mid-write")

        cache_module = sys.modules[ResultCache.__module__]
        monkeypatch.setattr(cache_module.pickle, "dump", torn_dump)
        cache.put(spec, result)  # swallowed, never torn
        monkeypatch.undo()

        assert (tmp_path / f"{spec.digest()}.pkl").read_bytes() == before
        assert list(tmp_path.glob("*.tmp")) == []
        assert cache.get(spec) == result
        assert cache.quarantined == 0

    def test_sweep_stale_removes_orphaned_temp_files(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = _specs(1)[0]
        cache.put(spec, spec.execute())
        # A SIGKILLed writer leaves its temp file behind; sweep it once
        # it is older than any live put could be.
        for name, data in (("orphan-1.tmp", b"partial"), ("orphan-2.tmp", b"")):
            (tmp_path / name).write_bytes(data)
            _age(tmp_path / name, 2 * EVICT_LOCK_TTL)
        assert cache.sweep_stale() == 2
        assert list(tmp_path.glob("*.tmp")) == []
        assert cache.get(spec) is not None

    def test_sweep_stale_spares_a_live_put_temp_file(self, tmp_path):
        cache = ResultCache(tmp_path)
        old, fresh = tmp_path / "orphan.tmp", tmp_path / "in-flight.tmp"
        old.write_bytes(b"partial")
        _age(old, 2 * EVICT_LOCK_TTL)
        fresh.write_bytes(b"partial")
        assert cache.sweep_stale() == 1
        assert not old.exists()
        assert fresh.exists(), "a concurrent put's temp file must survive"

    def test_long_lived_caches_sweep_orphans_on_open(self, tmp_path):
        from repro.cli import _Session

        cli_dir = tmp_path / "cli"
        cli_dir.mkdir()
        (cli_dir / "orphan.tmp").write_bytes(b"partial")
        _age(cli_dir / "orphan.tmp", 2 * EVICT_LOCK_TTL)
        with _Session(argparse.Namespace(cache=str(cli_dir), cache_max_bytes=None)):
            pass
        assert list(cli_dir.glob("*.tmp")) == []

    def test_len_counts_entries(self, tmp_path):
        cache = ResultCache(tmp_path)
        for spec in _specs(3):
            cache.put(spec, spec.execute())
        assert len(cache) == 3


class TestFailureCaching:
    def test_deterministic_failures_are_memoised(self, tmp_path):
        # A sim-timeout is a pure function of the spec: cache it.
        cache = ResultCache(tmp_path)
        spec = _specs(1)[0]
        spec = RunSpec(
            program=spec.program, policy=spec.policy, config=spec.config,
            seed=spec.seed, max_cycles=20,
        )
        first = run_campaign([spec], cache=cache)
        assert first.results[0].failure is not None
        assert first.results[0].failure.kind == "sim-timeout"
        second = run_campaign([spec], cache=cache)
        assert second.metrics.cache_hits == 1
        assert pickle.dumps(first.results) == pickle.dumps(second.results)


class TestCampaignCaching:
    def test_second_campaign_is_all_hits(self, tmp_path):
        cache = ResultCache(tmp_path)
        specs = _specs(4)
        first = run_campaign(specs, cache=cache)
        assert first.metrics.cache_hits == 0
        second = run_campaign(specs, cache=cache)
        assert second.metrics.cache_hits == 4
        assert pickle.dumps(first.results) == pickle.dumps(second.results)

    def test_partial_hits_preserve_order(self, tmp_path):
        cache = ResultCache(tmp_path)
        specs = _specs(4)
        run_campaign(specs[:2], cache=cache)
        mixed = run_campaign(specs, cache=cache)
        assert mixed.metrics.cache_hits == 2
        uncached = run_campaign(specs)
        assert [pickle.dumps(r) for r in mixed.results] == [
            pickle.dumps(r) for r in uncached.results
        ]

    def test_cached_runner_output_identical(self, tmp_path):
        from repro.litmus.runner import LitmusRunner

        runner = LitmusRunner()
        cache = ResultCache(tmp_path)
        plain = runner.run(fig1_dekker(), RelaxedPolicy, NET_NOCACHE, runs=10)
        cached = runner.run(
            fig1_dekker(), RelaxedPolicy, NET_NOCACHE, runs=10, cache=cache
        )
        rehit = runner.run(
            fig1_dekker(), RelaxedPolicy, NET_NOCACHE, runs=10, cache=cache
        )
        assert plain.histogram == cached.histogram == rehit.histogram
        assert cache.hits == 10
