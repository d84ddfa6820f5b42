"""ResultCache under concurrent writers sharing one directory.

The contract (ISSUE 9 satellite): two processes evicting the same cache
directory simultaneously must neither error nor over-evict.  The sweep
is serialised by a non-blocking ``.evict.lock`` — one sweeper acts, the
rest skip — and entries deleted under the sweeper by a racing process
count as reclaimed space rather than charging extra evictions.
"""

import os
import pickle
import subprocess
import sys
import time

import pytest

from repro.campaign import PolicySpec, ResultCache, RunSpec
from repro.campaign.cache import EVICT_LOCK_TTL, _verified_payload
from repro.campaign.spec import RunResult
from repro.litmus.catalog import fig1_dekker
from repro.memsys.config import NET_NOCACHE
from repro.models.policies import RelaxedPolicy
from repro.testing.chaos import default_repo_env


def _spec(seed):
    return RunSpec(
        program=fig1_dekker().program,
        policy=PolicySpec.of(RelaxedPolicy),
        config=NET_NOCACHE,
        seed=seed,
    )


def _result(seed):
    return RunResult(observable=None, cycles=seed, completed=True)


def _fill(cache, n, base=0):
    for seed in range(base, base + n):
        cache.put(_spec(seed), _result(seed))


class TestEvictionLock:
    def test_lock_held_skips_the_sweep(self, tmp_path):
        cache = ResultCache(tmp_path, max_bytes=10**9)
        _fill(cache, 4)
        assert cache._acquire_evict_lock()
        try:
            other = ResultCache(tmp_path, max_bytes=10**9)
            assert other.evict(0) == 0  # sweep is in other hands
            assert len(other) == 4  # nothing deleted
        finally:
            cache._release_evict_lock()

    def test_lock_released_after_sweep(self, tmp_path):
        cache = ResultCache(tmp_path, max_bytes=10**9)
        _fill(cache, 3)
        assert cache.evict(0) == 3
        assert not (tmp_path / ".evict.lock").exists()
        assert cache.evict(0) == 0  # lock free again: sweep runs, no-op

    def test_lock_released_even_when_sweep_raises(self, tmp_path):
        cache = ResultCache(tmp_path, max_bytes=10**9)
        _fill(cache, 2)
        with pytest.raises(RuntimeError):
            original = cache._evict_locked
            cache._evict_locked = lambda budget: (_ for _ in ()).throw(
                RuntimeError("boom")
            )
            try:
                cache.evict(0)
            finally:
                cache._evict_locked = original
        assert not (tmp_path / ".evict.lock").exists()

    def test_stale_lock_is_broken(self, tmp_path):
        cache = ResultCache(tmp_path, max_bytes=10**9)
        _fill(cache, 3)
        lock = tmp_path / ".evict.lock"
        lock.touch()
        stale = time.time() - EVICT_LOCK_TTL - 30
        os.utime(lock, (stale, stale))
        assert cache.evict(0) == 3  # orphan broken, sweep proceeds

    def test_fresh_lock_is_respected(self, tmp_path):
        cache = ResultCache(tmp_path, max_bytes=10**9)
        _fill(cache, 3)
        (tmp_path / ".evict.lock").touch()
        assert cache.evict(0) == 0
        assert len(cache) == 3

    def test_lock_file_never_counts_as_an_entry(self, tmp_path):
        cache = ResultCache(tmp_path, max_bytes=10**9)
        _fill(cache, 2)
        (tmp_path / ".evict.lock").touch()
        assert len(cache) == 2
        assert cache.bytes_on_disk() == sum(
            p.stat().st_size for p in tmp_path.glob("*.pkl")
        )


class TestRacingDeletes:
    def test_entry_deleted_under_sweep_counts_as_reclaimed(self, tmp_path):
        # Three entries, oldest first; budget holds once the oldest is
        # gone.  Simulate a racing process deleting the oldest between
        # the sweep's listing and its unlink: the sweep must charge the
        # vanished bytes against the budget and stop — not delete a
        # second entry to "make up" for the one it never removed.
        cache = ResultCache(tmp_path, max_bytes=10**9)
        _fill(cache, 3)
        paths = sorted(tmp_path.glob("*.pkl"), key=lambda p: p.stat().st_mtime)
        now = time.time()
        for i, path in enumerate(paths):
            os.utime(path, (now - 100 + i, now - 100 + i))
        sizes = [p.stat().st_size for p in paths]
        budget = sum(sizes) - sizes[0]

        original_unlink = os.unlink

        def racing_unlink(target, *a, **k):
            if os.fspath(target) == str(paths[0]):
                original_unlink(target)  # the racer got there first
                raise FileNotFoundError(target)
            return original_unlink(target, *a, **k)

        import pathlib
        from unittest import mock

        with mock.patch.object(
            pathlib.Path, "unlink",
            lambda self, *a, **k: racing_unlink(self),
        ):
            removed = cache.evict(budget)
        assert removed == 0  # this sweep deleted nothing itself
        survivors = set(tmp_path.glob("*.pkl"))
        assert survivors == set(paths[1:])  # no over-evict


WORKER = r"""
import sys
from repro.campaign import PolicySpec, ResultCache, RunSpec
from repro.campaign.spec import RunResult
from repro.litmus.catalog import fig1_dekker
from repro.memsys.config import NET_NOCACHE
from repro.models.policies import RelaxedPolicy

directory, base, count, budget = sys.argv[1:5]
cache = ResultCache(directory, max_bytes=int(budget))
for seed in range(int(base), int(base) + int(count)):
    spec = RunSpec(
        program=fig1_dekker().program,
        policy=PolicySpec.of(RelaxedPolicy),
        config=NET_NOCACHE,
        seed=seed,
    )
    cache.put(spec, RunResult(observable=None, cycles=seed, completed=True))
    cache.get(spec)
    cache.evict(int(budget))
print("ok", cache.evictions)
"""


@pytest.mark.slow
class TestMultiprocessStress:
    def test_concurrent_writers_never_error_or_over_evict(self, tmp_path):
        shared = tmp_path / "cache"
        probe = ResultCache(shared)
        _fill(probe, 1, base=10_000)
        entry = probe.bytes_on_disk()
        budget = entry * 6
        workers = [
            subprocess.Popen(
                [sys.executable, "-c", WORKER,
                 str(shared), str(1000 * (i + 1)), "30", str(budget)],
                env=default_repo_env(),
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
            )
            for i in range(4)
        ]
        for proc in workers:
            out, err = proc.communicate(timeout=120)
            assert proc.returncode == 0, err.decode()
            assert out.startswith(b"ok"), out
        # The lock is always released, every surviving entry is intact,
        # and the directory respects the budget within one entry of
        # slack (a final put may land after the last sweep).
        assert not (shared / ".evict.lock").exists()
        for path in shared.glob("*.pkl"):
            # An entry is checksummed; a torn one fails verification.
            result = pickle.loads(_verified_payload(path.read_bytes()))
            assert isinstance(result, RunResult)
        final = ResultCache(shared, max_bytes=budget)
        assert final.bytes_on_disk() <= budget + entry
