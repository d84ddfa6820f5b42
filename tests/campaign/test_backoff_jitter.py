"""Full-jitter pool-rebuild backoff: bounds, seeding, stampede spread.

The contract (ISSUE 9 satellite): the exponential backoff before a pool
rebuild draws uniformly from ``[0, backoff_base * 2**(failures-1)]``
instead of always sleeping the ceiling, so simultaneous retries from
many executors spread out instead of stampeding the rebuilt pool in
lock-step — while a seed pins the draw sequence for reproducibility.
"""

from unittest import mock

import pytest

from repro.campaign import ParallelExecutor


def _delays(executor, failures):
    """The sleep each of the first ``failures`` rebuilds would take."""
    return [executor._backoff_delay(n) for n in range(1, failures + 1)]


def _ceiling(executor):
    """Pin the seeded draw to the top of its window: every delay is
    then the deterministic exponential ceiling."""
    executor._backoff_rng.uniform = lambda low, high: high
    return executor


class TestBackoffBounds:
    def test_delay_within_exponential_envelope(self):
        ex = ParallelExecutor(jobs=2, backoff_base=0.25, backoff_seed=1)
        for n in range(1, 8):
            cap = 0.25 * 2 ** (n - 1)
            for _ in range(50):
                delay = ex._backoff_delay(n)
                assert 0.0 <= delay <= cap

    def test_ceiling_grows_exponentially(self):
        ex = _ceiling(ParallelExecutor(jobs=2, backoff_base=0.5))
        assert _delays(ex, 4) == [0.5, 1.0, 2.0, 4.0]

    def test_zero_base_never_sleeps(self):
        ex = ParallelExecutor(jobs=2, backoff_base=0.0, backoff_seed=7)
        assert _delays(ex, 5) == [0.0] * 5

    def test_failures_floor_is_one(self):
        # Defensive: a bogus failures=0 must not shrink the window to
        # 2**-1 of the base.
        ex = _ceiling(ParallelExecutor(jobs=2, backoff_base=1.0))
        assert ex._backoff_delay(0) == 1.0


class TestBackoffSeeding:
    def test_same_seed_same_draws(self):
        a = ParallelExecutor(jobs=2, backoff_seed=42)
        b = ParallelExecutor(jobs=2, backoff_seed=42)
        assert _delays(a, 6) == _delays(b, 6)

    def test_different_seeds_diverge(self):
        a = ParallelExecutor(jobs=2, backoff_seed=1)
        b = ParallelExecutor(jobs=2, backoff_seed=2)
        assert _delays(a, 6) != _delays(b, 6)

    def test_jitter_actually_varies(self):
        ex = ParallelExecutor(jobs=2, backoff_base=1.0, backoff_seed=3)
        draws = {ex._backoff_delay(3) for _ in range(20)}
        assert len(draws) > 1

    def test_jitter_disabled_is_deterministic_ceiling(self):
        ex = _ceiling(
            ParallelExecutor(jobs=2, backoff_base=0.25, backoff_seed=9)
        )
        assert _delays(ex, 3) == [0.25, 0.5, 1.0]


class TestStampedeSpread:
    def test_concurrent_executors_desynchronise(self):
        # Many executors hitting the same pool failure must not all wake
        # at the same instant: with distinct seeds the first-rebuild
        # delays should span a real fraction of the window.
        delays = [
            ParallelExecutor(jobs=2, backoff_base=1.0,
                             backoff_seed=s)._backoff_delay(3)
            for s in range(32)
        ]
        assert max(delays) - min(delays) > 0.5  # window is [0, 4.0]

    def test_rebuild_sleeps_the_jittered_delay(self):
        ex = ParallelExecutor(jobs=2, backoff_base=0.25, backoff_seed=11)
        expected = ParallelExecutor(
            jobs=2, backoff_base=0.25, backoff_seed=11
        )._backoff_delay(1)
        with mock.patch("time.sleep") as slept:
            ex._rebuild_pool()
        assert ex.pool_rebuilds == 1
        if expected > 0:
            slept.assert_called_once_with(pytest.approx(expected))
