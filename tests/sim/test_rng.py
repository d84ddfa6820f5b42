"""Unit tests for the timing RNG."""

import random

import pytest

from repro.sim.rng import TimingRng, seed_stream


class TestTimingRng:
    def test_deterministic_by_seed(self):
        a = TimingRng(42)
        b = TimingRng(42)
        assert [a.latency(5, 10) for _ in range(20)] == [
            b.latency(5, 10) for _ in range(20)
        ]

    def test_different_seeds_differ(self):
        a = [TimingRng(1).latency(0, 1000) for _ in range(5)]
        b = [TimingRng(2).latency(0, 1000) for _ in range(5)]
        assert a != b

    def test_latency_bounds(self):
        rng = TimingRng(7)
        for _ in range(200):
            latency = rng.latency(5, 10)
            assert 5 <= latency <= 15

    @pytest.mark.parametrize("jitter", range(21))
    def test_latency_stream_is_randints(self, jitter):
        # Every recorded run depends on this stream: each draw must be
        # exactly ``base + randint(0, jitter)`` of a ``Random(seed)``.
        for seed in (0, 1, 20261019):
            rng, reference = TimingRng(seed), random.Random(seed)
            expected = [3 + reference.randint(0, jitter) for _ in range(64)]
            assert [rng.latency(3, jitter) for _ in range(64)] == expected

    def test_zero_jitter_exact(self):
        rng = TimingRng(7)
        assert all(rng.latency(4, 0) == 4 for _ in range(10))

    def test_fork_independent_and_deterministic(self):
        a = TimingRng(42).fork(1)
        b = TimingRng(42).fork(1)
        c = TimingRng(42).fork(2)
        assert a.latency(0, 100) == b.latency(0, 100)
        assert a.seed != c.seed

    def test_shuffled_leaves_original(self):
        rng = TimingRng(1)
        items = [1, 2, 3, 4, 5]
        out = rng.shuffled(items)
        assert sorted(out) == items
        assert items == [1, 2, 3, 4, 5]

    def test_choice_and_randint(self):
        rng = TimingRng(1)
        assert rng.choice([3]) == 3
        assert 1 <= rng.randint(1, 2) <= 2


class TestSeedStream:
    def test_count(self):
        assert len(list(seed_stream(1, 10))) == 10

    def test_deterministic(self):
        assert list(seed_stream(5, 5)) == list(seed_stream(5, 5))

    def test_mostly_distinct(self):
        seeds = list(seed_stream(9, 100))
        assert len(set(seeds)) > 95
