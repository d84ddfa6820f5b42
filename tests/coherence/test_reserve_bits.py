"""Unit tests for the Section 5.3 counter/reserve-bit machinery."""

import pytest

from repro.coherence.line import LineState
from repro.core.operation import OpKind

from .conftest import ProtocolHarness


def slow_reserve_harness(num_caches=3, nack_mode=True, capacity=None):
    """High bus latency so misses stay outstanding long enough to observe."""
    return ProtocolHarness(
        num_caches=num_caches,
        reserve_enabled=True,
        nack_mode=nack_mode,
        transfer_cycles=10,
        capacity=capacity,
    )


class TestCounter:
    def test_counter_tracks_data_misses(self):
        harness = slow_reserve_harness()
        cache = harness.caches[0]
        harness.access(0, OpKind.READ, "a")
        harness.access(0, OpKind.WRITE, "b", write_value=1)
        harness.sim.run_for(2)  # misses sent, responses still in flight
        assert cache.counter.value == 2
        harness.run()
        assert cache.counter.zero

    def test_sync_miss_not_counted_in_flight(self):
        harness = slow_reserve_harness()
        cache = harness.caches[0]
        harness.access(0, OpKind.SYNC_RMW, "s", compute=lambda old: 1)
        harness.sim.run_for(2)
        assert cache.counter.zero
        harness.run()
        assert cache.counter.zero

    def test_sync_counted_from_commit_to_memack(self):
        harness = slow_reserve_harness()
        # Cache 1 and 2 share s, so cache 0's sync write needs invals.
        harness.read(1, "s")
        harness.read(2, "s")
        sync = harness.access(0, OpKind.SYNC_WRITE, "s", write_value=1)
        harness.sim.run(until=lambda: sync.committed)
        assert harness.caches[0].counter.value == 1
        harness.run()
        assert harness.caches[0].counter.zero
        assert sync.globally_performed


class TestReserveBit:
    def _reserve_scenario(self, nack_mode=True):
        """Cache 0 has a slow outstanding data write, then commits a sync."""
        harness = slow_reserve_harness(nack_mode=nack_mode)
        # Give cache 1 an exclusive copy of x so cache 0's write is slow.
        harness.write(1, "x", 1)
        data = harness.access(0, OpKind.WRITE, "x", write_value=2)
        sync = harness.access(0, OpKind.SYNC_RMW, "s", compute=lambda old: 1)
        harness.sim.run(until=lambda: sync.committed)
        return harness, data, sync

    def test_reserve_set_while_accesses_outstanding(self):
        harness, data, sync = self._reserve_scenario()
        if not data.globally_performed:
            assert harness.caches[0].is_reserved("s")
            assert harness.stats.count("cache.reserves_set") == 1
        harness.run()

    def test_reserve_cleared_when_counter_drains(self):
        harness, data, sync = self._reserve_scenario()
        harness.run()
        assert not harness.caches[0].is_reserved("s")
        assert not harness.caches[0].any_reserved()

    def _held_reserve_scenario(self, nack_mode):
        """Deterministic condition-5 setup: the counter is held positive
        (standing in for a slow outstanding data access) while cache 0
        commits a sync, so the reserve bit is guaranteed set when the
        rival's recall arrives."""
        harness = slow_reserve_harness(nack_mode=nack_mode)
        harness.caches[0].counter.increment()  # the "outstanding" access
        sync = harness.access(0, OpKind.SYNC_RMW, "s", compute=lambda old: 1)
        harness.run()
        assert sync.committed and harness.caches[0].is_reserved("s")
        return harness, sync

    def test_remote_sync_nacked_while_reserved(self):
        harness, sync = self._held_reserve_scenario(nack_mode=True)
        rival = harness.access(1, OpKind.SYNC_RMW, "s", compute=lambda old: 1)
        harness.sim.run_for(300)  # NACK/retry loop spins while reserved
        assert not rival.committed
        assert harness.stats.count("dir.sync_nacks") >= 1
        assert rival.nacks >= 1
        release_time = harness.sim.now
        harness.caches[0].counter.decrement()  # data access "completes"
        harness.run()
        assert rival.committed
        assert rival.commit_time >= release_time

    def test_remote_sync_queued_while_reserved(self):
        harness, sync = self._held_reserve_scenario(nack_mode=False)
        rival = harness.access(1, OpKind.SYNC_RMW, "s", compute=lambda old: 1)
        harness.sim.run_for(300)
        assert not rival.committed
        assert harness.stats.count("cache.recalls_stalled") >= 1
        assert harness.stats.count("dir.sync_nacks") == 0
        harness.caches[0].counter.decrement()
        harness.run()
        assert rival.committed

    def test_rival_sees_sync_value_after_stall(self):
        harness, data, sync = self._reserve_scenario()
        rival = harness.access(1, OpKind.SYNC_RMW, "s", compute=lambda old: old)
        harness.run()
        assert rival.value == 1  # observes cache 0's TAS result

    def test_no_reserve_without_outstanding_accesses(self):
        harness = slow_reserve_harness()
        sync = harness.access(0, OpKind.SYNC_RMW, "s", compute=lambda old: 1)
        harness.run()
        assert not harness.caches[0].is_reserved("s")

    def test_reserve_disabled_policy_never_reserves(self):
        harness = ProtocolHarness(
            num_caches=2, reserve_enabled=False, transfer_cycles=10
        )
        harness.write(1, "x", 1)
        harness.access(0, OpKind.WRITE, "x", write_value=2)
        sync = harness.access(0, OpKind.SYNC_RMW, "s", compute=lambda old: 1)
        harness.run()
        assert harness.stats.count("cache.reserves_set") == 0


class TestReservedEviction:
    def test_reserved_line_never_chosen_as_victim(self):
        harness = slow_reserve_harness(num_caches=2, capacity=2)
        harness.write(1, "x", 1)  # make cache 0's write to x slow
        data = harness.access(0, OpKind.WRITE, "x", write_value=2)
        sync = harness.access(0, OpKind.SYNC_RMW, "s", compute=lambda old: 1)
        harness.sim.run(until=lambda: sync.committed)
        if not harness.caches[0].is_reserved("s"):
            pytest.skip("timing did not reserve the line")
        # Fill a third line: the reserved s must survive.
        harness.access(0, OpKind.READ, "other")
        harness.run()
        assert harness.caches[0].line_value("s") is not None

    def test_over_capacity_resolves_after_drain(self):
        harness = slow_reserve_harness(num_caches=2, capacity=1)
        harness.write(1, "x", 1)
        harness.access(0, OpKind.WRITE, "x", write_value=2)
        harness.access(0, OpKind.SYNC_RMW, "s", compute=lambda old: 1)
        harness.run()
        assert not harness.caches[0].over_capacity
