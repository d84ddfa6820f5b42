"""Unit tests for basic cache/directory transaction flows (Section 5.2)."""

import pytest

from repro.coherence.directory import EntryState
from repro.coherence.line import LineState
from repro.core.operation import OpKind

from .conftest import ProtocolHarness


class TestReads:
    def test_cold_read_fetches_from_memory(self):
        harness = ProtocolHarness(initial_memory={"x": 7})
        access = harness.read(0, "x")
        assert access.value == 7
        assert access.committed and access.globally_performed
        assert harness.caches[0].line_state("x") is LineState.SHARED

    def test_uninitialized_location_reads_zero(self, harness):
        assert harness.read(0, "x").value == 0

    def test_read_hit_is_local(self, harness):
        harness.read(0, "x")
        before = harness.stats.count("bus.sent")
        access = harness.read(0, "x")
        assert access.value == 0
        assert harness.stats.count("bus.sent") == before
        assert harness.stats.count("cache.read_hits") == 1

    def test_two_caches_share(self, harness):
        harness.read(0, "x")
        harness.read(1, "x")
        assert harness.caches[0].line_state("x") is LineState.SHARED
        assert harness.caches[1].line_state("x") is LineState.SHARED
        assert harness.directory.entry("x").sharers == {0, 1}

    def test_read_from_exclusive_owner_downgrades(self, harness):
        harness.write(0, "x", 5)
        access = harness.read(1, "x")
        assert access.value == 5
        assert harness.caches[0].line_state("x") is LineState.SHARED
        assert harness.caches[1].line_state("x") is LineState.SHARED
        assert harness.directory.entry("x").value == 5


class TestWrites:
    def test_cold_write_gets_exclusive(self, harness):
        access = harness.write(0, "x", 3)
        assert access.committed and access.globally_performed
        assert access.value_written == 3
        assert harness.caches[0].line_state("x") is LineState.EXCLUSIVE
        assert harness.directory.entry("x").state is EntryState.EXCLUSIVE

    def test_write_hit_on_exclusive_is_local(self, harness):
        harness.write(0, "x", 1)
        before = harness.stats.count("bus.sent")
        access = harness.write(0, "x", 2)
        assert access.globally_performed
        assert harness.stats.count("bus.sent") == before
        assert harness.caches[0].line_value("x") == 2

    def test_upgrade_invalidates_sharers(self, harness):
        harness.read(0, "x")
        harness.read(1, "x")
        harness.write(0, "x", 9)
        assert harness.caches[1].line_state("x") is LineState.INVALID
        assert harness.stats.count("dir.invalidations") == 1

    def test_write_steals_from_exclusive_owner(self, harness):
        harness.write(0, "x", 1)
        access = harness.write(1, "x", 2)
        assert access.globally_performed
        assert harness.caches[0].line_state("x") is LineState.INVALID
        assert harness.caches[1].line_value("x") == 2

    def test_write_serialization_last_wins(self, harness):
        harness.write(0, "x", 1)
        harness.write(1, "x", 2)
        harness.write(0, "x", 3)
        assert harness.caches[0].line_value("x") == 3
        assert harness.caches[0].dirty_lines() == {"x": 3}


class TestParallelForwarding:
    """The paper's relaxation: DataX before invalidation acks."""

    def test_commit_precedes_global_perform(self):
        harness = ProtocolHarness(num_caches=3, transfer_cycles=5)
        harness.read(1, "x")
        harness.read(2, "x")
        access = harness.access(0, OpKind.WRITE, "x", write_value=4)
        harness.sim.run(until=lambda: access.committed)
        assert not access.globally_performed  # invals still in flight
        harness.run()
        assert access.globally_performed
        assert access.gp_time > access.commit_time

    def test_memack_counted(self):
        harness = ProtocolHarness(num_caches=3)
        harness.read(1, "x")
        harness.read(2, "x")
        harness.write(0, "x", 4)
        assert harness.stats.count("dir.invalidations") == 2

    def test_read_of_own_committed_ungp_write_defers_gp(self):
        harness = ProtocolHarness(num_caches=2, transfer_cycles=20)
        harness.read(1, "x")
        write = harness.access(0, OpKind.WRITE, "x", write_value=4)
        harness.sim.run(until=lambda: write.committed)
        read = harness.access(0, OpKind.READ, "x")
        harness.sim.run(until=lambda: read.value is not None)
        assert read.value == 4  # sees the local commit
        assert not read.globally_performed  # rides the write's MemAck
        harness.run()
        assert read.globally_performed


class TestRMW:
    def test_test_and_set_semantics(self, harness):
        first = harness.access(
            0, OpKind.SYNC_RMW, "lock", compute=lambda old: 1
        )
        harness.run()
        assert first.value == 0 and first.value_written == 1
        second = harness.access(
            1, OpKind.SYNC_RMW, "lock", compute=lambda old: 1
        )
        harness.run()
        assert second.value == 1  # sees the first TAS

    def test_fetch_and_add_chain(self, harness):
        for cache_id in (0, 1, 0, 1):
            harness.access(
                cache_id, OpKind.SYNC_RMW, "c", compute=lambda old: old + 1
            )
            harness.run()
        assert harness.caches[1].line_value("c") == 4


class TestDirectoryQueueing:
    def test_requests_queue_behind_open_transaction(self):
        harness = ProtocolHarness(num_caches=3, transfer_cycles=10)
        harness.read(1, "x")
        harness.read(2, "x")
        w0 = harness.access(0, OpKind.WRITE, "x", write_value=1)
        # While the inval transaction is open, another write queues.
        w1 = harness.access(1, OpKind.WRITE, "x", write_value=2)
        harness.run()
        assert w0.globally_performed and w1.globally_performed
        assert harness.stats.count("dir.queued") >= 1
        # Serialized: the line ends at exactly one owner.
        owners = [
            c.line_state("x") is LineState.EXCLUSIVE for c in harness.caches
        ]
        assert sum(owners) == 1


class TestWriteBacks:
    def test_eviction_writes_back_dirty_line(self):
        harness = ProtocolHarness(capacity=1)
        harness.write(0, "x", 5)
        harness.write(0, "y", 6)  # evicts x
        assert harness.caches[0].line_state("x") is LineState.INVALID
        assert harness.directory.entry("x").value == 5
        assert harness.directory.entry("x").state is EntryState.UNOWNED
        assert harness.stats.count("dir.writebacks") == 1

    def test_shared_eviction_is_silent(self):
        harness = ProtocolHarness(capacity=1)
        harness.read(0, "x")
        harness.read(0, "y")  # evicts x silently
        assert harness.caches[0].line_state("x") is LineState.INVALID
        assert harness.stats.count("dir.writebacks") == 0

    def test_lru_victim_selection(self):
        harness = ProtocolHarness(capacity=2)
        harness.read(0, "a")
        harness.read(0, "b")
        harness.read(0, "a")  # touch a: b becomes LRU
        harness.read(0, "c")  # evicts b
        assert harness.caches[0].line_state("a") is LineState.SHARED
        assert harness.caches[0].line_state("b") is LineState.INVALID
        assert harness.caches[0].line_state("c") is LineState.SHARED

    def test_value_survives_eviction_roundtrip(self):
        harness = ProtocolHarness(capacity=1)
        harness.write(0, "x", 5)
        harness.write(0, "y", 6)
        assert harness.read(1, "x").value == 5
