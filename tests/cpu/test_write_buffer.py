"""Unit tests for the write-buffered (no-cache) memory port."""

from repro.core.operation import OpKind
from repro.cpu.access import MemoryAccess
from repro.cpu.write_buffer import WriteBufferPort
from repro.interconnect.bus import Bus
from repro.memsys.memory import MemoryModule
from repro.sim.engine import Simulator
from repro.sim.stats import Stats


class PortHarness:
    def __init__(self, drain_delay=2, transfer_cycles=1, initial_memory=None):
        self.sim = Simulator()
        self.stats = Stats()
        self.bus = Bus(self.sim, self.stats, transfer_cycles=transfer_cycles)
        self.memory = MemoryModule(
            self.sim, self.bus, self.stats, initial_memory=initial_memory or {}
        )
        self.port = WriteBufferPort(
            self.sim, 0, self.bus, self.stats, drain_delay=drain_delay
        )

    def submit(self, kind, loc, value=None, compute=None):
        if compute is None and value is not None:
            compute = lambda old, v=value: v
        access = MemoryAccess(
            proc=0, kind=kind, location=loc, compute_write=compute
        )
        self.port.submit(access)
        return access


class TestWrites:
    def test_write_commits_on_enqueue(self):
        harness = PortHarness()
        access = harness.submit(OpKind.WRITE, "x", value=1)
        assert access.committed
        assert not access.globally_performed

    def test_write_gp_on_memory_ack(self):
        harness = PortHarness()
        access = harness.submit(OpKind.WRITE, "x", value=1)
        harness.sim.run()
        assert access.globally_performed
        assert harness.memory.value("x") == 1

    def test_fifo_drain_order(self):
        harness = PortHarness()
        harness.submit(OpKind.WRITE, "x", value=1)
        harness.submit(OpKind.WRITE, "x", value=2)
        harness.sim.run()
        assert harness.memory.value("x") == 2

    def test_one_write_in_flight_at_a_time(self):
        harness = PortHarness(drain_delay=5)
        a = harness.submit(OpKind.WRITE, "x", value=1)
        b = harness.submit(OpKind.WRITE, "y", value=2)
        harness.sim.run()
        assert a.gp_time < b.gp_time

    def test_buffered_count(self):
        harness = PortHarness()
        harness.submit(OpKind.WRITE, "x", value=1)
        harness.submit(OpKind.WRITE, "y", value=2)
        assert harness.port.buffered_writes == 2
        harness.sim.run()
        assert harness.port.buffered_writes == 0


class TestReads:
    def test_read_from_memory(self):
        harness = PortHarness(initial_memory={"x": 9})
        access = harness.submit(OpKind.READ, "x")
        harness.sim.run()
        assert access.value == 9
        assert access.globally_performed

    def test_read_forwards_newest_buffered_write(self):
        harness = PortHarness(drain_delay=50)
        harness.submit(OpKind.WRITE, "x", value=1)
        harness.submit(OpKind.WRITE, "x", value=2)
        read = harness.submit(OpKind.READ, "x")
        assert read.value == 2  # forwarded synchronously
        assert harness.stats.count("wbuf.forwards") == 1

    def test_read_bypasses_unrelated_buffered_write(self):
        """The Figure 1 relaxation: a read overtakes a buffered write."""
        harness = PortHarness(drain_delay=50)
        write = harness.submit(OpKind.WRITE, "x", value=1)
        read = harness.submit(OpKind.READ, "y")
        harness.sim.run(until=lambda: read.globally_performed)
        assert read.globally_performed
        assert not write.globally_performed  # still draining


class TestRMW:
    def test_rmw_atomic_at_memory(self):
        harness = PortHarness(initial_memory={"lock": 0})
        access = harness.submit(OpKind.SYNC_RMW, "lock", compute=lambda old: 1)
        harness.sim.run()
        assert access.value == 0
        assert access.value_written == 1
        assert harness.memory.value("lock") == 1

    def test_rmw_sees_prior_acked_write(self):
        harness = PortHarness()
        harness.submit(OpKind.WRITE, "c", value=5)
        harness.sim.run()
        access = harness.submit(OpKind.SYNC_RMW, "c", compute=lambda old: old + 1)
        harness.sim.run()
        assert access.value == 5
        assert harness.memory.value("c") == 6

    def test_memory_counters(self):
        harness = PortHarness()
        harness.submit(OpKind.WRITE, "x", value=1)
        harness.submit(OpKind.READ, "x")
        harness.submit(OpKind.SYNC_RMW, "s", compute=lambda old: 1)
        harness.sim.run()
        assert harness.stats.count("mem.writes") == 1
        assert harness.stats.count("mem.rmws") == 1
        # the read was forwarded, so no memory read
        assert harness.stats.count("mem.reads") == 0
