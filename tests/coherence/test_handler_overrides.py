"""A component subclass that overrides a message handler gets the message.

The coherence and memory components dispatch an incoming message on its
exact type and call the handler through ``self``, and each registers its
bound ``_on_message`` with the interconnect (a fork registers its own),
so a subclass's override is the one that runs, forked or not.
"""

from __future__ import annotations

from repro.coherence.cache import Cache
from repro.coherence.directory import Directory
from repro.coherence.protocol import DataS, GetS, Inval, InvalAck
from repro.coherence.snooping import SnoopCoordinator, SnoopingCache
from repro.core.operation import OpKind
from repro.cpu.access import MemoryAccess
from repro.cpu.write_buffer import WriteBufferPort
from repro.interconnect.bus import Bus
from repro.memsys.memory import MemRead, MemReadResp, MemoryModule
from repro.sim.engine import Simulator
from repro.sim.fork import Fork
from repro.sim.stats import Stats


class RecordingCache(Cache):
    def _on_data_s(self, data):
        self.sim.seen.append(("cache", self.cache_id, data))
        super()._on_data_s(data)

    def _on_inval(self, inval):
        self.sim.seen.append(("cache", self.cache_id, inval))
        super()._on_inval(inval)


class RecordingDirectory(Directory):
    def _handle_gets(self, request):
        self.sim.seen.append(("dir", request))
        super()._handle_gets(request)

    def _on_inval_ack(self, ack):
        self.sim.seen.append(("dir", ack))
        super()._on_inval_ack(ack)


class RecordingMemory(MemoryModule):
    def _on_message(self, payload, src):
        self.sim.seen.append(("mem", payload))
        super()._on_message(payload, src)


class RecordingPort(WriteBufferPort):
    def _on_message(self, payload, src):
        self.sim.seen.append(("port", payload))
        super()._on_message(payload, src)


class RecordingCoordinator(SnoopCoordinator):
    def _handle_rd(self, txn):
        self.sim.seen.append(("snoop", txn))
        super()._handle_rd(txn)


def _access(proc, kind, location, value=None):
    return MemoryAccess(
        proc=proc, kind=kind, location=location,
        compute_write=None if value is None else (lambda old: value),
        sync_protocol=False, needs_exclusive=kind.writes_memory,
    )


def _directory_machine():
    sim = Simulator()
    sim.seen = []
    stats = Stats()
    bus = Bus(sim, stats, transfer_cycles=1)
    directory = RecordingDirectory(sim, bus, stats, initial_memory={"x": 4})
    caches = [RecordingCache(sim, i, bus, stats) for i in range(2)]
    return sim, directory, caches


def _kinds(seen):
    return [(entry[0], type(entry[-1])) for entry in seen]


class TestDirectoryProtocol:
    def test_cache_and_directory_overrides_receive_their_messages(self):
        sim, _, caches = _directory_machine()
        read = _access(0, OpKind.READ, "x")
        caches[0].submit(read)
        sim.run()
        write = _access(1, OpKind.WRITE, "x", value=7)
        caches[1].submit(write)
        sim.run()
        assert read.value == 4 and write.globally_performed
        assert _kinds(sim.seen) == [
            ("dir", GetS), ("cache", DataS), ("cache", Inval), ("dir", InvalAck),
        ]

    def test_a_forked_machine_keeps_the_overrides(self):
        sim, directory, caches = _directory_machine()
        fork = Fork()
        new_directory = fork(directory)
        new_caches = [fork(cache) for cache in caches]
        new_sim = new_directory.sim
        new_sim.seen = []
        assert type(new_directory) is RecordingDirectory
        read = _access(0, OpKind.READ, "x")
        new_caches[0].submit(read)
        new_sim.run()
        assert read.value == 4
        assert _kinds(new_sim.seen) == [("dir", GetS), ("cache", DataS)]
        assert sim.seen == []


class TestMemoryPath:
    def test_memory_and_port_overrides_receive_their_messages(self):
        sim = Simulator()
        sim.seen = []
        stats = Stats()
        bus = Bus(sim, stats, transfer_cycles=1)
        RecordingMemory(sim, bus, stats, initial_memory={"x": 3})
        port = RecordingPort(sim, 0, bus, stats)
        read = _access(0, OpKind.READ, "x")
        port.submit(read)
        sim.run()
        assert read.value == 3
        assert _kinds(sim.seen) == [("mem", MemRead), ("port", MemReadResp)]


class TestSnoopingProtocol:
    def test_coordinator_override_receives_the_read(self):
        sim = Simulator()
        sim.seen = []
        stats = Stats()
        bus = Bus(sim, stats, transfer_cycles=1)
        coordinator = RecordingCoordinator(
            sim, bus, stats, initial_memory={"x": 5}
        )
        cache = SnoopingCache(sim, 0, bus, coordinator, stats)
        read = _access(0, OpKind.READ, "x")
        cache.submit(read)
        sim.run()
        assert read.value == 5
        assert [entry[0] for entry in sim.seen] == ["snoop"]
