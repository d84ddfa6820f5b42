"""Unit tests for the schedule oracle and scheduled interconnect."""

from repro.explore.oracle import ReplayOracle, ScheduledInterconnect
from repro.sim.engine import Simulator
from repro.sim.stats import Stats


class TestReplayOracle:
    def test_defaults_to_fifo(self):
        oracle = ReplayOracle()
        assert oracle.choose(3) == 0
        assert oracle.choose(1) == 0

    def test_replays_decisions(self):
        oracle = ReplayOracle((2, 1))
        assert oracle.choose(4) == 2
        assert oracle.choose(2) == 1
        assert oracle.choose(2) == 0  # past the prefix

    def test_decisions_clamped_to_pending(self):
        oracle = ReplayOracle((5,))
        assert oracle.choose(2) == 1

    def test_log_records_pool_sizes(self):
        oracle = ReplayOracle()
        oracle.choose(3)
        oracle.choose(1)
        assert oracle.log == [3, 1]
        assert oracle.choice_points == 2


class Harness:
    def __init__(self, decisions=()):
        self.sim = Simulator()
        self.stats = Stats()
        self.oracle = ReplayOracle(decisions)
        self.net = ScheduledInterconnect(self.sim, self.stats, self.oracle)
        self.delivered = []
        for endpoint in ("a", "b", "c"):
            self.net.register(
                endpoint,
                lambda payload, src, ep=endpoint: self.delivered.append(
                    (ep, payload)
                ),
            )


class TestScheduledInterconnect:
    def test_default_is_fifo(self):
        harness = Harness()
        harness.net.send("a", "b", 1)
        harness.net.send("a", "c", 2)
        harness.net.send("b", "c", 3)
        harness.sim.run()
        assert [p for _, p in harness.delivered] == [1, 2, 3]

    def test_decision_reorders_across_channels(self):
        harness = Harness(decisions=(1,))
        harness.net.send("a", "b", "first")
        harness.net.send("a", "c", "second")
        harness.sim.run()
        assert [p for _, p in harness.delivered] == ["second", "first"]

    def test_same_channel_fifo_preserved(self):
        """Messages on one (src, dst) pair can never be reordered, no
        matter the decisions."""
        for decisions in [(), (1,), (1, 1), (2, 2, 2)]:
            harness = Harness(decisions=decisions)
            harness.net.send("a", "b", 1)
            harness.net.send("a", "b", 2)
            harness.net.send("a", "b", 3)
            harness.sim.run()
            assert [p for _, p in harness.delivered] == [1, 2, 3]

    def test_eligibility_mixes_channels(self):
        """With two channels pending, decision 1 picks the other channel
        but same-channel order still holds."""
        harness = Harness(decisions=(1, 1))
        harness.net.send("a", "b", "b1")
        harness.net.send("a", "b", "b2")
        harness.net.send("a", "c", "c1")
        harness.sim.run()
        payloads = [p for _, p in harness.delivered]
        assert payloads.index("b1") < payloads.index("b2")

    def test_deterministic_for_fixed_decisions(self):
        def run(decisions):
            harness = Harness(decisions=decisions)
            for i in range(5):
                harness.net.send("a", "b" if i % 2 else "c", i)
            harness.sim.run()
            return harness.delivered

        assert run((1, 0, 1)) == run((1, 0, 1))


class TestTracedSchedules:
    """A scheduled run traces each message's send and links it to the
    delivery, as the bus and the network do."""

    def _events(self, schedule):
        from repro.api import catalog_by_name
        from repro.campaign import PolicySpec, RunSpec
        from repro.memsys.config import NET_CACHE
        from repro.trace.tracer import TraceSpec

        spec = RunSpec(
            program=catalog_by_name()["message_passing"].executable_program(),
            policy=PolicySpec("DEF2"),
            config=NET_CACHE.with_overrides(start_skew=0),
            seed=0,
            schedule=schedule,
            trace=TraceSpec(),
        )
        result = spec.execute()
        assert result.completed
        return [e for e in result.trace_events if e.category == "msg"]

    def test_every_delivery_has_its_send(self):
        for schedule in ((), (0, 1), (0, 0, 2)):
            events = self._events(schedule)
            sends = [e.flow_id for e in events if e.phase == "S"]
            delivered = [e.flow_id for e in events if e.phase == "F"]
            assert delivered and None not in delivered
            assert len(set(sends)) == len(sends)
            assert sorted(sends) == sorted(delivered), schedule
            # No delivery is recorded before its send.
            order = {id(e): i for i, e in enumerate(events)}
            sent = {e.flow_id: order[id(e)] for e in events if e.phase == "S"}
            assert all(
                sent[e.flow_id] < order[id(e)]
                for e in events if e.phase == "F"
            )
