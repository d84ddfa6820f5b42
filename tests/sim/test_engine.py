"""Unit tests for the discrete-event engine."""

import pytest

from repro.sim.engine import Component, SimulationTimeout, Simulator


class TestSimulator:
    def test_time_starts_at_zero(self):
        assert Simulator().now == 0

    def test_events_fire_in_time_order(self):
        sim = Simulator()
        log = []
        sim.schedule(5, lambda: log.append(("b", sim.now)))
        sim.schedule(2, lambda: log.append(("a", sim.now)))
        sim.run()
        assert log == [("a", 2), ("b", 5)]

    def test_same_time_events_fifo(self):
        sim = Simulator()
        log = []
        for tag in "abc":
            sim.schedule(3, lambda t=tag: log.append(t))
        sim.run()
        assert log == ["a", "b", "c"]

    def test_call_soon_runs_after_current_same_time_events(self):
        sim = Simulator()
        log = []

        def first():
            log.append("first")
            sim.call_soon(lambda: log.append("soon"))

        sim.schedule(0, first)
        sim.schedule(0, lambda: log.append("second"))
        sim.run()
        assert log == ["first", "second", "soon"]

    def test_nested_scheduling(self):
        sim = Simulator()
        log = []

        def outer():
            sim.schedule(10, lambda: log.append(sim.now))

        sim.schedule(5, outer)
        sim.run()
        assert log == [15]

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            Simulator().schedule(-1, lambda: None)

    def test_run_returns_final_time(self):
        sim = Simulator()
        sim.schedule(7, lambda: None)
        assert sim.run() == 7

    def test_timeout_watchdog(self):
        sim = Simulator()

        def tick():
            sim.schedule(10, tick)

        sim.schedule(0, tick)
        with pytest.raises(SimulationTimeout):
            sim.run(max_cycles=100)

    def test_watchdog_trips_at_exactly_max_cycles(self):
        # A synthetic never-quiescing component: reschedules itself one
        # cycle ahead forever.  Events AT the budget still run; the
        # first event past it trips, so the reported trip point is
        # exactly ``max_cycles`` and ``sim.now`` never moves past it.
        sim = Simulator()

        class Livelock(Component):
            ticks = 0

            def tick(self):
                self.ticks += 1
                self.sim.schedule(1, self.tick)

        livelock = Livelock(sim, "livelock")
        sim.schedule(1, livelock.tick)
        with pytest.raises(SimulationTimeout) as excinfo:
            sim.run(max_cycles=100)
        assert sim.now == 100
        assert livelock.ticks == 100
        assert excinfo.value.cycles == 100
        assert excinfo.value.budget == 100

    def test_run_until_watchdog_reports_trip_point(self):
        sim = Simulator()

        def tick():
            sim.schedule(5, tick)

        sim.schedule(0, tick)
        with pytest.raises(SimulationTimeout) as excinfo:
            sim.run(max_cycles=23, until=lambda: False)
        assert excinfo.value.cycles == sim.now
        assert excinfo.value.budget == 23
        assert sim.now <= 23

    def test_run_until_predicate(self):
        sim = Simulator()
        hits = []
        for delay in (1, 2, 3, 4):
            sim.schedule(delay, lambda d=delay: hits.append(d))
        sim.run(until=lambda: len(hits) >= 2)
        assert hits == [1, 2]
        assert sim.pending_events == 2

    def test_pending_events(self):
        sim = Simulator()
        sim.schedule(1, lambda: None)
        sim.schedule(2, lambda: None)
        assert sim.pending_events == 2
        sim.run()
        assert sim.pending_events == 0


class TestComponent:
    def test_holds_sim_and_name(self):
        sim = Simulator()
        component = Component(sim, "thing")
        assert component.sim is sim
        assert component.name == "thing"
