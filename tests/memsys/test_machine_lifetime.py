"""A finished machine is freed as soon as its last reference drops.

``RunSpec.run_system`` releases the machine it has run and packaged
(:meth:`repro.memsys.system.System.release`), so no reference cycle is
left for the cyclic collector.  Every test here runs with the collector
switched off: a machine part that only a collection could free keeps
its weak reference alive and fails the test.  What the caller keeps —
the result, the stats, the oracle — stays readable, and forks still get
their own tracer and sanitizer when the search records or checks.
"""

from __future__ import annotations

import dataclasses
import gc
import pickle
import weakref

import pytest

from repro.api import catalog_by_name
from repro.campaign import PolicySpec, RunSpec, execute_spec_guarded
from repro.explore.explorer import explore_program
from repro.explore.oracle import ReplayOracle
from repro.faults import FaultPlan
from repro.memsys import ConfigurationError
from repro.memsys.config import (
    BUS_CACHE,
    BUS_CACHE_SNOOP,
    BUS_NOCACHE,
    NET_CACHE,
    NET_CACHE_VC,
    NET_NOCACHE,
)
from repro.memsys.system import System, ensure_compatible
from repro.models.policies import policy_by_name
from repro.trace.tracer import TraceSpec

MACHINES = (BUS_CACHE, BUS_CACHE_SNOOP, BUS_NOCACHE, NET_CACHE,
            NET_CACHE_VC, NET_NOCACHE)
CORES = ("simple", "pipelined")
PROGRAM = catalog_by_name()["fig1_dekker_sync_warm"].executable_program()


@pytest.fixture(autouse=True)
def no_collector():
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def _policy(config, core):
    """The first of DEF2, SC that ``config`` and ``core`` can build."""
    for name in ("DEF2", "SC"):
        try:
            ensure_compatible(policy_by_name(name), config, core)
        except ConfigurationError:
            continue
        return name
    raise AssertionError(f"no policy builds on {config.name}/{core}")


def _parts(system):
    """Weak references to the machine and each of its components."""
    parts = [system, system.sim, system.stats, system.interconnect]
    parts += system.caches + system.processors
    for home in (system.directory, system.snoop_coordinator, system.memory):
        if home is not None:
            parts.append(home)
    return [weakref.ref(part) for part in parts]


class _Recorder:
    """Weak references to every machine a spec builds or forks."""

    def __init__(self, monkeypatch):
        self.refs = []
        self.machines = 0
        build, fork = RunSpec.build_system, System._fork
        recorder = self

        def tracked_build(spec, oracle=None):
            system = build(spec, oracle)
            recorder.track(system)
            return system

        def tracked_fork(system, forking):
            copy = fork(system, forking)
            recorder.track(copy)
            return copy

        monkeypatch.setattr(RunSpec, "build_system", tracked_build)
        monkeypatch.setattr(System, "_fork", tracked_fork)

    def track(self, system):
        self.machines += 1
        self.refs.extend(_parts(system))

    def alive(self):
        return [type(ref()).__name__ for ref in self.refs if ref() is not None]


def _spec(config, core, **options):
    return RunSpec(
        program=PROGRAM,
        policy=PolicySpec(_policy(config, core), core=core),
        config=config,
        seed=7,
        **options,
    )


@pytest.mark.parametrize("core", CORES)
@pytest.mark.parametrize("config", MACHINES, ids=lambda c: c.name)
def test_an_executed_machine_is_freed_without_a_collection(
    monkeypatch, config, core
):
    recorder = _Recorder(monkeypatch)
    result = _spec(config, core).execute()
    assert recorder.machines == 1
    assert recorder.alive() == []
    assert result.ok and result.observable is not None
    assert result.timings.messages > 0
    # The result is whole: it pickles like an unreleased run's.
    monkeypatch.undo()
    assert pickle.dumps(result) == pickle.dumps(
        execute_spec_guarded(_spec(config, core))
    )


@pytest.mark.parametrize(
    "options",
    (
        # Cut off by the watchdog: events are still queued.
        {"max_cycles": 30},
        # A fault-injecting transport keeps the handlers on its inner one.
        {"faults": FaultPlan(delay_jitter=4, reorder_pct=30, salt=1)},
        # An enabled tracer and sanitizer point back at the simulator.
        {"trace": TraceSpec(), "sanitize": "log"},
    ),
    ids=("watchdog", "faults", "traced-sanitized"),
)
def test_an_unusual_run_is_freed_too(monkeypatch, options):
    recorder = _Recorder(monkeypatch)
    result = _spec(NET_CACHE, "simple", **options).execute()
    assert recorder.alive() == []
    if "max_cycles" in options:
        assert result.failure.kind == "sim-timeout"
    if "trace" in options:
        assert result.trace_events


def test_what_the_caller_keeps_stays_readable(monkeypatch):
    recorder = _Recorder(monkeypatch)
    spec = _spec(NET_CACHE, "simple", schedule=(0, 1))
    oracle = ReplayOracle(spec.schedule)
    system = spec.build_system(oracle)
    stats = system.stats
    result = spec.run_system(system)
    del system
    assert recorder.alive() == ["Stats"]  # the caller's
    assert tuple(oracle.log) == result.choice_log
    assert tuple(oracle.detail_log) == result.choice_details
    assert stats.count("interconnect.delivered") == result.timings.messages
    assert stats.stall_cycles() == result.timings.stall_cycles
    assert "cycles:" in stats.describe()


@pytest.mark.parametrize(
    "options",
    ({}, {"trace": TraceSpec()}, {"sanitize": "strict"}),
    ids=("plain", "traced", "sanitized"),
)
def test_every_explored_machine_is_freed(monkeypatch, options):
    recorder = _Recorder(monkeypatch)
    report = explore_program(
        PROGRAM, PolicySpec("DEF2"), max_delays=2, **options
    )
    assert report.exhausted and report.runs == recorder.machines > 1
    assert recorder.alive() == []
    assert report.outcomes


@pytest.mark.parametrize(
    "options",
    ({}, {"trace": TraceSpec()}, {"sanitize": "log"}),
    ids=("plain", "traced", "sanitized"),
)
def test_forks_copy_only_a_recording_tracer_or_sanitizer(
    monkeypatch, options
):
    """A disabled tracer or sanitizer records nothing, so forks share
    it; an enabled one is each fork's own."""
    pairs = []
    fork = System._fork

    def tracked_fork(system, forking):
        copy = fork(system, forking)
        pairs.append((
            system.sim.tracer is copy.sim.tracer,
            system.sim.sanitizer is copy.sim.sanitizer,
        ))
        return copy

    monkeypatch.setattr(System, "_fork", tracked_fork)
    report = explore_program(
        PROGRAM, PolicySpec("DEF2"), max_delays=1, **options
    )
    assert pairs and report.runs == len(pairs) + 1
    assert set(pairs) == {("trace" not in options, "sanitize" not in options)}
    if "trace" in options:
        assert len(report.run_traces) == report.runs


def test_a_released_parents_held_forks_still_run():
    """Forks share the parent's disabled tracer and sanitizer, which
    the parent's release unhooks from it: a held fork runs on after."""
    spec = dataclasses.replace(
        _spec(NET_CACHE, "simple"), schedule=(),
        config=NET_CACHE.with_overrides(start_skew=0),
    )
    held = []

    class Holding(ReplayOracle):
        system = None

        def choose(self, pending, details=None):
            if self.system is not None and pending > 1 and not held:
                held.append(self.system.fork())
            return super().choose(pending, details)

    oracle = Holding(())
    parent = spec.build_system(oracle)
    oracle.system = parent
    spec.run_system(parent)
    oracle.system = None
    (child,) = held
    child.interconnect.oracle.system = None
    parts = _parts(parent)
    del parent
    assert [ref for ref in parts if ref() is not None] == []
    result = spec.run_system(child)
    assert pickle.dumps(result) == pickle.dumps(execute_spec_guarded(spec))
