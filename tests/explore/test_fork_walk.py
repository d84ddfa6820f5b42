"""The in-process forking walk against campaign replays and fresh runs.

``explore_program`` runs an in-process search as a depth-first walk that
forks the running machine at each choice point where a child schedule
deviates (:meth:`repro.memsys.system.System.fork`), instead of replaying
every schedule from cycle 0 as a campaign-backed search does.  These
tests hold the two to the same answers:

* every schedule's ``RunResult`` pickles byte-identically to a fresh
  ``execute_spec_guarded`` replay of its decision string, traced and
  sanitized too, and the report (``run_traces`` included) equals the
  campaign's;
* a forked machine and its parent evolve independently;
* a schedule that raises is folded exactly as a campaign folds it;
* no closure hides in machine state (so a fork can rebind everything);
* at most ``max_delays + 1`` machines are alive during a walk.
"""

from __future__ import annotations

import dataclasses
import gc
import pickle
import re
import types
import weakref
from collections import deque

import pytest

from repro.campaign import (
    PolicySpec,
    RunSpec,
    SerialExecutor,
    execute_spec_guarded,
)
from repro.explore import explorer
from repro.explore.explorer import (
    explore_program,
    explore_to_fixpoint,
    verify_weak_ordering,
)
from repro.explore.oracle import ReplayOracle
from repro.interconnect.base import Interconnect
from repro.api import catalog_by_name
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
from repro.sim.engine import Component
from repro.trace.tracer import TraceSpec

CATALOG = catalog_by_name()
MACHINES = (BUS_CACHE, BUS_CACHE_SNOOP, BUS_NOCACHE, NET_CACHE,
            NET_CACHE_VC, NET_NOCACHE)
POLICIES = ("SC", "TSO", "PSO", "RELAXED", "DEF1", "DEF2", "DEF2-R")
CORES = ("simple", "pipelined")


#: Search options each byte-identity check can run under.
MODES = {
    "plain": {},
    "traced": {"trace": TraceSpec()},
    "sanitize-log": {"sanitize": "log"},
    "sanitize-strict": {"sanitize": "strict"},
}


def _spec(program, policy, config, core="simple", schedule=(), **options):
    return RunSpec(
        program=program,
        policy=PolicySpec(policy, core=core),
        config=config.with_overrides(start_skew=0),
        seed=0,
        max_cycles=200_000,
        schedule=schedule,
        **options,
    )


def _compatible(policy, config, core):
    try:
        ensure_compatible(policy_by_name(policy), config, core)
    except ConfigurationError:
        return False
    return True


def _walk_results(monkeypatch, program, policy, config, core, delays=2,
                  **options):
    """Explore on the walk; returns the report and each schedule's
    ``(prefix, result)`` in the order the walk folded them."""
    folded = []
    fold = explorer._Walk._fold

    def record(self, prefix, result):
        folded.append((prefix, result))
        fold(self, prefix, result)

    monkeypatch.setattr(explorer._Walk, "_fold", record)
    report = explore_program(
        program, PolicySpec(policy, core=core), max_delays=delays,
        config=config, **options,
    )
    monkeypatch.setattr(explorer._Walk, "_fold", fold)
    return report, folded


def _report_key(report):
    return (
        report.runs, report.outcomes, report.pruned_decisions,
        report.incomplete_runs, report.exhausted, report.describe(),
        report.run_traces,
    )


def _assert_walk_matches_replays(monkeypatch, program, policy, config, core,
                                 **options):
    report, folded = _walk_results(
        monkeypatch, program, policy, config, core, **options
    )
    prefixes = [prefix for prefix, _ in folded]
    assert len(set(prefixes)) == len(prefixes) == report.runs
    for prefix, result in folded:
        fresh = execute_spec_guarded(
            _spec(program, policy, config, core, schedule=prefix, **options)
        )
        # Per result, never the list: see the verify notes on pickle
        # memoization of strings shared across one program's results.
        assert pickle.dumps(result) == pickle.dumps(fresh), prefix
    replayed = explore_program(
        program, PolicySpec(policy, core=core), max_delays=2, config=config,
        executor=SerialExecutor(), **options,
    )
    assert _report_key(report) == _report_key(replayed)
    traced = [prefix for prefix, result in folded if result.trace_events]
    assert len(report.run_traces) == len(traced)
    assert bool(traced) <= ("trace" in options)


# -- byte identity ---------------------------------------------------------

TIER1_PROGRAMS = ("fig1_dekker_sync_warm", "message_passing", "iriw")


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("config", MACHINES, ids=lambda c: c.name)
@pytest.mark.parametrize("policy", ("SC", "DEF2"))
def test_walk_matches_fresh_replays(monkeypatch, config, policy, mode):
    for name in TIER1_PROGRAMS:
        program = CATALOG[name].executable_program()
        if _compatible(policy, config, "simple"):
            _assert_walk_matches_replays(
                monkeypatch, program, policy, config, "simple", **MODES[mode]
            )
            continue
        # An unbuildable pair has nothing to compare: the walk and the
        # campaign replay both refuse it, in every search mode.
        for executor in ({}, {"executor": SerialExecutor()}):
            with pytest.raises(ConfigurationError, match="requires caches"):
                explore_program(
                    program, PolicySpec(policy), max_delays=2, config=config,
                    **executor, **MODES[mode],
                )


@pytest.mark.parametrize("config", (NET_CACHE, NET_NOCACHE),
                         ids=lambda c: c.name)
def test_walk_matches_fresh_replays_pipelined(monkeypatch, config):
    program = CATALOG["store_forward_dekker"].executable_program()
    for policy in ("TSO", "RELAXED"):
        _assert_walk_matches_replays(
            monkeypatch, program, policy, config, "pipelined"
        )


@pytest.mark.slow
@pytest.mark.parametrize("core", CORES)
@pytest.mark.parametrize("config", MACHINES, ids=lambda c: c.name)
def test_walk_matches_fresh_replays_full_sweep(monkeypatch, config, core):
    for policy in POLICIES:
        if not _compatible(policy, config, core):
            continue
        for test in CATALOG.values():
            _assert_walk_matches_replays(
                monkeypatch, test.executable_program(), policy, config, core
            )


@pytest.mark.parametrize(
    "options", ({}, {"executor": SerialExecutor()}), ids=("walk", "campaign")
)
def test_unbuildable_machine_raises(options):
    program = CATALOG["fig1_dekker"].executable_program()
    with pytest.raises(ConfigurationError, match="requires caches"):
        explore_program(
            program, PolicySpec("DEF2"), config=NET_NOCACHE, **options
        )


def test_unbuildable_machine_is_no_proof():
    program = CATALOG["message_passing"].executable_program()
    with pytest.raises(ConfigurationError, match="requires caches"):
        verify_weak_ordering(
            program, PolicySpec("DEF2"), set(), config=BUS_NOCACHE
        )
    with pytest.raises(ConfigurationError, match="requires caches"):
        explore_to_fixpoint(program, PolicySpec("DEF2"), config=BUS_NOCACHE)


# -- fork independence -----------------------------------------------------

class _ForkEverywhere(ReplayOracle):
    """At each choice point of the parent run, holds two forks: one to
    run FIFO from there, one that delays the oldest message once."""

    def __init__(self):
        super().__init__()
        self.system = None
        self.forks = []

    def choose(self, pending, details=None):
        if self.system is not None and pending > 1:
            point = len(self.log)
            for decisions in ((), (0,) * point + (1,)):
                child = self.system.fork()
                child.interconnect.oracle.system = None
                child.interconnect.oracle.decisions = decisions
                self.forks.append((decisions, child))
        return super().choose(pending, details)


@pytest.mark.parametrize("core", CORES)
@pytest.mark.parametrize("config", MACHINES, ids=lambda c: c.name)
def test_forks_and_parent_run_independently(config, core):
    program = CATALOG["fig1_dekker_sync_warm"].executable_program()
    policy = "DEF2" if config.has_caches else "SC"
    spec = _spec(program, policy, config, core)
    oracle = _ForkEverywhere()
    parent = spec.build_system(oracle)
    oracle.system = parent
    parent_result = spec.run_system(parent)
    assert oracle.forks, "the program never reached a choice point"
    # The parent ran to completion with every fork held: neither it nor
    # a later-run fork may see another's state.
    assert pickle.dumps(parent_result) == pickle.dumps(
        execute_spec_guarded(spec)
    )
    for decisions, child in reversed(oracle.forks):
        result = spec.run_system(child)
        fresh = execute_spec_guarded(
            dataclasses.replace(spec, schedule=decisions)
        )
        assert pickle.dumps(result) == pickle.dumps(fresh), decisions


# -- a schedule that raises --------------------------------------------------

def test_raising_schedule_folds_like_the_wave_loop(monkeypatch):
    """A delivery that raises on some schedules only: the walk folds each
    raising schedule's guarded replay, exactly as a campaign does."""
    deliver = Interconnect._deliver
    raised = []

    def flaky(self, src, dst, payload, flow_id=None):
        # Deterministic per schedule: the 12th delivery raises when it
        # is a directory grant, which depends on the delivery order.
        if (self.stats.count("interconnect.delivered") == 11
                and type(payload).__name__ == "DataX"):
            raised.append(dst)
            raise RuntimeError("injected delivery fault")
        deliver(self, src, dst, payload, flow_id)

    monkeypatch.setattr(Interconnect, "_deliver", flaky)
    program = CATALOG["fig1_dekker_sync_warm"].executable_program()
    walk = explore_program(program, PolicySpec("DEF2"), max_delays=2)
    replayed = explore_program(
        program, PolicySpec("DEF2"), max_delays=2,
        executor=SerialExecutor(),
    )
    assert raised, "the injected fault never fired"
    assert 0 < walk.incomplete_runs < walk.runs
    assert _report_key(walk) == _report_key(replayed)


def test_raising_schedule_discards_forked_children(monkeypatch):
    """The subtree of a schedule that raises after forking is dropped."""
    program = CATALOG["fig1_dekker_sync_warm"].executable_program()
    calls = {"n": 0}
    deliver = Interconnect._deliver

    def raise_late_on_fifo(self, src, dst, payload, flow_id=None):
        # Only the FIFO schedule (no deviation recorded) raises, and
        # only after its choice points have spawned children.
        oracle = getattr(self, "oracle", None)
        if (oracle is not None and not any(oracle.decisions)
                and len(oracle.log) >= 6):
            calls["n"] += 1
            raise RuntimeError("FIFO schedule fault")
        deliver(self, src, dst, payload, flow_id)

    monkeypatch.setattr(Interconnect, "_deliver", raise_late_on_fifo)
    forks = []
    fork = System.fork
    monkeypatch.setattr(
        System, "fork", lambda self: forks.append(1) or fork(self)
    )
    walk = explore_program(program, PolicySpec("DEF2"), max_delays=2)
    assert forks, "the FIFO schedule raised before forking any child"
    replayed = explore_program(
        program, PolicySpec("DEF2"), max_delays=2,
        executor=SerialExecutor(),
    )
    assert calls["n"] > 0
    # The FIFO root raised: it is the only schedule, and it failed.
    assert walk.runs == replayed.runs == 1
    assert _report_key(walk) == _report_key(replayed)


def test_a_fault_of_the_walk_itself_is_raised(monkeypatch):
    """A schedule whose fresh replay runs clean did not fail: the fault
    was the walk's, and it must not be folded as a failed run."""

    def broken_fork(self):
        raise RuntimeError("fork failed")

    monkeypatch.setattr(System, "fork", broken_fork)
    program = CATALOG["fig1_dekker_sync_warm"].executable_program()
    with pytest.raises(RuntimeError, match="fork failed"):
        explore_program(program, PolicySpec("DEF2"), max_delays=1)


# -- nesting bound ----------------------------------------------------------------

@pytest.fixture
def collector_off():
    """Machines alive are counted by their simulators with the cyclic
    collector off: a finished machine must be freed when dropped."""
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


@pytest.mark.parametrize("nesting", (1, 2))
def test_children_past_the_nesting_bound_are_replayed(
    monkeypatch, collector_off, nesting
):
    """Past the nesting bound a child is queued and replayed from cycle
    0; the walk still visits the campaign's schedules, byte for byte."""
    monkeypatch.setattr(explorer, "_MAX_NESTING", nesting)
    live = weakref.WeakSet()
    fork = System._fork

    def tracked_fork(self, forking):
        system = fork(self, forking)
        live.add(system.sim)
        assert len(live) < nesting  # forks, beside the built root
        return system

    monkeypatch.setattr(System, "_fork", tracked_fork)
    program = CATALOG["iriw"].executable_program()
    _assert_walk_matches_replays(monkeypatch, program, "DEF2", NET_CACHE,
                                 "simple")


# -- no closures in machine state ---------------------------------------------

_ATOMS = (str, bytes, int, float, bool, type(None), type, types.ModuleType,
          types.BuiltinFunctionType)


def _closures(root):
    """Functions with a ``__closure__`` reachable through machine state:
    instance attributes, containers and the instances of bound methods
    (not classes, modules or the code and globals of functions)."""
    found, seen, stack = [], set(), [root]
    while stack:
        obj = stack.pop()
        if isinstance(obj, _ATOMS) or id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, types.FunctionType):
            if obj.__closure__:
                found.append(obj)
            continue
        if isinstance(obj, types.MethodType):
            # The function is class code (a zero-argument ``super()``
            # gives it a ``__class__`` cell); the state is the instance.
            stack.append(obj.__self__)
            continue
        if isinstance(obj, dict):
            stack.extend(obj.keys())
            stack.extend(obj.values())
        elif isinstance(obj, (list, tuple, set, frozenset, deque)):
            stack.extend(obj)
        if hasattr(obj, "__dict__"):
            stack.extend(vars(obj).values())
        for slot in getattr(type(obj), "__slots__", ()):
            if hasattr(obj, slot):
                stack.append(getattr(obj, slot))
    return found


class _Probe(Component):
    """Walks the machine graph from inside a running simulation."""

    def __init__(self, system):
        super().__init__(system.sim, "probe")
        self.system = system
        self.found = []
        self.probes = 0

    def probe(self):
        self.probes += 1
        self.found.extend(_closures(self.system))


@pytest.mark.parametrize("core", CORES)
@pytest.mark.parametrize("config", MACHINES, ids=lambda c: c.name)
def test_running_machine_holds_no_closures(config, core):
    program = CATALOG["fig1_dekker_sync_warm"].executable_program()
    policy = "DEF2" if config.has_caches else "SC"
    for schedule in (None, ()):
        spec = dataclasses.replace(
            _spec(program, policy, config, core), schedule=schedule
        )
        system = spec.build_system()
        probe = _Probe(system)
        for cycle in (3, 10, 25, 60):
            system.sim.schedule(cycle, probe.probe)
        system.run(max_cycles=200_000)
        assert probe.probes == 4
        assert probe.found == []


# -- live machines ---------------------------------------------------------------

def test_at_most_max_delays_plus_one_machines_alive(monkeypatch, collector_off):
    live = weakref.WeakSet()
    peak = {"n": 0}
    build, fork = RunSpec.build_system, System._fork

    def tracked_build(self, oracle=None):
        system = build(self, oracle)
        live.add(system.sim)
        return system

    def tracked_fork(self, forking):
        system = fork(self, forking)
        live.add(system.sim)
        peak["n"] = max(peak["n"], len(live))
        return system

    monkeypatch.setattr(RunSpec, "build_system", tracked_build)
    monkeypatch.setattr(System, "_fork", tracked_fork)
    program = CATALOG["fig1_dekker_sync_warm"].executable_program()
    for delays in (1, 2, 3):
        peak["n"] = 0
        report = explore_program(
            program, PolicySpec("DEF2"), max_delays=delays
        )
        assert report.exhausted and report.runs > 1
        assert 1 < peak["n"] <= delays + 1


# -- truncation and the report ------------------------------------------------------

def test_truncated_walk_stops_starting_schedules():
    program = CATALOG["iriw"].executable_program()
    report = explore_program(
        program, PolicySpec("DEF2"), max_delays=2, max_runs=7
    )
    assert report.runs == 7
    assert not report.exhausted
    assert "TRUNCATED" in report.describe()


def test_describe_breaks_count_ties_on_outcome_text():
    program = CATALOG["iriw"].executable_program()
    report = explore_program(program, PolicySpec("RELAXED"), max_delays=2)
    counts = list(report.outcomes.values())
    assert len(set(counts)) < len(counts), "no tie to break"
    reordered = dataclasses.replace(
        report, outcomes=dict(reversed(list(report.outcomes.items())))
    )
    assert reordered.describe() == report.describe()
    rows = [
        re.match(r"\s+(\d+)x (.*)", line)
        for line in report.describe().splitlines()[1:]
    ]
    keyed = [(-int(row[1]), row[2]) for row in rows if row]
    assert len(keyed) == len(report.outcomes)
    assert keyed == sorted(keyed)
