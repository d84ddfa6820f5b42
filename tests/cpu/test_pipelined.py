"""PipelinedCore: store-to-load forwarding, issue-window overlap, hazards.

The pipelined core implements parallelized-sequential-composition
semantics: accesses from one thread overlap in an issue window, and a
read may be satisfied by forwarding from the newest pending same-location
write.  These tests pin three things:

* forwarding is real and counted (``core.forwards``), happens only on
  plain data reads, and always selects the *newest* pending write;
* the reordering it produces is policy-gated: SC and ALL-SYNC declare
  ``allows_store_forwarding = False`` and never forward, and their
  verdicts stay SC;
* the per-(core, policy) outcome sets on the forwarding litmus battery
  are exactly as expected — the pipelined core widens the histogram on
  weak policies and nowhere else.

A structural note the expectations below encode: the cached network
configs use per-(src, dst) FIFO request channels into a single
directory, so a processor's read request can never overtake its *own*
earlier write request in the network.  The symmetric SC-forbidden
outcomes (both threads stale at once) are therefore architecturally
unreachable here even with forwarding — the core-originated reordering
shows up as one-sided stale reads and overlapping-read outcomes instead.
"""

from __future__ import annotations

import pytest

from repro.campaign import ParallelExecutor, PolicySpec, run_campaign
from repro.core.program import Program, ThreadBuilder
from repro.litmus.catalog import (
    forwarding_catalog,
    mp_release_overlapping_reads,
    store_forward_chain,
    store_forward_coherence,
    store_forward_dekker,
)
from repro.litmus.runner import LitmusRunner
from repro.memsys.config import NET_CACHE
from repro.memsys.system import System
from repro.models.policies import policy_by_name
from repro.sim.stats import StallReason


RUNS = 30
BASE_SEED = 77

#: (core, policy) -> sorted outcome tuples observed on NET_CACHE with the
#: campaign above.  Pinned from the implementation run; any drift means
#: core or policy semantics moved.
VERDICTS = {
    "store_forward_dekker": {
        ("simple", "RELAXED"): [(1, 1, 1, 1)],
        ("simple", "SC"): [(1, 1, 1, 1)],
        ("simple", "DEF1"): [(1, 1, 1, 1)],
        ("simple", "DEF2"): [(1, 1, 1, 1)],
        ("simple", "DEF2-R"): [(1, 1, 1, 1)],
        ("simple", "ALL-SYNC"): [(1, 1, 1, 1)],
        ("pipelined", "RELAXED"): [(1, 0, 1, 1), (1, 1, 1, 0), (1, 1, 1, 1)],
        ("pipelined", "SC"): [(1, 1, 1, 1)],
        ("pipelined", "DEF1"): [(1, 0, 1, 1), (1, 1, 1, 0), (1, 1, 1, 1)],
        ("pipelined", "DEF2"): [(1, 0, 1, 1), (1, 1, 1, 0), (1, 1, 1, 1)],
        ("pipelined", "DEF2-R"): [(1, 0, 1, 1), (1, 1, 1, 0), (1, 1, 1, 1)],
        ("pipelined", "ALL-SYNC"): [(1, 1, 1, 1)],
    },
    "store_forward_chain": {
        ("simple", "RELAXED"): [(1, 0, 1)],
        ("simple", "SC"): [(1, 0, 1)],
        ("simple", "DEF1"): [(1, 0, 1)],
        ("simple", "DEF2"): [(1, 0, 1)],
        ("simple", "DEF2-R"): [(1, 0, 1)],
        ("simple", "ALL-SYNC"): [(1, 0, 1)],
        ("pipelined", "RELAXED"): [(1, 0, 0), (1, 0, 1), (1, 1, 1)],
        ("pipelined", "SC"): [(1, 0, 1)],
        ("pipelined", "DEF1"): [(1, 0, 0), (1, 0, 1), (1, 1, 1)],
        ("pipelined", "DEF2"): [(1, 0, 0), (1, 0, 1), (1, 1, 1)],
        ("pipelined", "DEF2-R"): [(1, 0, 0), (1, 0, 1), (1, 1, 1)],
        ("pipelined", "ALL-SYNC"): [(1, 0, 1)],
    },
    "mp_release_overlapping_reads": {
        ("simple", "RELAXED"): [(0, 42), (1, 42)],
        ("simple", "SC"): [(0, 42)],
        ("simple", "DEF1"): [(0, 42)],
        ("simple", "DEF2"): [(0, 42)],
        ("simple", "DEF2-R"): [(0, 42)],
        ("simple", "ALL-SYNC"): [(0, 42)],
        ("pipelined", "RELAXED"): [(0, 0), (0, 42), (1, 42)],
        ("pipelined", "SC"): [(0, 42)],
        ("pipelined", "DEF1"): [(0, 0), (0, 42)],
        ("pipelined", "DEF2"): [(0, 0), (0, 42)],
        ("pipelined", "DEF2-R"): [(0, 0), (0, 42)],
        ("pipelined", "ALL-SYNC"): [(0, 42)],
    },
}

CORES = ("simple", "pipelined")
POLICIES = ("RELAXED", "SC", "DEF1", "DEF2", "DEF2-R", "ALL-SYNC")
FORWARDING_POLICIES = ("RELAXED", "DEF1", "DEF2", "DEF2-R")


def _run_histogram(test, core, policy_name):
    runner = LitmusRunner()
    result = runner.run(
        test,
        lambda: policy_by_name(policy_name, core=core),
        NET_CACHE,
        runs=RUNS,
        base_seed=BASE_SEED,
    )
    return result


@pytest.mark.parametrize("core", CORES)
@pytest.mark.parametrize("policy_name", POLICIES)
@pytest.mark.parametrize(
    "test_name", sorted(VERDICTS), ids=sorted(VERDICTS)
)
def test_per_policy_verdicts(test_name, core, policy_name):
    test = {t.name: t for t in forwarding_catalog()}[test_name]
    result = _run_histogram(test, core, policy_name)
    assert result.completed_runs == RUNS
    assert sorted(result.histogram) == sorted(VERDICTS[test_name][(core, policy_name)])
    # The SC-forbidden target outcome never survives the FIFO network.
    assert test.forbidden not in result.histogram


@pytest.mark.parametrize("core", CORES)
@pytest.mark.parametrize("policy_name", POLICIES)
def test_coherence_forwards_newest_write(core, policy_name):
    """r1 must read 2 — the newest pending write — on every core/policy."""
    test = store_forward_coherence()
    result = _run_histogram(test, core, policy_name)
    assert result.completed_runs == RUNS
    assert all(outcome[0] == 2 for outcome in result.histogram)


@pytest.mark.parametrize("policy_name", FORWARDING_POLICIES)
def test_forwarding_counted(policy_name):
    """The three store-forwarding shapes actually forward on weak policies."""
    for test in (store_forward_dekker(), store_forward_chain(),
                 store_forward_coherence()):
        forwards = 0
        for seed in range(1, 11):
            system = System(
                test.program, policy_by_name(policy_name, core="pipelined"),
                NET_CACHE, seed=seed,
            )
            system.run()
            forwards += system.stats.count("core.forwards")

            system = System(
                test.program, policy_by_name(policy_name, core="simple"),
                NET_CACHE, seed=seed,
            )
            system.run()
            assert system.stats.count("core.forwards") == 0, test.name
        assert forwards > 0, test.name


@pytest.mark.parametrize("policy_name", ("SC", "ALL-SYNC"))
def test_forwarding_disabled_policies_never_forward(policy_name):
    assert not policy_by_name(policy_name).allows_store_forwarding
    for test in forwarding_catalog():
        system = System(
            test.program, policy_by_name(policy_name, core="pipelined"),
            NET_CACHE, seed=11,
        )
        system.run()
        assert system.stats.count("core.forwards") == 0, test.name


def test_window_full_stalls():
    """More independent misses than window slots stall on CORE_WINDOW_FULL."""
    builder = ThreadBuilder("P0")
    for i, loc in enumerate("abcdef"):
        builder = builder.store(loc, i + 1)
    program = Program([builder.build()], name="wide_stores")

    system = System(
        program, policy_by_name("RELAXED", core="pipelined"), NET_CACHE, seed=3
    )
    system.run()
    breakdown = system.stats.stall_breakdown()
    window_stalls = sum(
        cycles for (_proc, reason), cycles in breakdown.items()
        if reason is StallReason.CORE_WINDOW_FULL
    )
    assert window_stalls > 0

    system = System(
        program, policy_by_name("RELAXED", core="simple"), NET_CACHE, seed=3
    )
    system.run()
    assert not any(
        reason is StallReason.CORE_WINDOW_FULL
        for (_proc, reason) in system.stats.stall_breakdown()
    )


def test_scoreboard_raw_hazard():
    """A dependent store waits for the load that produces its operand."""
    t0 = ThreadBuilder("P0").load("r1", "x").store("y", "r1").build()
    program = Program([t0], name="raw_chain", initial_memory={"x": 9})
    system = System(
        program, policy_by_name("RELAXED", core="pipelined"), NET_CACHE, seed=5
    )
    run = system.run()
    assert run.completed
    assert system.processors[0].regs.read("r1") == 9
    assert system.final_memory()["y"] == 9
    breakdown = system.stats.stall_breakdown()
    raw_stalls = sum(
        cycles for (_proc, reason), cycles in breakdown.items()
        if reason is StallReason.READ_VALUE
    )
    assert raw_stalls > 0


def test_forwarding_only_plain_writes():
    """Sync writes never feed a forward: the read takes the memory path."""
    t0 = (
        ThreadBuilder("P0")
        .sync_store("x", 5)
        .load("r1", "x")
        .build()
    )
    program = Program([t0], name="sync_no_forward")
    system = System(
        program, policy_by_name("DEF2", core="pipelined"), NET_CACHE, seed=2
    )
    run = system.run()
    assert run.completed
    assert system.stats.count("core.forwards") == 0
    assert system.processors[0].regs.read("r1") == 5


def test_campaign_serial_parallel_identity():
    """Pipelined campaigns stay byte-identical across executors."""
    runner = LitmusRunner()
    spec = PolicySpec.of(lambda: policy_by_name("DEF1", core="pipelined"))
    specs = runner.campaign_specs(
        store_forward_dekker(), spec, NET_CACHE, 8, 555
    )
    serial = run_campaign(specs)
    with ParallelExecutor(jobs=4) as executor:
        parallel = run_campaign(specs, executor=executor)
    for a, b in zip(serial.results, parallel.results):
        assert a.observable == b.observable
        assert a.cycles == b.cycles
        assert a.completed == b.completed


def test_core_rides_the_digest():
    """core= extends RunSpec digests append-only: default core leaves the
    digest exactly as it was before cores existed."""
    runner = LitmusRunner()
    test = store_forward_dekker()

    default = runner.campaign_specs(
        test, PolicySpec.of(lambda: policy_by_name("DEF1")), NET_CACHE, 1, 99
    )[0]
    explicit_simple = runner.campaign_specs(
        test,
        PolicySpec.of(lambda: policy_by_name("DEF1", core="simple")),
        NET_CACHE, 1, 99,
    )[0]
    pipelined = runner.campaign_specs(
        test,
        PolicySpec.of(lambda: policy_by_name("DEF1", core="pipelined")),
        NET_CACHE, 1, 99,
    )[0]

    assert default.digest() == explicit_simple.digest()
    assert pipelined.digest() != default.digest()
    assert "core=" not in repr(default.digest())


def test_unsupported_core_rejected():
    with pytest.raises(ValueError):
        policy_by_name("SC", core="no-such-core")

    class _Narrow:
        pass

    # A policy that names only the simple core refuses the pipelined one.
    policy = policy_by_name("SC")
    policy.supported_cores = ("simple",)
    from repro.memsys.system import ConfigurationError, ensure_compatible

    with pytest.raises(ConfigurationError):
        ensure_compatible(policy, NET_CACHE, "pipelined")


def test_mp_overlap_is_core_originated():
    """(0, 0) on the release-ordered MP shape needs the pipelined window:
    the x read is satisfied before the flag read completes."""
    test = mp_release_overlapping_reads()
    simple = _run_histogram(test, "simple", "DEF1")
    pipelined = _run_histogram(test, "pipelined", "DEF1")
    assert (0, 0) not in simple.histogram
    assert (0, 0) in pipelined.histogram
