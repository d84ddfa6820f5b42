"""Pruned vs unpruned delay-bounded exploration: identical outcome sets.

Message-level pruning (:mod:`repro.explore.prune`) claims every skipped
delay decision could only replay already-reachable observables.  The
claim is validated empirically here: over the full litmus catalog and
the synchronization workloads, pruned and unpruned exploration must
reach byte-identical outcome sets — and on workloads with conflict-free
lines the pruned search must do so in at least 3x fewer runs.
"""

import pytest

from repro.explore.explorer import ExplorationReport, explore_program
from repro.explore.prune import conflict_free_locations, decision_redundant
from repro.litmus.catalog import standard_catalog
from repro.memsys.config import NET_CACHE, NET_CACHE_VC
from repro.models.policies import Def2Policy, RelaxedPolicy
from repro.workloads.barrier import barrier_program
from repro.workloads.locks import critical_section_program
from repro.workloads.ticket_lock import ticket_lock_program

CATALOG = standard_catalog()


@pytest.mark.parametrize(
    "config", [NET_CACHE, NET_CACHE_VC], ids=lambda c: c.name
)
class TestCatalogEquivalence:
    @pytest.mark.parametrize(
        "test", CATALOG, ids=[t.name for t in CATALOG]
    )
    def test_relaxed_outcome_sets_identical(self, test, config):
        program = test.executable_program()
        pruned = explore_program(
            program, RelaxedPolicy, max_delays=2, max_runs=50_000,
            config=config,
        )
        full = explore_program(
            program, RelaxedPolicy, max_delays=2, max_runs=50_000,
            config=config, prune=False,
        )
        assert pruned.exhausted and full.exhausted
        assert pruned.observables == full.observables
        assert pruned.runs + pruned.pruned_decisions >= full.runs or (
            # A pruned decision collapses a whole subtree, so the counts
            # relate loosely; what must hold exactly is the outcome set.
            pruned.runs <= full.runs
        )

    def test_def2_outcome_sets_identical_on_sync_dekker(self, config):
        test = next(t for t in CATALOG if t.name == "fig1_dekker_sync_warm")
        program = test.executable_program()
        pruned = explore_program(
            program, Def2Policy, max_delays=3, max_runs=50_000,
            config=config,
        )
        full = explore_program(
            program, Def2Policy, max_delays=3, max_runs=50_000,
            config=config, prune=False,
        )
        assert pruned.exhausted and full.exhausted
        assert pruned.observables == full.observables


WORKLOADS = [
    critical_section_program(2, 1, private_writes=2),
    critical_section_program(
        2, 1, private_writes=3, use_test_test_and_set=True
    ),
    barrier_program(2, private_writes=2),
]


class TestWorkloadEquivalenceAndReduction:
    @pytest.mark.parametrize("program", WORKLOADS, ids=lambda p: p.name)
    def test_outcomes_identical_with_3x_fewer_runs(self, program):
        pruned = explore_program(
            program, Def2Policy, max_delays=2, max_runs=100_000
        )
        full = explore_program(
            program, Def2Policy, max_delays=2, max_runs=100_000, prune=False
        )
        assert pruned.exhausted and full.exhausted
        assert pruned.observables == full.observables
        assert pruned.pruned_decisions > 0
        assert full.runs >= 3 * pruned.runs

    def test_ticket_lock_outcomes_identical(self):
        # All of the ticket lock's lines are shared, so pruning must
        # recognise there is nothing to skip — and lose nothing.
        program = ticket_lock_program(2, 1)
        pruned = explore_program(
            program, Def2Policy, max_delays=2, max_runs=100_000
        )
        full = explore_program(
            program, Def2Policy, max_delays=2, max_runs=100_000, prune=False
        )
        assert pruned.observables == full.observables
        assert pruned.runs == full.runs


class TestConflictFreeLocations:
    def test_private_and_shared_lines_classified(self):
        program = critical_section_program(2, 1, private_writes=1)
        free = conflict_free_locations(program)
        assert "lock" not in free
        assert "count" not in free
        assert {"w0_0", "w1_0"} <= free

    def test_read_only_shared_line_is_conflict_free(self):
        from repro.core.program import Program, ThreadBuilder

        ta = ThreadBuilder("P0").load("r0", "ro").store("x", 1).build()
        tb = ThreadBuilder("P1").load("r0", "ro").store("x", 2).build()
        program = Program([ta, tb], name="ro-shared")
        free = conflict_free_locations(program)
        assert "ro" in free
        assert "x" not in free


class TestDecisionRedundant:
    FREE = frozenset({"p0", "p1"})

    def test_overtaking_conflict_free_line_is_redundant(self):
        assert decision_redundant(("x", "p0"), 1, self.FREE)

    def test_two_racing_lines_never_redundant(self):
        assert not decision_redundant(("x", "y"), 1, self.FREE)

    def test_unknown_location_never_redundant(self):
        assert not decision_redundant((None, "p0"), 1, self.FREE)
        assert not decision_redundant(("p0", None), 1, self.FREE)

    def test_same_line_never_redundant(self):
        assert not decision_redundant(("p0", "p0"), 1, self.FREE)

    def test_decision_past_pool_never_redundant(self):
        assert not decision_redundant(("p0",), 3, self.FREE)


class TestExhaustedFlag:
    def test_report_starts_pessimistic(self):
        program = critical_section_program(2, 1)
        report = ExplorationReport(
            program=program, policy_name="DEF2", max_delays=2, runs=0
        )
        assert report.exhausted is False

    def test_completed_walk_sets_exhausted(self):
        program = barrier_program(2)
        report = explore_program(program, Def2Policy, max_delays=1)
        assert report.exhausted is True

    def test_truncated_walk_stays_unexhausted(self):
        program = critical_section_program(2, 1)
        report = explore_program(
            program, Def2Policy, max_delays=3, max_runs=3
        )
        assert report.exhausted is False
        assert report.runs == 3

    def test_describe_reports_pruned_decisions(self):
        program = critical_section_program(2, 1, private_writes=2)
        report = explore_program(program, Def2Policy, max_delays=2)
        assert report.pruned_decisions > 0
        assert "pruned as commuting" in report.describe()
