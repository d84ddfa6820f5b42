"""Relation derivation: po/rf/co/fr over candidates and executions."""

import pytest

from repro.axiomatic import (
    ThinAirError,
    enumerate_candidates,
    find_cycle,
    model_by_name,
    reads_from,
    relations_from_execution,
)
from repro.core.execution import Execution
from repro.core.operation import MemoryOp, OpKind
from repro.litmus.catalog import fig1_dekker, message_passing, standard_catalog
from repro.litmus.runner import LitmusRunner
from repro.memsys.config import BUS_CACHE_SNOOP, FIGURE1_CONFIGS, NET_CACHE_VC
from repro.memsys.system import run_program
from repro.models import policy_by_name, policy_names
from repro.sc.interleaving import enumerate_executions


class TestFindCycle:
    def test_empty_and_chain(self):
        assert find_cycle({}) is None
        assert find_cycle({"po": [(1, 2), (2, 3), (1, 3)]}) is None

    def test_self_loop_and_cycle(self):
        assert find_cycle({"po": [(1, 1)]}) == [(1, 1, "po")]
        assert find_cycle({"po": [(1, 2), (2, 3), (3, 1)]}) == [
            (1, 2, "po"), (2, 3, "po"), (3, 1, "po"),
        ]

    def test_disconnected_cycle_is_found(self):
        cycle = find_cycle({"po": [(1, 2), (10, 11), (11, 10)]})
        assert sorted(cycle) == [(10, 11, "po"), (11, 10, "po")]

    def test_path_leading_into_a_cycle_is_not_part_of_it(self):
        cycle = find_cycle({"po": [(0, 1), (1, 2), (2, 3), (3, 1)]})
        assert cycle == [(1, 2, "po"), (2, 3, "po"), (3, 1, "po")]

    def test_cycle_spans_relations_and_closes(self):
        cycle = find_cycle({"po": [(1, 2), (3, 4)], "fr": [(2, 3), (4, 1)]})
        assert [label for _, _, label in cycle] in (
            ["po", "fr", "po", "fr"], ["fr", "po", "fr", "po"],
        )
        for (_, dst, _), (src, _, _) in zip(cycle, cycle[1:] + cycle[:1]):
            assert dst == src

    def test_shared_edge_takes_first_label(self):
        assert find_cycle({"po": [(1, 2)], "co": [(1, 2), (2, 1)]}) == [
            (1, 2, "po"), (2, 1, "co"),
        ]


@pytest.fixture(scope="module")
def dekker_candidates():
    program = LitmusRunner().executable(fig1_dekker())
    return list(enumerate_candidates(program))


class TestCandidateRelations:
    def test_reads_and_writes_partition_ops(self, dekker_candidates):
        for candidate in dekker_candidates:
            rel = candidate.relations
            assert set(rel.reads()) | set(rel.writes()) <= set(rel.ops)
            assert not set(rel.reads()) & set(rel.writes())

    def test_po_is_intra_thread_and_acyclic(self, dekker_candidates):
        rel = dekker_candidates[0].relations
        assert rel.po
        for a, b in rel.po:
            assert a.proc == b.proc
            assert a.issue_index < b.issue_index
        assert find_cycle({"po": rel.po}) is None

    def test_rf_sources_write_the_read_location(self, dekker_candidates):
        for candidate in dekker_candidates:
            # rf edges point write -> read.
            for write, read in candidate.relations.rf_edges():
                assert write.writes_memory
                assert read.reads_memory
                assert write.location == read.location

    def test_co_is_a_per_location_total_order(self, dekker_candidates):
        rel = dekker_candidates[0].relations
        writes = [op for op in rel.writes()]
        by_loc = {}
        for w in writes:
            by_loc.setdefault(w.location, []).append(w)
        co = rel.co_edges()
        for loc, ws in by_loc.items():
            # n writes to a location -> n*(n-1)/2 ordered pairs.
            pairs = [(a, b) for a, b in co if a.location == loc]
            assert len(pairs) == len(ws) * (len(ws) - 1) // 2
        assert find_cycle({"co": co}) is None

    def test_fr_follows_rf_through_co(self, dekker_candidates):
        for candidate in dekker_candidates:
            rel = candidate.relations
            rf = {read: write for write, read in rel.rf_edges()}
            for read, write in rel.fr_edges():
                assert write.writes_memory
                assert write.location == read.location
                source = rf.get(read)
                assert source is not write
                if source is not None:
                    assert (source, write) in set(rel.co_edges())


class TestRelationsFromExecution:
    """Every idealized SC execution must satisfy the SC axioms."""

    def test_sc_executions_pass_sc_axioms(self):
        test = message_passing()
        program = LitmusRunner().executable(test)
        sc = model_by_name("SC")
        checked = 0
        for execution in enumerate_executions(program):
            rel = relations_from_execution(
                execution, program.initial_memory, program=program
            )
            assert sc.violated_axiom(rel) is None, (
                f"SC execution flagged by {sc.name} axioms"
            )
            checked += 1
            if checked >= 200:
                break
        assert checked > 0


def op(kind, loc, proc, read=None, written=None, commit=None):
    o = MemoryOp(
        proc=proc, kind=kind, location=loc,
        value_read=read, value_written=written,
    )
    o.commit_time = commit
    return o


class TestReadsFrom:
    def test_commit_order_wins_over_a_same_time_write_of_that_value(self):
        """P0's read and its own write of the same value commit together;
        the read sources the earlier-committed write, not P0's own."""
        remote = op(OpKind.WRITE, "x", 1, written=1, commit=1)
        read = op(OpKind.READ, "x", 0, read=1, commit=5)
        own = op(OpKind.WRITE, "x", 0, written=1, commit=5)
        assert reads_from(Execution(ops=[remote, read, own]), {}) == {
            read: remote
        }

    def test_value_fallback_and_initial_value(self):
        """A read committed out of trace order takes the latest earlier
        write of its value; a read of the initial value has no source."""
        w1 = op(OpKind.WRITE, "x", 0, written=1, commit=1)
        w2 = op(OpKind.WRITE, "x", 0, written=2, commit=2)
        stale = op(OpKind.READ, "x", 1, read=1, commit=3)
        initial = op(OpKind.READ, "x", 1, read=7, commit=4)
        rf = reads_from(Execution(ops=[w1, w2, stale, initial]), {"x": 7})
        assert rf == {stale: w1, initial: None}

    def test_thin_air_reads_raise_with_the_reads(self):
        ghost = op(OpKind.READ, "x", 0, read=9, commit=1)
        with pytest.raises(ThinAirError) as error:
            reads_from(Execution(ops=[ghost]), {})
        assert error.value.reads == [ghost]

    def test_hardware_rf_sources_wrote_the_value_read(self):
        """Over the catalog on every machine and policy, each read's
        source stored the value it returned, or the read returned the
        initial value and has no source.  (Trace order alone bound, e.g.,
        fig1_dekker's R(P1,x=>0) to W(P0,x<=1) under TSO on net_cache,
        seed 1.)"""
        configs = FIGURE1_CONFIGS + (BUS_CACHE_SNOOP, NET_CACHE_VC)
        checked = 0
        for test in standard_catalog():
            program = test.executable_program()
            initial = dict(program.initial_memory)
            for config in configs:
                for name in policy_names():
                    policy = policy_by_name(name)
                    if policy.requires_cache and not config.has_caches:
                        continue
                    for seed in range(2):
                        run = run_program(program, policy, config, seed=seed)
                        rel = relations_from_execution(run.execution, initial)
                        for read, source in rel.rf.items():
                            if source is None:
                                assert read.value_read == initial.get(
                                    read.location, 0
                                )
                            else:
                                assert source.value_written == read.value_read
                            checked += 1
        assert checked > 5_000
