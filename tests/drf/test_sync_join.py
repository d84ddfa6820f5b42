"""The race kernel's per-kind sync joins.

``_PrefixRaceChecker`` keeps, per location and sync kind, one running
join of sync clocks instead of re-joining every earlier sync.  That is
exact only because a model's sync-edge rule reads nothing but the two
ops' kinds; these tests hold both the contract and the kernel to it.
"""

import itertools

import pytest

from repro.core.operation import MemoryOp, OpKind
from repro.core.program import Program, ThreadBuilder
from repro.drf.drf0 import _PrefixRaceChecker, check_program
from repro.drf.models import DRF0, DRF0_R
from repro.drf.races import find_races
from repro.sc.interleaving import enumerate_executions
from repro.workloads.locks import (
    acquire_test_and_set,
    acquire_test_test_and_set,
    release,
)

MODELS = (DRF0, DRF0_R)

#: Caps each unpruned enumeration; every execution up to it is judged.
MAX_EXECUTIONS = 1_500


def _variants(kind):
    """Fresh ops of one kind that differ in everything but the kind."""
    return [
        MemoryOp(proc=0, kind=kind, location="s"),
        MemoryOp(proc=1, kind=kind, location="s", thread_pos=3,
                 occurrence=2, value_read=1, value_written=0),
        MemoryOp(proc=2, kind=kind, location="t", thread_pos=7,
                 issue_index=5, commit_time=9, value_read=0,
                 value_written=1),
    ]


@pytest.mark.parametrize("model", MODELS, ids=lambda m: m.name)
@pytest.mark.parametrize(
    "earlier,later",
    list(itertools.product(OpKind, repeat=2)),
    ids=lambda kind: kind.value,
)
def test_sync_edge_rule_reads_only_the_kinds(model, earlier, later):
    answers = {
        model.sync_edge_rule(a, b)
        for a in _variants(earlier)
        for b in _variants(later)
    }
    assert len(answers) == 1, (model.name, earlier, later)


def _lock_holder(name, lock, acquire, body):
    builder = ThreadBuilder(name)
    acquire(builder, lock)
    body(builder)
    release(builder, lock)
    return builder


def _mixed_lock_programs():
    """Spin locks whose lock sees sync reads, sync writes and RMWs."""
    # Test-and-set locks released by sync stores: every lock access
    # writes, so DRF0-R orders the handoffs and exempts the rest.
    p0 = _lock_holder("P0", "L", acquire_test_and_set,
                      lambda b: b.store("v", 1))
    p1 = _lock_holder("P1", "L", acquire_test_and_set,
                      lambda b: b.load("r", "v"))
    yield Program([p0.build(), p1.build()], name="tas_locks")

    # Test-test-and-set against test-and-set: the Test is a read-only
    # sync that conflicts with writing syncs, a race under DRF0-R only.
    p0 = _lock_holder("P0", "L", acquire_test_test_and_set,
                      lambda b: b.store("v", 1))
    yield Program([p0.build(), p1.build()], name="ttas_vs_tas")

    # A third thread peeks at the lock, then reads the data unprotected.
    peek = ThreadBuilder("P2").sync_load("r", "L").load("r2", "v")
    yield Program([p0.build(), p1.build(), peek.build()], name="peek")

    # Flags set and read by all three sync kinds, data beside them.
    p0 = ThreadBuilder("P0").sync_store("L", 1).store("v", 2)
    p1 = ThreadBuilder("P1").test_and_set("r", "L").load("r2", "v")
    p2 = ThreadBuilder("P2").sync_load("r", "L").sync_store("L", 0)
    yield Program([p0.build(), p1.build(), p2.build()], name="flags")

    # Release by sync store, handoff read by sync load, then an RMW.
    p0 = ThreadBuilder("P0").store("v", 1).sync_store("L", 1)
    p1 = ThreadBuilder("P1").label("spin").sync_load("r", "L")
    p1.bne("r", 1, "spin").test_and_set("t", "L").load("r2", "v")
    yield Program([p0.build(), p1.build()], name="handoff")


PROGRAMS = list(_mixed_lock_programs())


@pytest.mark.parametrize("prune", (True, False), ids=("pruned", "unpruned"))
@pytest.mark.parametrize("model", MODELS, ids=lambda m: m.name)
@pytest.mark.parametrize("program", PROGRAMS, ids=lambda p: p.name)
def test_kernel_equals_find_races(program, model, prune):
    kernel = _PrefixRaceChecker(model, program.num_procs)
    first_racy = None
    executions = enumerate_executions(
        program, max_executions=MAX_EXECUTIONS, prune=prune
    )
    for index, execution in enumerate(executions):
        expected = bool(find_races(
            execution, model=model,
            initial_memory=dict(program.initial_memory),
        ))
        assert kernel.racy(execution) == expected, (
            f"{program.name}: execution {index} under {model.name}"
        )
        if expected and first_racy is None:
            first_racy = index + 1
    if prune:
        report = check_program(program, model=model)
        assert report.obeys == (first_racy is None)
        if first_racy is not None:
            assert report.executions_checked == first_racy


def test_the_mixed_locks_split_the_models():
    """The family is not vacuous: some program obeys both models, some
    only DRF0, and some neither."""
    verdicts = {
        program.name: (check_program(program, model=DRF0).obeys,
                       check_program(program, model=DRF0_R).obeys)
        for program in PROGRAMS
    }
    assert set(verdicts.values()) == {
        (True, True), (True, False), (False, False)
    }
