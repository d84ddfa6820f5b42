"""One idealized walk answers DRF0 and DRF0-R: memo-served against standalone.

``check_program`` feeds a race kernel per synchronization model from a
single walk and leaves every verdict that walk settles in the program's
memo.  A report served from there must equal the one a standalone call
computes with the memo slot evicted — on every catalog program and on
draws of the benchmark's random shapes, in both ask orders, under every
budget that matters (none, 0, 1, one short of the tree, the tree, the
contract's).
"""

import pytest

from repro import api
from repro.core import memo
from repro.drf import drf0
from repro.drf.drf0 import (
    CONTRACT_MAX_EXECUTIONS,
    RaceKernelMismatch,
    check_program,
)
from repro.drf.models import DRF0, DRF0_R
from repro.sc.interleaving import enumerate_executions

ORDERS = {"DRF0-first": (DRF0, DRF0_R), "DRF0R-first": (DRF0_R, DRF0)}


def _programs():
    programs = [test.executable_program() for test in api.standard_catalog()]
    programs += [test.executable_program() for test in api.forwarding_catalog()]
    programs += [
        api.random_racy_program(seed, num_procs=3, ops_per_proc=3)
        for seed in range(4)
    ]
    programs += [
        api.random_drf0_program(seed, num_procs=2, sections_per_proc=2)
        for seed in range(4)
    ]
    return programs


PROGRAMS = _programs()


def _key(report):
    """Everything a report says, with ops named by what they did."""
    def op(o):
        return (o.proc, o.kind, o.location, o.thread_pos, o.occurrence,
                o.value_read, o.value_written)

    witness = report.witness
    return (
        report.model.name,
        report.obeys,
        report.executions_checked,
        report.exhaustive,
        [race.describe() for race in report.races],
        None if witness is None else
        ([op(o) for o in witness.ops], witness.completed, witness.observable),
    )


def _standalone(program, model, budget):
    memo._SLOT.clear()
    try:
        return check_program(program, model, max_executions=budget)
    finally:
        memo._SLOT.clear()


@pytest.fixture
def walks(monkeypatch):
    """Count the idealized walks ``check_program`` starts."""
    count = [0]
    enumerate_ = drf0.enumerate_executions

    def counting(*args, **kwargs):
        count[0] += 1
        return enumerate_(*args, **kwargs)

    monkeypatch.setattr(drf0, "enumerate_executions", counting)
    return count


@pytest.mark.parametrize("order", sorted(ORDERS))
@pytest.mark.parametrize(
    "program", PROGRAMS, ids=[program.name for program in PROGRAMS]
)
def test_memo_served_report_equals_standalone(program, order, walks):
    tree = sum(1 for _ in enumerate_executions(program))
    budgets = sorted({0, 1, tree - 1, tree, CONTRACT_MAX_EXECUTIONS}) + [None]
    for budget in budgets:
        memo._SLOT.clear()
        walks[0] = 0
        served = [
            check_program(program, model, max_executions=budget)
            for model in ORDERS[order]
        ]
        if order == "DRF0-first":
            # A DRF0 race is a DRF0-R race no later: one walk settles both.
            assert walks[0] == 1, budget
        for model, report in zip(ORDERS[order], served):
            assert _key(report) == _key(_standalone(program, model, budget)), (
                f"{program.name}: {model.name} budget {budget} after "
                f"{ORDERS[order][0].name}"
            )


def test_every_ask_order_shares_one_walk_somewhere(walks):
    """The rider is not vacuous in either order: some program has its
    second model answered without a second walk."""
    for models in ORDERS.values():
        shared = 0
        for program in PROGRAMS:
            memo._SLOT.clear()
            walks[0] = 0
            for model in models:
                check_program(program, model)
            shared += walks[0] == 1
        assert shared > 0, [m.name for m in models]


def test_a_riders_race_is_vetted_by_find_races(monkeypatch, walks):
    """The DRF0-R verdict left by a DRF0 walk still goes through the
    oracle when it is served."""
    program = api.fig1_dekker().executable_program()
    find_races = drf0.find_races

    def blind_to_drf0_r(execution, model=DRF0, **kwargs):
        return [] if model == DRF0_R else find_races(
            execution, model=model, **kwargs
        )

    monkeypatch.setattr(drf0, "find_races", blind_to_drf0_r)
    memo._SLOT.clear()
    assert not check_program(program, DRF0).obeys
    with pytest.raises(RaceKernelMismatch, match="DRF0-R"):
        check_program(program, DRF0_R)
    assert walks[0] == 1

