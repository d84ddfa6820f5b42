"""Allowed sets are kept in the program memo, keyed by their ppo.

A model enters the allowed-set kernel only through its preserved program
order, so two models with the same ppo over one program allow the same
set, and the second call is answered from the memo.  The budget check
comes before that lookup, so a memoised set never hides a budget a later
caller asks for.
"""

import pytest

from repro.axiomatic import (
    CandidateBudgetExceeded,
    is_straightline,
    model_by_name,
)
from repro.axiomatic import candidates
from repro.axiomatic.crosscheck import allowed_outcomes
from repro.core import memo
from repro.litmus.catalog import forwarding_catalog, standard_catalog

PROGRAMS = [
    program
    for program in (
        test.executable_program()
        for test in standard_catalog() + forwarding_catalog()
    )
    if is_straightline(program)
]
CONDITIONAL = {"WO-DRF0": "drf0", "WO-DRF0R": "drf0_r"}


@pytest.mark.parametrize("name", sorted(CONDITIONAL))
@pytest.mark.parametrize(
    "program", PROGRAMS, ids=[program.name for program in PROGRAMS]
)
def test_conditional_model_returns_the_very_set_of_its_ppo(program, name):
    memo._SLOT.clear()
    sc = allowed_outcomes(program, model_by_name("SC"))
    relaxed = allowed_outcomes(program, model_by_name("RELAXED"))
    model = model_by_name(name)
    flag = CONDITIONAL[name]
    assert allowed_outcomes(program, model, **{flag: True}) is sc
    assert allowed_outcomes(program, model, **{flag: False}) is relaxed


def test_a_model_with_the_ppo_of_another_is_not_recomputed(monkeypatch):
    program = PROGRAMS[0]
    memo._SLOT.clear()
    calls = []
    compute = candidates._allowed

    def counting(*args):
        calls.append(args)
        return compute(*args)

    monkeypatch.setattr(candidates, "_allowed", counting)
    sc = allowed_outcomes(program, model_by_name("SC"))
    assert allowed_outcomes(program, model_by_name("WO-DRF0"), drf0=True) is sc
    assert len(calls) == 1


def test_a_smaller_budget_still_raises_after_a_larger_one_filled_the_memo():
    program = next(p for p in PROGRAMS if p.name.startswith("iriw"))
    memo._SLOT.clear()
    size = memo.program_memo(program).fact(
        "axiomatic", candidates._Derived
    ).table.space_size()
    sc = model_by_name("SC")
    allowed = allowed_outcomes(program, sc, max_candidates=size)
    with pytest.raises(CandidateBudgetExceeded):
        allowed_outcomes(program, sc, max_candidates=size - 1)
    assert allowed_outcomes(program, sc, max_candidates=size) is allowed
