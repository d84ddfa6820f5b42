"""Checker memos last one call.

The axiomatic kernel memoises thread replays, the SC and DRF walks
memoise persistent sets and thread-state successors, and the race kernel
keeps running sync joins.  All of it must die with the call that built
it: a memo keyed on a program that outlived its call would serve a
later call stale answers (and would make repeated benchmark passes over
the same programs measure a cache).  Running A, then B, then A again
must give A's answers twice and leave every module-level container of
the checker modules as it was.
"""

import pytest

from repro import api
from repro.axiomatic import axiomatic_model_names, model_by_name
from repro.axiomatic import candidates
from repro.drf import drf0
from repro.drf.models import DRF0, DRF0_R
from repro.litmus.catalog import iriw, message_passing, write_to_read_causality
from repro.sc import executor, independence, interleaving

MODULES = (candidates, interleaving, independence, executor, drf0)


def _sizes():
    """(module, name) -> size of every module-level container."""
    sizes = {}
    for module in MODULES:
        for name, value in vars(module).items():
            if isinstance(value, (dict, list, set)):
                sizes[module.__name__, name] = len(value)
            info = getattr(value, "cache_info", None)
            if callable(info):
                sizes[module.__name__, name] = info().currsize
    return sizes


def _answers(program):
    reports = [api.check_drf0(program, model=model) for model in (DRF0, DRF0_R)]
    allowed = {
        name: api.allowed_outcomes(
            program, model_by_name(name),
            drf0=reports[0].obeys, drf0_r=reports[1].obeys,
        )
        for name in axiomatic_model_names()
    }
    drf = [(r.obeys, r.executions_checked, r.describe()) for r in reports]
    return api.verify_sc(program), drf, allowed


@pytest.mark.parametrize("first,second", [
    (iriw(warm=True).program, message_passing().program),
    (write_to_read_causality().program, iriw().program),
])
def test_a_b_a_gives_a_twice_and_leaves_no_memo(first, second):
    before = _sizes()
    once = _answers(first)
    _answers(second)
    twice = _answers(first)
    assert once == twice
    assert _sizes() == before
