"""Checker memos last as long as their program is the one being checked.

The model-independent derivations of a program — the axiomatic kernel's
table, coherent configurations, thread replays and rf-pick resolutions,
the idealized machine's thread states and persistent sets — and the
answers already given — each allowed set under its ppo, each DRF verdict
under its model and budget — live in one program memo
(:mod:`repro.core.memo`), shared by every check of that program until
another program is checked.  Everything else (the race
kernel's sync joins, search state, scratch buffers) still dies with its
call.  So:

* running A, then B, then A again gives A's answers twice (both DRF
  models and all seven axiomatic models, whose answers the memo also
  keeps), leaves at most one program's memo alive (B's is gone once A
  is checked again), and leaves every other module-level container of
  the checker modules as it was;
* two passes over the same programs derive the same amount, so a
  benchmark that passes over them again measures the checkers, not a
  cache;
* a kept answer reaches each caller as its own: threads asking the DRF
  models in opposite orders agree with a serial run, and mutating a
  served report changes nothing for the next caller.
"""

import gc
import sys
import threading
import weakref

import pytest

from repro import api
from repro.axiomatic import axiomatic_model_names, model_by_name
from repro.axiomatic import candidates
from repro.core import memo
from repro.drf import drf0
from repro.drf.models import DRF0, DRF0_R
from repro.litmus.catalog import (
    fig1_dekker,
    iriw,
    message_passing,
    write_to_read_causality,
)
from repro.sc import executor, independence, interleaving

MODULES = (candidates, interleaving, independence, executor, drf0, memo)
SLOT = (memo.__name__, "_SLOT")


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


def _drf(report):
    """What a DRF report says, its witness's ops named by what they did."""
    witness = None if report.witness is None else [
        (op.proc, op.kind, op.location, op.value_read, op.value_written)
        for op in report.witness.ops
    ]
    return (report.obeys, report.executions_checked, report.exhaustive,
            report.describe(), witness)


def _answers(program, drf_models=(DRF0, DRF0_R)):
    """Every answer of ``program``, the DRF models asked in the order
    given and reported in a fixed one."""
    reports = {
        model.name: api.check_drf0(program, model=model)
        for model in drf_models
    }
    drf0, drf0_r = reports[DRF0.name], reports[DRF0_R.name]
    allowed = {
        name: api.allowed_outcomes(
            program, model_by_name(name),
            drf0=drf0.obeys, drf0_r=drf0_r.obeys,
        )
        for name in axiomatic_model_names()
    }
    return api.verify_sc(program), [_drf(drf0), _drf(drf0_r)], allowed


def _live_memos():
    gc.collect()
    return [o for o in gc.get_objects() if isinstance(o, memo.ProgramMemo)]


@pytest.mark.parametrize("first,second", [
    (iriw(warm=True).program, message_passing().program),
    (write_to_read_causality().program, iriw().program),
])
def test_a_b_a_gives_a_twice_and_keeps_one_memo(first, second):
    before = _sizes()
    once = _answers(first)
    _answers(second)
    (second_memo,) = _live_memos()
    assert second_memo.program is second
    dead = weakref.ref(second_memo)
    del second_memo
    twice = _answers(first)
    assert once == twice
    assert [m.program for m in _live_memos()] == [first]
    assert dead() is None
    after = _sizes()
    assert after.pop(SLOT) == 1
    before.pop(SLOT)
    assert after == before


def _derivations(monkeypatch):
    """Count thread-state successors, thread replays and location
    configurations as the checkers derive them."""
    counts = {"successors": 0, "replays": 0, "location_configs": 0}

    def counting(owner, name, key):
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    counting(executor.IdealizedMachine, "_successor", "successors")
    counting(candidates._Replayer, "_replay", "replays")
    counting(candidates, "_location_configs", "location_configs")
    return counts


def test_every_pass_derives_the_same(monkeypatch):
    a, b = iriw(warm=True).program, write_to_read_causality().program
    counts = _derivations(monkeypatch)
    _answers(b)  # whatever the slot held before, A now starts afresh
    passes = []
    for _ in range(2):
        for key in counts:
            counts[key] = 0
        answers = [_answers(a), _answers(b)]
        passes.append((dict(counts), answers))
    assert passes[0] == passes[1]
    assert all(passes[0][0].values())


@pytest.fixture
def frequent_switches():
    """Switch threads far more often than the interpreter's default."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        yield
    finally:
        sys.setswitchinterval(interval)


#: Which program worker ``w`` checks on its ``turn``: every worker in
#: the same order (they share one memo at a time), or workers in turn
#: opposite (each replaces the memo the others are using).
ORDERS = {
    "shared": lambda worker, turn: turn % 2,
    "replaced": lambda worker, turn: (worker + turn) % 2,
}


@pytest.mark.parametrize("order", sorted(ORDERS))
def test_threads_checking_interleaved_programs_match_a_serial_run(
    order, frequent_switches,
):
    """Library callers may run checks on threads: four threads checking
    two programs in turn, asking the two DRF models in opposite orders,
    get exactly the answers of a serial run."""
    programs = [fig1_dekker().program, iriw().program]
    serial = [_answers(p) for p in programs]
    pick = ORDERS[order]
    start = threading.Barrier(4, timeout=60)
    found = {}

    def work(worker):
        # Odd workers ask DRF0-R before DRF0: each order leaves a
        # different set of verdicts in the memo for the others.
        drf_models = (DRF0, DRF0_R)[:: 1 if worker % 2 == 0 else -1]
        start.wait()
        found[worker] = [
            _answers(programs[pick(worker, turn)], drf_models)
            for turn in range(4)
        ]

    threads = [threading.Thread(target=work, args=(w,)) for w in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
        assert not thread.is_alive()
    for worker in range(4):
        assert found[worker] == [
            serial[pick(worker, turn)] for turn in range(4)
        ]


def test_a_memoised_drf_report_is_each_callers_own():
    """A DRF verdict kept in the memo is served as a fresh report, so
    one caller mutating its report cannot change another's answer."""
    program = fig1_dekker().program
    api.check_drf0(program)  # the walk leaves both models' verdicts
    reports = [api.check_drf0(program, model=DRF0_R) for _ in range(2)]
    expected = _drf(reports[1])
    mutated = reports[0]
    assert mutated is not reports[1]
    assert mutated.witness is not reports[1].witness
    mutated.races.clear()
    mutated.witness.ops.clear()
    mutated.witness.completed = False
    mutated.obeys = True
    assert _drf(api.check_drf0(program, model=DRF0_R)) == expected
