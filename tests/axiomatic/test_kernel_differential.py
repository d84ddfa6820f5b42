"""The allowed-set kernel against the raw enumerator and the axioms.

``allowed_outcomes`` runs a compiled kernel that prunes what
``sc-per-location`` rejects under every model.  The oracle is the
per-execution API: every raw candidate ``enumerate_candidates`` yields,
kept when ``AxiomaticModel.allows`` accepts it.  The two must agree on
every model and every DRF flag, exceptions included (compared by type),
both when the kernel computes a set and when the program memo serves it
(a set is kept under the ppo it was computed with, so models with the
same ppo share it).
"""

import random

import pytest

from repro.axiomatic import (
    axiomatic_model_names,
    enumerate_candidates,
    model_by_name,
)
from repro.axiomatic.crosscheck import allowed_outcomes
from repro.core import memo
from repro.core.instructions import MemInstruction
from repro.core.operation import OpKind
from repro.core.program import Program, ThreadBuilder
from repro.litmus.catalog import forwarding_catalog, standard_catalog
from repro.litmus.runner import LitmusRunner
from repro.workloads import random_racy_program

MODELS = tuple(model_by_name(name) for name in axiomatic_model_names())
FLAGS = (None, True, False)


def _oracle(program, flag):
    """Model name -> allowed observables (or the exception type)."""
    allowed = {model.name: set() for model in MODELS}
    try:
        for candidate in enumerate_candidates(
            program, drf0=flag, drf0_r=flag
        ):
            for model in MODELS:
                if model.allows(candidate.relations):
                    allowed[model.name].add(candidate.observable)
    except Exception as exc:
        return {model.name: type(exc) for model in MODELS}
    return {name: frozenset(found) for name, found in allowed.items()}


def _kernel(program, model, flag):
    try:
        return allowed_outcomes(program, model, drf0=flag, drf0_r=flag)
    except Exception as exc:
        return type(exc)


def _assert_agree(program):
    """Fresh answers, then memo-served ones: the slot starts empty, every
    model in one order either computes the set of its ppo or reads it
    from the program memo, and a second pass in the reverse order reads
    every answer from there."""
    expected = {flag: _oracle(program, flag) for flag in FLAGS}
    memo._SLOT.clear()
    for models in (MODELS, MODELS[::-1]):
        for flag in FLAGS:
            for model in models:
                assert (
                    _kernel(program, model, flag) == expected[flag][model.name]
                ), f"{program.name}: {model.name} with drf flags {flag}"


def rmw_program(seed, num_procs=2, ops_per_proc=3):
    """A straight-line program over RMWs, sync ops, fences and
    register-valued stores."""
    rng = random.Random(seed)
    threads = []
    for proc in range(num_procs):
        builder = ThreadBuilder(f"P{proc}")
        for k in range(ops_per_proc):
            loc = rng.choice(("x", "y"))
            dest = f"r{k}"
            src = rng.choice((rng.randint(1, 3), f"r{k - 1}" if k else 1))
            roll = rng.randrange(9)
            if roll == 0:
                builder.load(dest, loc)
            elif roll == 1:
                builder.store(loc, src)
            elif roll == 2:
                builder.sync_load(dest, loc)
            elif roll == 3:
                builder.sync_store(loc, src)
            elif roll == 4:
                builder.test_and_set(dest, loc)
            elif roll == 5:
                builder.swap(dest, loc, src)
            elif roll == 6:
                builder.fetch_and_add(dest, loc, rng.randint(1, 2))
            elif roll == 7:
                builder.fence()
            else:
                builder.add(dest, src, 1)
        threads.append(builder.build())
    return Program(threads, name=f"rmw_s{seed}")


_RUNNER = LitmusRunner()
_CATALOG = standard_catalog() + forwarding_catalog()


@pytest.mark.parametrize(
    "test", _CATALOG, ids=[test.name for test in _CATALOG]
)
def test_catalog(test):
    _assert_agree(_RUNNER.executable(test))


@pytest.mark.parametrize("shape", [(2, 3), (2, 4), (3, 2), (3, 3)],
                         ids=lambda shape: "%dx%d" % shape)
@pytest.mark.parametrize("seed", range(4))
def test_random_racy(shape, seed):
    num_procs, ops_per_proc = shape
    _assert_agree(random_racy_program(
        seed, num_procs=num_procs, ops_per_proc=ops_per_proc
    ))


@pytest.mark.parametrize("shape", [(2, 3), (3, 2)],
                         ids=lambda shape: "%dx%d" % shape)
@pytest.mark.parametrize("seed", range(12))
def test_rmw_and_sync(shape, seed):
    num_procs, ops_per_proc = shape
    _assert_agree(rmw_program(
        seed, num_procs=num_procs, ops_per_proc=ops_per_proc
    ))


def test_rmw_inputs_exercise_atomicity():
    """Several RMW seeds have both threads RMW the same location."""

    def rmw_locations(thread):
        return {
            instr.location for instr in thread.instructions
            if isinstance(instr, MemInstruction)
            and instr.kind is OpKind.SYNC_RMW
        }

    contended = sum(
        bool(rmw_locations(program.threads[0])
             & rmw_locations(program.threads[1]))
        for program in map(rmw_program, range(12))
    )
    assert contended >= 2
