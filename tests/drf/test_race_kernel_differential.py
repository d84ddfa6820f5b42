"""The prefix-incremental race kernel against the full race detector.

``check_program`` judges each idealized execution with
``_PrefixRaceChecker``, which pushes only the operations an execution
does not share with the previous one.  The oracle is
``bool(find_races(...))`` on the augmented execution.  The two must agree
on every execution of the enumeration, pruned or not, under both
synchronization models.
"""

import random

import pytest

from repro.core.program import Program, ThreadBuilder
from repro.drf.drf0 import _PrefixRaceChecker
from repro.drf.models import DRF0, DRF0_R
from repro.drf.races import find_races
from repro.litmus.catalog import forwarding_catalog, standard_catalog
from repro.sc.interleaving import enumerate_executions
from repro.workloads import (
    random_drf0_program,
    random_racy_program,
    random_spin_program,
)
from repro.workloads.locks import acquire_test_and_set, release

MODELS = (DRF0, DRF0_R)

#: Caps the unpruned enumeration of the larger programs; the verdicts
#: are compared on every execution up to it.
MAX_EXECUTIONS = 1_500


def mixed_program(seed, num_procs=2, ops_per_proc=4):
    """Lock-protected and unlocked data accesses mixed with sync loads,
    sync stores and test-and-sets on shared locations."""
    rng = random.Random(seed)
    threads = []
    for proc in range(num_procs):
        builder = ThreadBuilder(f"P{proc}")
        for k in range(ops_per_proc):
            loc = rng.choice(("x", "y", "s"))
            roll = rng.randrange(6)
            if roll == 0:
                builder.load(f"r{k}", loc)
            elif roll == 1:
                builder.store(loc, k + 1)
            elif roll == 2:
                builder.sync_load(f"r{k}", loc)
            elif roll == 3:
                builder.sync_store(loc, k + 1)
            elif roll == 4:
                builder.test_and_set(f"r{k}", loc)
            else:
                acquire_test_and_set(builder, "L")
                builder.store("v", k + 1)
                release(builder, "L")
        threads.append(builder.build())
    return Program(threads, name=f"mixed_s{seed}")


def _programs():
    # Warm variants judge the same source program: keep one of each.
    catalog = {
        test.program.name: test.program
        for test in standard_catalog() + forwarding_catalog()
    }
    yield from catalog.values()
    for seed in range(3):
        yield random_racy_program(seed, num_procs=3, ops_per_proc=3)
        yield random_drf0_program(seed, num_procs=2, sections_per_proc=2)
        yield random_drf0_program(seed, num_procs=3, sections_per_proc=1)
        yield random_spin_program(seed)
    for seed in range(6):
        yield mixed_program(seed)


PROGRAMS = list(_programs())


def _assert_agree(program, model, prune):
    kernel = _PrefixRaceChecker(model, program.num_procs)
    executions = enumerate_executions(
        program, max_executions=MAX_EXECUTIONS, prune=prune
    )
    for index, execution in enumerate(executions):
        expected = bool(
            find_races(
                execution,
                model=model,
                initial_memory=dict(program.initial_memory),
            )
        )
        assert kernel.racy(execution) == expected, (
            f"{program.name}: execution {index} under {model.name}, "
            f"prune={prune}"
        )


@pytest.mark.parametrize("prune", (True, False), ids=("pruned", "unpruned"))
@pytest.mark.parametrize("model", MODELS, ids=lambda m: m.name)
@pytest.mark.parametrize(
    "program", PROGRAMS, ids=lambda p: f"{p.name}-{p.num_procs}p"
)
def test_kernel_verdict_equals_find_races(program, model, prune):
    _assert_agree(program, model, prune)


def test_mixed_programs_cover_both_verdicts():
    """The hand-mixed family exercises racy and race-free executions."""
    verdicts = set()
    for seed in range(6):
        program = mixed_program(seed)
        kernel = _PrefixRaceChecker(DRF0, program.num_procs)
        for execution in enumerate_executions(program, prune=False):
            verdicts.add(kernel.racy(execution))
    assert verdicts == {True, False}


def test_kernel_pops_back_to_the_shared_prefix():
    """Re-judging an earlier execution after a later one gives the same
    verdict: the stack is rebuilt from the divergence point."""
    program = random_racy_program(1, num_procs=3, ops_per_proc=3)
    executions = list(enumerate_executions(program, max_executions=200))
    kernel = _PrefixRaceChecker(DRF0, program.num_procs)
    forward = [kernel.racy(execution) for execution in executions]
    backward = [kernel.racy(execution) for execution in reversed(executions)]
    assert backward == forward[::-1]
