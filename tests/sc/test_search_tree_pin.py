"""The SC searches' trees, pinned by their SearchStats.

The outcome sets and DRF verdicts are pinned elsewhere; this suite pins
the *shape* of the search that produced them.  A change to
:meth:`IdealizedMachine.state_key` that merged two distinct states (or
split one) could leave every outcome intact while silently changing how
many states the searches expand, so the counts below are fixed: the
standard catalog (as the ``check`` benchmark runs it, warm-up loads
included) and that benchmark's seeded random programs at seeds 1 and 2.
``enumerate_executions`` is cut at :data:`MAX_EXECUTIONS`.
"""

import pytest

from repro import api
from repro.sc.independence import SearchStats
from repro.sc.interleaving import enumerate_executions, enumerate_results

MAX_EXECUTIONS = 400

FIELDS = ("states", "transitions", "terminals", "pruned_transitions",
          "sleep_skips")

#: Program -> (enumerate_results stats, enumerate_executions stats), each
#: in FIELDS order.
PINNED = {
    "coherence_corr": ((9, 8, 3, 0, 0), (9, 8, 3, 0, 0)),
    "coherence_corr_warm": ((15, 14, 4, 1, 0), (15, 14, 4, 1, 0)),
    "coherence_coww": ((3, 2, 1, 0, 0), (3, 2, 1, 0, 0)),
    "critical_section": ((25, 30, 2, 0, 6), (59, 70, 8, 0, 0)),
    "fig1_dekker": ((12, 11, 3, 1, 1), (15, 14, 4, 2, 0)),
    "fig1_dekker_fenced": ((12, 11, 3, 1, 1), (15, 14, 4, 2, 0)),
    "fig1_dekker_fenced_warm": ((35, 34, 7, 9, 2), (53, 52, 12, 12, 0)),
    "fig1_dekker_sync": ((12, 11, 3, 1, 1), (15, 14, 4, 2, 0)),
    "fig1_dekker_sync_warm": ((35, 34, 7, 9, 2), (53, 52, 12, 12, 0)),
    "fig1_dekker_warm": ((35, 34, 7, 9, 2), (53, 52, 12, 12, 0)),
    "iriw": ((61, 60, 15, 24, 9), (107, 106, 30, 42, 0)),
    "iriw_warm": ((947, 946, 171, 381, 170), (1578, 1577, 400, 574, 0)),
    "litmus_s": ((12, 11, 3, 1, 1), (15, 14, 4, 2, 0)),
    "load_buffering": ((12, 11, 3, 1, 1), (15, 14, 4, 2, 0)),
    "message_passing": ((12, 11, 3, 1, 1), (15, 14, 4, 2, 0)),
    "message_passing_sync": ((8, 10, 1, 0, 1), (14, 16, 3, 0, 0)),
    "message_passing_warm": ((30, 29, 6, 5, 2), (41, 40, 9, 8, 0)),
    "mp_release_overlapping_reads": ((12, 11, 3, 1, 1), (15, 14, 4, 2, 0)),
    "store_forward_chain": ((14, 13, 3, 2, 1), (18, 17, 4, 4, 0)),
    "store_forward_coherence": ((12, 11, 3, 1, 0), (12, 11, 3, 1, 0)),
    "store_forward_dekker": ((17, 16, 3, 3, 1), (21, 20, 4, 5, 0)),
    "two_plus_two_w": ((12, 11, 3, 1, 1), (15, 14, 4, 2, 0)),
    "two_plus_two_w_warm": ((52, 51, 10, 5, 7), (190, 189, 45, 25, 0)),
    "wrc": ((22, 22, 5, 6, 3), (40, 39, 11, 11, 0)),
    "wrc_warm": ((109, 116, 17, 35, 18), (570, 569, 142, 168, 0)),
    "racy_s300035": ((74, 73, 18, 35, 0), (74, 73, 18, 35, 0)),
    "racy_s400057": ((175, 174, 32, 80, 12), (465, 464, 91, 177, 0)),
    "racy_s500048": ((151, 158, 26, 53, 19), (708, 707, 165, 233, 0)),
    "racy_s600013": ((253, 252, 56, 33, 43), (1463, 1462, 400, 290, 0)),
    "racy_s700016": ((160, 159, 36, 118, 5), (226, 225, 52, 167, 0)),
    "racy_s800016": ((110, 135, 11, 37, 18), (530, 529, 126, 143, 0)),
    "drf0_s300000": ((106, 136, 4, 19, 11), (737, 829, 82, 105, 0)),
    "drf0_s400003": ((102, 133, 5, 16, 11), (696, 808, 82, 52, 0)),
    "drf0_s500017": ((100, 130, 4, 7, 23), (1143, 1384, 137, 32, 0)),
    "drf0_s600003": ((88, 116, 4, 6, 18), (1354, 1605, 157, 109, 0)),
    "drf0_s700000": ((88, 118, 4, 4, 18), (1325, 1582, 158, 64, 0)),
    "drf0_s800004": ((105, 141, 5, 3, 22), (1157, 1418, 138, 12, 0)),
}

#: Draw seeds of the ``check`` benchmark's random programs (seeds 1, 2).
RACY_SEEDS = (300035, 400057, 500048, 600013, 700016, 800016)
DRF0_SEEDS = (300000, 400003, 500017, 600003, 700000, 800004)


def _programs():
    programs = {
        name: test.executable_program()
        for name, test in api.catalog_by_name().items()
    }
    for seed in RACY_SEEDS:
        program = api.random_racy_program(seed, num_procs=3, ops_per_proc=3)
        programs[program.name] = program
    for seed in DRF0_SEEDS:
        program = api.random_drf0_program(
            seed, num_procs=2, sections_per_proc=2
        )
        programs[program.name] = program
    return programs


PROGRAMS = _programs()


def _counts(stats: SearchStats):
    return tuple(getattr(stats, field) for field in FIELDS)


def test_every_pinned_program_exists():
    assert set(PROGRAMS) == set(PINNED)


@pytest.mark.parametrize("name", sorted(PINNED))
def test_search_trees_are_pinned(name):
    program = PROGRAMS[name]
    results = SearchStats()
    enumerate_results(program, stats=results)
    executions = SearchStats()
    for _ in enumerate_executions(
        program, max_executions=MAX_EXECUTIONS, stats=executions
    ):
        pass
    assert (_counts(results), _counts(executions)) == PINNED[name]
