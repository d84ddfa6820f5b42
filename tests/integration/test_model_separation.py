"""The DRF0 / DRF0-R separation, exhibited by real hardware.

Definition 2 is parametric in the synchronization model, and the
parameter has teeth: the all-synchronization Dekker obeys DRF0 but not
DRF0-R (a read-only sync conflicting with a writing sync, read first,
has no writer-to-reader edge).  On the invalidation-virtual-channel
network, DEF2 (contracted to DRF0) must keep it sequentially consistent
— and does, by serializing sync reads through exclusive ownership —
while DEF2-R (contracted to DRF0-R only) visibly violates it: the
read-only sync hits a stale shared copy whose invalidation is still in
flight.  Same program, same machine, different contracts, both honoured.
"""

import pytest

from repro.drf.drf0 import check_program
from repro.drf.models import DRF0, DRF0_R
from repro.litmus.catalog import fig1_dekker_all_sync
from repro.memsys.config import NET_CACHE_VC
from repro.memsys.system import run_program
from repro.models.policies import Def2Policy, Def2RPolicy
from repro.sc.verifier import SCVerifier
from repro.sim.rng import seed_stream


@pytest.fixture(scope="module")
def verifier():
    return SCVerifier()


class TestTheSeparatingProgram:
    def test_obeys_drf0_but_not_drf0r(self):
        program = fig1_dekker_all_sync().program
        assert check_program(program, model=DRF0).obeys
        assert not check_program(program, model=DRF0_R).obeys

    def test_lock_discipline_obeys_both(self):
        from repro.workloads.locks import critical_section_program

        program = critical_section_program(2, 1)
        assert check_program(program, model=DRF0).obeys
        assert check_program(program, model=DRF0_R).obeys

    def test_read_only_sync_spin_fails_drf0r(self):
        """The conservative edge of the formalization: a Test spin's
        failed reads conflict with the release unordered, so read-only
        sync spinning is outside DRF0-R (use TestAndSet to conform)."""
        from repro.litmus.catalog import message_passing_sync

        assert not check_program(
            message_passing_sync().program, model=DRF0_R
        ).obeys


class TestHardwareSeparation:
    def _campaign(self, policy_factory, verifier, runs=150):
        test = fig1_dekker_all_sync(warm=True)
        program = test.executable_program()
        sc_set = verifier.sc_result_set(program)
        violations = 0
        for seed in seed_stream(2024, runs):
            run = run_program(program, policy_factory(), NET_CACHE_VC, seed=seed)
            assert run.completed
            if run.observable not in sc_set:
                violations += 1
        return violations

    def test_def2_keeps_the_drf0_contract(self, verifier):
        assert self._campaign(Def2Policy, verifier) == 0

    def test_def2r_exercises_its_weaker_contract(self, verifier):
        """DEF2-R violates SC for the DRF0-but-not-DRF0-R program — which
        its contract permits.  (This is the observable cost of the
        Section 6 optimization, the flip side of its spin speedups.)"""
        assert self._campaign(Def2RPolicy, verifier) > 0

    def test_def2r_clean_for_drf0r_programs(self, verifier):
        from repro.workloads.random_programs import random_drf0_program

        for program_seed in range(5):
            program = random_drf0_program(program_seed)
            assert check_program(program, model=DRF0_R).obeys
            sc_set = verifier.sc_result_set(program)
            for seed in range(4):
                run = run_program(
                    program, Def2RPolicy(), NET_CACHE_VC, seed=seed
                )
                assert run.completed
                assert run.observable in sc_set
