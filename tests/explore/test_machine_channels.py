"""The explorer's transport takes its channel rules from the machine.

``NET_CACHE_VC`` puts invalidations on their own virtual network, the
unrestricted-interconnect setting where condition 5's reserve bit is
load-bearing.  A scheduled run reads that from the config, so exploring
``net_cache_vc`` walks a different schedule tree from ``net_cache``, and
a spec's identity says which tree its schedule indexes.
"""

import pytest

from repro import api
from repro.campaign import PolicySpec, RunSpec
from repro.explore.oracle import ScheduledInterconnect
from repro.faults import FaultPlan
from repro.litmus.catalog import fig1_dekker, message_passing
from repro.memsys import ConfigurationError
from repro.memsys.config import NET_CACHE, NET_CACHE_VC
from repro.models.policies import Def2Policy


class TestExploreHonoursTheInvalidationChannel:
    @pytest.mark.parametrize("policy", ["RELAXED", "DEF2"])
    def test_net_cache_vc_walks_its_own_tree(self, policy):
        program = message_passing().executable_program()
        plain = api.explore(program, policy, machine="net_cache")
        split = api.explore(program, policy, machine="net_cache_vc")
        assert plain.exhausted and split.exhausted
        # Invalidations racing grants add schedules the shared channel
        # never offers.
        assert (plain.runs, split.runs) == (30, 32)
        assert split.incomplete_runs == 0

    @pytest.mark.parametrize(
        "config, split", [(NET_CACHE, False), (NET_CACHE_VC, True)]
    )
    def test_scheduled_transport_reads_the_config(self, config, split):
        spec = RunSpec(
            program=message_passing().program,
            policy=PolicySpec.of(Def2Policy),
            config=config,
            seed=0,
            schedule=(),
        )
        interconnect = spec.build_system().interconnect
        assert isinstance(interconnect, ScheduledInterconnect)
        assert interconnect.inval_virtual_channel is split


class TestIncompatiblePairs:
    def test_explore_raises_what_run_raises(self):
        # Not a one-schedule "exhaustive" report with no outcome.
        program = message_passing().program
        with pytest.raises(ConfigurationError) as ran:
            api.run(program, "DEF2", machine="net_nocache")
        with pytest.raises(ConfigurationError) as explored:
            api.explore(program, "DEF2", machine="net_nocache")
        assert str(explored.value) == str(ran.value)
        assert "requires caches" in str(explored.value)

    def test_faults_cannot_ride_a_schedule(self):
        spec = RunSpec(
            program=message_passing().program,
            policy=PolicySpec.of(Def2Policy),
            config=NET_CACHE,
            seed=0,
            schedule=(1, 0),
            faults=FaultPlan(delay_jitter=3),
        )
        with pytest.raises(ValueError, match="custom interconnect"):
            spec.execute()


class TestScheduledIdentity:
    """A scheduled ``net_cache_vc`` spec keeps the digest it had when
    the channel was a spec field set to true; every other spec keeps
    the one it had with the field left false."""

    PROGRAM = fig1_dekker(warm=True).executable_program()

    @pytest.mark.parametrize(
        "config, schedule, expected",
        [
            (NET_CACHE_VC, None,
             "ff66291a5a00cbb89855ba022288695a11b977d01a1f5958ce0d189687ea7a88"),
            (NET_CACHE_VC, (0, 1, 0, 2),
             "84e260231c1e7e731a57fa962f369567e8c5c6bf362675c1c0e5b33657ddb0bd"),
            (NET_CACHE, (0, 1, 0, 2),
             "891da2c48ecec710243b32a7aa752b4e0d9bf47ca2c71b3ab2606d7985e3ebbd"),
        ],
        ids=["vc-unscheduled", "vc-scheduled", "plain-scheduled"],
    )
    def test_digest(self, config, schedule, expected):
        spec = RunSpec(
            program=self.PROGRAM,
            policy=PolicySpec.of(Def2Policy),
            config=config,
            seed=12345,
            schedule=schedule,
        )
        assert spec.digest() == expected
