"""The sanitizer on explored schedules.

A scheduled run's messages enter the interconnect through the scheduled
transport, so the message-conservation rule must count its sends: a
strict sanitizer must leave every delay-bounded search on healthy
hardware exactly as it finds it.
"""

import pytest

from repro.api import catalog_by_name
from repro.campaign import PolicySpec
from repro.explore.explorer import explore_program
from repro.memsys import ConfigurationError
from repro.memsys.config import (
    BUS_CACHE,
    BUS_CACHE_SNOOP,
    BUS_NOCACHE,
    NET_CACHE,
    NET_CACHE_VC,
    NET_NOCACHE,
)
from repro.memsys.system import ensure_compatible
from repro.models.policies import policy_by_name


@pytest.mark.parametrize(
    "config",
    (BUS_CACHE, BUS_CACHE_SNOOP, BUS_NOCACHE, NET_CACHE, NET_CACHE_VC,
     NET_NOCACHE),
    ids=lambda c: c.name,
)
@pytest.mark.parametrize("policy", ("SC", "DEF2"))
def test_strict_sanitizer_leaves_every_search_unchanged(config, policy):
    try:
        ensure_compatible(policy_by_name(policy), config)
    except ConfigurationError:
        # An unbuildable pair is refused before any schedule runs, with
        # the sanitizer on or off.
        program = catalog_by_name()["fig1_dekker"].executable_program()
        for options in ({}, {"sanitize": "strict"}):
            with pytest.raises(ConfigurationError, match="requires caches"):
                explore_program(
                    program, PolicySpec(policy), max_delays=1,
                    config=config, **options,
                )
        return
    for test in catalog_by_name().values():
        program = test.executable_program()
        plain = explore_program(
            program, PolicySpec(policy), max_delays=1, config=config
        )
        strict = explore_program(
            program, PolicySpec(policy), max_delays=1, config=config,
            sanitize="strict",
        )
        assert (strict.runs, strict.outcomes, strict.incomplete_runs) == (
            plain.runs, plain.outcomes, plain.incomplete_runs
        ), (test.name, strict.describe())
