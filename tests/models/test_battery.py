"""The classic litmus battery, pinned per (policy, core).

One verdict table drives everything: for each battery test, PINS names
the policies whose axiomatic model *allows* the designated forbidden
outcome.  Per (policy, core) cell the test then asserts, on real
hardware runs:

* forbidden-pin cells never exhibit the outcome (soundness — a single
  sighting is a real bug, not flakiness);
* every observed outcome is axiomatically allowed (the operational and
  declarative formulations agree);

and, once per (test, policy), that the axiomatic verdict itself matches
the pin.  The battery deliberately does NOT ride in standard_catalog():
the core-conformance snapshot pins that grid.
"""

import pytest

from repro.axiomatic import model_for_policy
from repro.axiomatic.crosscheck import allowed_outcomes
from repro.drf.drf0 import check_program
from repro.drf.models import DRF0, DRF0_R
from repro.litmus.catalog import catalog_by_name, forwarding_catalog
from repro.litmus.runner import LitmusRunner
from repro.memsys.config import NET_CACHE
from repro.models.policies import policy_by_name

POLICIES = ("SC", "TSO", "PSO", "DEF1", "DEF2", "RELAXED")
CORES = ("simple", "pipelined")
RUNS = 8

#: test name -> policies whose model allows the forbidden outcome.
PINS = {
    "fig1_dekker": {"TSO", "PSO", "DEF1", "DEF2", "RELAXED"},
    "store_forward_dekker": {"TSO", "PSO", "DEF1", "DEF2", "RELAXED"},
    "message_passing": {"PSO", "DEF1", "DEF2", "RELAXED"},
    "load_buffering": {"DEF1", "DEF2", "RELAXED"},
    "iriw": {"DEF1", "DEF2", "RELAXED"},
}


def _battery():
    catalog = catalog_by_name()
    catalog.update({t.name: t for t in forwarding_catalog()})
    return {name: catalog[name] for name in PINS}


@pytest.fixture(scope="module")
def runner():
    return LitmusRunner()


@pytest.fixture(scope="module")
def axiomatic_sets(runner):
    """(test name, model name) -> projected allowed-outcome set."""
    sets = {}
    for name, test in _battery().items():
        program = runner.executable(test)
        drf0 = check_program(
            test.program, model=DRF0, max_executions=5_000
        ).obeys
        drf0_r = check_program(
            test.program, model=DRF0_R, max_executions=5_000
        ).obeys
        for policy in POLICIES:
            model = model_for_policy(policy)
            if (name, model.name) in sets:
                continue
            sets[(name, model.name)] = frozenset(
                test.project(obs)
                for obs in allowed_outcomes(
                    program, model, drf0=drf0, drf0_r=drf0_r
                )
            )
    return sets


@pytest.mark.parametrize("test_name", sorted(PINS))
@pytest.mark.parametrize("policy", POLICIES)
def test_axiomatic_verdict_matches_pin(test_name, policy, axiomatic_sets):
    test = _battery()[test_name]
    model = model_for_policy(policy)
    allowed = axiomatic_sets[(test_name, model.name)]
    expected = policy in PINS[test_name]
    assert (test.forbidden in allowed) == expected, (
        f"{test_name}/{policy} (model {model.name}): expected the "
        f"forbidden outcome to be "
        f"{'allowed' if expected else 'forbidden'}, got "
        f"{'allowed' if test.forbidden in allowed else 'forbidden'}"
    )


@pytest.mark.parametrize("core", CORES)
@pytest.mark.parametrize("policy", POLICIES)
def test_hardware_agrees_with_the_pins(policy, core, runner, axiomatic_sets):
    model = model_for_policy(policy)
    for test_name, test in _battery().items():
        result = runner.run(
            test,
            lambda: policy_by_name(policy, core=core),
            NET_CACHE,
            runs=RUNS,
        )
        assert result.completed_runs == RUNS
        observed = set(result.histogram)
        allowed = axiomatic_sets[(test_name, model.name)]
        assert observed <= allowed, (
            f"{test_name} on {policy}/{core}: hardware exhibited "
            f"{sorted(observed - allowed)} which the {model.name} "
            f"axioms forbid"
        )
        if policy not in PINS[test_name]:
            assert result.forbidden_seen == 0, (
                f"{test_name} on {policy}/{core}: forbidden outcome "
                f"{test.forbidden} appeared {result.forbidden_seen}x"
            )
