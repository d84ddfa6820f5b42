"""Per-model allow/forbid pins for the classic litmus shapes.

The table below is the textbook memory-model matrix; each cell is
deterministic (pure candidate enumeration, no hardware runs), so any
drift in the ppo rules or the axioms fails loudly here.
"""

import pytest

from repro.axiomatic import (
    AXIOMATIC_MODELS,
    axiomatic_model_names,
    model_by_name,
    model_for_policy,
)
from repro.axiomatic.crosscheck import allowed_outcomes
from repro.drf.drf0 import check_program
from repro.drf.models import DRF0, DRF0_R
from repro.litmus.catalog import catalog_by_name, forwarding_catalog
from repro.litmus.runner import LitmusRunner

MODELS = ("SC", "TSO", "PSO", "WO", "WO-DRF0", "RELAXED")

#: test name -> models that allow the test's designated forbidden
#: outcome (every model absent from the set must forbid it).
ALLOWING_MODELS = {
    # SB: the write-to-read relaxation, the first thing TSO gives up.
    "fig1_dekker": {"TSO", "PSO", "WO", "WO-DRF0", "RELAXED"},
    # SB with same-location reads: store forwarding, same relaxation.
    "store_forward_dekker": {"TSO", "PSO", "WO", "WO-DRF0", "RELAXED"},
    # MP: needs write-to-write relaxation; TSO keeps it, PSO drops it.
    "message_passing": {"PSO", "WO", "WO-DRF0", "RELAXED"},
    # LB: needs read-to-write relaxation; only the weak models have it.
    "load_buffering": {"WO", "WO-DRF0", "RELAXED"},
    # IRIW: needs non-multi-copy-atomic stores or read reordering.
    "iriw": {"WO", "WO-DRF0", "RELAXED"},
    # Fenced SB: fences restore SC under every model.
    "fig1_dekker_fenced": set(),
    # Per-location coherence holds under every model (sc-per-location).
    "coherence_corr": set(),
}


def _test_by_name(name):
    catalog = catalog_by_name()
    if name in catalog:
        return catalog[name]
    return {t.name: t for t in forwarding_catalog()}[name]


@pytest.mark.parametrize("test_name", sorted(ALLOWING_MODELS))
def test_forbidden_outcome_matrix(test_name):
    test = _test_by_name(test_name)
    assert test.forbidden is not None
    runner = LitmusRunner()
    program = runner.executable(test)
    drf0 = check_program(test.program, model=DRF0, max_executions=5_000).obeys
    drf0_r = check_program(
        test.program, model=DRF0_R, max_executions=5_000
    ).obeys
    for model_name in MODELS:
        allowed = allowed_outcomes(
            program, model_by_name(model_name), drf0=drf0, drf0_r=drf0_r
        )
        projected = {test.project(obs) for obs in allowed}
        expected = model_name in ALLOWING_MODELS[test_name]
        assert (test.forbidden in projected) == expected, (
            f"{test_name} under {model_name}: expected "
            f"{'allowed' if expected else 'forbidden'}"
        )


class TestConditionalModels:
    """WO-DRF0 is Definition 2 itself: SC iff the program obeys DRF0."""

    def test_drf_program_gets_exactly_sc(self):
        test = catalog_by_name()["fig1_dekker_sync"]
        runner = LitmusRunner()
        program = runner.executable(test)
        sc_set = frozenset(runner.verifier.sc_result_set(program))
        assert check_program(
            test.program, model=DRF0, max_executions=5_000
        ).obeys
        assert allowed_outcomes(
            program, model_by_name("WO-DRF0"), drf0=True, drf0_r=True
        ) == sc_set

    def test_racy_program_gets_the_weak_contract(self):
        test = catalog_by_name()["fig1_dekker"]
        program = LitmusRunner().executable(test)
        racy = allowed_outcomes(
            program, model_by_name("WO-DRF0"), drf0=False, drf0_r=False
        )
        relaxed = allowed_outcomes(program, model_by_name("RELAXED"))
        assert racy == relaxed


class TestRegistry:
    def test_names_are_sorted_and_complete(self):
        assert axiomatic_model_names() == tuple(sorted(AXIOMATIC_MODELS))

    def test_lookup_normalizes(self):
        assert model_by_name("tso").name == "TSO"
        assert model_by_name("wo_drf0").name == "WO-DRF0"

    def test_unknown_model_rejected(self):
        with pytest.raises(ValueError, match="unknown axiomatic model"):
            model_by_name("release-consistency")

    def test_every_policy_maps_to_a_model(self):
        from repro.models.base import policy_names

        expected = {
            "SC": "SC",
            "TSO": "TSO",
            "PSO": "PSO",
            "DEF1": "WO",
            "ALL-SYNC": "WO",
            "DEF2": "WO-DRF0",
            "DEF2-R": "WO-DRF0R",
            "RELAXED": "RELAXED",
            "RP3-FENCE": "RELAXED",
        }
        for policy in policy_names():
            assert model_for_policy(policy).name == expected[policy]

    def test_unknown_policy_rejected(self):
        """A misspelled policy must not be held to the weakest model."""
        for name in ("TS0", "nonsense"):
            with pytest.raises(ValueError, match="unknown policy"):
                model_for_policy(name)

    def test_program_specific_policy_declares_relaxed(self):
        from repro.delayset.policy import DelayPolicy

        assert model_for_policy(DelayPolicy.name).name == "RELAXED"
