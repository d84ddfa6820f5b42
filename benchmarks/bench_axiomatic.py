"""MODELS — the axiomatic checker's candidate-enumeration cost.

The cross-checker's unit of work is `allowed_outcomes(program, model)`:
enumerate every candidate execution (rf choices x co permutations,
fixpoint value resolution) and filter by the model's acyclicity axioms.
This benchmark times that kernel on the two catalog shapes that bound
the practical range — Dekker's SB (the common 2x2 case) and IRIW (the
4-processor worst case in the catalog, 4096 candidates).  On warm IRIW
it times both the raw enumerator (every candidate, no axiom applied)
and ``allowed_outcomes`` under every model, and asserts:

* exactness holds while we time it (SC == exhaustive interleaving);
* the whole-catalog cross-check stays cheap enough to live in CI —
  enumerating Dekker under every model fits a tight per-call budget.
"""

import time

from repro.axiomatic import (
    axiomatic_model_names,
    enumerate_candidates,
    model_by_name,
)
from repro.axiomatic.crosscheck import allowed_outcomes
from repro.litmus.catalog import fig1_dekker, iriw
from repro.litmus.runner import LitmusRunner

MODELS = ("SC", "TSO", "PSO", "WO", "RELAXED")


def _enumerate_all_models(program):
    return {
        name: allowed_outcomes(program, model_by_name(name))
        for name in MODELS
    }


def test_axiomatic_enumeration_cost(benchmark):
    runner = LitmusRunner()
    dekker = runner.executable(fig1_dekker())
    # Warm IRIW: the warm-up loads multiply the rf choices, making this
    # the biggest candidate space in the catalog (4096).
    iriw_program = runner.executable(iriw(warm=True))
    _enumerate_all_models(dekker)  # warm imports outside the timed region

    sets = benchmark.pedantic(
        lambda: _enumerate_all_models(dekker), rounds=3, iterations=1
    )

    start = time.perf_counter()
    candidates = sum(1 for _ in enumerate_candidates(iriw_program))
    iriw_s = time.perf_counter() - start

    start = time.perf_counter()
    iriw_sets = {
        name: allowed_outcomes(iriw_program, model_by_name(name))
        for name in axiomatic_model_names()
    }
    iriw_models_s = time.perf_counter() - start

    sc_set = frozenset(runner.verifier.sc_result_set(dekker))
    print(f"\n[AXIOMATIC] dekker x {len(MODELS)} models: "
          f"{', '.join(f'{m}={len(s)}' for m, s in sets.items())}")
    print(f"  iriw: {candidates} candidates in {iriw_s * 1e3:.1f} ms")
    print(f"  iriw x {len(iriw_sets)} models: "
          f"{iriw_models_s * 1e3:.1f} ms")

    # Exactness while we time it: the SC axioms reproduce enumeration.
    assert sets["SC"] == sc_set
    # The relaxation ladder is strict where it must be.
    assert sets["SC"] < sets["TSO"] <= sets["PSO"] <= sets["RELAXED"]
    # Warm IRIW's forbidden outcome is what separates WO from TSO.
    assert iriw_sets["TSO"] < iriw_sets["WO"] <= iriw_sets["RELAXED"]
    # Cheap enough for the per-cell CI cross-check.
    assert iriw_s < 30.0
    assert candidates == 4096
