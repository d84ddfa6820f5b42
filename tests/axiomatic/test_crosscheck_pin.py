"""The crosscheck's cells pinned over a fixed slice of the catalog.

Five straight-line tests, every registered policy, ``net_nocache`` and
``net_cache``, four runs per test: for each (test, policy) cell the pin
holds the machines the policy ran on, the projected allowed and
observed outcome sets, the failure descriptions and the failed runs.
A refactor of how the crosscheck plans, runs or judges its grid must
leave every cell as it is.

The expectations live in ``tests/data/crosscheck_pin.json``.
Regenerate (only when intentionally changing a verdict) with::

    PYTHONPATH=src python tests/axiomatic/test_crosscheck_pin.py --regen
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.axiomatic import crosscheck_models
from repro.litmus.catalog import (
    fig1_dekker,
    fig1_dekker_all_sync,
    load_buffering,
    message_passing,
    write_to_read_causality,
)
from repro.memsys.config import NET_CACHE, NET_NOCACHE

PIN = (
    pathlib.Path(__file__).resolve().parent.parent
    / "data"
    / "crosscheck_pin.json"
)

RUNS = 4


def _tests():
    return [
        fig1_dekker(warm=True),
        fig1_dekker_all_sync(warm=True),
        message_passing(warm=True),
        load_buffering(),
        write_to_read_causality(warm=True),
    ]


def _outcomes(outcomes) -> list:
    return sorted(" ".join(map(str, outcome)) for outcome in outcomes)


def observe() -> dict:
    report = crosscheck_models(
        tests=_tests(), configs=(NET_NOCACHE, NET_CACHE), runs_per_test=RUNS
    )
    return {
        f"{cell.test_name}|{cell.policy_name}": {
            "model": cell.model_name,
            "config_names": list(cell.config_names),
            "allowed": _outcomes(cell.allowed_outcomes),
            "observed": _outcomes(cell.observed_outcomes),
            "failures": list(cell.failures),
            "failed_runs": cell.failed_runs,
        }
        for cell in report.cells
    }


def generate_pin() -> dict:
    cells = observe()
    return {"runs": RUNS, "order": list(cells), "cells": cells}


@pytest.fixture(scope="module")
def pin() -> dict:
    if not PIN.exists():  # pragma: no cover - setup error
        pytest.fail(f"missing pin {PIN}; see module docstring")
    return json.loads(PIN.read_text())


def test_every_cell_matches_pin(pin):
    observed = observe()
    assert list(observed) == pin["order"]
    for key, cell in observed.items():
        assert cell == pin["cells"][key], key


if __name__ == "__main__":  # pragma: no cover - regeneration helper
    import sys

    if "--regen" not in sys.argv:
        sys.exit("pass --regen to rewrite the pin")
    PIN.write_text(json.dumps(generate_pin(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {PIN}")
