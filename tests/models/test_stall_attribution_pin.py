"""Stall attribution pinned per (machine, policy, StallReason).

The order-table policies (SC, DEF1, TSO, PSO, RELAXED) stall with the
reason of the first table entry a pending access matches, so a change
to an entry's order, its kind classes or the port waiver moves cycles
between reasons before it moves any verdict.  This pin records, for
every machine in the conformance grid and both core shapes, the stall
cycles each reason received over the standard catalog and each test's
outcome histogram.

The expectations live in ``tests/data/stall_attribution_pin.json``.
Regenerate (only when intentionally changing simulated behaviour) with::

    PYTHONPATH=src python tests/models/test_stall_attribution_pin.py --regen
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.campaign import PolicySpec
from repro.conformance import DEFAULT_CONFIGS
from repro.litmus.catalog import standard_catalog
from repro.litmus.runner import LitmusRunner
from repro.models.policies import policy_by_name

PIN = (
    pathlib.Path(__file__).resolve().parent.parent
    / "data"
    / "stall_attribution_pin.json"
)

POLICIES = ("SC", "DEF1", "TSO", "PSO", "RELAXED")
#: The simple core blocks every read for its value, so only the
#: pipelined core ever holds a read pending behind a later access.
CORES = ("simple", "pipelined")
RUNS = 2
BASE_SEED = 20261018


def observe(runner: LitmusRunner, config, policy_name: str, core: str) -> dict:
    """Stall cycles per reason and outcome histograms per test, for one
    (machine, policy, core) cell over the standard catalog."""
    from repro.api import campaign

    policy_spec = PolicySpec.of(lambda: policy_by_name(policy_name, core=core))
    stalls: dict = {}
    histograms: dict = {}
    for test in standard_catalog():
        specs = runner.campaign_specs(
            test, policy_spec, config, RUNS, BASE_SEED
        )
        batch = campaign(specs, label=f"pin:{test.name}:{policy_name}")
        histogram: dict = {}
        for result in batch.results:
            for reason, cycles in result.timings.stall_by_reason:
                stalls[reason.value] = stalls.get(reason.value, 0) + cycles
            outcome = (
                None
                if result.observable is None
                else list(test.project(result.observable))
            )
            key = json.dumps(outcome)
            histogram[key] = histogram.get(key, 0) + 1
        histograms[test.name] = {k: histogram[k] for k in sorted(histogram)}
    return {
        "stalls": {key: stalls[key] for key in sorted(stalls)},
        "histograms": histograms,
    }


def _cells():
    return [
        (config, policy, core)
        for config in DEFAULT_CONFIGS
        for policy in POLICIES
        for core in CORES
    ]


def generate_pin() -> dict:
    runner = LitmusRunner()
    return {
        "runs": RUNS,
        "base_seed": BASE_SEED,
        "entries": {
            f"{config.name}|{policy}|{core}": observe(
                runner, config, policy, core
            )
            for config, policy, core in _cells()
        },
    }


@pytest.fixture(scope="module")
def pin() -> dict:
    if not PIN.exists():  # pragma: no cover - setup error
        pytest.fail(f"missing pin {PIN}; see module docstring")
    return json.loads(PIN.read_text())


@pytest.fixture(scope="module")
def runner() -> LitmusRunner:
    return LitmusRunner()


@pytest.mark.parametrize(
    "config,policy,core",
    _cells(),
    ids=[f"{c.name}-{p}-{k}" for c, p, k in _cells()],
)
def test_stall_attribution_matches_pin(config, policy, core, pin, runner):
    key = f"{config.name}|{policy}|{core}"
    expected = pin["entries"].get(key)
    assert expected is not None, f"pin has no entry for {key}"
    observed = json.loads(json.dumps(observe(runner, config, policy, core)))
    assert observed["histograms"] == expected["histograms"], (
        f"outcome histograms moved on {key}"
    )
    assert observed["stalls"] == expected["stalls"], (
        f"stall attribution moved on {key}"
    )


def test_pin_covers_every_cell(pin):
    assert {f"{c.name}|{p}|{k}" for c, p, k in _cells()} == set(
        pin["entries"]
    )


if __name__ == "__main__":
    import sys

    if "--regen" not in sys.argv:
        sys.exit(
            "usage: python tests/models/test_stall_attribution_pin.py --regen"
        )
    PIN.parent.mkdir(parents=True, exist_ok=True)
    PIN.write_text(json.dumps(generate_pin(), indent=1) + "\n")
    print(f"wrote {PIN}")
