"""Every simulator ``RunResult`` pinned to its pickled bytes.

A speed-up of the event loop, the cores, the interconnects or the
coherence controllers must leave every simulated run exactly as it was:
the same observable, cycles, stall attribution, message counts and trace
events.  This pin records a sha256 of each ``RunResult`` pickle (fixed
protocol, one result per pickle: see the per-result rule in the verify
notes) for every machine of the conformance grid x every
name-constructible policy x both core shapes x a handful of catalog
tests, straight-line and branchy, x two seeds, plus one traced run per
cell.  A cell the machine cannot build (a reserve-bit policy without
caches) is pinned as unbuildable, and the test asserts that it still is.

The expectations live in ``tests/data/result_bytes_pin.json``.
Regenerate (only when intentionally changing simulated behaviour) with::

    PYTHONPATH=src python tests/sim/test_result_bytes_pin.py --regen
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import pickle

import pytest

from repro.campaign import PolicySpec
from repro.conformance import DEFAULT_CONFIGS
from repro.cpu.core import core_names
from repro.litmus.catalog import catalog_by_name
from repro.litmus.runner import LitmusRunner
from repro.memsys.system import ConfigurationError, ensure_compatible
from repro.models.base import policy_names
from repro.models.policies import policy_by_name
from repro.trace.tracer import TraceSpec

PIN = (
    pathlib.Path(__file__).resolve().parent.parent
    / "data"
    / "result_bytes_pin.json"
)

PROTOCOL = 4
#: Straight-line (Dekker, its sync and warm form, IRIW) and branchy
#: (a spin-waiting consumer, a lock loop) catalog tests.
TESTS = (
    "fig1_dekker",
    "fig1_dekker_sync_warm",
    "iriw_warm",
    "message_passing_sync",
    "critical_section",
)
#: The test each cell also runs traced, at its first seed.
TRACED_TEST = "fig1_dekker_sync_warm"
RUNS = 2
BASE_SEED = 20261019
UNBUILDABLE = "unbuildable"


def _digest(result) -> str:
    return hashlib.sha256(pickle.dumps(result, protocol=PROTOCOL)).hexdigest()


def _policy_spec(policy: str, core: str) -> PolicySpec:
    return PolicySpec.of(lambda: policy_by_name(policy, core=core))


def observe(runner: LitmusRunner, config, policy: str, core: str):
    """Test name -> per-seed result digests (the traced run under
    ``"<test>+trace"``), or :data:`UNBUILDABLE`."""
    try:
        ensure_compatible(policy_by_name(policy), config, core)
    except ConfigurationError:
        return UNBUILDABLE
    from repro.api import campaign

    spec = _policy_spec(policy, core)
    catalog = catalog_by_name()
    digests = {}
    for name in TESTS:
        specs = runner.campaign_specs(
            catalog[name], spec, config, RUNS, BASE_SEED
        )
        results = campaign(specs, label=f"pin:{name}").results
        digests[name] = [_digest(result) for result in results]
    traced = runner.campaign_specs(
        catalog[TRACED_TEST], spec, config, 1, BASE_SEED,
        trace=TraceSpec(events=True, summary=True),
    )
    digests[f"{TRACED_TEST}+trace"] = [
        _digest(result)
        for result in campaign(traced, label="pin:traced").results
    ]
    return digests


def _cells():
    return [
        (config, policy, core)
        for config in DEFAULT_CONFIGS
        for policy in policy_names()
        for core in core_names()
    ]


def _key(config, policy: str, core: str) -> str:
    return f"{config.name}|{policy}|{core}"


def generate_pin() -> dict:
    runner = LitmusRunner()
    return {
        "protocol": PROTOCOL,
        "runs": RUNS,
        "base_seed": BASE_SEED,
        "entries": {
            _key(config, policy, core): observe(runner, config, policy, core)
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
    ids=[_key(c, p, k).replace("|", "-") for c, p, k in _cells()],
)
def test_results_match_pin(config, policy, core, pin, runner):
    key = _key(config, policy, core)
    expected = pin["entries"].get(key)
    assert expected is not None, f"pin has no entry for {key}"
    if expected == UNBUILDABLE:
        with pytest.raises(ConfigurationError):
            ensure_compatible(policy_by_name(policy), config, core)
        return
    observed = observe(runner, config, policy, core)
    assert observed != UNBUILDABLE, f"{key} became buildable"
    for name, digests in expected.items():
        assert observed[name] == digests, f"result bytes moved on {key} {name}"
    assert set(observed) == set(expected)


def test_pin_covers_every_cell(pin):
    assert pin["protocol"] == PROTOCOL
    assert {_key(c, p, k) for c, p, k in _cells()} == set(pin["entries"])
    built = [e for e in pin["entries"].values() if e != UNBUILDABLE]
    assert built and len(built) < len(pin["entries"])


if __name__ == "__main__":
    import sys

    if "--regen" not in sys.argv:
        sys.exit("usage: python tests/sim/test_result_bytes_pin.py --regen")
    PIN.parent.mkdir(parents=True, exist_ok=True)
    PIN.write_text(json.dumps(generate_pin(), indent=1) + "\n")
    print(f"wrote {PIN}")
