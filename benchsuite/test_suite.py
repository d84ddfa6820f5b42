"""Tests of the benchmark itself.

Run from the repository root with ``pytest benchsuite/test_suite.py``.
Each workload runs at a tiny size: one warm-up pass and one timed pass.
"""

import json
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import suite  # noqa: E402

SPEC = suite.load_spec()
suite._workloads()  # makes src/ importable for the imports below

import spans  # noqa: E402
from repro.campaign.spec import RunSpec  # noqa: E402

#: Sizes at which a pass takes well under a second.
TINY = {
    "grid": {"runs_per_test": 1, "tests": ["fig1_dekker", "message_passing"]},
    "explore": {"tests": ["fig1_dekker"], "random_programs": 1,
                "max_delays": 1},
    "check": {"tests": ["fig1_dekker", "critical_section"],
              "racy_bounds": [16], "drf_programs": 1},
    "durable_write": {"runs_per_test": 1, "tests": ["fig1_dekker"]},
    "durable_read": {"runs_per_test": 1, "tests": ["fig1_dekker"]},
}


def _measure(name, trace=False, **sizes):
    return suite.measure(
        name, seed=1, seconds=0, trace=trace,
        sizes={**TINY[name], **sizes}, setup_repeats=1,
    )


def _units(metrics):
    return {name: m["unit"] for name, m in metrics.items()}


@pytest.mark.parametrize("name", [w["name"] for w in SPEC["workloads"]])
def test_each_workload_reports_every_metric_with_its_unit(name):
    record = _measure(name)
    assert record["correct"], record["errors"]
    assert record["failed"] == 0 and record["attempted"] > 0
    line = json.loads(suite.result_line(record))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert _units(line["metrics"]) == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]
    }
    assert all(m["value"] > 0 for m in line["metrics"].values())
    assert suite.exit_status(record) == 0


def test_fsyncs_are_counted_and_os_fsync_is_restored():
    real_fsync = os.fsync
    record = _measure("durable_write")
    assert all(p["fsyncs"] > 0 for p in record["passes"])
    assert os.fsync is real_fsync


def test_failed_runs_count_against_the_run_and_exit_nonzero():
    record = _measure("grid", max_cycles=1)
    assert 0 < record["failed"] <= record["attempted"]
    assert not record["correct"]
    assert suite.exit_status(record) == 1


def test_span_self_times_add_up_to_each_traced_pass():
    record = _measure("grid", trace=True)
    assert record["correct"], record["errors"]
    assert _units(record["metrics"]) == {
        m["name"]: m["unit"] for m in SPEC["per_layer"]
    }
    traced = [p for p in record["passes"] if p["traced"]]
    assert len(traced) >= 2
    for p in traced:
        layers = p["layers"]
        covered = layers["harness.self_s"] + sum(
            layers[f"{layer}.self_s"] for layer in spans.LAYERS
        )
        assert covered == pytest.approx(p["wall_s"], rel=0.05)
    # The traced run leaves the program as it found it.
    assert not hasattr(RunSpec.execute, "__wrapped__")


def test_verdicts_follow_medians_bounds_and_spreads():
    base = [100.0, 101.0, 99.0, 100.0]
    assert suite.verdict(base, [130, 131, 129, 130], "higher", 0.1) == "better"
    assert suite.verdict(base, [80, 81, 79, 80], "higher", 0.1) == "worse"
    assert suite.verdict(base, [80, 81, 79, 80], "lower", 0.1) == "better"
    assert suite.verdict(base, [102, 101, 103, 102], "higher", 0.1) \
        == "unchanged"
    # Too noisy to call either way ...
    assert suite.verdict(base, [60, 140, 100, 75], "higher", 0.1) \
        == "unresolved"
    # ... unless every sample of one side beats every sample of the other.
    assert suite.verdict(base, [150, 200, 300, 250], "higher", 0.1) \
        == "better"


def _document(items_per_s, counts):
    return {"workloads": {"grid": {
        "metrics": {"items_per_ref_s": {"samples": items_per_s}},
        "counts": counts,
        "passes": [{"cpu_slowdown": 1.0}],
    }}}


def test_compare_exits_nonzero_on_worse_metrics_or_count_mismatches(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    a.write_text(json.dumps(_document([100, 101, 99], {"simulations": 9})))

    b.write_text(json.dumps(_document([100, 99, 101], {"simulations": 9})))
    assert suite.compare_files(str(a), str(b)) == 0

    b.write_text(json.dumps(_document([70, 71, 69], {"simulations": 9})))
    assert suite.compare_files(str(a), str(b)) == 1

    b.write_text(json.dumps(_document([100, 99, 101], {"simulations": 8})))
    rows, problems = suite.compare(
        json.loads(a.read_text()), json.loads(b.read_text()), SPEC
    )
    assert [row[-1] for row in rows] == ["unchanged"]
    assert problems == ["grid count simulations: 9 != 8"]
    assert suite.compare_files(str(a), str(b)) == 1
