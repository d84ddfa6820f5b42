"""Tests for experiment-result export."""

import csv
import io
import json

import pytest

from repro.analysis.comparison import compare_policies
from repro.analysis.export import (
    comparison_rows,
    figure3_rows,
    litmus_rows,
    sweep_rows,
    to_csv,
    to_json,
    write_csv,
    write_json,
)
from repro.analysis.figure3 import Figure3Row
from repro.litmus.catalog import fig1_dekker
from repro.litmus.runner import LitmusRunner
from repro.memsys.config import NET_CACHE, NET_NOCACHE
from repro.models.policies import Def2Policy, RelaxedPolicy
from repro.workloads.locks import critical_section_program


@pytest.fixture(scope="module")
def litmus_result():
    return LitmusRunner().run(fig1_dekker(), RelaxedPolicy, NET_NOCACHE, runs=40)


class TestRowExtraction:
    def test_litmus_rows(self, litmus_result):
        rows = litmus_rows(litmus_result)
        assert rows
        assert sum(r["count"] for r in rows) == litmus_result.completed_runs
        assert any(r["violates_sc"] for r in rows)
        forbidden_rows = [r for r in rows if r["is_forbidden"]]
        assert len(forbidden_rows) <= 1

    def test_comparison_rows(self):
        comparisons = compare_policies(
            lambda: critical_section_program(2, 1),
            [Def2Policy],
            config=NET_CACHE,
            runs=2,
        )
        rows = comparison_rows(comparisons)
        assert rows[0]["policy"] == "DEF2"
        assert rows[0]["mean_cycles"] > 0

    def test_figure3_rows(self):
        rows = figure3_rows(
            [Figure3Row(4, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0)]
        )
        assert rows[0]["network_latency"] == 4
        assert rows[0]["def2_acquirer_finish"] == 6.0

    def test_sweep_rows_flatten(self):
        from repro.analysis.comparison import SweepPoint, PolicyComparison

        point = SweepPoint(
            parameter=7,
            comparisons=[
                PolicyComparison("DEF2", 1, 1, 10.0, 5.0, {}, 3.0, 0.0)
            ],
        )
        rows = sweep_rows([point])
        assert rows[0]["parameter"] == 7
        assert rows[0]["policy"] == "DEF2"


class TestSerialization:
    def test_csv_round_trip(self, litmus_result):
        text = to_csv(litmus_rows(litmus_result))
        parsed = list(csv.DictReader(io.StringIO(text)))
        assert len(parsed) == len(litmus_rows(litmus_result))
        assert "outcome" in parsed[0]

    def test_csv_empty(self):
        assert to_csv([]) == ""

    def test_json_round_trip(self, litmus_result):
        rows = litmus_rows(litmus_result)
        assert json.loads(to_json(rows)) == rows

    def test_file_writers(self, tmp_path, litmus_result):
        rows = litmus_rows(litmus_result)
        csv_path = tmp_path / "out.csv"
        json_path = tmp_path / "out.json"
        write_csv(csv_path, rows)
        write_json(json_path, rows)
        assert csv_path.read_text().startswith("test,")
        assert json.loads(json_path.read_text()) == rows
