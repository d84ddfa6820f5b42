"""Exporters: Prometheus text, snapshot artifacts, flight recorder."""

import json

import pytest

from repro.obs import (
    FlightRecorder,
    Snapshot,
    load_snapshot,
    to_prometheus,
    write_prometheus,
)


def _populate(metrics):
    metrics.inc("repro_x_total", 3, help="Things")
    metrics.inc("repro_y_total", 2, kind="a")
    metrics.inc("repro_y_total", 5, kind="b")
    metrics.set_gauge("repro_depth", 4.5, help="A level")
    metrics.observe("repro_latency_seconds", 0.0005, buckets=(0.001, 0.01))
    metrics.observe("repro_latency_seconds", 0.5, buckets=(0.001, 0.01))


class TestPrometheusText:
    def test_exposition_shape(self, metrics):
        _populate(metrics)
        text = to_prometheus(metrics)
        assert "# TYPE repro_x_total counter" in text
        assert "# HELP repro_x_total Things" in text
        assert 'repro_y_total{kind="a"} 2' in text
        assert "repro_depth 4.5" in text
        # Histogram buckets are cumulative, with +Inf last.
        assert 'repro_latency_seconds_bucket{le="0.001"} 1' in text
        assert 'repro_latency_seconds_bucket{le="+Inf"} 2' in text
        assert "repro_latency_seconds_count 2" in text

    def test_snapshot_renders_like_its_registry(self, metrics):
        # A snapshot read back from a flight recording exports the same
        # text as the live registry it was taken from.
        _populate(metrics)
        snap = Snapshot.from_dict(
            json.loads(json.dumps(metrics.snapshot().to_dict()))
        )
        assert to_prometheus(snap) == to_prometheus(metrics)


class TestArtifacts:
    def test_load_snapshot_refuses_prom_text(self, metrics, tmp_path):
        _populate(metrics)
        path = write_prometheus(tmp_path / "m.prom", metrics)
        with pytest.raises(ValueError, match="never read"):
            load_snapshot(path)

    def test_load_snapshot_accepts_snapshot_json(self, metrics, tmp_path):
        _populate(metrics)
        path = tmp_path / "snap.json"
        path.write_text(json.dumps(metrics.snapshot().to_dict()))
        assert load_snapshot(path) == metrics.snapshot()

    def test_load_snapshot_accepts_flight_jsonl(self, metrics, tmp_path):
        _populate(metrics)
        recorder = FlightRecorder(
            tmp_path / "flight.jsonl", metrics, interval=30.0
        )
        recorder.start()
        recorder.stop()
        assert load_snapshot(tmp_path / "flight.jsonl") == metrics.snapshot()

    def test_empty_file_loads_as_empty_snapshot(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text("")
        assert load_snapshot(path) == Snapshot()


class TestFlightRecorder:
    def test_final_sample_reflects_end_state(self, metrics, tmp_path):
        path = tmp_path / "flight.jsonl"
        with FlightRecorder(path, metrics, interval=0.05) as recorder:
            metrics.inc("repro_x_total", 7)
        assert recorder.samples_written >= 1
        lines = [json.loads(l) for l in path.read_text().splitlines()]
        assert [record["seq"] for record in lines] == list(range(len(lines)))
        final = Snapshot.from_dict(lines[-1]["sample"])
        assert final.value("repro_x_total") == 7

    def test_start_truncates_previous_flight(self, metrics, tmp_path):
        path = tmp_path / "flight.jsonl"
        path.write_text("stale\n")
        recorder = FlightRecorder(path, metrics, interval=30.0)
        recorder.start()
        recorder.stop()
        assert "stale" not in path.read_text()

