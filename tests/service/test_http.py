"""The HTTP surface against a live in-process server.

One asyncio loop runs in a background thread; the engine underneath is
the real one.  Failure-timing tests monkeypatch ``build_job`` in the
engine module so the HTTP conversation happens while jobs are
genuinely in flight.
"""

import asyncio
import json
import threading
import urllib.request

import pytest

import repro.service.engine as engine_mod
from repro.service.client import (
    Rejected,
    ServiceClient,
    ServiceError,
    Unavailable,
    read_endpoint,
)
from repro.service.engine import VerificationService
from repro.service.http import ServiceServer
from repro.service.jobs import JobWork


class LiveServer:
    def __init__(self, engine):
        self.engine = engine
        self.server = ServiceServer(engine, host="127.0.0.1", port=0)
        self.loop = asyncio.new_event_loop()
        self.thread = threading.Thread(
            target=self.loop.run_forever, daemon=True
        )

    def start(self):
        self.thread.start()
        asyncio.run_coroutine_threadsafe(
            self.server.start(), self.loop
        ).result(10)
        return ServiceClient(host="127.0.0.1", port=self.server.port)

    def stop(self):
        asyncio.run_coroutine_threadsafe(
            self.server.close(), self.loop
        ).result(10)
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(5)
        self.engine.stop(timeout=10)


@pytest.fixture
def live(tmp_path):
    engine = VerificationService(
        tmp_path / "state", workers=2, campaign_jobs=1, capacity=8
    )
    engine.start()
    server = LiveServer(engine)
    client = server.start()
    yield engine, client
    server.stop()


def blocked_builder(monkeypatch, names):
    """Fake jobs that block until the returned event is set."""
    release = threading.Event()

    def builder(kind, params=None):
        params = dict(params or {})
        name = params["name"]

        def run():
            release.wait(30)
            return {"name": name}

        return JobWork(kind="verify", params=params,
                       digest=name.ljust(64, "x"), direct=run)

    monkeypatch.setattr(engine_mod, "build_job", builder)
    return release


class TestHealth:
    def test_healthz(self, live):
        _, client = live
        assert client.healthz()["status"] == "ok"

    def test_readyz_reports_queue_and_breaker(self, live):
        _, client = live
        doc = client.readyz()
        assert doc["ready"] is True
        assert doc["queue_depth"] == 0
        assert doc["breaker"] == "closed"

    def test_endpoint_file_points_at_the_server(self, live, tmp_path):
        engine, client = live
        host, port = read_endpoint(engine.state_dir)
        assert ServiceClient(host, port).healthz()["status"] == "ok"


class TestSubmitRoundTrip:
    def test_submit_poll_result(self, live):
        _, client = live
        doc = client.submit(
            "litmus", {"test": "fig1_dekker", "runs": 3}
        )
        assert doc["verdict"] == "accepted"
        job_id = doc["job"]["id"]
        job = client.wait_done(job_id, timeout=60)
        assert job["state"] == "done"
        result = client.result(job_id)["result"]
        assert result["completed_runs"] == 3

    def test_duplicate_is_coalesced_not_rerun(self, live, monkeypatch):
        _, client = live
        release = blocked_builder(monkeypatch, ["a"])
        try:
            first = client.submit("verify", {"name": "a"})
            assert first["verdict"] == "accepted"
            second = client.submit("verify", {"name": "a"})
            assert second["verdict"] == "duplicate"
            assert second["coalesced"] is True
            assert second["job"]["id"] == first["job"]["id"]
        finally:
            release.set()
        client.wait_done(first["job"]["id"], timeout=30)
        # A repeat after completion returns the result inline.
        third = client.submit("verify", {"name": "a"})
        assert third["verdict"] == "completed"
        assert third["result"] == {"name": "a"}

    def test_malformed_submission_is_400(self, live):
        _, client = live
        with pytest.raises(ServiceError) as excinfo:
            client.submit("litmus", {"test": "no_such_test"})
        assert excinfo.value.status == 400
        assert "no_such_test" in str(excinfo.value)

    def test_unknown_kind_is_400(self, live):
        _, client = live
        with pytest.raises(ServiceError) as excinfo:
            client.submit("frobnicate", {})
        assert excinfo.value.status == 400


class TestJobRoutes:
    def test_unknown_job_is_404(self, live):
        _, client = live
        with pytest.raises(ServiceError) as excinfo:
            client.status("deadbeef")
        assert excinfo.value.status == 404

    def test_result_is_409_until_terminal(self, live, monkeypatch):
        _, client = live
        release = blocked_builder(monkeypatch, ["a"])
        try:
            job_id = client.submit("verify", {"name": "a"})["job"]["id"]
            with pytest.raises(ServiceError) as excinfo:
                client.result(job_id)
            assert excinfo.value.status == 409
        finally:
            release.set()
        client.wait_done(job_id, timeout=30)
        assert client.result(job_id)["result"] == {"name": "a"}

    def test_list_jobs(self, live):
        _, client = live
        job_id = client.submit(
            "litmus", {"test": "fig1_dekker", "runs": 2}
        )["job"]["id"]
        client.wait_done(job_id, timeout=60)
        assert job_id in {job["id"] for job in client.jobs()}

    def test_stream_emits_ndjson_until_terminal(self, live):
        _, client = live
        job_id = client.submit(
            "litmus", {"test": "fig1_dekker", "runs": 2}
        )["job"]["id"]
        with urllib.request.urlopen(
            f"{client.base}/v1/jobs/{job_id}/stream", timeout=60
        ) as response:
            lines = [json.loads(line) for line in response]
        assert lines[-1]["state"] in ("done", "failed")
        assert all(snap["id"] == job_id for snap in lines)

    def test_stream_ends_on_a_terminal_snapshot(self):
        """A job that finishes between its snapshot and the stream's
        terminality test still gets a terminal line."""

        class FinishingJob:
            #: Already done by the time the stream looks at it ...
            state = "done"

            def __init__(self):
                self.snapshots = 0

            def to_public(self):
                # ... though its first snapshot was taken while running.
                self.snapshots += 1
                state = "running" if self.snapshots == 1 else "done"
                return {"id": "j", "state": state}

        class StubEngine:
            job = FinishingJob()

            def get(self, job_id):
                return self.job

        class Writer:
            def __init__(self):
                self.data = b""

            def write(self, data):
                self.data += data

            async def drain(self):
                pass

        writer = Writer()
        asyncio.run(ServiceServer(StubEngine())._stream(writer, "j"))
        _headers, body = writer.data.split(b"\r\n\r\n", 1)
        states = [json.loads(line)["state"] for line in body.splitlines()]
        assert states == ["running", "done"]


class TestBackpressureHTTP:
    def test_saturation_sheds_with_429_and_bounded_memory(
        self, tmp_path, monkeypatch
    ):
        """The saturation drill: 2x capacity, bounded state, 429s."""
        capacity = 4
        engine = VerificationService(
            tmp_path / "state", workers=1, campaign_jobs=1,
            capacity=capacity,
        )
        engine.start()
        server = LiveServer(engine)
        client = server.start()
        release = blocked_builder(monkeypatch, [])
        try:
            accepted, shed = [], []
            for i in range(2 * capacity):
                try:
                    doc = client.submit("verify", {"name": f"{i}"})
                    accepted.append(doc["job"]["id"])
                except Rejected as exc:
                    shed.append(exc)
            assert len(accepted) == capacity
            assert len(shed) == capacity
            # Every shed carried a positive Retry-After.
            assert all(exc.retry_after >= 1.0 for exc in shed)
            # Shed submissions left no server state behind.
            assert len(engine.list_jobs()) == capacity
            release.set()
            for job_id in accepted:
                job = client.wait_done(job_id, timeout=30)
                assert job["state"] == "done"
        finally:
            release.set()
            server.stop()

    def test_breaker_open_responses_flagged_degraded_and_correct(
        self, tmp_path
    ):
        """Degraded mode is visible to clients and still right."""
        params = {"test": "fig1_dekker", "runs": 3, "policy": "SC"}
        baseline = VerificationService(
            tmp_path / "base", workers=1, campaign_jobs=1
        )
        baseline.start()
        ref, _, _ = baseline.submit("litmus", params)
        ref_result = baseline.wait(ref.id, timeout=120).result
        baseline.stop(timeout=10)

        engine = VerificationService(
            tmp_path / "state", workers=1, campaign_jobs=2,
            breaker_threshold=1, breaker_reset=3600.0,
        )
        engine.breaker.record_failure()  # wedge the breaker open
        engine.start()
        server = LiveServer(engine)
        client = server.start()
        try:
            job_id = client.submit("litmus", params)["job"]["id"]
            job = client.wait_done(job_id, timeout=120)
            assert job["state"] == "done"
            assert job["degraded"] is True
            assert client.result(job_id)["result"] == ref_result
            assert client.readyz()["breaker"] == "open"
        finally:
            server.stop()


class TestDrainHTTP:
    def test_drain_flips_readyz_and_sheds_submissions(
        self, tmp_path
    ):
        engine = VerificationService(
            tmp_path / "state", workers=1, campaign_jobs=1
        )
        engine.start()
        server = LiveServer(engine)
        client = server.start()
        try:
            assert client.drain()["draining"] is True
            doc = client.readyz()
        except Unavailable:
            doc = {"ready": False}
        try:
            with pytest.raises(Unavailable):
                client.submit("litmus",
                              {"test": "fig1_dekker", "runs": 2})
        finally:
            server.stop()


class TestMetricsEndpoint:
    def test_prometheus_exposition_includes_service_counters(
        self, tmp_path
    ):
        from repro.obs import METRICS, disable_metrics

        was = METRICS.enabled
        METRICS.reset()
        METRICS.enable()
        engine = VerificationService(
            tmp_path / "state", workers=1, campaign_jobs=1
        )
        engine.start()
        server = LiveServer(engine)
        client = server.start()
        try:
            job_id = client.submit(
                "litmus", {"test": "fig1_dekker", "runs": 2}
            )["job"]["id"]
            client.wait_done(job_id, timeout=60)
            text = client.metrics_text()
            assert "repro_service_jobs_submitted_total" in text
            assert "repro_service_jobs_completed_total" in text
            assert "repro_service_queue_depth" in text
        finally:
            server.stop()
            METRICS.reset()
            disable_metrics()
            METRICS.enabled = was
