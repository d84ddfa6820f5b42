"""The asyncio HTTP face of the verification service.

Stdlib-only HTTP/1.1 (``asyncio.start_server``, one request per
connection, ``Connection: close``) — the service's value is its
robustness semantics, not its web framework.  The route table is the
admission pipeline made visible:

====================================  =====================================
``POST /v1/jobs``                     submit; 202 accepted, 200 coalesced or
                                      already-complete, 400 malformed, 429 +
                                      ``Retry-After`` shed, 503 draining
``GET /v1/jobs``                      list known jobs
``GET /v1/jobs/{id}``                 status; ``?wait=SECONDS`` long-polls
                                      until terminal
``GET /v1/jobs/{id}/result``          the result document; 409 until
                                      terminal
``GET /v1/jobs/{id}/stream``          NDJSON status stream until terminal
``POST /v1/drain``                    begin graceful drain
``GET /healthz``                      liveness (always 200 while serving)
``GET /readyz``                       readiness; 503 once draining
``GET /metrics``                      Prometheus text exposition
====================================  =====================================

Failure taxonomy to HTTP codes: *malformed request* → 400 (the
:class:`~repro.service.jobs.JobError` message is the body); *overload*
→ 429 with a Retry-After estimate (shed, never queued); *draining* →
503 (retry against the next incarnation); *job execution failure* →
the job completes with ``state=failed`` and the error string — an
executed-but-failed job is a successful HTTP conversation.

Engine calls that block (submission planning, long-polls) run on the
default thread-pool executor so the event loop keeps answering health
checks while campaigns grind.

The bound port is written to ``<state_dir>/endpoint`` (``host port``
on one line) so subprocess harnesses — and humans — can find a server
started with ``--port 0``.
"""

from __future__ import annotations

import asyncio
import json
from typing import Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from repro.obs import METRICS, to_prometheus
from repro.service.engine import (
    ACCEPTED,
    COMPLETED,
    DRAINING,
    DUPLICATE,
    VerificationService,
)
from repro.service.jobs import DONE, FAILED, JobError

#: Cap request bodies well above any legitimate submission.
MAX_BODY = 1 << 20
#: Long-poll ceiling, so a dead client cannot pin a thread forever.
MAX_WAIT = 60.0

_REASONS = {
    200: "OK", 202: "Accepted", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 409: "Conflict", 413: "Payload Too Large",
    429: "Too Many Requests", 500: "Internal Server Error",
    503: "Service Unavailable",
}


class ServiceServer:
    """One engine, one listening socket, no dependencies."""

    def __init__(
        self,
        engine: VerificationService,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.engine = engine
        self.host = host
        self.port = port
        self._server: Optional[asyncio.AbstractServer] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        endpoint = self.engine.state_dir / "endpoint"
        endpoint.write_text(f"{self.host} {self.port}\n")

    async def close(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    async def serve_until_drained(self, poll: float = 0.2) -> None:
        """Serve until a drain begins (SIGTERM or ``POST /v1/drain``)."""
        if self._server is None:
            await self.start()
        while not self.engine.draining:
            await asyncio.sleep(poll)
        await self.close()

    # ------------------------------------------------------------------
    # Request plumbing
    # ------------------------------------------------------------------
    async def _handle(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        try:
            await asyncio.wait_for(
                self._handle_one(reader, writer), timeout=MAX_WAIT + 30
            )
        except Exception:
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except Exception:
                pass

    async def _handle_one(self, reader, writer) -> None:
        request = await reader.readline()
        if not request:
            return
        try:
            method, target, _version = request.decode("ascii").split()
        except ValueError:
            await self._respond(writer, 400, {"error": "bad request line"})
            return
        headers = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", 0) or 0)
        if length > MAX_BODY:
            await self._respond(writer, 413, {"error": "body too large"})
            return
        body = await reader.readexactly(length) if length else b""
        await self._route(writer, method, target, body)

    async def _route(self, writer, method: str, target: str, body: bytes):
        url = urlsplit(target)
        path = url.path.rstrip("/") or "/"
        query = parse_qs(url.query)
        if path == "/healthz" and method == "GET":
            await self._respond(writer, 200, {"status": "ok"})
        elif path == "/readyz" and method == "GET":
            stats = await self._call(self.engine.stats)
            code = 503 if self.engine.draining else 200
            await self._respond(
                writer, code, {"ready": code == 200, **stats}
            )
        elif path == "/metrics" and method == "GET":
            text = to_prometheus(METRICS)
            await self._respond_raw(
                writer, 200, text.encode("utf-8"),
                content_type="text/plain; version=0.0.4",
            )
        elif path == "/v1/jobs" and method == "POST":
            await self._submit(writer, body)
        elif path == "/v1/jobs" and method == "GET":
            jobs = await self._call(self.engine.list_jobs)
            await self._respond(
                writer, 200, {"jobs": [j.to_public() for j in jobs]}
            )
        elif path == "/v1/drain" and method == "POST":
            self.engine.request_drain()
            await self._respond(writer, 200, {"draining": True})
        elif path.startswith("/v1/jobs/"):
            await self._job_route(writer, method, path, query)
        else:
            await self._respond(writer, 404, {"error": f"no route {path}"})

    # ------------------------------------------------------------------
    # Handlers
    # ------------------------------------------------------------------
    async def _submit(self, writer, body: bytes) -> None:
        try:
            payload = json.loads(body.decode("utf-8")) if body else {}
            if not isinstance(payload, dict):
                raise ValueError("body must be a JSON object")
        except (ValueError, UnicodeDecodeError) as exc:
            await self._respond(writer, 400, {"error": f"bad JSON: {exc}"})
            return
        kind = payload.get("kind", "")
        params = payload.get("params") or {}
        client = str(payload.get("client", ""))
        deadline_s = payload.get("deadline_s")
        if deadline_s is not None:
            try:
                deadline_s = float(deadline_s)
            except (TypeError, ValueError):
                await self._respond(
                    writer, 400, {"error": "deadline_s must be a number"}
                )
                return
        try:
            job, verdict, retry_after = await self._call(
                self.engine.submit, kind, params, client, deadline_s
            )
        except JobError as exc:
            await self._respond(writer, 400, {"error": str(exc)})
            return
        if verdict == ACCEPTED:
            await self._respond(
                writer, 202, {"job": job.to_public(), "verdict": verdict}
            )
        elif verdict == DUPLICATE:
            await self._respond(
                writer, 200,
                {"job": job.to_public(), "verdict": verdict,
                 "coalesced": True},
            )
        elif verdict == COMPLETED:
            await self._respond(
                writer, 200,
                {"job": job.to_public(), "verdict": verdict,
                 "result": job.result},
            )
        elif verdict == DRAINING:
            await self._respond(
                writer, 503, {"error": "draining", "verdict": verdict}
            )
        else:  # shed
            await self._respond(
                writer, 429,
                {"error": "over capacity", "verdict": verdict,
                 "retry_after": retry_after},
                extra_headers=[
                    ("Retry-After", str(max(1, round(retry_after or 1))))
                ],
            )

    async def _job_route(self, writer, method, path, query) -> None:
        parts = path.split("/")  # ['', 'v1', 'jobs', id, (sub)]
        job_id = parts[3] if len(parts) > 3 else ""
        sub = parts[4] if len(parts) > 4 else ""
        if method != "GET":
            await self._respond(writer, 405, {"error": "GET only"})
            return
        job = self.engine.get(job_id)
        if job is None:
            await self._respond(
                writer, 404, {"error": f"unknown job {job_id!r}"}
            )
            return
        if sub == "":
            wait = query.get("wait")
            if wait:
                try:
                    timeout = min(MAX_WAIT, max(0.0, float(wait[0])))
                except ValueError:
                    await self._respond(
                        writer, 400, {"error": "wait must be a number"}
                    )
                    return
                job = await self._call(self.engine.wait, job_id, timeout)
            await self._respond(writer, 200, {"job": job.to_public()})
        elif sub == "result":
            if job.state not in (DONE, FAILED):
                await self._respond(
                    writer, 409,
                    {"error": f"job is {job.state}", "job": job.to_public()},
                )
            else:
                await self._respond(
                    writer, 200,
                    {"job": job.to_public(), "result": job.result},
                )
        elif sub == "stream":
            await self._stream(writer, job_id)
        else:
            await self._respond(writer, 404, {"error": f"no route {path}"})

    async def _stream(self, writer, job_id: str) -> None:
        """NDJSON status updates until the job is terminal."""
        writer.write(
            b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: application/x-ndjson\r\n"
            b"Connection: close\r\n\r\n"
        )
        await writer.drain()
        last = None
        deadline = asyncio.get_event_loop().time() + MAX_WAIT
        while True:
            job = self.engine.get(job_id)
            if job is None:
                break
            snapshot = job.to_public()
            snapshot.pop("deadline_in", None)  # keep updates comparable
            if snapshot != last:
                last = snapshot
                writer.write(
                    json.dumps(snapshot, sort_keys=True).encode() + b"\n"
                )
                await writer.drain()
            # The snapshot's state, not the live one: a job that ends
            # after the snapshot was taken gets one more, terminal line.
            if snapshot["state"] in (DONE, FAILED):
                break
            if asyncio.get_event_loop().time() > deadline:
                break
            await asyncio.sleep(0.1)

    # ------------------------------------------------------------------
    # Response helpers
    # ------------------------------------------------------------------
    async def _call(self, fn, *args):
        """Run a (possibly blocking) engine call off the event loop."""
        return await asyncio.get_event_loop().run_in_executor(
            None, lambda: fn(*args)
        )

    async def _respond(
        self, writer, code: int, payload: dict,
        extra_headers: Optional[list] = None,
    ) -> None:
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        await self._respond_raw(
            writer, code, body,
            content_type="application/json",
            extra_headers=extra_headers,
        )

    async def _respond_raw(
        self, writer, code: int, body: bytes,
        content_type: str = "application/json",
        extra_headers: Optional[list] = None,
    ) -> None:
        head = [
            f"HTTP/1.1 {code} {_REASONS.get(code, 'Unknown')}",
            f"Content-Type: {content_type}",
            f"Content-Length: {len(body)}",
            "Connection: close",
        ]
        for name, value in extra_headers or []:
            head.append(f"{name}: {value}")
        writer.write(
            ("\r\n".join(head) + "\r\n\r\n").encode("ascii") + body
        )
        await writer.drain()


def serve_blocking(
    engine: VerificationService,
    host: str = "127.0.0.1",
    port: int = 0,
    ready_message=None,
) -> int:
    """The ``repro serve`` main loop: serve, drain on SIGTERM, exit 0.

    Starts the engine (whose preemption region owns SIGTERM/SIGINT),
    serves until a drain begins, then stops the engine gracefully —
    in-flight campaigns stop at a spec boundary, the journals flush,
    and unfinished accepted jobs await the next incarnation.  Returns
    the process exit code: 0 for a clean drain, 1 when workers had to
    be abandoned.
    """
    engine.start()
    server = ServiceServer(engine, host=host, port=port)

    async def _main() -> None:
        await server.start()
        if ready_message is not None:
            ready_message(server.host, server.port)
        await server.serve_until_drained()

    try:
        asyncio.run(_main())
    except KeyboardInterrupt:
        # A second signal escalated past graceful; still try to stop.
        engine.stop(drain=True, timeout=5.0)
        return 1
    clean = engine.stop(drain=True)
    return 0 if clean else 1
