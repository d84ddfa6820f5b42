"""Exporters for the metrics registry.

Three ways out of the process, all stdlib-only:

* :func:`to_prometheus` / :func:`write_prometheus` — the Prometheus
  text exposition format (``# HELP`` / ``# TYPE`` headers, cumulative
  ``_bucket{le=...}`` series for histograms), written to a file so any
  scraper-less workflow can still diff snapshots.
* :func:`serve_metrics` — a tiny ``ThreadingHTTPServer`` exposing
  ``/metrics`` for a real scraper, daemonised so it never blocks exit.
* :class:`FlightRecorder` — a daemon thread that appends a registry
  snapshot to a JSONL file every ``interval`` seconds, so a campaign
  that gets SIGKILLed still leaves a time series behind.  ``stop()``
  writes one final sample, which is the one asserted against
  ``CampaignMetrics`` in CI.

:func:`load_snapshot` is the matching reader: it accepts a snapshot
JSON, a flight-recorder JSONL (last sample wins), or a ``.prom`` text
file, which is what lets ``repro metrics diff`` compare any two
artifacts regardless of how they were produced.
"""

from __future__ import annotations

import json
import threading
import time
from pathlib import Path
from typing import TYPE_CHECKING, List, Optional, Tuple, Union

from repro.obs.registry import (
    COUNTER,
    GAUGE,
    HISTOGRAM,
    MetricsRegistry,
    Snapshot,
)

if TYPE_CHECKING:  # pragma: no cover
    from http.server import ThreadingHTTPServer


def _sanitize(name: str) -> str:
    return "".join(
        ch if ch.isalnum() or ch == "_" else "_" for ch in name
    )


def _fmt(value: float) -> str:
    if isinstance(value, float) and value == int(value):
        return str(int(value))
    return repr(value) if isinstance(value, float) else str(value)


def to_prometheus(source: Union[Snapshot, MetricsRegistry]) -> str:
    """Render a snapshot in the Prometheus text exposition format."""
    snap = source.snapshot() if isinstance(source, MetricsRegistry) else source
    lines: List[str] = []
    for name in snap.names():
        metric = snap.data[name]
        pname = _sanitize(name)
        if metric.get("help"):
            lines.append(f"# HELP {pname} {metric['help']}")
        lines.append(f"# TYPE {pname} {metric['type']}")
        for key, value in sorted(metric["samples"].items()):
            if metric["type"] == HISTOGRAM:
                cumulative = 0
                for bound, count in value["buckets"].items():
                    cumulative += count
                    le = f'le="{bound}"'
                    labelled = f"{key},{le}" if key else le
                    lines.append(
                        f"{pname}_bucket{{{labelled}}} {cumulative}"
                    )
                suffix = f"{{{key}}}" if key else ""
                lines.append(f"{pname}_sum{suffix} {_fmt(value['sum'])}")
                lines.append(f"{pname}_count{suffix} {value['count']}")
            else:
                suffix = f"{{{key}}}" if key else ""
                lines.append(f"{pname}{suffix} {_fmt(value)}")
    return "\n".join(lines) + ("\n" if lines else "")


def write_prometheus(
    path: Union[str, Path], source: Union[Snapshot, MetricsRegistry]
) -> Path:
    """Write the text exposition to ``path`` and return it."""
    path = Path(path)
    path.write_text(to_prometheus(source))
    return path


def parse_prometheus(text: str) -> Snapshot:
    """Parse text exposition back into a :class:`Snapshot`.

    Covers the subset :func:`to_prometheus` emits (which is all
    ``repro metrics diff`` needs): per-series ``# TYPE`` lines,
    optional labels, histogram ``_bucket``/``_sum``/``_count`` series
    with cumulative counts.
    """
    data: dict = {}
    types: dict = {}
    helps: dict = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith("# TYPE "):
            _, _, rest = line.partition("# TYPE ")
            mname, _, mtype = rest.partition(" ")
            types[mname] = mtype.strip()
            continue
        if line.startswith("# HELP "):
            _, _, rest = line.partition("# HELP ")
            mname, _, mhelp = rest.partition(" ")
            helps[mname] = mhelp.strip()
            continue
        if line.startswith("#"):
            continue
        series, _, value_str = line.rpartition(" ")
        name, key = _split_series(series)
        value = float(value_str)
        base, part = _histogram_part(name, types)
        if base is not None:
            metric = _ensure(data, base, HISTOGRAM, helps.get(base, ""))
            if part == "bucket":
                labels = dict(
                    item.split("=", 1) for item in key.split(",") if item
                ) if key else {}
                bound = labels.pop("le").strip('"')
                child_key = ",".join(
                    f"{k}={v}" for k, v in sorted(labels.items())
                )
                child = metric["samples"].setdefault(
                    child_key, {"count": 0, "sum": 0.0, "buckets": {}}
                )
                child["buckets"][bound] = value
            else:
                child = metric["samples"].setdefault(
                    key, {"count": 0, "sum": 0.0, "buckets": {}}
                )
                child[part] = value if part == "sum" else int(value)
        else:
            kind = types.get(name, COUNTER if name.endswith("_total")
                             else GAUGE)
            metric = _ensure(data, name, kind, helps.get(name, ""))
            metric["samples"][key] = value
    for metric in data.values():  # cumulative -> non-cumulative counts
        if metric["type"] != HISTOGRAM:
            continue
        for child in metric["samples"].values():
            prev = 0
            decum = {}
            for bound, cum in child["buckets"].items():
                decum[bound] = int(cum - prev)
                prev = cum
            child["buckets"] = decum
    return Snapshot(data)


def _split_series(series: str) -> Tuple[str, str]:
    if "{" not in series:
        return series, ""
    name, _, rest = series.partition("{")
    return name, rest.rstrip("}")


def _histogram_part(name, types) -> Tuple[Optional[str], Optional[str]]:
    for suffix in ("_bucket", "_sum", "_count"):
        if name.endswith(suffix):
            base = name[: -len(suffix)]
            if types.get(base) == HISTOGRAM:
                return base, suffix[1:]
    return None, None


def _ensure(data: dict, name: str, kind: str, help_text: str) -> dict:
    return data.setdefault(
        name, {"type": kind, "help": help_text, "samples": {}}
    )


def load_snapshot(path: Union[str, Path]) -> Snapshot:
    """Load a snapshot from any artifact this module can write.

    Accepts a ``.prom`` text exposition, a flight-recorder JSONL
    (the last line's sample wins), or a plain snapshot JSON dict.
    """
    path = Path(path)
    text = path.read_text()
    stripped = text.lstrip()
    if not stripped:
        return Snapshot()
    if stripped[0] != "{":
        return parse_prometheus(text)
    try:
        # A whole-file JSON document (possibly pretty-printed).
        payload = json.loads(text)
    except json.JSONDecodeError:
        # JSONL: one record per line, the last sample wins.
        lines = [line for line in text.splitlines() if line.strip()]
        payload = json.loads(lines[-1])
    if "sample" in payload:  # flight-recorder record
        return Snapshot.from_dict(payload["sample"])
    return Snapshot.from_dict(payload)


class FlightRecorder:
    """Periodic registry snapshots appended to a JSONL file.

    Each line is ``{"seq": N, "elapsed_s": S, "sample": {...}}``.  The
    recorder is a daemon thread — a SIGKILL loses at most the last
    ``interval`` seconds of change; :meth:`stop` flushes a final
    sample so orderly shutdowns always capture the end state.
    """

    def __init__(
        self,
        path: Union[str, Path],
        registry: MetricsRegistry,
        interval: float = 1.0,
    ):
        self.path = Path(path)
        self.registry = registry
        self.interval = max(0.05, float(interval))
        self.samples_written = 0
        self._started = time.monotonic()
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    def start(self) -> "FlightRecorder":
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.path.write_text("")  # truncate: one flight per recorder
        self._started = time.monotonic()
        self._thread = threading.Thread(
            target=self._run, name="repro-flight-recorder", daemon=True
        )
        self._thread.start()
        return self

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            self._sample()

    def _sample(self) -> None:
        record = {
            "seq": self.samples_written,
            "elapsed_s": round(time.monotonic() - self._started, 3),
            "sample": self.registry.snapshot().to_dict(),
        }
        with self.path.open("a") as handle:
            handle.write(json.dumps(record) + "\n")
            handle.flush()
        self.samples_written += 1

    def stop(self) -> None:
        """Stop sampling and append one final end-state sample."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        self._sample()

    def __enter__(self) -> "FlightRecorder":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()


class MetricsServer:
    """A running ``/metrics`` endpoint; ``port`` is the bound port."""

    def __init__(self, server: "ThreadingHTTPServer"):
        self._server = server
        self.port = server.server_address[1]
        self._thread = threading.Thread(
            target=server.serve_forever, name="repro-metrics-http",
            daemon=True,
        )
        self._thread.start()

    def stop(self) -> None:
        self._server.shutdown()
        self._server.server_close()
        self._thread.join(timeout=5.0)


def serve_metrics(
    registry: MetricsRegistry, port: int = 0, host: str = "127.0.0.1"
) -> MetricsServer:
    """Serve ``registry`` at ``http://host:port/metrics`` (0 = ephemeral).

    ``http.server`` is imported here, not at package import: only a
    live endpoint needs it.
    """
    from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

    class MetricsHandler(BaseHTTPRequestHandler):
        def do_GET(self):  # noqa: N802 - http.server API
            if self.path.rstrip("/") not in ("", "/metrics"):
                self.send_error(404)
                return
            body = to_prometheus(registry).encode()
            self.send_response(200)
            self.send_header(
                "Content-Type", "text/plain; version=0.0.4; charset=utf-8"
            )
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def log_message(self, *args):  # silence per-request stderr spam
            pass

    return MetricsServer(ThreadingHTTPServer((host, port), MetricsHandler))
