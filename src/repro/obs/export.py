"""Exporters for the metrics registry.

Two ways out of the process, both stdlib-only, both written by the
CLI's ``--metrics-out DIR``:

* :func:`to_prometheus` / :func:`write_prometheus` — the Prometheus
  text exposition format (``# HELP`` / ``# TYPE`` headers, cumulative
  ``_bucket{le=...}`` series for histograms).  It is an export format
  only: nothing in the package reads it back.
* :class:`FlightRecorder` — a daemon thread that appends a registry
  snapshot to a JSONL file every ``interval`` seconds, so a campaign
  that gets SIGKILLed still leaves a time series behind.  ``stop()``
  writes one final sample, which is the one asserted against
  ``CampaignMetrics`` in CI.

:func:`load_snapshot` is the matching reader: it accepts a snapshot
JSON or a flight-recorder JSONL (last sample wins), which is what
``repro metrics show``/``diff``/``export`` take.
"""

from __future__ import annotations

import json
import threading
import time
from pathlib import Path
from typing import List, Optional, Union

from repro.obs.registry import HISTOGRAM, MetricsRegistry, Snapshot


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


def load_snapshot(path: Union[str, Path]) -> Snapshot:
    """Load a snapshot from a snapshot JSON dict or a flight-recorder
    JSONL (the last line's sample wins); ValueError for anything else,
    a ``.prom`` text exposition included.
    """
    text = Path(path).read_text()
    stripped = text.lstrip()
    if not stripped:
        return Snapshot()
    if stripped[0] != "{":
        raise ValueError(
            "not a snapshot JSON or flight-recorder JSONL "
            "(.prom text is written, never read)"
        )
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
