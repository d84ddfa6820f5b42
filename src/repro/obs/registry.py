"""A process-wide metrics registry: counters, gauges, histograms.

The registry follows the Tracer's overhead discipline: a single public
``enabled`` flag, ``False`` by default, and every instrumentation site
in the tree guards itself with ``if METRICS.enabled:`` — one attribute
load and one falsy branch when observability is off.  Nothing here is
imported into a hot loop; sites bump counters at natural boundaries
(end of a simulated run, end of a search, a cache probe).

Metrics are identified by a Prometheus-style name and an optional label
set; the same name must always be used with the same metric type.  A
:meth:`MetricsRegistry.snapshot` is a plain-dict, JSON- and pickle-safe
view of every sample, and snapshots support :meth:`Snapshot.diff` — the
primitive that lets campaign workers ship *deltas* back to the parent
process (a before/after diff cancels whatever baseline the worker
inherited from a fork) where :meth:`MetricsRegistry.merge` folds them
in.

Enablement crosses process boundaries through the ``REPRO_OBS``
environment variable: a registry constructed in a spawn worker starts
enabled when the variable is set, and fork workers simply inherit the
parent's flag.
"""

from __future__ import annotations

import math
import os
import threading
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

#: Setting this env var to a non-empty value other than ``0`` enables
#: every registry constructed afterwards — the hand-off that lets
#: spawn-based pool workers come up observable.
ENV_FLAG = "REPRO_OBS"

COUNTER = "counter"
GAUGE = "gauge"
HISTOGRAM = "histogram"


def _number(value) -> bool:
    return isinstance(value, (int, float))


#: Whether a value is one sample of each metric type (see :class:`Snapshot`).
_IS_SAMPLE = {
    COUNTER: _number,
    GAUGE: _number,
    HISTOGRAM: lambda value: isinstance(value, dict)
    and {"count", "sum", "buckets"} <= value.keys(),
}

_INF = float("inf")


def exponential_buckets(
    start: float, factor: float, count: int
) -> Tuple[float, ...]:
    """``count`` bucket upper bounds growing geometrically from ``start``.

    The implicit ``+Inf`` overflow bucket is appended by the histogram
    itself, so ``exponential_buckets(1, 2, 4)`` yields bounds
    ``(1, 2, 4, 8)`` and observations above 8 land in ``+Inf``.
    """
    if start <= 0 or factor <= 1 or count < 1:
        raise ValueError("need start > 0, factor > 1, count >= 1")
    bounds = []
    bound = float(start)
    for _ in range(count):
        bounds.append(bound)
        bound *= factor
    return tuple(bounds)


#: Default bounds: sub-100µs latencies through multi-second stalls.
DEFAULT_BUCKETS = exponential_buckets(0.0001, 4.0, 8)


def format_bound(bound: float) -> str:
    """Render a bucket bound the way Prometheus text exposition does."""
    if math.isinf(bound):
        return "+Inf"
    if bound == int(bound):
        return str(int(bound))
    return repr(bound)


def label_key(labels: Dict[str, str]) -> str:
    """Canonical ``k="v"`` label string (empty for the unlabeled child)."""
    if not labels:
        return ""
    return ",".join(
        f'{name}="{value}"' for name, value in sorted(labels.items())
    )


class _Histogram:
    """Per-child histogram state: non-cumulative counts plus a sum."""

    __slots__ = ("counts", "sum")

    def __init__(self, n_buckets: int):
        self.counts = [0] * n_buckets
        self.sum = 0.0


class _Metric:
    """One named family: a type, help text, and labeled children."""

    __slots__ = ("name", "kind", "help", "bounds", "samples")

    def __init__(
        self,
        name: str,
        kind: str,
        help_text: str,
        bounds: Optional[Sequence[float]] = None,
    ):
        self.name = name
        self.kind = kind
        self.help = help_text
        if kind == HISTOGRAM:
            raw = tuple(bounds) if bounds else DEFAULT_BUCKETS
            if list(raw) != sorted(raw):
                raise ValueError(f"{name}: bucket bounds must ascend")
            self.bounds: Tuple[float, ...] = tuple(raw) + (_INF,)
        else:
            self.bounds = ()
        # label_key -> float (counter/gauge) or _Histogram
        self.samples: Dict[str, Union[float, _Histogram]] = {}


class Snapshot:
    """A frozen, JSON-serialisable view of a registry's samples.

    ``data`` maps metric name to ``{"type", "help", "samples"}`` where
    ``samples`` maps a canonical label string (``""`` when unlabeled)
    to either a number (counter/gauge) or, for histograms,
    ``{"count", "sum", "buckets": {bound: non_cumulative_count}}``
    with Prometheus-formatted bound strings (``"+Inf"`` last).
    """

    __slots__ = ("data",)

    def __init__(self, data: Optional[dict] = None):
        self.data = data if data is not None else {}

    def __bool__(self) -> bool:
        return bool(self.data)

    def __eq__(self, other) -> bool:
        return isinstance(other, Snapshot) and self.data == other.data

    def to_dict(self) -> dict:
        return self.data

    @classmethod
    def from_dict(cls, data: dict) -> "Snapshot":
        """The snapshot :meth:`to_dict` gave; ValueError for anything
        else: every entry needs a known ``type``, a ``help`` string and a
        ``samples`` dict holding that type's samples."""
        if not isinstance(data, dict):
            raise ValueError(f"a snapshot is an object, not {data!r}")
        for name, metric in data.items():
            kind = metric.get("type") if isinstance(metric, dict) else None
            samples = metric.get("samples") if kind in _IS_SAMPLE else None
            if (
                not isinstance(samples, dict)
                or not isinstance(metric.get("help"), str)
                or not all(map(_IS_SAMPLE[kind], samples.values()))
            ):
                raise ValueError(
                    f"{name!r} is not a metric with a known type, help "
                    f"and samples"
                )
        return cls(dict(data))

    def value(self, name: str, **labels) -> Optional[Union[float, dict]]:
        """The sample for ``name``/``labels`` or None (test convenience)."""
        metric = self.data.get(name)
        if metric is None:
            return None
        return metric["samples"].get(label_key(labels))

    def names(self) -> List[str]:
        return sorted(self.data)

    def diff(self, before: "Snapshot") -> "Snapshot":
        """What happened since ``before`` (an earlier snapshot).

        Counters and histograms subtract; gauges keep their current
        value (a gauge *is* its latest reading).  Samples that did not
        change are dropped, so worker deltas stay small on the wire.
        """
        out: dict = {}
        for name, metric in self.data.items():
            old = before.data.get(name, {"samples": {}})
            samples: dict = {}
            for key, value in metric["samples"].items():
                prev = old["samples"].get(key)
                if metric["type"] == HISTOGRAM:
                    delta = _hist_diff(value, prev)
                    if delta is not None:
                        samples[key] = delta
                elif metric["type"] == GAUGE:
                    if prev is None or prev != value:
                        samples[key] = value
                else:
                    changed = value - (prev if prev is not None else 0)
                    if changed:
                        samples[key] = changed
            if samples:
                out[name] = {
                    "type": metric["type"],
                    "help": metric["help"],
                    "samples": samples,
                }
        return Snapshot(out)


def _hist_diff(value: dict, prev: Optional[dict]) -> Optional[dict]:
    if prev is None:
        return value if value["count"] else None
    count = value["count"] - prev["count"]
    if not count:
        return None
    return {
        "count": count,
        "sum": value["sum"] - prev["sum"],
        "buckets": {
            bound: value["buckets"][bound] - prev["buckets"].get(bound, 0)
            for bound in value["buckets"]
        },
    }


class MetricsRegistry:
    """Counters, gauges, and histograms behind one ``enabled`` branch."""

    def __init__(self, enabled: Optional[bool] = None):
        if enabled is None:
            enabled = os.environ.get(ENV_FLAG, "") not in ("", "0")
        self.enabled = bool(enabled)
        self._metrics: Dict[str, _Metric] = {}
        self._lock = threading.Lock()

    # -- enablement -------------------------------------------------

    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    # -- updates ----------------------------------------------------

    def inc(
        self, name: str, amount: float = 1, help: str = "", **labels
    ) -> None:
        """Add ``amount`` to the counter ``name`` (created on first use)."""
        metric = self._get_or_create(name, COUNTER, help)
        key = label_key(labels)
        metric.samples[key] = metric.samples.get(key, 0) + amount

    def set_gauge(
        self, name: str, value: float, help: str = "", **labels
    ) -> None:
        """Set the gauge ``name`` to ``value`` (last write wins)."""
        metric = self._get_or_create(name, GAUGE, help)
        metric.samples[label_key(labels)] = value

    def observe(
        self,
        name: str,
        value: float,
        help: str = "",
        buckets: Optional[Sequence[float]] = None,
        **labels,
    ) -> None:
        """Record ``value`` into the histogram ``name``."""
        metric = self._get_or_create(name, HISTOGRAM, help, buckets)
        key = label_key(labels)
        hist = metric.samples.get(key)
        if hist is None:
            with self._lock:
                hist = metric.samples.setdefault(
                    key, _Histogram(len(metric.bounds))
                )
        for i, bound in enumerate(metric.bounds):
            if value <= bound:
                hist.counts[i] += 1
                break
        hist.sum += value

    def _get_or_create(
        self,
        name: str,
        kind: str,
        help_text: str,
        bounds: Optional[Sequence[float]] = None,
    ) -> _Metric:
        metric = self._metrics.get(name)
        if metric is None:
            with self._lock:
                metric = self._metrics.get(name)
                if metric is None:
                    metric = _Metric(name, kind, help_text, bounds)
                    self._metrics[name] = metric
        if metric.kind != kind:
            raise TypeError(
                f"metric {name!r} is a {metric.kind}, not a {kind}"
            )
        return metric

    # -- reads ------------------------------------------------------

    def value(self, name: str, **labels) -> Optional[Union[float, dict]]:
        """Current sample for ``name``/``labels`` (test convenience)."""
        return self.snapshot().value(name, **labels)

    def snapshot(self) -> Snapshot:
        """A deep, JSON-safe copy of every sample, safe to pickle."""
        out: dict = {}
        with self._lock:
            metrics = list(self._metrics.values())
        for metric in metrics:
            samples: dict = {}
            for key, value in list(metric.samples.items()):
                if metric.kind == HISTOGRAM:
                    counts = list(value.counts)
                    samples[key] = {
                        "count": sum(counts),
                        "sum": value.sum,
                        "buckets": {
                            format_bound(bound): counts[i]
                            for i, bound in enumerate(metric.bounds)
                        },
                    }
                else:
                    samples[key] = value
            out[metric.name] = {
                "type": metric.kind,
                "help": metric.help,
                "samples": samples,
            }
        return Snapshot(out)

    # -- aggregation ------------------------------------------------

    def merge(self, delta: Union[Snapshot, dict]) -> None:
        """Fold a :meth:`Snapshot.diff` delta into this registry.

        Counters and histogram counts add; gauges take the delta's
        value.  This is how worker-side observations survive the worker
        process: ship the diff home, merge it here.
        """
        data = delta.data if isinstance(delta, Snapshot) else delta
        for name, metric in data.items():
            kind = metric["type"]
            for key, value in metric["samples"].items():
                labels = _parse_label_key(key)
                if kind == COUNTER:
                    self.inc(name, value, help=metric.get("help", ""), **labels)
                elif kind == GAUGE:
                    self.set_gauge(
                        name, value, help=metric.get("help", ""), **labels
                    )
                else:
                    self._merge_histogram(
                        name, metric.get("help", ""), value, labels
                    )

    def _merge_histogram(
        self, name: str, help_text: str, value: dict, labels: dict
    ) -> None:
        bounds = [
            _INF if b == "+Inf" else float(b) for b in value["buckets"]
        ]
        target = self._get_or_create(name, HISTOGRAM, help_text, bounds[:-1])
        if list(target.bounds) != bounds:
            raise ValueError(f"metric {name!r}: bucket bounds disagree")
        key = label_key(labels)
        hist = target.samples.get(key)
        if hist is None:
            with self._lock:
                hist = target.samples.setdefault(
                    key, _Histogram(len(target.bounds))
                )
        for i, count in enumerate(value["buckets"].values()):
            hist.counts[i] += count
        hist.sum += value["sum"]

    def reset(self) -> None:
        """Drop every metric (tests); enablement is untouched."""
        with self._lock:
            self._metrics.clear()


def _parse_label_key(key: str) -> Dict[str, str]:
    if not key:
        return {}
    labels = {}
    for part in key.split(","):
        name, _, value = part.partition("=")
        labels[name] = value.strip('"')
    return labels
