"""``repro.obs`` — the runtime metrics and progress subsystem.

The package exposes one process-wide registry, :data:`METRICS`,
disabled by default.  Instrumentation sites across the tree guard
themselves with ``if METRICS.enabled:`` (one attribute load, one falsy
branch — the Tracer's overhead discipline), so a tree that never calls
:func:`enable_metrics` pays nothing measurable.

Quick tour::

    from repro.obs import METRICS, enable_metrics

    enable_metrics()                  # also sets REPRO_OBS for workers
    ... run a campaign ...
    snap = METRICS.snapshot()
    print(to_prometheus(snap))

Exporters (:func:`write_prometheus`, :class:`FlightRecorder`) and the
snapshot reader (:func:`load_snapshot`) live in :mod:`repro.obs.export`;
the campaign heartbeat (:class:`ProgressReporter`) in
:mod:`repro.obs.progress`.
"""

from __future__ import annotations

import os

from repro.obs.export import (
    FlightRecorder,
    load_snapshot,
    to_prometheus,
    write_prometheus,
)
from repro.obs.progress import ProgressReporter, coerce_progress
from repro.obs.registry import (
    ENV_FLAG,
    MetricsRegistry,
    Snapshot,
    exponential_buckets,
)

#: The process-wide registry every instrumentation site bumps.
METRICS = MetricsRegistry()


def enable_metrics(propagate: bool = True) -> MetricsRegistry:
    """Turn :data:`METRICS` on and return it.

    With ``propagate`` (the default) the ``REPRO_OBS`` environment
    variable is set too, so spawn-based pool workers construct their
    registries enabled; fork workers inherit the flag either way.
    """
    METRICS.enable()
    if propagate:
        os.environ[ENV_FLAG] = "1"
    return METRICS


def disable_metrics() -> None:
    """Turn :data:`METRICS` off and clear the worker hand-off."""
    METRICS.disable()
    os.environ.pop(ENV_FLAG, None)


__all__ = [
    "ENV_FLAG",
    "FlightRecorder",
    "METRICS",
    "MetricsRegistry",
    "ProgressReporter",
    "Snapshot",
    "coerce_progress",
    "disable_metrics",
    "enable_metrics",
    "exponential_buckets",
    "load_snapshot",
    "to_prometheus",
    "write_prometheus",
]
