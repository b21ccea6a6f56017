"""Zero-dependency observability: metrics registry, span tracing, exposition.

The package keeps one process-wide :class:`~repro.telemetry.metrics.MetricsRegistry`
and one :class:`~repro.telemetry.tracing.SpanTracer`, both **disabled by default** so
instrumented hot paths are a single attribute check when nobody is watching (the
committed golden trajectories stay byte-identical — telemetry only ever reads clocks,
never RNG state).

Typical use::

    from repro import telemetry

    telemetry.configure(enabled=True, trace_path="spans.jsonl")
    with telemetry.span("my_phase", category="engine"):
        ...
    print(telemetry.get_registry().snapshot())

Child processes started with the ``spawn`` method do not inherit in-process
configuration, so :func:`configure` mirrors the switch into the ``REPRO_TELEMETRY`` /
``REPRO_TRACE_FILE`` environment variables and this module re-applies them at import
time.  Fork-started children (the scheduler default on Linux) inherit both the flag
and the sink path directly.
"""

from __future__ import annotations

import os

from repro.telemetry.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    quantile_from_buckets,
)
from repro.telemetry.tracing import (
    Span,
    SpanTracer,
    chrome_trace_events,
    load_spans,
    write_chrome_trace,
)
from repro.telemetry.exporter import (
    METRICS_FILENAME,
    METRICS_HEADERS,
    metrics_table_rows,
    read_snapshot,
    render_prometheus,
    snapshot_payload,
    write_snapshot,
)

__all__ = [
    "DEFAULT_BUCKETS",
    "ENV_ENABLED",
    "ENV_TRACE_FILE",
    "METRICS_FILENAME",
    "METRICS_HEADERS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Span",
    "SpanTracer",
    "chrome_trace_events",
    "configure",
    "counter",
    "enabled",
    "gauge",
    "get_registry",
    "get_tracer",
    "histogram",
    "load_spans",
    "metrics_table_rows",
    "quantile_from_buckets",
    "read_snapshot",
    "render_prometheus",
    "reset",
    "snapshot_payload",
    "span",
    "write_chrome_trace",
    "write_snapshot",
]

ENV_ENABLED = "REPRO_TELEMETRY"
ENV_TRACE_FILE = "REPRO_TRACE_FILE"

_TRUTHY = {"1", "true", "yes", "on"}

_UNSET = object()

_REGISTRY = MetricsRegistry(enabled=False)
_TRACER = SpanTracer(registry=_REGISTRY, enabled=False)


def configure(enabled: bool | None = None, trace_path=_UNSET, propagate_env: bool = True):
    """Flip the process-wide telemetry switch and (optionally) attach a span sink.

    ``enabled=None`` leaves the current switch untouched; ``trace_path`` accepts a
    path (enable the JSONL sink), ``None`` (detach it), or may be omitted entirely.
    With ``propagate_env`` (the default) the settings are mirrored into the
    ``REPRO_TELEMETRY`` / ``REPRO_TRACE_FILE`` environment variables so spawned child
    processes pick them up at import time.
    """
    if enabled is not None:
        _REGISTRY.enabled = bool(enabled)
        _TRACER.enabled = bool(enabled)
        if propagate_env:
            if enabled:
                os.environ[ENV_ENABLED] = "1"
            else:
                os.environ.pop(ENV_ENABLED, None)
    if trace_path is not _UNSET:
        _TRACER.set_sink(trace_path)
        if propagate_env:
            if trace_path is not None:
                os.environ[ENV_TRACE_FILE] = str(trace_path)
            else:
                os.environ.pop(ENV_TRACE_FILE, None)


def enabled() -> bool:
    """True when the process-wide registry/tracer are recording."""
    return _REGISTRY.enabled


def get_registry() -> MetricsRegistry:
    """The process-wide metrics registry (disabled by default)."""
    return _REGISTRY


def get_tracer() -> SpanTracer:
    """The process-wide span tracer (disabled by default)."""
    return _TRACER


def counter(name: str, help: str = "") -> Counter:
    return _REGISTRY.counter(name, help=help)


def gauge(name: str, help: str = "") -> Gauge:
    return _REGISTRY.gauge(name, help=help)


def histogram(name: str, help: str = "", buckets=None) -> Histogram:
    return _REGISTRY.histogram(name, help=help, buckets=buckets)


def span(name: str, category: str = "app", **attrs):
    """Shortcut for ``get_tracer().span(...)``."""
    return _TRACER.span(name, category=category, **attrs)


def reset(disable: bool = True) -> None:
    """Drop all metrics and spans, detach the sink, optionally disable (tests)."""
    _REGISTRY.reset()
    _TRACER.reset()
    if disable:
        configure(enabled=False, trace_path=None, propagate_env=True)


def _apply_environment() -> None:
    flag = os.environ.get(ENV_ENABLED, "").strip().lower()
    if flag in _TRUTHY:
        trace_file = os.environ.get(ENV_TRACE_FILE) or None
        if trace_file is not None:
            configure(enabled=True, trace_path=trace_file, propagate_env=False)
        else:
            configure(enabled=True, propagate_env=False)


_apply_environment()
